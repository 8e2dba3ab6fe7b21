"""``python -m factorpack``: the command-line front end, as the ``factorpack`` script."""

from .cli import main

if __name__ == "__main__":
    main()
