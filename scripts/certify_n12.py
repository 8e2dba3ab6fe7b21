"""Certify every n = 12 sweep task and count its cycle merges by case-table row and work color.

Usage: python3 scripts/certify_n12.py

Runs ``factorpack sweep --n 12`` in this process (one worker), which builds
the task list once, runs the four-ones or half-k pipeline of every task and
verifies its certificate, then prints the sweep's JSON summary.  Merges are
counted by wrapping ``factorize.merge_odd_cycle_pair``; its ``work`` argument
is RESIDUAL when a peel merges residual cycles and BLACK when a 2-factor
conversion merges black ones.  Exits with the sweep's exit code: 0 when every
certificate verifies.
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from factorpack import cli, factorize  # noqa: E402


def main() -> int:
    merges: Counter = Counter()
    merge = factorize.merge_odd_cycle_pair

    def counting_merge(real, matching, c1, c2, work):
        result = merge(real, matching, c1, c2, work)
        merges[(result[2].resolution, str(work))] += 1
        return result

    factorize.merge_odd_cycle_pair = counting_merge
    try:
        code = cli.run(["sweep", "--n", "12"])
    finally:
        factorize.merge_odd_cycle_pair = merge

    colors = sorted({color for _row, color in merges})
    rows = sorted({row for row, _color in merges}, key=lambda r: -sum(merges[(r, c)] for c in colors))
    print(f"{sum(merges.values())} merges")
    print(f"{'row':<14}{'total':>8}" + "".join(f"{c:>10}" for c in colors))
    for row in rows:
        print(f"{row:<14}{sum(merges[(row, c)] for c in colors):>8}"
              + "".join(f"{merges[(row, c)]:>10}" for c in colors))
    print(f"{'all':<14}{sum(merges.values()):>8}"
          + "".join(f"{sum(v for (_r, c), v in merges.items() if c == col):>10}" for col in colors))
    return code


if __name__ == "__main__":
    sys.exit(main())
