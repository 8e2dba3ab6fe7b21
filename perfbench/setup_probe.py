"""Set-up probe: time importing factorpack plus one small request in a fresh process.

Usage: python3 setup_probe.py <src-dir>; prints the elapsed seconds.
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from factorpack.coloring import certificate_from_realization
    from factorpack.factorize import half_k_realization
    from factorpack.oracle import verify_certificate
    from factorpack.serialize import certificate_to_json

    pi, k = [6] * 16, 4
    cert = certificate_from_realization(half_k_realization(pi, k), "half-k", k)
    if not verify_certificate(pi, k, cert).passed:
        sys.exit("warm-up certificate failed verification")
    certificate_to_json(cert)
    print(time.perf_counter() - started)
