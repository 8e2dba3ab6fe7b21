#!/usr/bin/env python3
"""Walkthrough: trading the residual factor for floor(k/2) + 2 one-factors.

After peeling four 1-factors (three when k is odd), the residual has even
degree and splits into 2-factors (Euler orientation plus maximum
matching).  Each 2-factor is then converted into a 1-factor: even cycles alternate directly, odd cycle pairs
get bridged by a black edge, and when no black bridge exists a black-mode
multi-switch creates one.  Leftover edges turn black; nothing regular is
promised about them, which is the price of the extra matchings.
"""

from factorpack import half_k_realization, verify_certificate
from factorpack.coloring import certificate_from_realization

for pi, k in [((4,) * 6, 4), ((5,) * 6, 5), ((6,) * 8, 6), ((7,) * 8, 7)]:
    real = half_k_realization(pi, k, seed=0)
    cert = certificate_from_realization(real, "half-k", k)
    report = verify_certificate(pi, k, cert)
    ops = [b.op for b in real.trace.batches]
    print(f"pi = {pi}, k = {k}")
    print(f"  one-factors: {len(cert.one_factors)}  (= floor({k}/2) + 2)")
    print(f"  pipeline ops: {ops}")
    print(f"  verified: {'PASS' if report.passed else report.violations}")
    print()

print("Below k = 4 the guarantee target would exceed k, so the call is refused:")
from factorpack import half_k
from factorpack.errors import KTooSmall

try:
    half_k((2, 2, 2, 2), 2)
except KTooSmall as exc:
    print(" ", exc)
