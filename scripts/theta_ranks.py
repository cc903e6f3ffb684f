#!/usr/bin/env python3
"""Record observed ranks of the shifted-power Wronskian family.

For nonzero theta, the family Wronsk(x_{n_1}, (theta+t) x_{n_2}, ...,
(theta+t)^{d-1} x_{n_d}) over all index tuples spans a substitution-invariant
subspace whose dimension is expected, but not known, to be (N+1)^d for generic
theta.  This script only records what exact computation finds.
"""

import argparse
import itertools
import sys
from fractions import Fraction

from diffhom.dpoly import UniPoly, span_rank
from diffhom.wronskian import WronskSpec, build_wronskian


def theta_family_rank(n: int, d: int, theta: Fraction) -> int:
    """Observed rank of the family Wronsk(x_{n_1}, (theta+t) x_{n_2}, ...,
    (theta+t)^{d-1} x_{n_d}) over all index tuples; reported, never asserted."""
    theta = Fraction(theta)
    if theta == 0:
        raise ValueError("theta must be nonzero")
    polys = []
    for tup in itertools.product(range(n + 1), repeat=d):
        spec = WronskSpec(tuple((UniPoly.shifted_power(theta, j), v)
                                for j, v in enumerate(tup)))
        polys.append(build_wronskian(spec, n))
    return span_rank(polys)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=2)
    ap.add_argument("--max-d", type=int, default=3)
    ap.add_argument("--theta", type=Fraction, nargs="*",
                    default=[Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)])
    args = ap.parse_args()

    print("N,d,theta,observed_rank,full_dimension")
    for n in range(0, args.max_n + 1):
        for d in range(1, args.max_d + 1):
            for theta in args.theta:
                r = theta_family_rank(n, d, theta)
                print(f"{n},{d},{theta},{r},{(n + 1) ** d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
