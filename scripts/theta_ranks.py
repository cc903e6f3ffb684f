#!/usr/bin/env python3
"""Record observed ranks of the shifted-power Wronskian family.

For nonzero theta, the family Wronsk(x_{n_1}, (theta+t) x_{n_2}, ...,
(theta+t)^{d-1} x_{n_d}) over all index tuples spans a substitution-invariant
subspace whose dimension is expected, but not known, to be (N+1)^d for generic
theta.  This script only records what exact computation finds.  Each member
is a sum of Wronskians of monomial entries t^m x_v (``build_wronskian``), by
multilinearity in the columns.
"""

import argparse
import itertools
import math
import sys
from fractions import Fraction
from typing import Sequence

from diffhom.dpoly import DiffPoly, span_rank
from diffhom.exact import linear_combination
from diffhom.wronskian import build_wronskian


def shifted_wronskian(variables: Sequence[int], theta: Fraction, n: int) -> DiffPoly:
    """Wronsk(x_{v_1}, (theta+t) x_{v_2}, ..., (theta+t)^{d-1} x_{v_d}) in
    x_0..x_n, for the v_j in ``variables``.  Column j holds
    (theta+t)^j = sum_m C(j, m) theta^(j-m) t^m, so the Wronskian is the sum,
    over every (m_0, ..., m_{d-1}) with m_j <= j, of
    prod_j C(j, m_j) theta^(j-m_j) times the Wronskian of (t^m_j x_{v_j}).
    A term in which two columns share one (m_j, v_j) has two equal columns,
    so it is zero and is skipped."""
    theta = Fraction(theta)
    terms = []
    for ms in itertools.product(*(range(j + 1) for j in range(len(variables)))):
        pairs = tuple(zip(ms, variables))
        if len(set(pairs)) == len(pairs):
            terms.append((math.prod(math.comb(j, m) * theta ** (j - m) for j, m in enumerate(ms)),
                          build_wronskian(pairs, n)))
    return linear_combination(DiffPoly.zero(n), terms)


def theta_family_rank(n: int, d: int, theta: Fraction) -> int:
    """Observed rank of the family Wronsk(x_{n_1}, (theta+t) x_{n_2}, ...,
    (theta+t)^{d-1} x_{n_d}) over all index tuples; reported, never asserted."""
    theta = Fraction(theta)
    if theta == 0:
        raise ValueError("theta must be nonzero")
    return span_rank([shifted_wronskian(tup, theta, n)
                      for tup in itertools.product(range(n + 1), repeat=d)])


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
