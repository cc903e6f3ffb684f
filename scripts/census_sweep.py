#!/usr/bin/env python3
"""Sweep the jet-differential census over a grid of (N, d, k) and emit CSV.

Row format: N,d,k,n,count -- one row per nonzero weight-n dimension of the
order <= k part of the degree-d space on projective N-space.  Pairs whose
census costs more than the default cap of `dh census` (`cli.census_cost`)
are skipped.
"""

import argparse
import sys

from diffhom.cli import CENSUS_MAX_COST, census_cost
from diffhom.jets import census


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=2)
    ap.add_argument("--max-d", type=int, default=4)
    ap.add_argument("--extra-k", type=int, default=1,
                    help="how far above d-1 to sweep k (stability is visible)")
    args = ap.parse_args()

    print("N,d,k,n,count")
    for n in range(0, args.max_n + 1):
        for d in range(1, args.max_d + 1):
            if census_cost(n, d, CENSUS_MAX_COST) > CENSUS_MAX_COST:
                continue
            for k in range(0, d + args.extra_k):
                for e in census(n, d, k):
                    print(f"{n},{d},{e.k},{e.n},{e.count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
