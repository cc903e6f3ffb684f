"""Order/weight classification of the canonical basis and the census of
global sections of twisted jet-differential bundles on projective space.

Every canonical basis element is isobaric, so the weight-n piece of the space
of differentially homogeneous polynomials of degree d splits off cleanly; the
census counts, per jet order k and weight n, the dimension of the subspace of
order at most k: the exact nullity of the coefficient matrix of the monomials
of order exceeding k inside each isobaric block.  One elimination per block,
with the monomials ordered by decreasing jet order, gives it for every k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dpoly import DiffPoly, gradings, mono_order, mono_sort_key
from .exact import ONE, echelon
from .wronskian import CanonicalDatum, enumerate_canonical_basis


@dataclass(frozen=True)
class BasisClassification:
    datum: CanonicalDatum
    order: int
    weight: int
    order_bound: int      # max_i (d - 1 - alpha_i) from the exponent data
    weight_formula: int   # d(d-1)/2 - |alpha|


@dataclass(frozen=True)
class CensusEntry:
    k: int
    n: int
    count: int


def classify_basis(n: int, d: int) -> list[BasisClassification]:
    """Computed order and weight of every canonical basis element, next to the
    closed-form exponent-data values.  The weight formula is exact; the order
    formula is only an upper bound (degenerate data can cancel the top order),
    so discrepancies are reported by the caller, never treated as errors."""
    out = []
    for datum, poly in enumerate_canonical_basis(n, d):
        g = gradings(poly)
        flat = datum.flat_alpha
        dd = datum.d
        out.append(BasisClassification(
            datum=datum,
            order=g.order,
            weight=g.weight,
            order_bound=max(dd - 1 - a for a in flat),
            weight_formula=dd * (dd - 1) // 2 - sum(flat),
        ))
    return out


def weight_census_bound(n: int, d: int) -> int:
    """Weights above floor((1 - 1/(N+1)) d^2 / 2) cannot occur."""
    return math.floor((1 - Fraction(1, n + 1)) * Fraction(d * d, 2))


@lru_cache(maxsize=4)
def pivot_profile(n: int, d: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(weight, size, pivot orders) of each weight block of the degree-d
    canonical basis, by ascending weight, built once per process for each of
    the last few (N, d) asked for; degree 0 holds the constants.

    One echelon per block, with its elements as rows and its monomials as
    columns sorted by decreasing jet order.  The monomials of order > k are
    then a column prefix, whose rank is the number of pivots in it, so the
    order <= k part of the block has dimension size - #(pivot orders > k).
    """
    blocks: dict[int, list[DiffPoly]] = {}
    if d == 0:
        blocks[0] = [DiffPoly.const(ONE, n)]
    else:
        for _, poly in enumerate_canonical_basis(n, d):
            blocks.setdefault(gradings(poly).weight, []).append(poly)
    profile = []
    for weight in sorted(blocks):
        polys = blocks[weight]
        monos = sorted({m for p in polys for m in p.terms},
                       key=lambda m: (-mono_order(m), mono_sort_key(m)))
        col = {m: j for j, m in enumerate(monos)}
        pivots = echelon([{col[m]: c for m, c in p.terms.items()} for p in polys],
                         len(monos), reduce_back=False)
        profile.append((weight, len(polys), tuple(mono_order(monos[j]) for j, _ in pivots)))
    return tuple(profile)


def census(n: int, d: int, k: int) -> list[CensusEntry]:
    """Counts, per weight, of the order <= k part of the degree-d space.

    Entries with count 0 are omitted.  d = 0 contributes the constants.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    out = []
    for weight, size, orders in pivot_profile(n, d):
        count = size - sum(o > k for o in orders)
        if count:
            out.append(CensusEntry(k=k, n=weight, count=count))
    return out


@dataclass(frozen=True)
class Theorem2Item:
    name: str
    passed: bool
    witness: str


@dataclass(frozen=True)
class Theorem2Report:
    n: int
    d: int
    items: tuple[Theorem2Item, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


# How many orders above d-1 the k-stability check of Theorem 2 compares.
EXTRA_K = 2


def verify_theorem2(n: int, d: int) -> Theorem2Report:
    """Three exact checks on the census: stability in k for the EXTRA_K orders
    above d-1, total count (N+1)^d, and vanishing above the weight bound."""
    top = max(d - 1, 0)
    tables = {k: census(n, d, k) for k in range(top + EXTRA_K + 1)}
    base = tables[top]
    items = []

    stable = True
    witness = ""
    for k in range(top + 1, top + 1 + EXTRA_K):
        other = [CensusEntry(k=top, n=e.n, count=e.count) for e in tables[k]]
        if other != base:
            stable = False
            witness = f"census changed at k={k}"
            break
    items.append(Theorem2Item("k_stability", stable, witness or
                              f"census identical for k={top}..{top + EXTRA_K}"))

    total = sum(e.count for e in base)
    expected = (n + 1) ** d
    items.append(Theorem2Item("total_dimension", total == expected,
                              f"sum={total}, expected {expected}"))

    bound = weight_census_bound(n, d)
    offenders = [e for k in range(top + 1 + EXTRA_K) for e in tables[k] if e.n > bound]
    items.append(Theorem2Item("weight_vanishing", not offenders,
                              f"bound={bound}" + (f", offender {offenders[0]}" if offenders else "")))

    return Theorem2Report(n=n, d=d, items=tuple(items))

