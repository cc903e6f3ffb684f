"""Order/weight classification of the canonical basis and the census of
global sections of twisted jet-differential bundles on projective space.

Every canonical basis element is isobaric, so the weight-n piece of the space
of differentially homogeneous polynomials of degree d splits off cleanly; the
census counts, per jet order k and weight n, the dimension of the subspace of
order at most k.  For k >= d-1 this is a plain count of basis elements; below
that it is the exact nullity of the coefficient matrix of the monomials of
order exceeding k inside each isobaric block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dpoly import DiffPoly, gradings, mono_order
from .exact import ONE, operator_rows, rank
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


def _weight_blocks(n: int, d: int) -> dict[int, list[DiffPoly]]:
    """The canonical basis of degree d grouped by weight; degree 0 holds the
    constants."""
    if d == 0:
        return {0: [DiffPoly.const(ONE, n)]}
    blocks: dict[int, list[DiffPoly]] = {}
    for _, poly in enumerate_canonical_basis(n, d):
        blocks.setdefault(gradings(poly).weight, []).append(poly)
    return blocks


def _block_census(blocks: dict[int, list[DiffPoly]], d: int, k: int) -> list[CensusEntry]:
    out = []
    for weight in sorted(blocks):
        polys = blocks[weight]
        if k >= d - 1:
            count = len(polys)
        else:
            # kernel of the map picking out all monomial coefficients of order > k:
            # one equation per high monomial, unknowns = block elements
            rows = operator_rows(polys, lambda p: ((m, c) for m, c in p.terms.items()
                                                   if mono_order(m) > k))
            count = len(polys) - rank(rows, len(polys))
        if count:
            out.append(CensusEntry(k=k, n=weight, count=count))
    return out


def census(n: int, d: int, k: int) -> list[CensusEntry]:
    """Counts, per weight, of the order <= k part of the degree-d space.

    Entries with count 0 are omitted.  d = 0 contributes the constants.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    return _block_census(_weight_blocks(n, d), d, k)


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
    blocks = _weight_blocks(n, d)
    tables = {k: _block_census(blocks, d, k) for k in range(top + EXTRA_K + 1)}
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

