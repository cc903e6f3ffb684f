"""Order/weight classification of the canonical basis and the census of
global sections of twisted jet-differential bundles on projective space.

Every canonical basis element is isobaric and multihomogeneous, so the
weight-n piece of the space of differentially homogeneous polynomials of
degree d splits off cleanly, and within it each multidegree; the census
counts, per jet order k and weight n, the dimension of the subspace of order
at most k: the exact nullity of the coefficient matrix of the monomials of
order exceeding k inside each weight block.  One elimination per (weight,
multidegree) block, with the monomials ordered by decreasing jet order,
gives it for every k.  The elements come as packed exponent codes, whose top
field is the jet order, with int coefficients (``wronskian.canonical_codes``),
so the census builds no DiffPoly and shares no basis with ``dh basis``;
``classify_basis`` reads the decoded one, ``wronskian.enumerate_canonical_basis``.
Only the multidegrees that are partitions of d are eliminated
(``multidegree_profile``): permuting the variables carries each onto its
rearrangements with the same counts, so its profile is credited to every
one of them (``pivot_profile``).
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from functools import lru_cache

from .dpoly import gradings
from .exact import pivot_columns
from .tableaux import partition_parts
from .wronskian import CanonicalDatum, canonical_codes, canonical_data, enumerate_canonical_basis


class BasisClassification(namedtuple("BasisClassification",
                                       "datum order weight order_bound weight_formula")):
    """The computed order and weight of a canonical basis element (its
    CanonicalDatum), with the closed forms from the exponent data:
    order_bound = max_i (d - 1 - alpha_i), weight_formula = d(d-1)/2 - |alpha|."""
    __slots__ = ()


CensusEntry = namedtuple("CensusEntry", "k n count")


def classify_basis(n: int, d: int) -> list[BasisClassification]:
    """Computed order and weight of every canonical basis element, next to the
    closed-form exponent-data values.  The weight formula is exact; the order
    formula is only an upper bound (degenerate data can cancel the top order),
    so discrepancies are reported by the caller, never treated as errors."""
    out = []
    for datum, poly in enumerate_canonical_basis(n, d):
        g = gradings(poly)
        out.append(BasisClassification(
            datum=datum,
            order=g.order,
            weight=g.weight,
            order_bound=max(d - 1 - a for a in datum.flat_alpha),
            weight_formula=datum.weight,
        ))
    return out


def weight_census_bound(n: int, d: int) -> int:
    """Weights above floor((1 - 1/(N+1)) d^2 / 2) = floor(N d^2 / (2(N+1)))
    cannot occur."""
    return n * d * d // (2 * (n + 1))


@lru_cache(maxsize=256)
def multidegree_profile(parts: tuple[int, ...]) -> dict[int, tuple[int, tuple[int, ...]]]:
    """{weight: (size, pivot orders)} of the canonical basis of the
    multiplicity vector ``parts`` (variables x_0..x_{l-1}), built once per
    process for each of the last 256 tuples asked for and shared, so never
    mutated; () holds the constants.

    The data are grouped by weight (``CanonicalDatum.weight``), and each
    weight block is expanded into packed rows
    (:func:`wronskian.canonical_codes`), eliminated and dropped before the
    next.  One forward elimination (``exact.pivot_columns``) per block, with
    its monomials as columns sorted by decreasing jet order: the monomials of
    order > k are then a column prefix, whose rank is the number of pivots in
    it, so the order <= k part of the block has dimension
    size - #(pivot orders > k).  A code's top field is its jet order, so the
    codes sorted as plain ints in reverse come by decreasing jet order.  The
    order within one jet order moves no prefix rank: ascending there halves
    the elimination at (1, 12) but takes five times as long on (1,)*7.  The
    pivot orders come in descending order.
    """
    if not parts:
        return {0: (1, (0,))}
    d = sum(parts)
    by_weight: dict[int, list[CanonicalDatum]] = {}
    for datum in canonical_data(parts):
        by_weight.setdefault(datum.weight, []).append(datum)
    out = {}
    for weight, data in sorted(by_weight.items()):
        width, block = canonical_codes(d, len(parts), data)
        cols = sorted(set().union(*block), reverse=True)
        col = {w: j for j, w in enumerate(cols)}
        block = [{col[w]: c for w, c in codes.items()} for codes in block]
        pivots = pivot_columns(block, len(cols))
        out[weight] = (len(block), tuple((cols[j].bit_length() - 1) // width for j in pivots))
        del block  # free the rows before the next block is expanded
    return out


def orbit_size(n: int, parts: tuple[int, ...]) -> int:
    """The number of compositions of sum(parts) into N+1 parts whose nonzero
    entries are a rearrangement of the partition ``parts``:
    (N+1)! / ((N+1-l)! prod_j c_j!), c_j the number of parts equal to j."""
    return math.perm(n + 1, len(parts)) // math.prod(
        math.factorial(c) for c in Counter(parts).values())


@lru_cache(maxsize=4)
def pivot_profile(n: int, d: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """(weight, size, pivot orders) of each weight block of the degree-d
    canonical basis, by ascending weight, the pivot orders as (order, count)
    pairs by descending order, built once per process for each of the last
    few (N, d) asked for; degree 0 holds the constants.

    One :func:`multidegree_profile` per partition lam of d with at most N+1
    parts, counted :func:`orbit_size` times: once for every composition m of
    d into N+1 parts whose nonzero entries rearrange lam.  For such an m
    there is a permutation sigma of x_0..x_N with sigma(lam) = m (zero
    entries only skip variables).  Renaming the variables commutes with
    every L_m and keeps weight and jet order.  By the paper's Appendix A (``reduce_to_triangular`` at y_j -> x_{v_j}),
    every monomial Wronskian of multidegree m is a combination of the
    canonical Wronskians of multidegree m, and sigma maps the monomial
    Wronskians of multidegree lam onto those of m; so the canonical span of
    multidegree m is sigma of that of lam.  Both have the same dimension,
    weight by weight (the elements are independent), and the same dimension
    of their order <= k part for every k, which is all that the pivot orders
    record.  Blocks of one weight and different multidegrees share no
    monomial, so the ranks of their column prefixes add up: a weight's pivot
    orders are those of its blocks, each counted once per composition.  The
    pivot orders are kept as counts: at (20, 6) a weight holds millions.
    ``verify.check_theorem2`` solves every ordering of the parts on its grid,
    and the tests compare every composition's own elimination.
    """
    sizes: dict[int, int] = {}
    pivot_orders: dict[int, Counter] = {}
    for parts in partition_parts(d, n + 1):
        times = orbit_size(n, parts)
        for weight, (size, orders) in multidegree_profile(parts).items():
            sizes[weight] = sizes.get(weight, 0) + times * size
            counts = pivot_orders.setdefault(weight, Counter())
            for o in orders:
                counts[o] += times
    return tuple((weight, sizes[weight], tuple(sorted(pivot_orders[weight].items(), reverse=True)))
                 for weight in sorted(sizes))


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
        count = size - sum(c for o, c in orders if o > k)
        if count:
            out.append(CensusEntry(k=k, n=weight, count=count))
    return out


Theorem2Item = namedtuple("Theorem2Item", "name passed witness")


class Theorem2Report(namedtuple("Theorem2Report", "n d items")):
    """The Theorem-2 checks of (N, d), a tuple of Theorem2Items."""
    __slots__ = ()

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

