"""Order/weight classification and the jet-differential census."""

import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import formal
from diffhom import jets, wronskian
from diffhom.dpoly import DiffPoly, gradings, mono_order
from diffhom.exact import ONE, operator_rows, rank
from diffhom.hwv import weight_multiplicities
from diffhom.jets import (CensusEntry, Theorem2Item, Theorem2Report, census, classify_basis,
                          multidegree_profile, orbit_size, pivot_profile, verify_theorem2,
                          weight_census_bound)
from diffhom.tableaux import compositions, count_semistandard, partitions_of
from diffhom.wronskian import enumerate_canonical_basis
from formal import formal_pivot_profile

F = Fraction


def _rank_census(n, d, k):
    """The census by one elimination per weight block and per k: the nullity
    of the coefficients of the monomials of order > k, with no shortcut for
    k >= d-1."""
    if d == 0:
        blocks = {0: [DiffPoly.const(ONE, n)]}
    else:
        blocks = {}
        for _, poly in enumerate_canonical_basis(n, d):
            blocks.setdefault(gradings(poly).weight, []).append(poly)
    out = []
    for weight in sorted(blocks):
        polys = blocks[weight]
        rows = operator_rows(polys, lambda p: ((m, c) for m, c in p.terms.items()
                                               if mono_order(m) > k))
        count = len(polys) - rank(rows, len(polys))
        if count:
            out.append(CensusEntry(k=k, n=weight, count=count))
    return out


@pytest.mark.parametrize("n,d", [(1, d) for d in range(7)] + [(2, d) for d in range(5)]
                         + [(3, d) for d in range(4)])
def test_census_matches_per_order_rank_oracle(n, d):
    for k in range(d + 2):
        assert census(n, d, k) == _rank_census(n, d, k), k


@pytest.fixture
def fresh_profile():
    pivot_profile.cache_clear()
    multidegree_profile.cache_clear()
    yield
    pivot_profile.cache_clear()
    multidegree_profile.cache_clear()


def test_k_stability_sees_an_element_above_the_order_bound(monkeypatch, fresh_profile):
    # x0^(d-1) x0[d] has order d, so the census at k = d-1 misses it.  In
    # the order-major census layout of one variable, x0[k] sits in field k,
    # so x0[d] is one field above the census's own orders and its code reads
    # order d.  It joins multidegree (d, 0) at weight d as one more datum.
    n, d = 1, 3
    width = wronskian.canonical_codes(d, 1, [])[0]
    extra = (1 << d * width) + (d - 1)
    assert (extra.bit_length() - 1) // width == d
    stand_in = SimpleNamespace(weight=d)
    real_data, real_codes = jets.canonical_data, jets.canonical_codes
    monkeypatch.setattr(jets, "canonical_data",
                        lambda m: list(real_data(m)) + ([stand_in] if m == (d,) else []))
    monkeypatch.setattr(jets, "canonical_codes",
                        lambda d_, l, data: ((width, [{extra: 1}]) if data == [stand_in]
                                             else real_codes(d_, l, data)))
    report = verify_theorem2(n, d)
    item = next(i for i in report.items if i.name == "k_stability")
    assert not item.passed and item.witness == f"census changed at k={d}"
    assert not report.passed
    # the element went through the elimination: one more pivot, of order d,
    # credited to (d, 0) and to its rearrangement (0, d)
    assert multidegree_profile((d,))[d] == (1, (d,))
    assert pivot_profile(n, d)[-1] == (d, 2, ((d, 2),))


def test_classify_weight_formula_always_holds():
    for n, d in [(1, 2), (1, 3), (2, 2), (1, 4)]:
        for c in classify_basis(n, d):
            assert c.weight == c.weight_formula
            assert c.order <= c.order_bound <= c.datum.d - 1


def test_classify_documents_order_discrepancy():
    # the square of a variable has order 0 although its exponent data says 1
    cls = classify_basis(1, 2)
    entry = next(c for c in cls if c.datum.m == (2, 0))
    assert entry.datum.flat_alpha == (0, 1)
    assert entry.order == 0 and entry.order_bound == 1


def test_classify_wronskian_entry():
    cls = classify_basis(1, 2)
    entry = next(c for c in cls if c.datum.m == (1, 1) and c.datum.flat_alpha == (0, 0))
    assert entry.weight == 1 and entry.order == 1


def test_census_degree_two():
    assert census(1, 2, 1) == [CensusEntry(1, 0, 3), CensusEntry(1, 1, 1)]
    assert census(1, 2, 5) == [CensusEntry(5, 0, 3), CensusEntry(5, 1, 1)]


def test_census_records_keep_their_reprs_and_verdicts():
    entry = CensusEntry(k=0, n=0, count=1)
    assert repr(entry) == "CensusEntry(k=0, n=0, count=1)"
    with pytest.raises(AttributeError):
        entry.count = 2
    passing, failing = Theorem2Item("a", True, "w"), Theorem2Item("b", False, "w")
    assert Theorem2Report(1, 2, (passing, passing)).passed
    assert not Theorem2Report(1, 2, (passing, failing)).passed


def test_census_degree_zero_and_validation():
    assert census(1, 0, 3) == [CensusEntry(3, 0, 1)]
    with pytest.raises(ValueError):
        census(1, -1, 0)
    with pytest.raises(ValueError):
        census(1, 2, -1)


def test_census_order_zero_counts_forms():
    for n, d in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        entries = census(n, d, 0)
        assert entries == [CensusEntry(0, 0, math.comb(n + d, d))]


def test_census_projective_line_cross_check():
    # on one variable pair at jet order 1 the weight-n count is h^0(O(d - 2n))
    for d in range(1, 5):
        got = {e.n: e.count for e in census(1, d, 1)}
        for n in range(0, d + 1):
            expected = max(d - 2 * n + 1, 0)
            assert got.get(n, 0) == expected


def test_census_totals_monotone_in_k():
    for n, d in [(1, 3), (1, 4), (2, 3)]:
        totals = [sum(e.count for e in census(n, d, k)) for k in range(0, d + 1)]
        assert all(a <= b for a, b in zip(totals, totals[1:]))
        assert totals[d - 1] == (n + 1) ** d
        assert totals[d] == totals[d - 1]


def test_weight_bound():
    assert weight_census_bound(1, 3) == 2
    assert weight_census_bound(2, 3) == 3


def test_verify_theorem2_grid():
    for n, d in [(1, 2), (1, 3), (2, 2), (2, 3), (1, 4)]:
        report = verify_theorem2(n, d)
        assert report.passed, [(i.name, i.witness) for i in report.items if not i.passed]


def test_verify_theorem2_total_value():
    report = verify_theorem2(2, 2)
    total_item = next(i for i in report.items if i.name == "total_dimension")
    assert "sum=9" in total_item.witness


def test_verify_theorem2_builds_the_basis_once():
    # one process-wide cache: a report and later census queries share one
    # elimination, and the census builds no DiffPoly basis
    enumerate_canonical_basis.cache_clear()
    pivot_profile.cache_clear()
    report = verify_theorem2(1, 4)
    assert report.passed
    assert [(i.name, i.witness) for i in report.items] == [
        ("k_stability", "census identical for k=3..5"),
        ("total_dimension", "sum=16, expected 16"),
        ("weight_vanishing", "bound=4")]
    census(1, 4, 1)
    census(1, 4, 2)
    assert pivot_profile.cache_info().misses == 1
    assert enumerate_canonical_basis.cache_info().misses == 0
    # callers share one tuple, built on the first call
    basis = enumerate_canonical_basis(1, 4)
    assert isinstance(basis, tuple) and enumerate_canonical_basis(1, 4) is basis
    assert enumerate_canonical_basis.cache_info().misses == 1


@pytest.mark.parametrize("n,d", [(1, 7), (2, 5)])
def test_pivot_profile_matches_rank_oracle_beyond_the_grid(n, d):
    # the counts of every k <= d, each from its own DiffPoly elimination
    profile = pivot_profile(n, d)
    for k in range(d + 1):
        assert census(n, d, k) == _rank_census(n, d, k), k
    assert sum(size for _, size, _ in profile) == (n + 1) ** d


def test_classify_basis_matches_diffpoly_gradings():
    for n, d in [(1, 5), (2, 4), (3, 3)]:
        cls = classify_basis(n, d)
        basis = enumerate_canonical_basis(n, d)
        assert [c.datum for c in cls] == [datum for datum, _ in basis]
        assert [(c.order, c.weight) for c in cls] == [
            (gradings(p).order, gradings(p).weight) for _, p in basis]


def test_pivot_profile_refuses_rows_of_one_multidegree_apart(monkeypatch):
    # the oracle eliminates each multidegree's blocks once its rows are read,
    # so a multidegree that comes back would be split into blocks that share
    # monomials
    codec, rows = formal.formal_canonical_codes(3, wronskian.enumerate_canonical_data(1, 3))
    rows = list(rows)
    assert rows[1][0].m == (1, 2)
    monkeypatch.setattr(formal, "formal_canonical_codes",
                        lambda d_, data: (codec, iter(rows[:1] + rows[2:] + rows[1:2])))
    with pytest.raises(ValueError, match=r"multidegree \(1, 2\)"):
        formal_pivot_profile(1, 3)


def _repeated(profile):
    """A pivot profile with its (order, count) pairs spelled out."""
    return tuple((weight, size, tuple(o for o, c in orders for _ in range(c)))
                 for weight, size, orders in profile)


@pytest.mark.parametrize("n,d", [(0, 0), (3, 0)] + [(0, d) for d in range(1, 6)]
                         + [(1, d) for d in range(1, 9)] + [(2, d) for d in range(1, 6)]
                         + [(3, d) for d in range(1, 5)] + [(4, d) for d in range(1, 4)])
def test_pivot_profile_matches_every_composition_eliminated(n, d):
    assert _repeated(pivot_profile(n, d)) == formal_pivot_profile(n, d)


@pytest.mark.parametrize("d", range(1, 8))
def test_every_ordering_of_a_partition_has_its_profile(d):
    for lam in partitions_of(d):
        profile = multidegree_profile(lam.parts)
        assert sum(size for size, _ in profile.values()) == math.factorial(d) // math.prod(
            math.factorial(p) for p in lam.parts)
        for ordering in set(itertools.permutations(lam.parts)):
            assert multidegree_profile(ordering) == profile, ordering


def test_orbit_sizes_count_the_compositions():
    for n, d in [(0, 3), (1, 4), (2, 5), (4, 3), (6, 4)]:
        by_parts = Counter(tuple(sorted(filter(None, m), reverse=True))
                           for m in compositions(d, n + 1))
        assert {parts: orbit_size(n, parts) for parts in by_parts} == by_parts


@pytest.mark.parametrize("n,d", [(6, 4), (20, 3), (3, 5)])
def test_census_equals_the_schur_weyl_side(n, d):
    # Sym^d(V (x) W) = sum over lam of S_lam V (x) S_lam W, and L_m acts on W
    # alone: the weight-w count is sum_lam s_lam(1^(N+1)) m_lam(w; k)
    shapes = partitions_of(d)
    for k in range(d + 2):
        top = k * d // 2
        side = {w: sum(count_semistandard(lam, n + 1) * m
                       for lam, m in zip(shapes, weight_multiplicities(d, k, w)))
                for w in range(top + 1)}
        assert {e.n: e.count for e in census(n, d, k)} == {w: c for w, c in side.items() if c}, k


def test_census_n20_d6_totals(fresh_profile):
    # 1,602 Wronskians, one multiplicity vector per partition of 6
    assert sum(e.count for e in census(20, 6, 5)) == 21 ** 6 == 85_766_121
    assert multidegree_profile.cache_info().currsize == len(partitions_of(6))
