"""Wronskian construction, the canonical basis, triangular rewriting, wedges.

The integer row-by-row expansion of ``build_wronskian`` is compared against
the minor expansion ``det_expansion`` of the Wronskian matrix over DiffPoly,
whose entries are computed here independently from ``UniPoly`` derivatives.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diffhom.dpoly import (DiffPoly, UniPoly, gradings, is_diff_homogeneous,
                           matrix_action, parse, solve_in_span, span_rank,
                           substitute, to_text)
from diffhom.exact import ONE, det_expansion
from diffhom.wronskian import (WronskSpec, basis_manifest,
                               build_formal_wronskian, build_wronskian,
                               enumerate_canonical_basis,
                               enumerate_canonical_data, expand_combination,
                               reduce_to_triangular, standard_nilpotent,
                               theta_family_rank, verify_wedge_identity)

F = Fraction


def wronskian_matrix(spec: WronskSpec, n: int) -> list[list[DiffPoly]]:
    """The d x d matrix: entry (r, j) = sum_m C(r, m) R_j^(r-m)(0) x_{n_j}[m]."""
    return [[DiffPoly(n, {((var, m, 1),): rpoly.derivative(r - m).at_zero() * math.comb(r, m)
                          for m in range(r + 1)})
             for rpoly, var in spec.entries] for r in range(spec.d)]


def oracle_wronskian(spec: WronskSpec, n: int) -> DiffPoly:
    return det_expansion(wronskian_matrix(spec, n), DiffPoly.zero(n), DiffPoly.const(ONE, n))


def assert_matches_oracle(spec: WronskSpec, n: int, built: DiffPoly) -> None:
    assert built == oracle_wronskian(spec, n)
    assert all(type(c) is Fraction for c in built.terms.values())


def test_wronskian_degree_one():
    spec = WronskSpec.monomials([0], [0])
    assert build_wronskian(spec, 0) == parse("x0", 0)


def test_wronskian_repeated_variable_gives_square():
    spec = WronskSpec.monomials([0, 1], [0, 0])
    assert build_wronskian(spec, 0) == parse("x0^2", 0)


def test_wronskian_matrix_entries_match_hand_expansion():
    # W(x0, t x0, t x1, t^3 x1, x2, t^4 x2) with N = 2
    spec = WronskSpec.monomials([0, 1, 1, 3, 0, 4], [0, 0, 1, 1, 2, 2])
    mat = wronskian_matrix(spec, 2)
    assert mat[3][3] == parse("6*x1", 2)
    assert mat[4][5] == parse("24*x2", 2)
    assert mat[5][5] == parse("120*x2[1]", 2)
    assert not mat[0][1]


@pytest.mark.parametrize("n, d", [(1, d) for d in range(1, 7)] + [(2, d) for d in range(1, 5)]
                         + [(3, d) for d in range(1, 4)])
def test_build_wronskian_matches_det_expansion_on_canonical_data(n, d):
    for datum in enumerate_canonical_data(n, d):
        assert_matches_oracle(datum.spec(), n, build_wronskian(datum.spec(), n))


@pytest.mark.parametrize("theta", [F(1), F(-2, 3), F(5, 2)])
def test_build_wronskian_matches_det_expansion_on_theta_family(theta):
    for n, d in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]:
        for tup in itertools.product(range(n + 1), repeat=d):
            spec = WronskSpec(tuple((UniPoly.shifted_power(theta, j), v)
                                    for j, v in enumerate(tup)))
            assert_matches_oracle(spec, n, build_wronskian(spec, n))


def test_build_formal_wronskian_matches_det_expansion():
    for d in range(1, 5):
        for alpha in itertools.product(range(d + 1), repeat=d):
            spec = WronskSpec.monomials(alpha, tuple(range(d)))
            assert_matches_oracle(spec, d - 1, build_formal_wronskian(alpha))


def test_build_wronskian_rejects_bad_specs():
    with pytest.raises(ValueError, match="at least one entry"):
        build_wronskian(WronskSpec(()), 0)
    with pytest.raises(ValueError, match="variable index 2 exceeds bound 1"):
        build_wronskian(WronskSpec.monomials([0, 1], [0, 2]), 1)


def test_wronskian_column_scaling_multilinearity():
    base = WronskSpec.monomials([0, 1], [0, 1])
    scaled = WronskSpec(((UniPoly([F(3)]), 0), base.entries[1]))
    assert build_wronskian(scaled, 1) == build_wronskian(base, 1).scale(F(3))


def test_wronskian_equal_columns_vanish():
    spec = WronskSpec.monomials([1, 1], [0, 0])
    assert not build_wronskian(spec, 0)


def test_canonical_basis_single_variable():
    basis = enumerate_canonical_basis(0, 2)
    assert len(basis) == 1
    datum, poly = basis[0]
    assert datum.m == (2,) and datum.flat_alpha == (0, 1)
    assert poly == parse("x0^2", 0)


def test_canonical_basis_two_variables_degree_two():
    basis = enumerate_canonical_basis(1, 2)
    polys = {to_text(p) for _, p in basis}
    assert polys == {"x1^2", "x0*x1", "x0^2", "-x0[1]*x1 + x0*x1[1]"}
    assert span_rank([p for _, p in basis]) == 4


def test_canonical_data_invariants():
    for n, d in [(1, 3), (2, 2), (3, 2)]:
        data = enumerate_canonical_data(n, d)
        assert len(data) == (n + 1) ** d
        for datum in data:
            flat = datum.flat_alpha
            assert all(a <= i - 1 for i, a in enumerate(flat, start=1))
            assert sum(datum.m) == d


def test_canonical_basis_properties():
    for n, d in [(0, 4), (1, 3), (2, 2)]:
        basis = enumerate_canonical_basis(n, d)
        assert len(basis) == (n + 1) ** d
        for datum, poly in basis:
            assert poly
            g = gradings(poly)
            assert g.order <= d - 1
            assert is_diff_homogeneous(poly) == (True, d)
        assert span_rank([p for _, p in basis]) == (n + 1) ** d


def test_gl_stability_seeded():
    rng = random.Random(4242)
    for n, d in [(1, 3), (2, 2)]:
        basis = [p for _, p in enumerate_canonical_basis(n, d)]
        for _ in range(3):
            a = [[F(rng.randint(-4, 4)) for _ in range(n + 1)] for _ in range(n + 1)]
            image = matrix_action(a, basis[rng.randrange(len(basis))])
            if not image:
                continue
            assert solve_in_span(basis, image) is not None


def test_general_coefficient_wronskian_is_diff_homogeneous():
    # arbitrary one-variable coefficient polynomials, not just monomials t^a
    specs = [
        WronskSpec(((UniPoly([F(1), F(2), F(1)]), 0),    # (1+t)^2
                    (UniPoly([F(2), F(-1)]), 1),         # 2 - t
                    (UniPoly([F(0), F(0), F(0), F(1)]), 0))),  # t^3
        WronskSpec(((UniPoly([F(1), F(1)]), 0),
                    (UniPoly([F(1), F(1)]), 1))),
    ]
    for spec in specs:
        w = build_wronskian(spec, 1)
        if w:
            assert is_diff_homogeneous(w) == (True, spec.d)


def test_formal_wronskian_basics():
    assert build_formal_wronskian((0,)) == parse("x0", 0)
    w = build_formal_wronskian((0, 0))
    assert w == parse("x0*x1[1] - x1*x0[1]", 1)
    assert not build_formal_wronskian((1, 1))
    assert not build_formal_wronskian((0, 2))  # exponent >= d gives zero


def test_reduce_triangular_is_identity_on_triangular():
    assert reduce_to_triangular((0, 1, 0)) == [(F(1), (0, 1, 0))]


def test_reduce_single_violation_degree_two():
    assert reduce_to_triangular((1, 0)) == [(F(-1), (0, 1))]


def test_reduce_identity_exhaustive_small():
    for d in range(1, 4):
        for alpha in itertools.product(range(d), repeat=d):
            direct = build_formal_wronskian(alpha)
            reduced = reduce_to_triangular(alpha)
            for _, idx in reduced:
                assert all(a <= i - 1 for i, a in enumerate(idx, start=1))
            assert expand_combination(reduced, d) == direct


def test_trailing_substitution_lands_in_canonical_basis():
    # evaluating the distinct formal variables at repeated actual variables
    # maps each triangular element to a canonical basis element, or to zero
    n, d = 1, 3
    basis = [p for _, p in enumerate_canonical_basis(n, d)]
    triangular = [alpha for alpha in itertools.product(range(d), repeat=d)
                  if all(a <= i - 1 for i, a in enumerate(alpha, start=1))]
    for alpha in triangular:
        for assign in itertools.combinations_with_replacement(range(n + 1), d):
            w = build_formal_wronskian(alpha)
            image = substitute(w, lambda i, k: DiffPoly.var(assign[i], k, n), n_out=n)
            if not image:
                continue
            coords = solve_in_span(basis, image)
            assert coords is not None
            nonzero = [c for c in coords if c]
            assert len(nonzero) == 1 and abs(nonzero[0]) == 1


def test_wedge_identity_top_and_bottom():
    nil = standard_nilpotent(3)
    assert verify_wedge_identity(nil, [(F(1), F(1), F(1))], 3)
    vectors = [(F(1), F(0), F(2)), (F(0), F(1), F(1)), (F(3), F(1), F(0))]
    assert verify_wedge_identity(nil, vectors, 1)


def test_wedge_identity_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_wedge_identity([[F(1)]], [(F(1),)], 1)  # not nilpotent
    with pytest.raises(ValueError):
        verify_wedge_identity(standard_nilpotent(2), [(F(1), F(0))], 1)  # wrong count


def test_wedge_identity_checks_nilpotence_once_per_matrix():
    from diffhom import wronskian

    wronskian._is_nilpotent.cache_clear()
    nil = standard_nilpotent(4)
    for j in range(4):
        assert verify_wedge_identity(nil, [tuple(F(r == j) for r in range(4))] * 2, 3)
    assert verify_wedge_identity([list(row) for row in nil], [(F(1),) * 4] * 2, 3)
    assert wronskian._is_nilpotent.cache_info().misses == 1
    with pytest.raises(ValueError):
        verify_wedge_identity([[F(0), F(1)], [F(1), F(0)]], [(F(1), F(0))] * 2, 1)


def test_wedge_identity_random_seeded():
    rng = random.Random(99)
    for d in range(2, 5):
        nil = standard_nilpotent(d)
        for i in range(1, d + 1):
            for _ in range(5):
                vectors = [tuple(F(rng.randint(-6, 6)) for _ in range(d))
                           for _ in range(d - i + 1)]
                assert verify_wedge_identity(nil, vectors, i)


def test_theta_family_degree_one():
    assert theta_family_rank(2, 1, F(1)) == 3


def test_theta_family_rejects_zero():
    with pytest.raises(ValueError):
        theta_family_rank(1, 2, F(0))


def test_theta_family_observed_ranks():
    # recorded observations; the full-rank value is conjectural, not asserted
    observed = {(1, 2): theta_family_rank(1, 2, F(1)),
                (1, 3): theta_family_rank(1, 3, F(1))}
    for (n, d), r in observed.items():
        assert 1 <= r <= (n + 1) ** d


def test_manifest_shape():
    manifest = basis_manifest(1, 2)
    assert len(manifest) == 4
    entry = manifest[1]
    assert set(entry) == {"m", "alpha", "order", "weight", "poly"}
    assert entry["m"] == [1, 1] and entry["alpha"] == [0, 0]
    assert entry["order"] == 1 and entry["weight"] == 1


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_reduce_identity_random_degree_four(data):
    alpha = tuple(data.draw(st.integers(0, 3)) for _ in range(4))
    direct = build_formal_wronskian(alpha)
    assert expand_combination(reduce_to_triangular(alpha), 4) == direct
