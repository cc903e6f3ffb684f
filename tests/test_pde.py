"""The power-sum PDE system and its Vandermonde-derivative witness."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from diffhom import hwv
from diffhom.exact import operator_rows, rank, span_rank
from diffhom.hwv import full_kernel_vectors
from diffhom.pde import (MultiPoly, newton_operator, solution_space_dim, vandermonde,
                         vandermonde_staircase)
from diffhom.tableaux import compositions, partitions_of
from diffhom.verify import check_pde_system_equivalence
import formal
from formal import ONE, vandermonde_derivative_basis

F = Fraction


def newton_count(d, bound):
    """Oracle: the solutions of the power-sum system on all monomials of
    degree <= bound, with no cap on any variable's degree."""
    def apply(e):
        p = MultiPoly(d, {e: ONE})
        for ell in range(1, d + 1):
            for out, c in newton_operator(p, ell).terms.items():
                yield (ell, out), c

    total = 0
    for deg in range(bound + 1):
        keys = compositions(deg, d)
        total += len(keys) - rank(operator_rows(keys, apply), len(keys))
    return total


def test_newton_operator_constant():
    one = MultiPoly.const(F(1), 3)
    for ell in range(1, 4):
        assert not newton_operator(one, ell)


def test_newton_operator_antisymmetric_difference():
    p = MultiPoly(2, {(1, 0): F(1), (0, 1): F(-1)})
    assert not newton_operator(p, 1)


def test_newton_operator_second_derivative():
    p = MultiPoly(2, {(2, 0): F(1)})
    assert newton_operator(p, 2) == MultiPoly.const(F(2), 2)


def test_newton_operator_range_check():
    with pytest.raises(ValueError):
        newton_operator(MultiPoly.const(F(1), 2), 3)


def test_monomials_of_degree():
    # the degree-deg monomials in nvars variables are the compositions of deg
    assert compositions(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(compositions(6, 4)) == math.comb(6 + 3, 3)


def test_solution_space_dims():
    assert solution_space_dim(1) == 1
    assert solution_space_dim(2) == 2
    assert solution_space_dim(3) == 6
    assert solution_space_dim(4) == 24


def test_solution_space_degree_two_explicit():
    # span{1, X1 - X2}, in reduced echelon form over (0,0), (0,1), (1,0), (1,1)
    assert full_kernel_vectors(2, 1) == (MultiPoly(2, {(0, 0): F(1)}),
                                         MultiPoly(2, {(0, 1): F(1), (1, 0): F(-1)}))
    assert solution_space_dim(2) == 2


def test_degree_bound_stability():
    for d in range(1, 5):
        bound = d * (d - 1) // 2
        assert solution_space_dim(d, bound + 2) == solution_space_dim(d, bound)


def test_vandermonde_degree_and_antisymmetry():
    v = vandermonde(3)
    assert v.degree() == 3
    assert v.terms[(2, 1, 0)] == 1


def test_vandermonde_derivatives_solve_system():
    for d in range(1, 5):
        basis = vandermonde_derivative_basis(d)
        assert span_rank(basis) == math.factorial(d)
        for p in basis:
            for ell in range(1, d + 1):
                assert not newton_operator(p, ell)


@pytest.mark.parametrize("d", range(1, 5))
def test_staircase_ranks_match_all_derivatives(d):
    # d! members, those of order s homogeneous of degree d(d-1)/2 - s, with
    # the rank of all nonzero derivatives of that degree
    blocks = list(vandermonde_staircase(d))
    top = d * (d - 1) // 2
    assert len(blocks) == top + 1
    assert sum(map(len, blocks)) == math.factorial(d)
    assert all(sum(e) == top - s for s, block in enumerate(blocks) for p in block for e in p.terms)
    by_degree = {}
    for p in vandermonde_derivative_basis(d):
        by_degree.setdefault(p.degree(), []).append(p)
    assert [span_rank(block) for block in blocks] == \
        [span_rank(by_degree[top - s]) for s in range(top + 1)]


def test_vandermonde_span_inside_solution_space():
    d = 3
    sol = list(full_kernel_vectors(d, d - 1))
    van = vandermonde_derivative_basis(d)
    assert all(max(e) < d for p in van for e in p.terms)
    assert span_rank(sol + van) == len(sol) == math.factorial(d)


def test_two_operator_systems_agree():
    # Newton against J: the capped J^(l) kernel is killed by the power sums
    # (the counts are compared in test_solution_space_dim_matches_uncapped_newton)
    for d in range(1, 5):
        sol = full_kernel_vectors(d, d - 1)
        assert len(sol) == solution_space_dim(d)
        for p in sol:
            for ell in range(1, d + 1):
                assert not newton_operator(p, ell)


@pytest.mark.parametrize("d", range(1, 5))
def test_solution_space_dim_matches_uncapped_newton(d):
    for bound in range(d * (d - 1) // 2 + 3):
        assert solution_space_dim(d, bound) == newton_count(d, bound), bound


def test_solution_space_dim_mahonian_partial_sum():
    # permutations of 5 with at most 8 inversions: 1+4+9+15+20+22+20+15+9
    assert solution_space_dim(5, 8) == 115


@pytest.mark.parametrize("d", range(1, 8))
def test_each_variable_is_a_root_of_the_elementary_polynomial(d):
    # sum_l (-1)^l e_l(X) X_i^(d-l) = prod_j (X_i - X_j) = 0, so d^d/dX_i^d lies
    # in the ideal of the e_l(d/dX) and solutions have degree < d in each X_i
    xs = [MultiPoly.var(i, d) for i in range(d)]
    one = MultiPoly.const(ONE, d)
    elementary = [sum((math.prod(sub, start=one) for sub in itertools.combinations(xs, ell)),
                      MultiPoly(d)) for ell in range(d + 1)]
    for x in xs:
        total = MultiPoly(d)
        for ell, e in enumerate(elementary):
            total = total + (e * x ** (d - ell)).scale((-1) ** ell)
        assert not total


def test_solution_space_dim_reads_the_j_blocks(monkeypatch):
    # the J^(l) kernel read through its multiplicities: the D_T systems at
    # k = d-1 of the shapes with D_T at that weight, each once, only up to
    # the bound and half the Vandermonde degree d(d-1)/2 (above it the
    # multiplicities are read by duality, and above d(d-1)/2 the kernel is
    # zero)
    calls = Counter()
    build = hwv.functional_system

    def counted(*args):
        calls[args] += 1
        return build(*args)

    def systems(d, top):
        return {(lam, d - 1, w) for lam in partitions_of(d) for w in range(top)
                if hwv._nullity_key(lam, d - 1, w)}

    monkeypatch.setattr(hwv, "functional_system", counted)
    formal.clear_solver_caches()
    assert solution_space_dim(4) == 24
    assert set(calls) == systems(4, 4)
    assert max(calls.values()) == 1
    calls.clear()
    assert solution_space_dim(3, 100) == 6
    assert set(calls) == systems(3, 2)
    assert max(calls.values()) == 1
    calls.clear()
    assert solution_space_dim(5, 2) == 1 + 4 + 9
    assert set(calls) == systems(5, 3)
    assert max(calls.values()) == 1


def test_stability_check_ranks_the_degrees_above_the_vandermonde(monkeypatch):
    # one kernel vector in degree d(d-1)/2 + 1 fails the check: read through
    # weight_multiplicities, that degree would be zero by the sl2 skip
    import diffhom.verify as verify

    assert verify.check_pde_stability(3).passed
    build = verify.stacked_operator_rows

    def widened(d, k, w):
        rows, ncols = build(d, k, w)
        return rows, ncols + (w == d * (d - 1) // 2 + 1)

    monkeypatch.setattr(verify, "stacked_operator_rows", widened)
    result = verify.check_pde_stability(3)
    assert not result.passed and (result.expected, result.computed) == ("6", "7")


def test_system_equivalence_check_at_four():
    assert check_pde_system_equivalence(4).passed


def test_system_equivalence_check_compares_nullities(monkeypatch):
    # a kernel basis missing a vector is still killed by the power sums,
    # so only the degree-by-degree count catches it
    import diffhom.verify as verify

    monkeypatch.setattr(verify, "full_kernel_vectors", lambda d, k: full_kernel_vectors(d, k)[:-1])
    assert not check_pde_system_equivalence(3).passed
