"""The power-sum PDE system and its Vandermonde-derivative witness."""

import math
from fractions import Fraction

import pytest

from diffhom.pde import (MultiPoly, distinct_tuple_operator,
                         newton_operator, poly_family_rank, solution_space_dim,
                         solution_space_rows, vandermonde,
                         vandermonde_derivative_basis)
from diffhom.exact import rank
from diffhom.tableaux import compositions

F = Fraction


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
    rows, monos = solution_space_rows(2)
    # span{1, X1 - X2}
    assert len(rows) == 2
    consts = [r for r in rows if list(r.values()) == [F(1)] and monos[list(r)[0]] == (0, 0)]
    assert consts


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
        assert poly_family_rank(basis) == math.factorial(d)
        for p in basis:
            for ell in range(1, d + 1):
                assert not newton_operator(p, ell)


def test_vandermonde_span_inside_solution_space():
    d = 3
    sol_rows, monos = solution_space_rows(d)
    col = {e: j for j, e in enumerate(monos)}
    van_rows = [{col[e]: c for e, c in p.terms.items()}
                for p in vandermonde_derivative_basis(d)]
    joint = rank(sol_rows + van_rows, len(monos))
    assert joint == len(sol_rows) == math.factorial(d)


def test_two_operator_systems_agree():
    for d in range(1, 4):
        rows_a, monos_a = solution_space_rows(d)
        rows_b, monos_b = solution_space_rows(d, apply_op=distinct_tuple_operator)
        assert len(rows_b) == solution_space_dim(d)
        assert monos_a == monos_b and len(rows_a) == len(rows_b)
        assert rank(rows_a + rows_b, len(monos_a)) == len(rows_a)


def test_distinct_tuple_operator_counts_orderings():
    # on X1 X2 the two-fold mixed derivative sums over 2 ordered pairs
    p = MultiPoly(2, {(1, 1): F(1)})
    assert distinct_tuple_operator(p, 2) == MultiPoly.const(F(2), 2)
