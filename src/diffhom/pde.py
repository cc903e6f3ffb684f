"""Polynomial solutions of the Newton power-sum system of PDEs.

The operators sum_i d^l/dX_i^l for l = 1..d cut out a solution space of
dimension d! inside polynomials in X_1..X_d; the span of all partial
derivatives of the Vandermonde determinant provides an independent witness
of the same dimension.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import (ONE, SparseComb, add_terms, linear_combination, nullspace_basis,
                    operator_rows, rank)

Expo = tuple[int, ...]


def _expo_add(a: Expo, b: Expo) -> Expo:
    return tuple(map(operator.add, a, b))


class MultiPoly(SparseComb):
    """Sparse polynomial in X_1..X_d over Q; keys are exponent vectors."""

    __slots__ = ("nvars",)
    _shape = ("nvars",)
    _mismatch = "variable count mismatch"
    _key_mul = staticmethod(_expo_add)

    def __init__(self, nvars: int, terms: Mapping[Expo, Fraction] | None = None):
        self.nvars = nvars
        for e in terms or ():
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e}")
        super().__init__(terms)

    @classmethod
    def const(cls, c: Fraction, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def var(cls, i: int, nvars: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): ONE})

    def _unit_key(self) -> Expo:
        return (0,) * self.nvars

    def derivative(self, i: int, times: int = 1) -> "MultiPoly":
        terms = self.terms
        for _ in range(times):
            new: dict[Expo, Fraction] = {}
            for e, c in terms.items():
                if e[i] == 0:
                    continue
                out = list(e)
                out[i] -= 1
                new[tuple(out)] = c * e[i]
            terms = new
        return self.with_terms(terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        return f"MultiPoly(nvars={self.nvars}, {len(self.terms)} terms)"


def newton_operator(p: MultiPoly, ell: int) -> MultiPoly:
    """Apply the power-sum operator sum_i d^ell/dX_i^ell."""
    if not 1 <= ell <= p.nvars:
        raise ValueError(f"ell must lie in 1..{p.nvars}")
    return p.with_terms(add_terms({}, (pair for i in range(p.nvars)
                                       for pair in p.derivative(i, ell).terms.items())))


def distinct_tuple_operator(p: MultiPoly, ell: int) -> MultiPoly:
    """Apply the operator summing mixed derivatives over ordered tuples of ell
    pairwise distinct variables (ell! times the elementary symmetric operator)."""
    if not 1 <= ell <= p.nvars:
        raise ValueError(f"ell must lie in 1..{p.nvars}")
    fact = math.factorial(ell)

    def mixed(subset: tuple[int, ...]) -> MultiPoly:
        q = p
        for i in subset:
            q = q.derivative(i)
        return q

    return linear_combination(p, ((fact, mixed(subset))
                                  for subset in itertools.combinations(range(p.nvars), ell)))


def monomials_of_degree(nvars: int, deg: int) -> list[Expo]:
    out = []
    for bars in itertools.combinations(range(deg + nvars - 1), nvars - 1):
        prev = -1
        e = []
        for b in bars:
            e.append(b - prev - 1)
            prev = b
        e.append(deg + nvars - 2 - prev)
        out.append(tuple(e))
    return sorted(out)


def _degree_rows(d: int, deg: int, apply_op) -> tuple[list[Expo], list[dict[int, Fraction]]]:
    """The degree-deg monomials and the rows of the stacked operators l = 1..d
    on them.  The operators are homogeneous, so the stacked coefficient matrix
    is a direct sum over the input degree; solving degree by degree is exact."""
    monos = monomials_of_degree(d, deg)

    def apply(e: Expo):
        p = MultiPoly(d, {e: ONE})
        for ell in range(1, d + 1):
            for out_e, c in apply_op(p, ell).terms.items():
                yield (ell, out_e), c

    return monos, operator_rows(monos, apply)


def _graded_solution_dims(d: int, bound: int, apply_op) -> list[int]:
    """Per-degree kernel dimensions of the stacked operators l = 1..d."""
    dims = []
    for deg in range(bound + 1):
        monos, rows = _degree_rows(d, deg, apply_op)
        dims.append(len(monos) - rank(rows, len(monos)))
    return dims


def solution_space_dim(d: int, bound: int | None = None) -> int:
    """Dimension of polynomial solutions of the power-sum system, searched up
    to total degree d(d-1)/2 (the Vandermonde degree) by default."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if bound is None:
        bound = d * (d - 1) // 2
    return sum(_graded_solution_dims(d, bound, newton_operator))


def solution_space_dim_distinct(d: int, bound: int | None = None) -> int:
    """Same count for the ordered-distinct-tuple system; the two systems agree."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if bound is None:
        bound = d * (d - 1) // 2
    return sum(_graded_solution_dims(d, bound, distinct_tuple_operator))


def vandermonde(d: int) -> MultiPoly:
    """The product of X_i - X_j over i < j."""
    out = MultiPoly.const(ONE, d)
    for i in range(d):
        for j in range(i + 1, d):
            out = out * (MultiPoly.var(i, d) - MultiPoly.var(j, d))
    return out


def vandermonde_derivative_basis(d: int) -> list[MultiPoly]:
    """All nonzero partial derivatives of the Vandermonde determinant.

    A spanning set of the d!-dimensional solution space of the power-sum
    system: the Vandermonde is annihilated by every symmetric constant
    coefficient operator without constant term, and derivatives commute.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    v = vandermonde(d)
    deg = v.degree()
    out = []
    for total in range(deg + 1):
        for beta in monomials_of_degree(d, total):
            p = v
            for i, times in enumerate(beta):
                if times:
                    p = p.derivative(i, times)
                if not p:
                    break
            if p:
                out.append(p)
    return out


def poly_family_rank(polys: Sequence[MultiPoly]) -> int:
    """Exact rank of a family of multivariate polynomials."""
    monos = sorted({e for p in polys for e in p.terms})
    col = {e: j for j, e in enumerate(monos)}
    rows = [{col[e]: c for e, c in p.terms.items()} for p in polys]
    return rank(rows, len(monos))


def solution_space_rows(d: int, bound: int | None = None,
                        apply_op=newton_operator) -> tuple[list[dict[int, Fraction]], list[Expo]]:
    """A basis (as sparse coefficient rows) of the polynomial solution space,
    with the monomial column index it refers to."""
    if bound is None:
        bound = d * (d - 1) // 2
    monos: list[Expo] = []
    rows_out: list[dict[int, Fraction]] = []
    for deg in range(bound + 1):
        degree_monos, op_rows = _degree_rows(d, deg, apply_op)
        offset = len(monos)
        monos.extend(degree_monos)
        for vec in nullspace_basis(op_rows, len(degree_monos)):
            rows_out.append({offset + j: c for j, c in enumerate(vec) if c})
    return rows_out, monos
