"""Polynomial solutions of the Newton power-sum system of PDEs.

The operators sum_i d^l/dX_i^l for l = 1..d cut out a solution space of
dimension d! inside polynomials in X_1..X_d, counted degree by degree from
the isotypic multiplicities of the capped J^(l) kernel
(``hwv.weight_multiplicities``, the nullities of L_1..L_k on the D_T of each
shape) and cross-checked against the uncapped Newton system in ``verify``,
which also ranks the J^(l) blocks above the middle degree in full; the d!
staircase derivatives of the Vandermonde determinant
(:func:`vandermonde_staircase`) provide an independent witness of the same
dimension.  The polynomials are ``hwv.MultiPoly``, the class of the tensors,
which are the MultiPolys with every exponent <= k.
"""

from __future__ import annotations

from collections.abc import Iterator

from . import hwv
from .exact import add_terms
from .hwv import MultiPoly


def newton_operator(p: MultiPoly, ell: int) -> MultiPoly:
    """Apply the power-sum operator sum_i d^ell/dX_i^ell."""
    if not 1 <= ell <= p.nvars:
        raise ValueError(f"ell must lie in 1..{p.nvars}")
    return p.with_terms(add_terms({}, (pair for i in range(p.nvars)
                                       for pair in p.derivative(i, ell).terms.items())))


def solution_space_dim(d: int, bound: int | None = None) -> int:
    """Dimension of polynomial solutions of the power-sum system, up to total
    degree d(d-1)/2 (the Vandermonde degree) by default.

    Read a tensor index a as the monomial X^a: the lowering x[i] -> i x[i-1]
    is d/dX, J^(l) is l! e_l(d/dX_1..d/dX_d), and by Newton's identities the
    e_l and the power sums generate one ideal of operators.  X_i is a root of
    prod_j (T - X_j), so d^d/dX_i^d lies in that ideal too and every solution
    has degree at most d-1 in each variable.  The solutions of degree w are
    therefore the weight-w part of the J^(l) kernel at k = d-1, counted as
    sum f_lam m_lam from ``hwv.weight_multiplicities`` (solved on the D_T,
    not on the tensor power); only the degrees up to ``bound`` and to
    d(d-1)/2 are read, as the degrees above the middle one hold no solutions
    (the sl2 argument there), and of those only the degrees up to d(d-1)/4
    are solved, the others read from d(d-1)/2 - w by Poincaré duality.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if bound is None:
        bound = d * (d - 1) // 2
    return sum(hwv.weight_kernel_dim(d, d - 1, w) for w in range(min(bound, d * (d - 1)) + 1))


def vandermonde(d: int) -> MultiPoly:
    """The product of X_i - X_j over i < j."""
    out = MultiPoly.const(1, d)
    for i in range(d):
        for j in range(i + 1, d):
            out = out * (MultiPoly.var(i, d) - MultiPoly.var(j, d))
    return out


def vandermonde_staircase(d: int) -> Iterator[list[MultiPoly]]:
    """The d! derivatives d^beta Delta of the Vandermonde determinant with
    0 <= beta_i <= i (0-indexed), one list per order s = |beta| = 0, 1, ...,
    d(d-1)/2; those of order s are homogeneous of degree d(d-1)/2 - s.

    Every derivative of Delta solves the power-sum system: Delta is killed
    by every symmetric constant-coefficient operator without constant term,
    and derivatives commute.  The exponents beta_i <= i index Artin's basis
    of the coinvariant algebra (Artin 1944), and the derivatives of Delta
    span the harmonics (Steinberg 1964), so these d! are a basis of the
    solution space; a rank computation certifies it without that theory.
    Each d^beta Delta is one derivative of its parent, beta less one at its
    last nonzero entry, so one order is held at a time.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    level = {(0,) * d: vandermonde(d)}
    for _ in range(d * (d - 1) // 2 + 1):
        yield list(level.values())
        children = {}
        for beta, p in level.items():
            last = max((i for i, b in enumerate(beta) if b), default=0)
            for j in range(last, d):
                if beta[j] < j:
                    children[beta[:j] + (beta[j] + 1,) + beta[j + 1:]] = p.derivative(j)
        level = children
