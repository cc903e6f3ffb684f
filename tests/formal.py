"""Formal-parameter oracles for the symmetry checks of ``diffhom``.

The library decides every symmetry by an exact derivation over Q: the L_m of
the Leibniz action for differential homogeneity and for the functional
equation of the D_T, the multidegree for the torus weight, and the E_pq of
gl(N+1) for unipotent invariance.  This module keeps the direct computations
they replace, with coefficients in the polynomial ring Q[params] of named
formal parameters (:class:`ParamPoly`): substitute the group element with
formal entries and compare both sides.  ``DiffPoly`` and ``Tensor`` take
their arithmetic from ``exact.SparseComb``, which works over any coefficient
ring, so ``substitute`` accepts ``ParamPoly`` entries.

``dpoly.matrix_action`` works over Q only: an integer expansion graded by jet
order, which raises TypeError on a ``ParamPoly`` entry.  The any-ring action
it replaced is kept here as :func:`formal_matrix_action`, a ring substitution
through ``substitute``; it serves the formal weight and unipotent criteria
and is the oracle the tests compare ``matrix_action`` against.

``hwv.weight_multiplicities`` counts the isotypic multiplicities of the J^(l)
kernel on Young-subgroup invariants and alternants.  The character path it
replaced is kept here as :func:`character_multiplicities`: class traces on
the reduced kernel basis ``hwv.full_kernel_vectors``, then the character sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from diffhom.dpoly import DiffPoly, UniPoly, gradings, mono_order, substitute
from diffhom.exact import ONE, ZERO, SparseComb, operator_rows, rank
from diffhom.hwv import d_t, full_kernel_vectors
from diffhom.tableaux import (Partition, Tableau, centralizer_size, character, partitions_of,
                              semistandard_tableaux)

# A parameter monomial: ((name, exponent), ...) sorted by name, exponents > 0.
PMono = tuple[tuple[str, int], ...]

_EMPTY: PMono = ()


def _pmono_mul(a: PMono, b: PMono) -> PMono:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class ParamPoly(SparseComb):
    """Sparse multivariate polynomial over Q in named parameters.

    Mixed arithmetic with int/Fraction coerces the scalar to a constant, so a
    ParamPoly can be a coefficient of a DiffPoly or a Tensor.
    """

    __slots__ = ()
    _key_mul = staticmethod(_pmono_mul)

    def __init__(self, terms: Mapping[PMono, Fraction] | None = None):
        self.terms = {mono: c if isinstance(c, Fraction) else Fraction(c)
                      for mono, c in terms.items() if c} if terms else {}

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls({_EMPTY: c})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "ParamPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): ONE})

    def _operand(self, other):
        if type(other) is ParamPoly:
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other)
        return NotImplemented

    # scalars on the left (int + p, Fraction * p) coerce too
    __radd__ = SparseComb.__add__
    __rmul__ = SparseComb.__mul__

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            c = self.terms[mono]
            factors = [f"{n}^{e}" if e > 1 else n for n, e in mono]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def as_parampoly(q: UniPoly, name: str = "T") -> ParamPoly:
    """Q(T) with T the parameter ``name``."""
    out = ParamPoly.const(0)
    for m, c in enumerate(q.coeffs):
        out = out + ParamPoly.var(name, m) * c
    return out


def unipoly_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    if not a.coeffs or not b.coeffs:
        return UniPoly([])
    out = [ZERO] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return UniPoly(out)


def formal_matrix_action(a: Sequence[Sequence], p: DiffPoly) -> DiffPoly:
    """Change of variables x_j[k] -> sum_l a[j][l] x_l[k] over any coefficient
    ring (Fraction or ParamPoly entries), as a ring substitution."""
    size = p.n + 1
    if len(a) != size or any(len(row) != size for row in a):
        raise ValueError(f"matrix must be {size}x{size} for this polynomial")

    def image(j: int, k: int) -> DiffPoly:
        return DiffPoly(p.n, {((l, k, 1),): a[j][l] for l in range(size)})

    return substitute(p, image)


def derivative_shift(p: DiffPoly, coeffs: Sequence) -> DiffPoly:
    """Substitution x_i[k] -> sum_{j<=k} C(k,j) coeffs[k-j] x_i[j].

    ``coeffs[m]`` plays the role of the m-th Taylor coefficient data of a
    substituted one-variable polynomial; missing indices count as zero.
    """

    def image(i: int, k: int) -> DiffPoly:
        return DiffPoly(p.n, {((i, j, 1),): coeffs[k - j] * math.comb(k, j)
                              for j in range(max(0, k + 1 - len(coeffs)), k + 1)})

    return substitute(p, image)


def q_action(q: UniPoly, p: DiffPoly) -> DiffPoly:
    """Leibniz substitution action of Q(T): x_i[k] -> sum_j C(k,j) Q^(k-j)(T) x_i[j],
    that is :func:`derivative_shift` on the Taylor data Q, Q', Q'', ... of Q.

    The result has coefficients in Q[params][T]; it is linear in ``p``.
    """
    order = max(map(mono_order, p.terms), default=0)
    return derivative_shift(p, [as_parampoly(q.derivative(m)) for m in range(order + 1)])


def formal_verdict(p: DiffPoly) -> tuple[bool, int | None]:
    """Differential homogeneity: substitute x_i[k] -> sum_j C(k,j) mu_{k-j} x_i[j]
    with formal parameters mu_0..mu_K and compare against mu_0^d p."""
    g = gradings(p)
    if g.degree is None:
        return (False, None)
    mus = [ParamPoly.var(f"mu{m}") for m in range(g.order + 1)]
    if derivative_shift(p, mus) == p.scale(mus[0] ** g.degree):
        return (True, g.degree)
    return (False, None)


def formal_functional_solution_dim(lam: Partition, k: int, n: int) -> int:
    """Dimension of the solutions, inside the span of the D_T, of
    derivative_shift(P, [al, 1]) = al^d P with al formal: one equation per
    (monomial, power of al) coefficient."""
    ss = list(semistandard_tableaux(lam, k + 1, lo=0))
    if lam.nparts > n + 1 or not ss:
        return 0
    d = lam.size
    al = ParamPoly.var("al")

    def apply(s: Tableau):
        p = d_t(s, n)
        delta = derivative_shift(p, [al, ONE]) - p.scale(al ** d)
        for mono, c in delta.terms.items():
            cp = c if isinstance(c, ParamPoly) else ParamPoly.const(c)
            for pmono, frac in cp.terms.items():
                yield (mono, pmono), frac

    return len(ss) - rank(operator_rows(ss, apply), len(ss))


def formal_is_weight_vector(p: DiffPoly, weight: Sequence[int]) -> bool:
    """diag(x_0..x_N) . p == x_0^w_0 ... x_N^w_N p, with x_i formal."""
    xs = [ParamPoly.var(f"x{i}") for i in range(p.n + 1)]
    diag = [[xs[i] if i == j else ParamPoly.const(0) for j in range(p.n + 1)]
            for i in range(p.n + 1)]
    monomial = ParamPoly.const(1)
    for x, w in zip(xs, weight):
        monomial = monomial * x ** w
    return formal_matrix_action(diag, p) == p.scale(monomial)


def formal_is_unipotent_invariant(p: DiffPoly, pp: int, q: int) -> bool:
    """p is fixed by x_q -> x_q + t x_pp with t formal (the identity matrix
    with t in row q, column pp)."""
    a = [[ParamPoly.const(1 if i == j else 0) for j in range(p.n + 1)]
         for i in range(p.n + 1)]
    a[q][pp] = ParamPoly.var("t")
    return formal_matrix_action(a, p) == p


def _class_traces(d: int, k: int, mu: Partition) -> dict[int, Fraction]:
    """Trace, weight by weight, on the simultaneous kernel of the J^(l) of a
    permutation of the factors of cycle type mu.

    The kernel basis v_i is in reduced echelon form with pivots p_i = min(v_i):
    v_i[p_i] = 1 and v_j[p_i] = 0 for j != i.  So the coefficient of v_i in
    sigma.v_i is (sigma.v_i)[p_i] = v_i[col(sigma^-1 . idx(p_i))], and the
    trace is one lookup per vector.  sigma and sigma^-1 are conjugate in S_d,
    so the direction of the action does not matter.  Each v_i lies in the
    weight of its pivot, and sigma keeps weights.
    """
    # the cycles of mu on consecutive factor positions, each shifted by one
    src, start = [], 0
    for m in mu.parts:
        src += [start + (i + 1) % m for i in range(m)]
        start += m
    base = k + 1
    traces: dict[int, Fraction] = {}
    for v in full_kernel_vectors(d, k):
        p = min(v)
        digits = [(p // base ** (d - 1 - i)) % base for i in range(d)]
        col = 0
        for s in src:
            col = col * base + digits[s]
        weight = sum(digits)
        traces[weight] = traces.get(weight, ZERO) + v.get(col, 0)
    return traces


def character_multiplicities(d: int, k: int) -> dict[int, tuple[int, ...]]:
    """The multiplicity of each V_lam (``partitions_of`` order) in each weight
    of the kernel that is not zero:

        sum over cycle types mu of chi_lam(mu) tr(sigma_mu | kernel) / z_mu.

    Raises ArithmeticError unless every sum is a natural number."""
    classes = partitions_of(d)
    traces = {mu: _class_traces(d, k, mu) for mu in classes}
    out = {}
    for weight in sorted(set().union(*traces.values())):
        row = []
        for lam in classes:
            total = sum(character(lam, mu) * traces[mu].get(weight, ZERO) / centralizer_size(mu)
                        for mu in classes)
            if total.denominator != 1 or total < 0:
                raise ArithmeticError(f"character sum {total} for {lam} is not a multiplicity")
            row.append(int(total))
        out[weight] = tuple(row)
    return out
