"""Formal-parameter oracles for the symmetry checks of ``diffhom``.

The library decides every symmetry by an exact derivation over Q: the L_m of
the Leibniz action for differential homogeneity and for the functional
equation of the D_T, the multidegree for the torus weight, and the E_pq of
gl(N+1) for unipotent invariance.  This module keeps the direct computations
they replace, with coefficients in the polynomial ring Q[params] of named
formal parameters (:class:`ParamPoly`): substitute the group element with
formal entries and compare both sides.  ``DiffPoly`` and ``MultiPoly`` take
their arithmetic from ``exact.SparseComb``, which works over any coefficient
ring, so ``substitute`` accepts ``ParamPoly`` entries.

The library applies no matrix to a polynomial.  The GL action is kept here
as :func:`formal_matrix_action`, a ring substitution through ``substitute``
over any coefficient ring; it serves the formal weight and unipotent
criteria and the random-matrix GL checks.

``hwv.weight_multiplicities`` counts the isotypic multiplicities of the J^(l)
kernel as the nullities of L_1..L_k on the semi-standard D_T.  Two routes it
replaced are kept here as its oracles.  The character path
:func:`character_multiplicities`: class traces on the reduced kernel basis,
the tensors of ``hwv.full_kernel_vectors``, each read at its least index
vector, then the character sum over the
Murnaghan-Nakayama characters :func:`character` and the centralizer orders
:func:`centralizer_size`.  And the Young-subgroup route
:func:`young_weight_multiplicities`: the J^(l) on the invariants and
alternants of Young subgroups (:func:`young_operator_rows`, sized by
:func:`young_system_sizes`), then Young's rule solved by Kostka subtraction
along the dominance order (:func:`dominates`).  Each nullity is solved on
the transposed system, one row per D_T image with the image codes as
columns; the orientation it replaced, one row per image monomial and one
column per D_T, is kept as :func:`formal_functional_system`, with
:func:`formal_solve_multiplicities`, which solves every system at its own k
with no cache; :func:`clear_solver_caches` empties the solver's caches
before a test counts the systems it builds.

``dpoly.parse`` splits the text at its operators and reads each distinct
factor text once (a malformed text goes to a scan that only locates the
error), and ``dpoly.derive`` edits each monomial tuple in place.  The
token-list descent and the rebuild-and-sort derivation they replaced are
kept here as :func:`formal_parse` and :func:`formal_derive`, the oracles the
tests compare them against.

``dh basis`` prints each basis element with ``dpoly.to_text``.  It once
printed it from the JSON manifest, read back by :func:`from_json_dict`,
which is kept here as the oracle of that text and of ``dpoly.to_json_dict``.

``dpoly.is_diff_homogeneous`` builds the L_m images on packed exponent codes
with one field per variable of the input, one m at a time.  The test it replaced, ``derive``
under the variable images :func:`lowering` on (i, k, e) tuples, is kept here
as :func:`formal_derivation_verdict`; :func:`formal_verdict`, the Taylor-data
substitution with formal parameters, is the oracle of both.

``wronskian.verify_wedge_identity`` sums the wedges of the Appendix A
identities in one integer pass over the vectors, and
``wronskian.reduce_to_triangular`` memoizes the rewriting per tuple.  The
composition-by-composition sum of ``det_expansion`` minors and the work-queue
rewriting they replaced are kept here as :func:`formal_wedge_coordinates` and
:func:`formal_reduce_to_triangular`, with :func:`expand_combination`, which
reads a rewriting back as a combination of formal Wronskians.  The prefix
walks of the ``appendixA`` checks (``wronskian.first_wedge_failure`` and
``wronskian.formal_codes``) are compared in the tests against the
per-tuple ``verify_wedge_identity`` and :func:`formal_wronskian` (one
``build_wronskian`` over d distinct variables) they replaced.

``tableaux.count_standard`` counts standard tableaux by the hook-length
formula, ``tableaux.count_semistandard`` semi-standard ones by the
hook-content formula, and ``tableaux.kostka`` those of one content by
removing horizontal strips.  The enumerations they replaced are kept here as
:func:`standard_tableaux`, with :func:`count_standard_by_enumeration`,
:func:`count_semistandard_by_enumeration` and :func:`kostka_by_enumeration`,
and the branching rule that counted standard tableaux before, memoized over
every sub-shape, as :func:`count_standard_by_branching`.

``wronskian.build_wronskian`` and the census expand the Wronskian of monomial
entries t^a x_v over packed exponent codes (``dpoly.MonoCodec``).  The
library has no other Wronskian.  A Wronskian of any rational entries R_j
(:class:`UniPoly` in t, one per column of a :class:`WronskSpec`) is kept
here, twice: the expansion over sorted tuples of (i, k) factors that the
packed codes replaced, :func:`formal_build_wronskian`, and the minor
expansion ``det_expansion`` of the matrix :func:`wronskian_matrix`,
:func:`oracle_wronskian`.  :class:`UniPoly` is also the type of
:func:`q_action`.

``verify.check_basis_gl_lie`` certifies that the span of the basis is
GL-stable from the Chevalley generators of the Lie algebra, block by
multidegree.  The random-matrix check it replaced (five seeded matrices,
:func:`formal_matrix_action` images, ``span_rank`` and explicit coordinates
by ``solve_in_span``) is kept here as :func:`formal_gl_stability`, and the same
block test under all N(N+1) derivations E_pq as :func:`formal_gl_lie_verdicts`.  ``verify.check_pde_oracle`` ranks the
d! staircase derivatives of the Vandermonde (``pde.vandermonde_staircase``)
one order at a time; the family of all its nonzero derivatives that it
replaced is kept here as :func:`vandermonde_derivative_basis`.

``jets.pivot_profile`` eliminates one multidegree per partition of d and
credits its profile to every composition that rearranges it, from signed
permutation counts in an order-major layout whose top field is the jet order
(``wronskian.canonical_codes``).  The elimination of every composition's
own rows that it replaced is kept here as :func:`formal_pivot_profile`: the
``MonoCodec`` codes of :func:`formal_canonical_codes` in enumeration order,
one forward elimination per (weight, multidegree) block, with the columns
by decreasing :func:`code_order`, then ascending code.

``tableaux.relabel``, ``tableaux.schur_poly_eval`` and
``hwv.tensor_sigma_action``, which only the tests called, are kept here as
:func:`relabel`, :func:`schur_poly_eval` and :func:`tensor_sigma_action`.

``exact.echelon`` emits an ``int`` for every integral entry and a ``Fraction``
only where its pivot leaves a remainder, and so do ``exact.nullspace_basis``
and ``exact.solve_in_span``, which read it.  The all-``Fraction`` output
they gave before is kept here as :func:`formal_echelon` (dense Gauss-Jordan
over Q), :func:`formal_nullspace_basis` and :func:`formal_solve_in_span`.

``tableaux.young_symmetrizer`` builds c_T on ``int`` coefficients, and
``hwv.symmetrizer_projection`` applies it from one cached index map per
permutation.  The product of the signed column sum and the row sum in
``Fraction``, over the stabilizers found by filtering all of S_d, is kept
here as :func:`formal_young_symmetrizer`.
"""

from __future__ import annotations

import bisect
import math
import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from diffhom import hwv
from diffhom.dpoly import (DiffPoly, DMono, MonoCodec, ParseError, derive,
                           gl_elementary, gradings, mono_multidegree,
                           mono_order, mono_weight, solve_in_span, span_rank, substitute)
from diffhom.exact import (SparseComb, add_terms, det_expansion, linear_combination,
                           operator_rows, pivot_columns, rank)
from diffhom.hwv import MultiPoly, _codec, _d_t_codes, d_t, full_kernel_vectors, j_ell
from diffhom.pde import vandermonde
from diffhom.tableaux import (Partition, Permutation, Tableau, compositions, kostka,
                              partitions_of, semistandard_tableaux)
from diffhom.wronskian import (_codec as _wronskian_codec, _monomial_codes, build_wronskian,
                               enumerate_canonical_data)

ZERO = Fraction(0)
ONE = Fraction(1)


def integral(c: Fraction):
    """``c`` as an int when it is one."""
    return c.numerator if c.denominator == 1 else c


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
    ParamPoly can be a coefficient of a DiffPoly or a MultiPoly.
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


class UniPoly:
    """Polynomial in one formal variable t, with coefficients in any ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def t_power(cls, a: int) -> "UniPoly":
        return cls([ZERO] * a + [ONE])

    @classmethod
    def shifted_power(cls, theta: Fraction, j: int) -> "UniPoly":
        """(theta + t)^j expanded exactly."""
        return cls([Fraction(math.comb(j, m)) * theta ** (j - m) for m in range(j + 1)])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    __hash__ = None

    def derivative(self, times: int = 1) -> "UniPoly":
        cs = self.coeffs
        for _ in range(times):
            cs = tuple(c * (m + 1) for m, c in enumerate(cs[1:]))
        return UniPoly(cs)

    def at_zero(self):
        return self.coeffs[0] if self.coeffs else ZERO

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"


@dataclass(frozen=True)
class WronskSpec:
    """Entries (R_j, n_j): the one-variable polynomial R_j multiplying x_{n_j}."""
    entries: tuple[tuple[UniPoly, int], ...]

    @property
    def d(self) -> int:
        return len(self.entries)

    @classmethod
    def monomials(cls, alphas: Sequence[int], variables: Sequence[int]) -> "WronskSpec":
        if len(alphas) != len(variables):
            raise ValueError("length mismatch")
        return cls(tuple((UniPoly.t_power(a), v) for a, v in zip(alphas, variables)))


def wronskian_matrix(spec: WronskSpec, n: int) -> list[list[DiffPoly]]:
    """The d x d matrix: entry (r, j) = sum_m C(r, m) R_j^(r-m)(0) x_{n_j}[m]."""
    return [[DiffPoly(n, {((var, m, 1),): rpoly.derivative(r - m).at_zero() * math.comb(r, m)
                          for m in range(r + 1)})
             for rpoly, var in spec.entries] for r in range(spec.d)]


def oracle_wronskian(spec: WronskSpec, n: int) -> DiffPoly:
    """The Wronskian of ``spec`` by the minor expansion of :func:`wronskian_matrix`."""
    return det_expansion(wronskian_matrix(spec, n), DiffPoly.zero(n), DiffPoly.const(ONE, n))


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


def lowering(m: int) -> Callable[[int, int], tuple[int, int, int] | None]:
    """The variable images of L_m for ``dpoly.derive``: x_i[k] -> C(k, m) x_i[k-m]."""
    return lambda i, k: (i, k - m, math.comb(k, m)) if k >= m else None


def formal_derivation_verdict(p: DiffPoly) -> tuple[bool, int | None]:
    """Differential homogeneity as one degree and L_m p = 0 for m = 1..K, each
    L_m by ``dpoly.derive`` over (i, k, e) tuples on the primitive integer
    multiple of p (times the lcm of the denominators, over the gcd of the
    numerators)."""
    if not p:
        raise ValueError("the zero polynomial is excluded")
    g = gradings(p)
    if g.degree is None:
        return (False, None)
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    nums = {mono: c.numerator * (den // c.denominator) for mono, c in p.terms.items()}
    content = math.gcd(*nums.values())
    q = p.with_terms({mono: x // content for mono, x in nums.items()})
    for m in range(1, g.order + 1):
        if derive(q, lowering(m)):
            return (False, None)
    return (True, g.degree)


def formal_functional_solution_dim(lam: Partition, k: int, n: int) -> int:
    """Dimension of the solutions, inside the span of the D_T, of
    derivative_shift(P, [al, 1]) = al^d P with al formal: one equation per
    (monomial, power of al) coefficient."""
    ss = list(semistandard_tableaux(lam, k + 1))
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


def character(lam: Partition, mu: Partition) -> int:
    """chi_lam at the permutations of cycle type mu, by the Murnaghan-Nakayama
    rule on beta-sets (Sagan, The Symmetric Group, 4.10).

    lam is the set of beads at the positions lam_i + r - i, i = 1..r = lam.nparts.
    Removing a rim hook of length h moves one bead from b to a free b - h >= 0,
    with the sign (-1)^(beads strictly between); chi_lam(mu) sums the signed
    ways to strip the hooks mu_1, mu_2, ... in turn down to the empty shape.
    """
    if lam.size != mu.size:
        raise ValueError("partition sizes must agree")
    r = lam.nparts

    def strip(beads: frozenset[int], hooks: tuple[int, ...]) -> int:
        if not hooks:
            return 1
        h, rest = hooks[0], hooks[1:]
        total = 0
        for b in beads:
            if b >= h and b - h not in beads:
                between = sum(1 for c in beads if b - h < c < b)
                total += (-1) ** between * strip(beads - {b} | {b - h}, rest)
        return total

    return strip(frozenset(p + r - 1 - i for i, p in enumerate(lam.parts)), mu.parts)


def centralizer_size(mu: Partition) -> int:
    """z_mu = prod_i i^(m_i) m_i!, m_i parts of mu equal to i: the order of the
    centralizer of a permutation of cycle type mu, so its class has
    |mu|! / z_mu elements."""
    out = 1
    for i in set(mu.parts):
        m = mu.parts.count(i)
        out *= i ** m * math.factorial(m)
    return out


def _class_traces(d: int, k: int, mu: Partition) -> dict[int, Fraction]:
    """Trace, weight by weight, on the simultaneous kernel of the J^(l) of a
    permutation of the factors of cycle type mu.

    The kernel basis v_i is in reduced echelon form with pivots p_i, the
    least index vectors of the v_i: v_i[p_i] = 1 and v_j[p_i] = 0 for j != i.
    So the coefficient of v_i in sigma.v_i is (sigma.v_i)[p_i] =
    v_i[sigma^-1 . p_i], and the trace is one lookup per vector.  sigma and
    sigma^-1 are conjugate in S_d, so the direction of the action does not
    matter.  Each v_i lies in the weight of its pivot, and sigma keeps weights.
    """
    # the cycles of mu on consecutive factor positions, each shifted by one
    src, start = [], 0
    for m in mu.parts:
        src += [start + (i + 1) % m for i in range(m)]
        start += m
    traces: dict[int, Fraction] = {}
    for v in full_kernel_vectors(d, k):
        p = min(v.terms)
        weight = sum(p)
        traces[weight] = traces.get(weight, ZERO) + v.terms.get(tuple(p[s] for s in src), 0)
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


def _sorted_mono(exps: Mapping[tuple[int, int], int]) -> DMono:
    items = [(i, k, e) for (i, k), e in exps.items() if e]
    items.sort(key=lambda t: (t[0], -t[1]))
    return tuple(items)


def formal_derive(p: DiffPoly, image: Callable[[int, int], tuple[int, int, int] | None]) -> DiffPoly:
    """D p for the derivation D with D x_i[k] = c x_j[h] where ``image(i, k)``
    is (j, h, c): every output monomial rebuilt as an exponent dict and
    sorted."""

    def pairs():
        for mono, a in p.terms.items():
            for i, k, e in mono:
                img = image(i, k)
                if img is not None:
                    j, h, c = img
                    exps = {(i2, k2): e2 for i2, k2, e2 in mono}
                    exps[(i, k)] = e - 1
                    exps[(j, h)] = exps.get((j, h), 0) + 1
                    yield _sorted_mono(exps), a * (e * c)

    return p.with_terms(add_terms({}, pairs()))


_TOKEN = re.compile(r"\s*(?:x([0-9]+)|([0-9]+)|([\[\]^*+\-/]))")


def _token_int(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the interpreter's limit on digits to convert
        raise ParseError(f"integer of {len(digits)} digits is too long", pos) from None


def _tokenize(text: str) -> list[tuple[str, int | str, int]]:
    """(kind, value, position) tokens; "var" and "int" tokens carry the int
    they spell (the variable index for "var"), "sym" tokens the symbol."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            if text[pos] == "x" and pos + 1 < len(text) and text[pos + 1].isdigit():
                pos += 1  # 'x' then a non-ASCII digit: the digit is unexpected
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            tokens.append(("var", _token_int(m.group(1), m.start(1)), m.start(1) - 1))
        elif m.group(2):
            tokens.append(("int", _token_int(m.group(2), m.start(2)), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def formal_parse(text: str, n: int | None = None) -> DiffPoly:
    """The textual grammar of ``dpoly.parse`` by recursive descent over a
    token list built first, so every lexical error comes before any syntax
    error."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    if n is None:
        n = max((val for kind, val, _ in tokens if kind == "var"), default=0)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None, len(text))

    def take():
        nonlocal idx
        t = peek()
        idx += 1
        return t

    def expect_int() -> int:
        kind, val, pos = take()
        if kind != "int":
            raise ParseError("expected an integer", pos)
        return val

    def parse_factor(exps: dict[tuple[int, int], int]) -> Fraction:
        """Add a variable factor's exponent into ``exps``; return a rational
        factor's value (1 for a variable)."""
        kind, val, pos = peek()
        if kind == "int":
            take()
            k2, v2, _ = peek()
            if k2 == "sym" and v2 == "/":
                take()
                den = expect_int()
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return Fraction(val, den)
            return Fraction(val)
        if kind == "var":
            take()
            if val > n:
                raise ParseError(f"variable index {val} exceeds bound {n}", pos)
            k = 0
            k2, v2, _ = peek()
            if k2 == "sym" and v2 == "[":
                take()
                k = expect_int()
                k3, v3, p3 = take()
                if k3 != "sym" or v3 != "]":
                    raise ParseError("expected ']'", p3)
            e = 1
            k2, v2, _ = peek()
            if k2 == "sym" and v2 == "^":
                take()
                e = expect_int()
            exps[(val, k)] = exps.get((val, k), 0) + e
            return ONE
        raise ParseError("expected a coefficient or a variable", pos)

    def parse_term(sign: int) -> tuple[DMono, Fraction]:
        exps: dict[tuple[int, int], int] = {}
        coeff = parse_factor(exps) * sign
        while True:
            kind, val, _ = peek()
            if kind == "sym" and val == "*":
                take()
                coeff *= parse_factor(exps)
            else:
                return _sorted_mono(exps), coeff

    terms: dict[DMono, Fraction] = {}
    sign = 1
    kind, val, _ = peek()
    if kind == "sym" and val in "+-":
        take()
        sign = -1 if val == "-" else 1
    while True:
        add_terms(terms, (parse_term(sign),))
        kind, val, pos = peek()
        if kind is None:
            return DiffPoly(n, terms)
        if kind == "sym" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        else:
            raise ParseError("expected '+', '-' or end of input", pos)


def _json_int(x, what: str) -> int:
    """x if it is a JSON integer; a float, boolean or string raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {x!r}")
    return x


def _json_coeff(x) -> Fraction:
    """x as a Fraction if it is a string (what ``dpoly.to_json_dict`` writes)
    or a JSON integer; a float, boolean, list or malformed string raises
    ValueError."""
    try:
        return Fraction(x if type(x) is str else _json_int(x, "a coeff that is not a string"))
    except ZeroDivisionError:
        raise ValueError(f"coeff {x!r} has a zero denominator") from None


def from_json_dict(data: Mapping) -> DiffPoly:
    """The DiffPoly of a ``dpoly.to_json_dict`` dict; ValueError on a
    malformed one."""
    n = _json_int(data["N"], "N")
    terms: dict[DMono, Fraction] = {}
    for t in data["terms"]:
        exps: dict[tuple[int, int], int] = {}
        for factor in t["monomial"]:
            i, k, e = (_json_int(x, "a monomial factor entry") for x in factor)
            if not 0 <= i <= n or k < 0 or e < 1:
                raise ValueError(f"bad factor [{i}, {k}, {e}] for N={n} in JSON input")
            if (i, k) in exps:
                raise ValueError(f"repeated factor x{i}[{k}] in a JSON monomial")
            exps[(i, k)] = e
        mono = _sorted_mono(exps)
        c = _json_coeff(t["coeff"])
        if mono in terms:
            raise ValueError("duplicate monomial in JSON input")
        terms[mono] = c
    return DiffPoly(n, terms)


def _mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((m[r][c] * v[c] for c in range(len(v)) if v[c]), ZERO)
                 for r in range(len(m)))


def formal_wedge_coordinates(matrix: Sequence[Sequence[Fraction]],
                             vectors: Sequence[Sequence[Fraction]],
                             i: int) -> dict[tuple[int, ...], Fraction]:
    """Every Pluecker coordinate, keyed by its sorted rows, of the sum over
    a in N^c, |a| = i of N^a1 v_1 ^ ... ^ N^ac v_c (c = len(vectors)), for
    any square rational matrix N: each summand's c x c minors by
    ``det_expansion``, one composition at a time."""
    d = len(matrix)
    count = len(vectors)
    powers: list[list[tuple[Fraction, ...]]] = []
    for v in vectors:
        chain = [tuple(Fraction(c) for c in v)]
        for _ in range(i):
            chain.append(_mat_vec(matrix, chain[-1]))
        powers.append(chain)
    totals = {rows: ZERO for rows in itertools.combinations(range(d), count)}
    for exps in compositions(i, count):
        cols = [powers[j][exps[j]] for j in range(count)]
        for rows in totals:
            sub = [[cols[j][r] for j in range(count)] for r in rows]
            totals[rows] += det_expansion(sub, ZERO, ONE)
    return totals


def formal_reduce_to_triangular(alpha: Sequence[int]) -> list[tuple[Fraction, tuple[int, ...]]]:
    """The triangular rewriting of ``alpha`` by a work queue: pop the
    lexicographically largest tuple, drop it if an entry is >= d, keep it if
    triangular, else replace it by minus the other summands of the vanishing
    identity at its first violating position."""
    d = len(alpha)
    work: dict[tuple[int, ...], Fraction] = {tuple(alpha): ONE}
    result: dict[tuple[int, ...], Fraction] = {}
    while work:
        idx = max(work)
        coeff = work.pop(idx)
        if any(a >= d for a in idx):
            continue
        p = next((p for p, a in enumerate(idx, start=1) if a > p - 1), None)
        if p is None:
            add_terms(result, [(idx, coeff)])
            continue
        base = list(idx)
        base[p - 1] -= p
        ours = (p,) + (0,) * (d - p)
        add_terms(work, ((idx[:p - 1] + tuple(b + g for b, g in zip(base[p - 1:], gamma)), -coeff)
                         for gamma in compositions(p, d - p + 1) if gamma != ours))
    return sorted(((c, idx) for idx, c in result.items()), key=lambda t: t[1])


def formal_wronskian(alpha: Sequence[int]) -> DiffPoly:
    """The Wronskian of (t^alpha_1 y_1, ..., t^alpha_d y_d) over d distinct
    formal variables, realized as x_0..x_{d-1}; zero whenever some
    alpha_i >= d."""
    return build_wronskian(tuple(zip(alpha, range(len(alpha)))), len(alpha) - 1)


def expand_combination(comb: Iterable[tuple[Fraction, Sequence[int]]], d: int) -> DiffPoly:
    """The combination of formal Wronskians that a rewriting names."""
    return linear_combination(DiffPoly.zero(d - 1),
                              ((c, formal_wronskian(idx)) for c, idx in comb))


def formal_build_wronskian(spec: WronskSpec, n: int) -> DiffPoly:
    """The Wronskian of ``spec`` by the same row-by-row expansion over sets of
    used columns, with each monomial a sorted tuple of (i, k) factors, one
    per unit of exponent, and a factor inserted by bisection."""
    d = spec.d
    forms = [[[((var, r - s), math.perm(r, s) * c) for s, c in enumerate(rpoly.coeffs[:r + 1]) if c]
              for rpoly, var in spec.entries] for r in range(d)]
    partial: dict[int, dict[tuple, Fraction]] = {0: {(): ONE}}
    for row in forms:
        grown: dict[int, dict[tuple, Fraction]] = {}
        for mask, terms in partial.items():
            above = 0
            for c in range(d - 1, -1, -1):
                if mask >> c & 1:
                    above += 1
                    continue
                out = grown.setdefault(mask | 1 << c, {})
                for key, ec in row[c]:
                    if above & 1:
                        ec = -ec
                    for mono, coeff in terms.items():
                        j = bisect.bisect(mono, key)
                        prod = mono[:j] + (key,) + mono[j:]
                        out[prod] = out.get(prod, ZERO) + coeff * ec
        partial = grown
    return DiffPoly(n, {_sorted_mono(Counter(mono)): c
                        for mono, c in partial.get((1 << d) - 1, {}).items() if c})


def standard_tableaux(lam: Partition) -> Iterator[Tableau]:
    """All standard tableaux of the given shape, by direct backtracking."""
    d = lam.size
    parts = lam.parts
    # cells in row-major order with (row, col) coordinates
    cells = [(r, c) for r, p in enumerate(parts) for c in range(p)]
    cell_index = {rc: i for i, rc in enumerate(cells)}
    filling = [0] * d

    def place(value: int) -> Iterator[tuple[int, ...]]:
        if value > d:
            yield tuple(filling)
            return
        for r, p in enumerate(parts):
            for c in range(p):
                i = cell_index[(r, c)]
                if filling[i]:
                    continue
                left_ok = c == 0 or filling[cell_index[(r, c - 1)]] != 0
                up_ok = r == 0 or (c < parts[r - 1] and filling[cell_index[(r - 1, c)]] != 0)
                if left_ok and up_ok:
                    filling[i] = value
                    yield from place(value + 1)
                    filling[i] = 0
                break  # only the leftmost empty cell of each row is a candidate

    for f in place(1):
        yield Tableau(lam, f)


def count_standard_by_enumeration(lam: Partition) -> int:
    return sum(1 for _ in standard_tableaux(lam))


def count_standard_by_branching(lam: Partition) -> int:
    """f_lam by the branching rule: the entry d of a standard tableau sits in
    a corner of lam, so f_lam is the sum of f_(lam - corner) over the
    corners (f of the empty shape is 1)."""
    return _branching_count(lam.parts)


@lru_cache(maxsize=None)
def _branching_count(parts: tuple[int, ...]) -> int:
    if not parts:
        return 1
    total = 0
    for r, p in enumerate(parts):
        if r + 1 == len(parts) or parts[r + 1] < p:  # (r, p-1) is a corner
            total += _branching_count(parts[:r] + ((p - 1,) if p > 1 else ()) + parts[r + 1:])
    return total


def count_semistandard_by_enumeration(lam: Partition, n: int) -> int:
    """s_lam(1^n): the semi-standard tableaux of shape lam over n letters,
    counted one by one."""
    return sum(1 for _ in semistandard_tableaux(lam, n))


def kostka_by_enumeration(lam: Partition, a: Sequence[int]) -> int:
    """The semi-standard tableaux of shape lam with a[j] copies of letter j,
    counted one by one."""
    return sum(1 for t in semistandard_tableaux(lam, len(a))
               if all(t.filling.count(j) == c for j, c in enumerate(a)))


def schur_poly_eval(lam: Partition, xs: Sequence[Fraction]) -> Fraction:
    """Schur polynomial value: sum over semi-standard tableaux of the content monomial."""
    total = ZERO
    for t in semistandard_tableaux(lam, len(xs)):
        prod = ONE
        for v in t.filling:
            prod *= xs[v]
        total += prod
    return total


# ---------------------------------------------------------------------------
# The Young-subgroup route to the multiplicities of the J^(l) kernel.

def dominates(nu: Partition, lam: Partition) -> bool:
    """Whether nu dominates lam: each partial sum nu_1 + ... + nu_i is at least
    lam_1 + ... + lam_i (partitions of one size)."""
    if nu.size != lam.size:
        raise ValueError("partition sizes must agree")
    return all(a >= b for a, b in zip(itertools.accumulate(nu.parts),
                                      itertools.accumulate(lam.parts)))


@lru_cache(maxsize=None)
def _decreasing_tuples(m: int, k: int, strict: bool) -> dict[int, tuple[tuple[int, ...], ...]]:
    """The weakly (strictly, with ``strict``) decreasing m-tuples over {0..k},
    grouped by entry sum.  Shared: callers must not mutate it."""
    pick = itertools.combinations if strict else itertools.combinations_with_replacement
    out: dict[int, list[tuple[int, ...]]] = {}
    for t in pick(range(k, -1, -1), m):
        out.setdefault(sum(t), []).append(t)
    return {s: tuple(ts) for s, ts in out.items()}


def _young_keys(mu: Sequence[int], k: int, weight: int, strict: bool) -> list[tuple[int, ...]]:
    """The index vectors of weight ``weight`` that decrease inside each block
    of consecutive positions of sizes mu: block sums in lexicographic order,
    then each block's tuples.  For mu = 1^d these are all index vectors, in
    lexicographic order."""
    by_sum = [_decreasing_tuples(m, k, strict) for m in mu]
    cap = max(max(b, default=0) for b in by_sum)
    return [sum(heads, ()) for sums in compositions(weight, len(mu), cap)
            for heads in itertools.product(*(b.get(s, ()) for b, s in zip(by_sum, sums)))]


def young_operator_rows(d: int, k: int, weight: int, mu: Sequence[int] | None = None,
                        sign: bool = False) -> tuple[list[dict[int, int]], int]:
    """Rows of all J^(l), l = 1..d, on the weight-``weight`` part of the
    S_mu-coinvariants (``sign``: the S_mu-sign-coinvariants) of the tensor
    power, as one sparse integer matrix; S_mu permutes the factors inside
    each block of consecutive positions of sizes mu (default 1^d, the whole
    tensor power, where this is ``hwv.stacked_operator_rows``).

    The columns are the index vectors that are weakly decreasing inside each
    block (``sign``: strictly decreasing).  Each output index is folded to its
    block-sorted form, times the sign of the sorting permutation with
    ``sign``, where an output with a repeated entry inside a block vanishes.
    The J^(l) commute with permuting the factors, so the kernel here has the
    dimension of the S_mu-invariants (S_mu-alternants) of the kernel on the
    tensor power.
    """
    mu = tuple(mu) if mu is not None else (1,) * d
    if sum(mu) != d or any(m < 1 for m in mu):
        raise ValueError(f"block sizes {mu} do not split {d} factors")
    keys = _young_keys(mu, k, weight, sign)
    spans = list(zip(itertools.accumulate(mu, initial=0), itertools.accumulate(mu)))

    def fold(out: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        key: list[int] = []
        parity = 0
        for a, b in spans:
            block = out[a:b]
            if sign:
                if len(set(block)) < len(block):
                    return out, 0
                parity += sum(x < y for i, x in enumerate(block) for y in block[i + 1:])
            key += sorted(block, reverse=True)
        return tuple(key), -1 if parity % 2 else 1

    def apply(idx: tuple[int, ...]):
        t = MultiPoly(d, {idx: 1})
        terms: dict = {}
        for ell in range(1, d + 1):
            for out, c in j_ell(t, ell).terms.items():
                key, s = fold(out)
                if s:
                    terms[ell, key] = terms.get((ell, key), 0) + s * c
        return ((key, c) for key, c in terms.items() if c)

    return operator_rows(keys, apply), len(keys)


def young_system_sizes(lam: Partition, k: int) -> tuple[int, int]:
    """Columns, over all weights, of the S_lam-invariant system and of the
    S_lam'-alternant system: prod C(k + lam_i, lam_i) multisets and
    prod C(k + 1, lam'_j) sets."""
    return (math.prod(math.comb(k + m, m) for m in lam.parts),
            math.prod(math.comb(k + 1, m) for m in lam.conjugate().parts))


def largest_young_system(d: int, k: int) -> int:
    """Columns of the largest system :func:`young_weight_multiplicities`
    solves at (d, k), over all weights: max over lam of min(invariant,
    alternant) columns."""
    return max(min(young_system_sizes(lam, k)) for lam in partitions_of(d))


@lru_cache(maxsize=None)
def _invariant_side(d: int, k: int) -> frozenset[Partition]:
    """The up-set of the dominance order whose multiplicities are solved on
    invariants: the upward closure of the lam whose invariant system has at
    most as many columns as its alternant system."""
    lams = partitions_of(d)
    seeds = [lam for lam in lams for inv, alt in [young_system_sizes(lam, k)] if inv <= alt]
    return frozenset(nu for nu in lams if any(dominates(nu, lam) for lam in seeds))


@lru_cache(maxsize=None)
def young_weight_multiplicities(d: int, k: int, weight: int) -> tuple[int, ...]:
    """The multiplicity of each V_lam (``partitions_of`` order) in the
    weight-``weight`` part of the J^(l) kernel, by Young's rule: the kernel
    has sum_nu K_{nu,lam} m_nu invariants under the Young subgroup S_lam and
    sum_nu K_{nu',lam'} m_nu alternants under S_lam' (Fulton, Young Tableaux
    7.3), both unitriangular in the dominance order.  The lam of
    ``_invariant_side`` are solved from the top down on invariants, the
    others from 1^d upward on alternants.  Every weight is solved at its own
    k.  Raises ArithmeticError on a negative multiplicity."""
    lams = partitions_of(d)
    upper = _invariant_side(d, k)

    def nullity(mu: Partition, sign: bool) -> int:
        rows, ncols = young_operator_rows(d, k, weight, mu.parts, sign)
        return ncols - rank(rows, ncols)

    # partitions_of lists every nu before each lam it dominates
    m: dict[Partition, int] = {}
    for lam in lams:
        if lam in upper:
            m[lam] = nullity(lam, False) - sum(kostka(nu, lam.parts) * c for nu, c in m.items() if c)
    below: dict[Partition, int] = {}
    for lam in reversed(lams):
        if lam not in upper:
            conj = lam.conjugate()
            below[lam] = nullity(conj, True) - sum(kostka(nu.conjugate(), conj.parts) * c
                                                   for nu, c in below.items() if c)
    m.update(below)
    for lam in lams:
        if m[lam] < 0:
            raise ArithmeticError(f"negative multiplicity {m[lam]} for {lam} at weight {weight}")
    return tuple(m[lam] for lam in lams)


def formal_functional_system(lam: Partition, k: int, weight: int
                             ) -> tuple[list[dict[int, int]], int]:
    """``hwv.functional_system`` in the orientation it replaced: one row
    per monomial of the L_m images, in code order, and column j the image
    of the j-th semi-standard D_T of shape lam, entries <= k and entry sum
    ``weight`` (``operator_rows``).  Its nullity, columns minus rank, is
    m_lam at that weight."""
    codec = _codec(lam, k)
    polys = list(_d_t_codes(semistandard_tableaux(lam, k + 1, total=weight), codec))
    return operator_rows(polys, lambda p: codec.lowered(p, k).items()), len(polys)


def formal_solve_multiplicities(d: int, k: int, weight: int) -> tuple[int, ...]:
    """``hwv.solve_multiplicities`` on :func:`formal_functional_system`."""
    return tuple(ncols - rank(rows, ncols)
                 for rows, ncols in (formal_functional_system(lam, k, weight)
                                     for lam in partitions_of(d)))


def clear_solver_caches() -> None:
    """Empty the multiplicity cache and the nullity cache under it, so the
    next solve builds its systems again."""
    hwv.weight_multiplicities.cache_clear()
    hwv._nullities.clear()


def _random_invertible(size: int, rng: random.Random) -> list[list[Fraction]]:
    while True:
        a = [[Fraction(rng.randint(-5, 5)) for _ in range(size)] for _ in range(size)]
        if rank([{j: v for j, v in enumerate(row) if v} for row in a], size) == size:
            return a


def formal_gl_stability(n: int, d: int, seed: int, basis: Sequence[DiffPoly],
                        matrices: int = 5) -> str:
    """The random-trial GL check on the family ``basis``: "stable", or the
    first trial that fails, by :func:`formal_matrix_action` images, one
    ``span_rank`` per trial and exact coordinates for three elements by
    ``solve_in_span`` (five seeded invertible integer matrices)."""
    rng = random.Random(seed * 1000003 + n * 1009 + d)
    base_rank = span_rank(basis)
    for trial in range(matrices):
        a = _random_invertible(n + 1, rng)
        images = [formal_matrix_action(a, p) for p in basis]
        joint = span_rank([*basis, *images])
        if joint != base_rank:
            return f"trial {trial}: span grew to {joint}"
        for idx in (0, len(basis) // 2, len(basis) - 1):
            if solve_in_span(basis, [images[idx]])[0] is None:
                return f"trial {trial}: element {idx} did not solve"
    return "stable"


def formal_gl_lie_verdicts(polys: Sequence[DiffPoly], n: int) -> dict[tuple[int, ...], bool]:
    """Per multidegree nu that some E_pq f reaches, p != q (all N(N+1) of
    them, applied by ``derive``), f a multihomogeneous member: whether the
    members of multidegree nu with those images have the rank of the
    members alone (``span_rank``)."""
    blocks: dict[tuple[int, ...], list[DiffPoly]] = {}
    for f in polys:
        (mu,) = {tuple(mono_multidegree(m, n)) for m in f.terms}
        blocks.setdefault(mu, []).append(f)
    images: dict[tuple[int, ...], list[DiffPoly]] = {}
    for f in polys:
        for p, q in itertools.permutations(range(n + 1), 2):
            g = derive(f, gl_elementary(p, q))
            if g:
                (nu,) = {tuple(mono_multidegree(m, n)) for m in g.terms}
                images.setdefault(nu, []).append(g)
    return {nu: span_rank(blocks.get(nu, []) + found) == span_rank(blocks.get(nu, []))
            for nu, found in images.items()}


def vandermonde_derivative_basis(d: int) -> list[MultiPoly]:
    """All nonzero partial derivatives of the Vandermonde determinant, by
    order: a spanning set of the d!-dimensional solution space of the
    power-sum system."""
    if d < 1:
        raise ValueError("d must be >= 1")
    v = vandermonde(d)
    deg = v.degree()
    out = []
    for total in range(deg + 1):
        for beta in compositions(total, d):
            p = v
            for i, times in enumerate(beta):
                if times:
                    p = p.derivative(i, times)
                if not p:
                    break
            if p:
                out.append(p)
    return out


def code_order(codec: MonoCodec, w: int) -> int:
    """The jet order of the monomial of code ``w`` under ``codec``: per
    variable, the lowest nonzero field holds its highest order."""
    width = codec.orders * codec.bits
    span = (1 << width) - 1
    top = 0
    while w:
        part = w & span
        if part:
            top = max(top, codec.orders - 1 - ((part & -part).bit_length() - 1) // codec.bits)
        w >>= width
    return top


def formal_canonical_codes(d: int, data: Iterable) -> tuple[MonoCodec, Iterator]:
    """Each canonical datum of degree d with its Wronskian as {code: int
    coefficient} under the one ``MonoCodec`` of degree d, built as the
    iterator is read: the census rows before the signed counts and their
    order-major layout."""
    codec = _wronskian_codec(d)
    return codec, ((datum, _monomial_codes(datum.pairs(), codec)) for datum in data)


def formal_pivot_profile(n: int, d: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(weight, size, pivot orders) of each weight block of the degree-d
    canonical basis, by ascending weight, the pivot orders as one tuple by
    descending order: every composition's rows eliminated, one forward
    elimination per (weight, multidegree) block with the monomials as
    columns sorted by decreasing jet order.  The rows of one multidegree
    come together (the data are enumerated by multiplicity vector), so each
    multidegree's blocks are eliminated and dropped before the next is
    expanded."""
    if d == 0:
        codec, rows = MonoCodec(1, 1), [(None, {0: 1})]
    else:
        codec, rows = formal_canonical_codes(d, enumerate_canonical_data(n, d))

    def graded():
        for _, codes in rows:
            mono = codec.decode(next(iter(codes)))
            yield tuple(mono_multidegree(mono, n)), mono_weight(mono), codes

    sizes: dict[int, int] = {}
    pivot_orders: dict[int, list[int]] = {}
    done = set()
    for multidegree, group in itertools.groupby(graded(), key=lambda t: t[0]):
        if multidegree in done:
            raise ValueError(f"rows of multidegree {multidegree} do not come together")
        done.add(multidegree)
        blocks: dict[int, list[dict[int, int]]] = {}
        for _, weight, codes in group:
            blocks.setdefault(weight, []).append(codes)
        for weight, block in blocks.items():
            order = {w: code_order(codec, w) for w in set().union(*block)}
            cols = sorted(order, key=lambda w: (-order[w], w))
            col = {w: j for j, w in enumerate(cols)}
            pivots = pivot_columns([{col[w]: c for w, c in codes.items()} for codes in block],
                                   len(cols))
            sizes[weight] = sizes.get(weight, 0) + len(block)
            pivot_orders.setdefault(weight, []).extend(order[cols[j]] for j in pivots)
    return tuple((weight, sizes[weight], tuple(sorted(pivot_orders[weight], reverse=True)))
                 for weight in sorted(sizes))


def tensor_sigma_action(t: MultiPoly, sigma: Permutation) -> MultiPoly:
    """Right action: the i-th factor of t.sigma is the sigma(i)-th factor of t
    (sigma permutes the factors, so distinct indices stay distinct)."""
    if sigma.d != t.nvars:
        raise ValueError("permutation size mismatch")
    return t.with_terms({tuple(idx[sigma(i + 1) - 1] for i in range(t.nvars)): c
                         for idx, c in t.terms.items()})


def relabel(sigma: Permutation, t: Tableau) -> Tableau:
    """Apply sigma to every entry of a tableau filled with {1..d}."""
    return Tableau(t.shape, tuple(sigma(v) for v in t.filling))


def _sign_by_inversions(images: Sequence[int]) -> int:
    return (-1) ** sum(1 for i, j in itertools.combinations(range(len(images)), 2)
                       if images[i] > images[j])


def formal_young_symmetrizer(t: Tableau) -> dict[Permutation, Fraction]:
    """c_T = (signed column sum) * (row sum) as {permutation: Fraction}: the
    row and column stabilizers filtered from all of S_d, each product
    composed by its images, and the signs counted by inversions."""
    d = t.shape.size
    where = {v: i for i, v in enumerate(t.filling)}
    rows = [r for r, p in enumerate(t.shape.parts) for _ in range(p)]
    cols = [c for p in t.shape.parts for c in range(p)]

    def stabilizer(block: Sequence[int]) -> list[tuple[int, ...]]:
        return [images for images in itertools.permutations(range(1, d + 1))
                if all(block[where[v]] == block[where[images[v - 1]]] for v in range(1, d + 1))]

    out: dict[Permutation, Fraction] = {}
    for q in stabilizer(cols):
        for p in stabilizer(rows):
            key = Permutation(tuple(q[p[i] - 1] for i in range(d)))
            out[key] = out.get(key, Fraction(0)) + Fraction(_sign_by_inversions(q))
    return {key: c for key, c in out.items() if c}


def formal_echelon(rows: Sequence[Mapping[int, Fraction]], ncols: int
                   ) -> list[tuple[int, dict[int, Fraction]]]:
    """The reduced echelon form of the sparse rows as (pivot_col, row) with
    ascending pivot columns, every entry a ``Fraction``: dense Gauss-Jordan
    over Q.  The reduced form of a row space is unique, so the pivot order
    does not matter."""
    dense = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    out = []
    for col in range(ncols):
        at = next((i for i, r in enumerate(dense) if r[col]), None)
        if at is None:
            continue
        pivot = dense.pop(at)
        pivot = [v / pivot[col] for v in pivot]
        dense = [[a - r[col] * b for a, b in zip(r, pivot)] for r in dense]
        out = [(c, [a - r[col] * b for a, b in zip(r, pivot)]) for c, r in out]
        out.append((col, pivot))
    return [(col, {c: v for c, v in enumerate(r) if v}) for col, r in out]


def formal_nullspace_basis(rows: Sequence[Mapping[int, Fraction]], ncols: int
                           ) -> list[dict[int, Fraction]]:
    """The right kernel of the rows in reduced echelon form, all ``Fraction``:
    one vector per free column, reduced by :func:`formal_echelon`."""
    pivots = formal_echelon(rows, ncols)
    pivot_cols = {col for col, _ in pivots}
    raw = []
    for f in range(ncols):
        if f not in pivot_cols:
            raw.append({f: ONE, **{col: -row[f] for col, row in pivots if row.get(f)}})
    return [row for _, row in formal_echelon(raw, ncols)]


def formal_solve_in_span(basis: Sequence[SparseComb], targets: Sequence[SparseComb]
                         ) -> list[list[Fraction] | None]:
    """Per target, its coordinates in span(basis), all ``Fraction`` and free
    ones 0, or None when it lies outside, from :func:`formal_echelon` of the
    columns (basis, then targets), as ``exact.solve_in_span`` reads them."""
    nb = len(basis)
    xs: list[list[Fraction] | None] = [[ZERO] * nb for _ in targets]
    for col, row in formal_echelon(operator_rows([*basis, *targets], lambda m: m.terms.items()),
                                   nb + len(targets)):
        if col >= nb:
            for c in row:
                xs[c - nb] = None
            continue
        for c, v in row.items():
            if c >= nb:
                xs[c - nb][col] = v
    return xs
