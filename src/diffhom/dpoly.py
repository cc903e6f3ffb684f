"""Differential polynomials in the variables x_i[k] (formally X_i^(k)).

A differential polynomial lives in Q[params][X_i^(k) : 0 <= i <= N, k >= 0].
The module provides the substitution action of one-variable polynomials Q(T)
through the Leibniz rule, the change-of-variable action of (N+1) x (N+1)
matrices, gradings (degree, weight, order), a text/JSON serialization, and
exact rank computations for families of differential polynomials.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .exact import Coeff, ParamPoly, SparseComb, ZERO, ONE, echelon, linear_combination
from .exact import solve as _solve

# A differential monomial: ((i, k, e), ...) with e > 0, sorted by (i, -k).
DMono = tuple[tuple[int, int, int], ...]

_EMPTY: DMono = ()


def _mono_from_exps(exps: Mapping[tuple[int, int], int]) -> DMono:
    items = [(i, k, e) for (i, k), e in exps.items() if e]
    items.sort(key=lambda t: (t[0], -t[1]))
    return tuple(items)


def mono_mul(a: DMono, b: DMono) -> DMono:
    if not a:
        return b
    if not b:
        return a
    exps = {(i, k): e for i, k, e in a}
    for i, k, e in b:
        exps[(i, k)] = exps.get((i, k), 0) + e
    return _mono_from_exps(exps)


def mono_degree(m: DMono) -> int:
    return sum(e for _, _, e in m)


def mono_weight(m: DMono) -> int:
    return sum(k * e for _, k, e in m)


def mono_order(m: DMono) -> int:
    return max((k for _, k, _ in m), default=0)


def mono_sort_key(m: DMono):
    # Ascending sort under this key lists monomials from largest to smallest
    # in the variable order x0[K] > ... > x0[0] > x1[K] > ... > xN[0].
    return tuple(((i, -k), -e) for i, k, e in m)


class DiffPoly(SparseComb):
    """Sparse differential polynomial with Fraction or ParamPoly coefficients."""

    __slots__ = ("n",)
    _shape = ("n",)
    _mismatch = "mixed ambient variable bounds"
    _key_mul = staticmethod(mono_mul)

    def __init__(self, n: int, terms: Mapping[DMono, Coeff] | None = None):
        if n < 0:
            raise ValueError("ambient index bound must be >= 0")
        self.n = n
        super().__init__(terms)

    @classmethod
    def zero(cls, n: int) -> "DiffPoly":
        return cls(n)

    @classmethod
    def const(cls, c: Coeff, n: int) -> "DiffPoly":
        return cls(n, {_EMPTY: c})

    @classmethod
    def var(cls, i: int, k: int, n: int) -> "DiffPoly":
        if not 0 <= i <= n:
            raise ValueError(f"variable index {i} exceeds bound {n}")
        if k < 0:
            raise ValueError("negative derivative order")
        return cls(n, {((i, k, 1),): ONE})

    def sorted_terms(self) -> list[tuple[DMono, Coeff]]:
        return sorted(self.terms.items(), key=lambda t: mono_sort_key(t[0]))

    def is_rational(self) -> bool:
        """True when no coefficient involves a free parameter."""
        return all(not isinstance(c, ParamPoly) or c.is_constant()
                   for c in self.terms.values())

    def rational_terms(self) -> dict[DMono, Fraction]:
        out = {}
        for m, c in self.terms.items():
            if isinstance(c, ParamPoly):
                out[m] = c.constant_value()
            else:
                out[m] = c
        return out

    def __repr__(self) -> str:
        if self.is_rational():
            return to_text(self)
        return f"DiffPoly(n={self.n}, {len(self.terms)} terms, parametric)"


@dataclass(frozen=True)
class Gradings:
    """Degree/weight are None when monomials disagree (inhomogeneous / non-isobaric)."""
    degree: int | None
    weight: int | None
    order: int


def gradings(p: DiffPoly) -> Gradings:
    if not p:
        raise ValueError("the zero polynomial has no degree, weight or order")
    degs = {mono_degree(m) for m in p.terms}
    wts = {mono_weight(m) for m in p.terms}
    order = max(mono_order(m) for m in p.terms)
    return Gradings(degree=degs.pop() if len(degs) == 1 else None,
                    weight=wts.pop() if len(wts) == 1 else None,
                    order=order)


def substitute(p: DiffPoly, image: Callable[[int, int], DiffPoly], n_out: int | None = None) -> DiffPoly:
    """Ring substitution x_i[k] -> image(i, k), extended multiplicatively."""
    one = DiffPoly.const(ONE, p.n if n_out is None else n_out)
    powers: dict[tuple[int, int, int], DiffPoly] = {}

    def mono_image(mono: DMono) -> DiffPoly:
        acc = one
        for i, k, e in mono:
            powed = powers.get((i, k, e))
            if powed is None:
                powed = powers[(i, k, e)] = image(i, k) ** e
            acc = acc * powed
        return acc

    return linear_combination(one, ((c, mono_image(mono)) for mono, c in p.terms.items()))


class UniPoly:
    """Polynomial in one formal variable t, with Fraction or ParamPoly coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coeff]):
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

    def at_zero(self) -> Coeff:
        return self.coeffs[0] if self.coeffs else ZERO

    def as_parampoly(self, name: str = "T") -> ParamPoly:
        out = ParamPoly.const(0)
        for m, c in enumerate(self.coeffs):
            out = out + ParamPoly.var(name, m) * c
        return out

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly([])
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)})"


def q_action(q: UniPoly, p: DiffPoly) -> DiffPoly:
    """Leibniz substitution action of Q(T): x_i[k] -> sum_j C(k,j) Q^(k-j)(T) x_i[j],
    that is :func:`derivative_shift` on the Taylor data Q, Q', Q'', ... of Q.

    The result has coefficients in Q[params][T]; it is linear in ``p``.
    """
    order = max(map(mono_order, p.terms), default=0)
    return derivative_shift(p, [q.derivative(m).as_parampoly("T") for m in range(order + 1)])


def derivative_shift(p: DiffPoly, coeffs: Sequence[Coeff]) -> DiffPoly:
    """Substitution x_i[k] -> sum_{j<=k} C(k,j) coeffs[k-j] x_i[j].

    ``coeffs[m]`` plays the role of the m-th Taylor coefficient data of a
    substituted one-variable polynomial; missing indices count as zero.
    """

    def image(i: int, k: int) -> DiffPoly:
        return DiffPoly(p.n, {((i, j, 1),): coeffs[k - j] * math.comb(k, j)
                              for j in range(max(0, k + 1 - len(coeffs)), k + 1)})

    return substitute(p, image)


def is_diff_homogeneous(p: DiffPoly) -> tuple[bool, int | None]:
    """Decide whether Q . p = Q^d p holds for every one-variable polynomial Q.

    Decision procedure: substitute x_i[k] -> sum_j C(k,j) mu_{k-j} x_i[j] with
    formal parameters mu_0..mu_K, K the order of p, and compare against
    mu_0^d p.  The parameter tuple ranges over all Taylor data (Q(t0), Q'(t0),
    ...), so the formal identity is equivalent to the defining property.
    """
    if not p:
        raise ValueError("the zero polynomial is excluded")
    if not p.is_rational():
        raise ValueError("free parameters in coefficients are not allowed here")
    g = gradings(p)
    if g.degree is None:
        return (False, None)
    d = g.degree
    mus = [ParamPoly.var(f"mu{m}") for m in range(g.order + 1)]
    lhs = derivative_shift(p, mus)
    rhs = p.scale(mus[0] ** d)
    return (True, d) if lhs == rhs else (False, None)


def matrix_action(a: Sequence[Sequence[Coeff]], p: DiffPoly) -> DiffPoly:
    """Change of variables x_j[k] -> sum_l a[j][l] x_l[k] for an (N+1)x(N+1) matrix."""
    size = p.n + 1
    if len(a) != size or any(len(row) != size for row in a):
        raise ValueError(f"matrix must be {size}x{size} for this polynomial")

    def image(j: int, k: int) -> DiffPoly:
        return DiffPoly(p.n, {((l, k, 1),): a[j][l] for l in range(size)})

    return substitute(p, image)


# ---------------------------------------------------------------------------
# Exact linear algebra on families of differential polynomials.

def coefficient_rows(polys: Sequence[DiffPoly]) -> tuple[list[dict[int, Fraction]], list[DMono]]:
    """Rows of the coefficient matrix, columns indexed by canonically sorted monomials."""
    monos = sorted({m for p in polys for m in p.terms}, key=mono_sort_key)
    index = {m: j for j, m in enumerate(monos)}
    rows = []
    for p in polys:
        rows.append({index[m]: c for m, c in p.rational_terms().items()})
    return rows, monos


def span_rank(polys: Sequence[DiffPoly]) -> int:
    """Rank of the family over Q, via the canonical coefficient matrix."""
    if not polys:
        return 0
    if any(not p.is_rational() for p in polys):
        raise ValueError("span_rank requires rational coefficients")
    rows, monos = coefficient_rows(polys)
    return len(echelon(rows, len(monos), reduce_back=False))


def solve_in_span(basis: Sequence[DiffPoly], target: DiffPoly) -> list[Fraction] | None:
    """Exact coordinates of ``target`` in span(basis), or None if outside."""
    polys = list(basis) + [target]
    rows, monos = coefficient_rows(polys)
    nb = len(basis)
    # one equation per monomial: sum_j coeff_j(basis_j) x_j = coeff(target)
    eqs: list[dict[int, Fraction]] = [dict() for _ in monos]
    for j, row in enumerate(rows[:nb]):
        for mono_idx, c in row.items():
            eqs[mono_idx][j] = c
    rhs = [ZERO] * len(monos)
    for mono_idx, c in rows[nb].items():
        rhs[mono_idx] = c
    return _solve(eqs, nb, rhs)


# ---------------------------------------------------------------------------
# Text grammar and JSON serialization.

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:(x\d+)|(\d+)|([\[\]^*+\-/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos == len(text):
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            tokens.append(("var", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("int", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def parse(text: str, n: int) -> DiffPoly:
    """Parse the textual grammar: terms of rational coefficients and factors
    x<i>[<k>]^<e>, combined with '*', '+', '-'.  Whitespace is insignificant.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
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
        return int(val)

    def parse_factor() -> DiffPoly:
        kind, val, pos = peek()
        if kind == "int":
            take()
            num = int(val)
            k2, v2, _ = peek()
            if k2 == "sym" and v2 == "/":
                take()
                den = expect_int()
                if den == 0:
                    raise ParseError("zero denominator", pos)
                return DiffPoly.const(Fraction(num, den), n)
            return DiffPoly.const(Fraction(num), n)
        if kind == "var":
            take()
            i = int(val[1:])
            if i > n:
                raise ParseError(f"variable index {i} exceeds bound {n}", pos)
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
            return DiffPoly.var(i, k, n) ** e
        raise ParseError("expected a coefficient or a variable", pos)

    def parse_term() -> DiffPoly:
        acc = parse_factor()
        while True:
            kind, val, _ = peek()
            if kind == "sym" and val == "*":
                take()
                acc = acc * parse_factor()
            else:
                return acc

    result = DiffPoly.zero(n)
    sign = 1
    kind, val, _ = peek()
    if kind == "sym" and val in "+-":
        take()
        sign = -1 if val == "-" else 1
    while True:
        term = parse_term()
        result = result + (term if sign > 0 else -term)
        kind, val, pos = peek()
        if kind is None:
            return result
        if kind == "sym" and val in "+-":
            take()
            sign = -1 if val == "-" else 1
        else:
            raise ParseError("expected '+', '-' or end of input", pos)


def _mono_text(m: DMono) -> str:
    parts = []
    for i, k, e in sorted(m, key=lambda t: (t[0], -t[1])):
        s = f"x{i}"
        if k:
            s += f"[{k}]"
        if e > 1:
            s += f"^{e}"
        parts.append(s)
    return "*".join(parts)


def to_text(p: DiffPoly) -> str:
    """Canonical printer; inverse of :func:`parse` on rational polynomials."""
    if not p:
        return "0"
    if not p.is_rational():
        raise ValueError("parametric coefficients have no textual form")
    pieces = []
    for mono, c in sorted(p.rational_terms().items(), key=lambda t: mono_sort_key(t[0])):
        mtext = _mono_text(mono)
        mag = abs(c)
        if not mtext:
            body = str(mag)
        elif mag == 1:
            body = mtext
        else:
            body = f"{mag}*{mtext}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append((" + " if c > 0 else " - ") + body)
    return "".join(pieces)


def to_json_dict(p: DiffPoly) -> dict:
    terms = []
    for mono, c in sorted(p.rational_terms().items(), key=lambda t: mono_sort_key(t[0])):
        terms.append({"coeff": str(c),
                      "monomial": [[i, k, e] for i, k, e in sorted(mono, key=lambda t: (t[0], -t[1]))]})
    return {"N": p.n, "terms": terms}


def from_json_dict(data: Mapping) -> DiffPoly:
    n = int(data["N"])
    terms: dict[DMono, Coeff] = {}
    for t in data["terms"]:
        mono = _mono_from_exps({(int(i), int(k)): int(e) for i, k, e in t["monomial"]})
        c = Fraction(t["coeff"])
        if mono in terms:
            raise ValueError("duplicate monomial in JSON input")
        terms[mono] = c
    return DiffPoly(n, terms)


def to_json(p: DiffPoly) -> str:
    return json.dumps(to_json_dict(p), separators=(",", ":"))


def from_json(text: str) -> DiffPoly:
    return from_json_dict(json.loads(text))
