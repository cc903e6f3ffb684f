"""Exact scalars, parametric polynomials, and deterministic sparse linear algebra.

The ground field is Q, realized by :class:`fractions.Fraction`; symbolic
parameters extend it to the polynomial ring Q[params] via :class:`ParamPoly`.
Everything here is exact (no floats) and deterministic (fixed pivot rules),
so ranks, kernels and determinants are reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

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


class ParamPoly:
    """Sparse multivariate polynomial over Q in named parameters.

    Immutable by convention: no method mutates ``terms`` after construction.
    Mixed arithmetic with int/Fraction coerces the scalar to a constant.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[PMono, Fraction] | None = None):
        clean: dict[PMono, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    clean[mono] = c if isinstance(c, Fraction) else Fraction(c)
        self.terms = clean

    @classmethod
    def const(cls, c) -> "ParamPoly":
        c = c if isinstance(c, Fraction) else Fraction(c)
        return cls({_EMPTY: c} if c else {})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "ParamPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return cls.const(1)
        return cls({((name, exp),): ONE})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return ZERO
        if self.is_constant():
            return self.terms[_EMPTY]
        raise ValueError("not a constant polynomial")

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    __hash__ = None  # mutable-dict backed; never used as a key

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            s = terms.get(mono, ZERO) + c
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        out = ParamPoly.__new__(ParamPoly)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ParamPoly.__new__(ParamPoly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[PMono, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _pmono_mul(m1, m2)
                s = terms.get(m, ZERO) + c1 * c2
                if s:
                    terms[m] = s
                else:
                    terms.pop(m, None)
        out = ParamPoly.__new__(ParamPoly)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative exponent")
        out = ParamPoly.const(1)
        for _ in range(exp):
            out = out * self
        return out

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


Coeff = Union[Fraction, ParamPoly]


def _coerce(v) -> ParamPoly:
    if isinstance(v, ParamPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return ParamPoly.const(v)
    return NotImplemented


def _integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """The primitive integer multiple of a rational row: same support, entries
    coprime integers."""
    scale = math.lcm(*(v.denominator for v in row.values()))
    if scale == 1:  # share the numerators: equal new ints would cost memory
        ints = {c: v.numerator for c, v in row.items()}
    else:
        ints = {c: v.numerator * (scale // v.denominator) for c, v in row.items()}
    g = math.gcd(*ints.values())
    return {c: v // g for c, v in ints.items()} if g > 1 else ints


def _eliminate(row: dict[int, int], p: int, f: int, prow: Mapping[int, int]) -> dict[int, int]:
    """Fraction-free step ``p*row - f*prow`` on integer rows, then content
    removal.  The caller has already taken the pivot column out of ``row`` and
    ``prow``."""
    g = math.gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        row = {c: v * p for c, v in row.items()}
    for c, v in prow.items():
        s = row.get(c)
        if s is None:
            row[c] = -f * v
        else:
            s -= f * v
            if s:
                row[c] = s
            else:
                del row[c]
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def echelon(rows: Sequence[Mapping[int, Fraction]], ncols: int,
            reduce_back: bool = True) -> list[tuple[int, dict[int, Fraction]]]:
    """Row reduction with the fixed pivot rule: leftmost column, then smallest
    current row support, then lowest original row index.

    ``rows`` are dicts col -> nonzero Fraction; they are not mutated.  Returns
    the pivot rows as (pivot_col, row) with ascending pivot columns, pivots
    normalized to 1; with ``reduce_back`` the result is the reduced echelon
    form.

    The elimination is fraction-free: each row is scaled to a primitive
    integer row, reduced by ``p*row - f*pivot_row`` and divided by its content,
    and converted back to Fractions only on output.  Scaling keeps a row's
    support, so the pivot rule picks the same rows as rational elimination.
    Rows are indexed by their leading column, so each column step touches only
    the rows that hold it, and the reduced form comes from one
    back-substitution after the forward pass.
    """
    # Every column left of the current one is already eliminated, so the rows
    # holding a column are exactly the rows it leads.  A row is re-filed under
    # its new leading column after each step and dropped once it is zero.
    lead: dict[int, list[tuple[int, dict[int, int]]]] = defaultdict(list)
    for i, r in enumerate(rows):
        if r:
            lead[min(r)].append((i, _integer_row(r)))
    pivots: list[tuple[int, int, dict[int, int]]] = []
    for col in range(ncols):
        held = lead.pop(col, None)
        if not held:
            continue
        pi, prow = min(held, key=lambda e: (len(e[1]), e[0]))
        p = prow.pop(col)
        if p < 0:
            p, prow = -p, {c: -v for c, v in prow.items()}
        for i, r in held:
            if i != pi:
                r = _eliminate(r, p, r.pop(col), prow)
                if r:
                    lead[min(r)].append((i, r))
        pivots.append((col, p, prow))
    if reduce_back:
        # Later pivot rows are already reduced, so one pass in reverse pivot
        # order clears every pivot column from every earlier row.  The pivot
        # entry rides along in the row so that content removal covers it.
        where = {col: j for j, (col, _, _) in enumerate(pivots)}
        for j in range(len(pivots) - 1, -1, -1):
            col, p, row = pivots[j]
            row[col] = p
            for c in [c for c in row if c != col and c in where]:
                _, pk, rowk = pivots[where[c]]
                row = _eliminate(row, pk, row.pop(c), rowk)
            pivots[j] = (col, row.pop(col), row)
    return [(col, {col: ONE, **{c: Fraction(v, p) for c, v in row.items()}})
            for col, p, row in pivots]


def rank(rows: Sequence[Mapping[int, Fraction]], ncols: int) -> int:
    """Rank over Q of sparse rows (dicts col -> nonzero Fraction), deterministic."""
    return len(echelon(rows, ncols, reduce_back=False))


def nullspace_basis(rows: Sequence[Mapping[int, Fraction]],
                    ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel, returned in reduced echelon form."""
    pivots = echelon(rows, ncols, reduce_back=True)
    pivot_cols = {col for col, _ in pivots}
    raw: list[dict[int, Fraction]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v: dict[int, Fraction] = {f: ONE}
        for col, row in pivots:
            coef = row.get(f)
            if coef:
                v[col] = -coef
        raw.append(v)
    reduced = echelon(raw, ncols, reduce_back=True)
    return [tuple(row.get(c, ZERO) for c in range(ncols)) for _, row in reduced]


def solve(rows: Sequence[Mapping[int, Fraction]], ncols: int,
          rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of rows . x = rhs (free variables set to 0), or None."""
    if len(rhs) != len(rows):
        raise ValueError("rhs length mismatch")
    aug = ncols  # extra column holding -rhs, treated as a fixed variable = 1
    work = []
    for row, b in zip(rows, rhs):
        row = dict(row)
        if b:
            row[aug] = -Fraction(b)
        work.append(row)
    x = [ZERO] * ncols
    for col, row in echelon(work, ncols, reduce_back=True):  # never pivots on `aug`
        x[col] = -row.get(aug, ZERO)
    # consistency: every equation must hold, an empty row with rhs != 0 included
    if any(sum(v * x[c] for c, v in row.items()) != b for row, b in zip(rows, rhs)):
        return None
    return x


def det_expansion(rows: Sequence[Sequence], zero, one):
    """Division-free determinant by memoized minor expansion.

    Works over any commutative ring whose elements support +, -, * and
    truthiness: differential polynomials, ParamPoly, and Fraction.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("non-square matrix")
    memo: dict[tuple[int, ...], object] = {(): one}

    def minor(cols: tuple[int, ...]):
        if cols in memo:
            return memo[cols]
        r = n - len(cols)
        acc = zero
        for pos, c in enumerate(cols):
            entry = rows[r][c]
            if not entry:
                continue
            sub = minor(tuple(x for x in cols if x != c))
            term = entry * sub
            acc = acc + term if pos % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def intersection_dim(rows_a: Sequence[Mapping[int, Fraction]],
                     rows_b: Sequence[Mapping[int, Fraction]], ncols: int) -> int:
    """dim(span A  intersect  span B) = dim A + dim B - dim(A + B)."""
    return (rank(rows_a, ncols) + rank(rows_b, ncols)
            - rank(list(rows_a) + list(rows_b), ncols))


def operator_rows(keys: Sequence, apply: Callable[[object], Iterable[tuple[object, Fraction]]]
                  ) -> list[dict[int, Fraction]]:
    """Sparse matrix of a linear map given on basis keys.

    ``apply(key)`` yields (output key, coefficient) pairs, each output key at
    most once.  The result has one row per output key, in sorted key order,
    and column j holds the image of ``keys[j]``.
    """
    rows: dict[object, dict[int, Fraction]] = {}
    for j, key in enumerate(keys):
        for out, c in apply(key):
            rows.setdefault(out, {})[j] = c
    return [rows[out] for out in sorted(rows)]
