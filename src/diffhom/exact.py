"""Exact scalars, sparse linear combinations, parametric polynomials, and
deterministic sparse linear algebra.

The ground field is Q, realized by :class:`fractions.Fraction`; symbolic
parameters extend it to the polynomial ring Q[params] via :class:`ParamPoly`.
Every sparse algebra of the package (ParamPoly, DiffPoly, MultiPoly, Tensor,
GroupAlgebraElem) is a :class:`SparseComb` over its own keys.
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


def add_terms(terms: dict, pairs: Iterable[tuple[object, object]]) -> dict:
    """Add the (key, coefficient) pairs into ``terms`` in place and return it.

    ``terms`` holds nonzero coefficients only: a zero pair is skipped and a key
    whose coefficients sum to zero is dropped.
    """
    get = terms.get
    for key, c in pairs:
        s = get(key)
        if s is None:
            if c:
                terms[key] = c
        else:
            s = s + c
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms


class SparseComb:
    """Sparse linear combination: ``terms`` maps keys to nonzero coefficients.

    The one implementation of ``+``, ``-``, negation, ``scale``, ``*``, ``**``,
    ``==`` and truthiness for every sparse algebra of the package.  A subclass
    lists its shape attributes in ``_shape`` (operands must agree on them, or
    ValueError(``_mismatch``) is raised), validates in its own ``__init__``,
    and, if it is a ring, gives the product of two keys as ``_key_mul`` and the
    unit key as ``_unit_key()`` (by default the empty monomial).  Immutable by
    convention: no method mutates ``terms`` after construction.
    """

    __slots__ = ("terms",)
    _shape: tuple[str, ...] = ()
    _mismatch = "shape mismatch"
    _key_mul: Callable | None = None

    def __init__(self, terms: Mapping | None = None):
        self.terms = {key: c for key, c in terms.items() if c} if terms else {}

    def with_terms(self, terms: dict) -> "SparseComb":
        """An element of this shape around ``terms``, which must hold nonzero
        coefficients only; the dict is taken over, not copied."""
        out = object.__new__(type(self))
        for name in self._shape:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _operand(self, other):
        """``other`` as an operand of this shape, or NotImplemented."""
        if type(other) is not type(self):
            return NotImplemented
        for name in self._shape:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(self._mismatch)
        return other

    def _unit_key(self):
        return ()

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        try:
            other = self._operand(other)
        except ValueError:
            return False
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable-dict backed; never used as a key

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.with_terms(add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self.with_terms({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.with_terms(add_terms(dict(self.terms),
                                         ((key, -c) for key, c in other.terms.items())))

    def __rsub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def scale(self, c):
        if not c:
            return self.with_terms({})
        return self.with_terms({key: v * c for key, v in self.terms.items()})

    def __mul__(self, other):
        key_mul = self._key_mul
        other = self._operand(other)
        if key_mul is None or other is NotImplemented:
            return NotImplemented
        return self.with_terms(add_terms({}, ((key_mul(k1, k2), c1 * c2)
                                              for k1, c1 in self.terms.items()
                                              for k2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if self._key_mul is None:
            return NotImplemented
        if exp < 0:
            raise ValueError("negative exponent")
        out = self.with_terms({self._unit_key(): ONE})
        for _ in range(exp):
            out = out * self
        return out


def linear_combination(like: SparseComb,
                       pairs: Iterable[tuple[object, SparseComb]]) -> SparseComb:
    """The sum of ``c * x`` over the (c, x) pairs, shaped like ``like`` (whose
    own terms are ignored), filling one dict."""
    return like.with_terms(add_terms({}, ((key, v * c) for c, x in pairs
                                          for key, v in x.terms.items())))


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

    Mixed arithmetic with int/Fraction coerces the scalar to a constant.
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

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return ZERO
        if self.is_constant():
            return self.terms[_EMPTY]
        raise ValueError("not a constant polynomial")

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
