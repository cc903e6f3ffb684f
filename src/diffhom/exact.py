"""Exact scalars, sparse linear combinations, and deterministic sparse
linear algebra.

The ground field is Q; there are no formal parameters.  A coefficient is an
``int`` wherever its value is integral, and a :class:`fractions.Fraction`
only where a division leaves a remainder: :func:`echelon` divides by its
pivots and emits a ``Fraction`` for an entry the pivot does not divide, so
kernel vectors and coordinates are ``int`` where they are integral.
Arithmetic keeps its operands' types: a sum or product with a ``Fraction``
stays a ``Fraction`` even when its value is integral.

Every sparse algebra of the package (DiffPoly, MultiPoly, GroupAlgebraElem)
is a :class:`SparseComb` over its own keys; a tensor is a MultiPoly with
every exponent <= k.  A family of them is the columns of its coefficient
matrix, so one :func:`echelon` gives its rank and the coordinates of targets
in its span.
Everything here is exact (no floats) and deterministic (fixed pivot rules),
so ranks, kernels and determinants are reproducible bit for bit.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

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
    unit key as ``_unit_key()`` (by default the empty monomial).  Operands share
    one type, so there are no reflected operators.  Immutable by convention:
    no method mutates ``terms`` after construction.
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

    def __neg__(self):
        return self.with_terms({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self.with_terms(add_terms(dict(self.terms),
                                         ((key, -c) for key, c in other.terms.items())))

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

    def __pow__(self, exp: int):
        if self._key_mul is None:
            return NotImplemented
        if exp < 0:
            raise ValueError("negative exponent")
        out = self.with_terms({self._unit_key(): 1})
        for _ in range(exp):
            out = out * self
        return out


def linear_combination(like: SparseComb,
                       pairs: Iterable[tuple[object, SparseComb]]) -> SparseComb:
    """The sum of ``c * x`` over the (c, x) pairs, shaped like ``like`` (whose
    own terms are ignored), filling one dict."""
    return like.with_terms(add_terms({}, ((key, v * c) for c, x in pairs
                                          for key, v in x.terms.items())))


def _integer_row(row: Mapping[int, Fraction]) -> dict[int, int]:
    """The primitive integer multiple of a rational row, as a new dict: same
    support, entries coprime integers.  A row of ints only needs its content
    divided out, in the one copy."""
    if all(type(v) is int for v in row.values()):
        g = math.gcd(*row.values())
        return {c: v // g for c, v in row.items()} if g > 1 else dict(row)
    scale = math.lcm(*(v.denominator for v in row.values()))
    if scale == 1:  # share the numerators: equal new ints would cost memory
        return _primitive({c: v.numerator for c, v in row.items()})
    return _primitive({c: v.numerator * (scale // v.denominator) for c, v in row.items()})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by its content, the gcd of its entries: a new
    dict, or ``row`` itself when the content is 1."""
    g = math.gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _eliminate(row: dict[int, int], p: int, f: int, prow: Mapping[int, int]) -> dict[int, int]:
    """Fraction-free step ``p*row - f*prow`` on integer rows.  The caller has
    already taken the pivot column out of ``row`` and ``prow``, and removes
    the content (:func:`_primitive`) where it needs it."""
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
    return row


def _forward(rows: Sequence[Mapping[int, Fraction]], ncols: int
             ) -> list[tuple[int, int, dict[int, int]]]:
    """The forward pass of :func:`echelon`: the pivot rows as (pivot_col, p,
    rest), ascending in pivot_col, with ``rest`` the primitive integer row
    without its pivot entry ``p > 0``.

    Every column left of the current one is already eliminated, so the rows
    holding a column are exactly the rows it leads.  A row is re-filed under
    its new leading column after each step and dropped once it is zero.  Its
    content is removed only when it becomes a pivot row, whose entries enter
    every row it eliminates: removing it after every step costs one more
    pass over the row each time, and the rows of a wide system are long.
    """
    lead: dict[int, list[tuple[int, dict[int, int]]]] = defaultdict(list)
    for i, r in enumerate(rows):
        if r:
            lead[min(r)].append((i, _integer_row(r)))
    pivots: list[tuple[int, int, dict[int, int]]] = []
    for col in range(ncols):
        if not lead:
            break
        held = lead.pop(col, None)
        if not held:
            continue
        pi, prow = min(held, key=lambda e: (len(e[1]), e[0]))
        prow = _primitive(prow)
        p = prow.pop(col)
        if p < 0:
            p, prow = -p, {c: -v for c, v in prow.items()}
        for i, r in held:
            if i != pi:
                r = _eliminate(r, p, r.pop(col), prow)
                if r:
                    lead[min(r)].append((i, r))
        pivots.append((col, p, prow))
    return pivots


def echelon(rows: Sequence[Mapping[int, Fraction]], ncols: int
            ) -> list[tuple[int, dict[int, Fraction]]]:
    """Reduced echelon form, with the fixed pivot rule: leftmost column, then
    smallest current row support, then lowest original row index.

    ``rows`` are dicts col -> nonzero int or Fraction; they are not mutated.
    Returns the pivot rows as (pivot_col, row) with ascending pivot columns,
    pivots normalized to 1.

    The elimination is fraction-free: each row is scaled to a primitive
    integer row, reduced by ``p*row - f*pivot_row``, divided by its content
    when it becomes a pivot row, and divided by its pivot ``p`` only on
    output: an entry ``v`` becomes the int ``v // p`` when ``p`` divides it,
    else ``Fraction(v, p)``.  Scaling keeps a row's
    support, so the pivot rule picks the same rows as rational elimination.
    Rows are indexed by their leading column, so each column step touches only
    the rows that hold it, and the reduced form comes from one
    back-substitution after the forward pass.
    """
    pivots = _forward(rows, ncols)
    # Later pivot rows are already reduced, so one pass in reverse pivot
    # order clears every pivot column from every earlier row.  The pivot
    # entry rides along in the row so that content removal covers it.
    where = {col: j for j, (col, _, _) in enumerate(pivots)}
    for j in range(len(pivots) - 1, -1, -1):
        col, p, row = pivots[j]
        row[col] = p
        for c in [c for c in row if c != col and c in where]:
            _, pk, rowk = pivots[where[c]]
            row = _primitive(_eliminate(row, pk, row.pop(c), rowk))
        pivots[j] = (col, row.pop(col), row)
    return [(col, {col: 1, **{c: Fraction(v, p) if v % p else v // p for c, v in row.items()}})
            for col, p, row in pivots]


def pivot_columns(rows: Sequence[Mapping[int, Fraction]], ncols: int) -> list[int]:
    """The pivot columns of :func:`echelon`, ascending, from its forward pass
    alone: column j is a pivot exactly when it is not a combination of the
    columns left of it."""
    return [col for col, _, _ in _forward(rows, ncols)]


def rank(rows: Sequence[Mapping[int, Fraction]], ncols: int) -> int:
    """Rank over Q of sparse rows (dicts col -> nonzero int or Fraction), deterministic:
    the pivot count of the forward pass, with no reduced form built."""
    return len(_forward(rows, ncols))


def nullspace_basis(rows: Sequence[Mapping[int, Fraction]],
                    ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel in reduced echelon form, as sparse rows
    (dicts col -> nonzero int or Fraction, as :func:`echelon` gives them)."""
    pivots = echelon(rows, ncols)
    pivot_cols = {col for col, _ in pivots}
    raw: list[dict[int, Fraction]] = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        v: dict[int, Fraction] = {f: 1}
        for col, row in pivots:
            coef = row.get(f)
            if coef:
                v[col] = -coef
        raw.append(v)
    return [row for _, row in echelon(raw, ncols)]


def det_expansion(rows: Sequence[Sequence], zero, one):
    """Division-free determinant by memoized minor expansion.

    Works over any commutative ring whose elements support +, -, * and
    truthiness, such as differential polynomials and Fraction.
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


def span_rank(family: Sequence[SparseComb]) -> int:
    """Rank over Q of a family of sparse combinations: column j of its
    coefficient matrix holds ``family[j]``."""
    return rank(operator_rows(family, lambda m: m.terms.items()), len(family))


def solve_in_span(basis: Sequence[SparseComb], targets: Sequence[SparseComb]
                  ) -> list[list[Fraction] | None]:
    """Per target, its coordinates in span(basis), free ones 0, or None when
    it lies outside, from one reduced echelon form of the columns (basis,
    then targets).  Pivot columns are a basis of the span of the columns, and
    the basis pivots of span(basis).  So a target lies outside exactly when
    its column is a pivot, or when it is nonzero in a row whose pivot is a
    target column; else its column, read on the rows of the basis pivots,
    holds its coordinates, as in the echelon form of (basis, that target)
    alone, since the reduced form is unique."""
    nb = len(basis)
    xs: list[list[Fraction] | None] = [[0] * nb for _ in targets]
    for col, row in echelon(operator_rows([*basis, *targets], lambda m: m.terms.items()),
                            nb + len(targets)):
        if col >= nb:
            for c in row:
                xs[c - nb] = None
            continue
        for c, v in row.items():  # every basis pivot comes before the target pivots
            if c >= nb:
                xs[c - nb][col] = v
    return xs
