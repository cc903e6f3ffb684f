"""Partitions, weak compositions, Young tableaux, tableau counts,
permutations, and the group algebra of the symmetric group with its Young
symmetrizers.

Standard tableaux are counted by the hook-length formula
(``hook_length_count``, which also gives the benchmark's expected f_lam),
memoized per shape asked in a bounded cache, semi-standard tableaux by the
hook-content formula, and Kostka numbers by removing horizontal strips (the
cells of the largest letter), memoized per shape and content prefix.  The
enumeration of semi-standard tableaux builds the D_T basis (``hwv``) and is
the tests' oracle of their count and of the Kostka numbers.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction

from .exact import SparseComb


class Partition(namedtuple("Partition", "parts")):
    __slots__ = ()

    def __new__(cls, parts: tuple[int, ...]):
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        return tuple.__new__(cls, (parts,))

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def nparts(self) -> int:
        return len(self.parts)

    @property
    def row_index_sum(self) -> int:
        """b(lam) = sum_i i lam_i, rows numbered from 0: the least entry sum
        of a semi-standard tableau of shape lam, as every cell of row i holds
        at least i."""
        return sum(i * p for i, p in enumerate(self.parts))

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(tuple(sum(1 for p in self.parts if p > i)
                               for i in range(self.parts[0])))

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


@functools.cache
def partitions_of(d: int) -> tuple[Partition, ...]:
    """All partitions of d, in deterministic reverse-lexicographic order:
    (d), (d-1,1), ...  Built once per d and shared, so it is a tuple; to
    bound the number of parts, use :func:`partition_parts`."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return tuple(Partition(p) for p in partition_parts(d))


def partition_parts(d: int, max_parts: int | None = None) -> Iterator[tuple[int, ...]]:
    """The parts of the partitions of d >= 0 with at most ``max_parts``
    parts, lazily, in the order of :func:`partitions_of`; d = 0 gives ()."""

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if max_parts is not None and len(prefix) >= max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return gen(d, d, ())


def compositions(total: int, parts: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """The tuples of ``parts`` naturals summing to ``total``, each at most
    ``cap`` (unbounded when None), in lexicographic order.  Each entry ranges
    only over the values the remaining slots can still complete."""
    top = total if cap is None else cap

    def gen(rest: int, slots: int) -> list[tuple[int, ...]]:
        if slots == 0:
            return [()] if rest == 0 else []
        return [(a,) + tail for a in range(max(0, rest - top * (slots - 1)), min(top, rest) + 1)
                for tail in gen(rest - a, slots - 1)]

    return gen(total, parts)


class Tableau(namedtuple("Tableau", "shape filling")):
    """A filling of a Young diagram, stored row-major."""
    __slots__ = ()

    def __new__(cls, shape: Partition, filling: tuple[int, ...]):
        if len(filling) != shape.size:
            raise ValueError("filling length does not match shape size")
        return tuple.__new__(cls, (shape, filling))

    def rows(self) -> list[tuple[int, ...]]:
        out = []
        pos = 0
        for p in self.shape.parts:
            out.append(self.filling[pos:pos + p])
            pos += p
        return out

    def columns(self) -> list[tuple[int, ...]]:
        rows = self.rows()
        ncols = self.shape.parts[0] if self.shape.parts else 0
        return [tuple(row[c] for row in rows if c < len(row)) for c in range(ncols)]

    def is_semistandard(self) -> bool:
        rows = self.rows()
        for row in rows:
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                return False
        for col in self.columns():
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                return False
        return True

    def is_standard(self) -> bool:
        d = self.shape.size
        return sorted(self.filling) == list(range(1, d + 1)) and self.is_semistandard()

    def __repr__(self) -> str:
        return "Tableau[" + "; ".join(" ".join(map(str, r)) for r in self.rows()) + "]"


def canonical_tableau(lam: Partition) -> Tableau:
    """Row-consecutive standard filling: first row 1..lam_1, second row next, ..."""
    return Tableau(lam, tuple(range(1, lam.size + 1)))


@functools.lru_cache(maxsize=1024)
def count_standard(lam: Partition) -> int:
    """The number f_lam of standard tableaux of shape lam, by the hook-length
    formula (:func:`hook_length_count`), memoized per shape asked."""
    return hook_length_count(lam)


def hook_length_count(lam: Partition) -> int:
    """f_lam = d! / (the product of the hook lengths of the cells of lam)."""
    conj = lam.conjugate().parts
    prod = 1
    for r, p in enumerate(lam.parts):
        for c in range(p):
            prod *= (p - c) + (conj[c] - r) - 1
    return math.factorial(lam.size) // prod


def semistandard_tableaux(lam: Partition, n: int, total: int | None = None) -> Iterator[Tableau]:
    """Semi-standard fillings with values in {0, ..., n-1}.

    With ``total``, only fillings whose entries sum to it (a partial filling
    is dropped as soon as no values for the cells left can reach the total:
    a cell of row i holds at least i, so the cells after ``pos`` need at
    least ``floor[pos + 1]``, the sum of their row indices).
    """
    if n < 1:
        return
    parts = lam.parts
    d = lam.size
    filling = [0] * d
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p)
    cells = [(r, c) for r, p in enumerate(parts) for c in range(p)]  # (row, column) per position
    floor = [0] * (d + 1)
    for pos in reversed(range(d)):
        floor[pos] = floor[pos + 1] + cells[pos][0]

    def cell_bounds(r: int, c: int) -> tuple[int, int]:
        low = 0
        if c > 0:
            low = max(low, filling[offsets[r] + c - 1])          # rows weakly increase
        if r > 0:
            low = max(low, filling[offsets[r - 1] + c] + 1)       # columns strictly increase
        return low, n - 1

    def fill(pos: int, below: int) -> Iterator[tuple[int, ...]]:
        # below: what the cells from pos on must add up to (with ``total``)
        if pos == d:
            yield tuple(filling)
            return
        low, high = cell_bounds(*cells[pos])
        rest = d - pos - 1
        for v in range(low, high + 1):
            if total is not None:
                if v + floor[pos + 1] > below:
                    break
                if v + rest * high < below:
                    continue
            filling[pos] = v
            yield from fill(pos + 1, below - v)
            filling[pos] = 0

    for f in fill(0, 0 if total is None else total):
        yield Tableau(lam, f)


def count_semistandard(lam: Partition, n: int) -> int:
    """s_lam(1^n), the number of semi-standard tableaux of shape lam over n
    letters, by the hook-content formula: the product over the cells u of
    (n + c(u)) / h(u), with c(u) = column - row and h(u) the hook length
    (Stanley, Enumerative Combinatorics 2, 7.21.2).  A shape of more than n
    rows has the cell (n, 0), of factor 0."""
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    conj = lam.conjugate().parts
    num = den = 1
    for r, p in enumerate(lam.parts):
        for c in range(p):
            num *= n + c - r
            den *= (p - c) + (conj[c] - r) - 1
    return num // den


def semistandard_weight_counts(lam: Partition, n: int) -> list[int]:
    """Entry w counts the semi-standard tableaux of shape lam with entries in
    {0..n-1} summing to w: the coefficients of s_lam(1, q, ..., q^(n-1)),
    q^b(lam) prod_u (1 - q^(n + c(u))) / (1 - q^h(u)) with b(lam) = sum_i
    i lam_i (i from 0), by the q-hook-content formula (Stanley, Enumerative
    Combinatorics 2, 7.21.2).  Empty when lam has more than n rows."""
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    if lam.nparts > n:
        return []
    conj = lam.conjugate().parts
    poly = [1]
    for r, p in enumerate(lam.parts):                  # the numerators
        for c in range(p):
            a = n + c - r
            poly = [x - (poly[i - a] if i >= a else 0) for i, x in enumerate(poly + [0] * a)]
    for r, p in enumerate(lam.parts):                  # exact division by each 1 - q^h
        for c in range(p):
            h = (p - c) + (conj[c] - r) - 1
            for i in range(h, len(poly)):
                poly[i] += poly[i - h]
            del poly[len(poly) - h:]
    return [0] * lam.row_index_sum + poly


def kostka(lam: Partition, a: Sequence[int]) -> int:
    """Number of semi-standard tableaux of shape lam with a[j] copies of
    letter j+1, by removing the letters from the last: in such a tableau the
    cells of the largest letter form a horizontal strip lam/mu of a[-1]
    cells, and the rest is a tableau of shape mu and content a[:-1] (Fulton,
    Young Tableaux, Part II).  Memoized per (shape, content prefix)."""
    if sum(a) != lam.size:
        raise ValueError("content size must match the partition size")
    return _kostka(lam.parts, tuple(a))


@functools.cache
def _kostka(parts: tuple[int, ...], content: tuple[int, ...]) -> int:
    if len(parts) > len(content):  # a column holds distinct letters
        return 0
    if not content:
        return 1
    return sum(_kostka(mu, content[:-1]) for mu in _strips(parts, content[-1]))


@functools.cache
def _strips(parts: tuple[int, ...], s: int) -> tuple[tuple[int, ...], ...]:
    """The shapes mu for which parts/mu is a horizontal strip of s cells:
    row r keeps between parts[r+1] and parts[r] cells."""
    if not parts:
        return ((),) if s == 0 else ()
    head, rest = parts[0], parts[1:]
    return tuple(((head - t,) if t < head else ()) + mu
                 for t in range(min(s, head - (rest[0] if rest else 0)) + 1)
                 for mu in _strips(rest, s - t))


# ---------------------------------------------------------------------------
# Permutations and the group algebra of the symmetric group.

class Permutation(namedtuple("Permutation", "images")):
    """Bijection of {1..d}; images[i-1] = sigma(i).  (sigma*tau)(i) = sigma(tau(i)).
    Permutations order as their image tuples."""
    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError("not a bijection of 1..d")
        return tuple.__new__(cls, (images,))

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(1, d + 1)))

    @property
    def d(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.d != other.d:
            raise ValueError("size mismatch")
        # a composite of bijections is one: skip the check of __new__
        return tuple.__new__(Permutation, (tuple([self.images[i - 1] for i in other.images]),))

    def inverse(self) -> "Permutation":
        inv = [0] * self.d
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def sign(self) -> int:
        seen = [False] * self.d
        sgn = 1
        for i in range(self.d):
            if seen[i]:
                continue
            j = i
            clen = 0
            while not seen[j]:
                seen[j] = True
                j = self.images[j] - 1
                clen += 1
            if clen % 2 == 0:
                sgn = -sgn
        return sgn


class GroupAlgebraElem(SparseComb):
    """Sparse element of Q[Sigma_d]; the product is the convolution.
    Coefficients are ``int`` where they are integers (the Young
    symmetrizers) and ``Fraction`` where a division enters."""

    __slots__ = ("d",)
    _shape = ("d",)
    _mismatch = "size mismatch"
    _key_mul = staticmethod(Permutation.__mul__)

    def __init__(self, d: int, terms: Mapping[Permutation, Fraction] | None = None):
        self.d = d
        if terms and any(s.d != d for s in terms):
            raise ValueError("permutation size mismatch")
        super().__init__(terms)

    @classmethod
    def unit(cls, d: int) -> "GroupAlgebraElem":
        return cls(d, {Permutation.identity(d): 1})

    @classmethod
    def of(cls, sigma: Permutation, c: Fraction | int = 1) -> "GroupAlgebraElem":
        return cls(sigma.d, {sigma: c})

    def _unit_key(self) -> Permutation:
        return Permutation.identity(self.d)

    def __repr__(self) -> str:
        return f"GroupAlgebraElem(d={self.d}, {len(self.terms)} terms)"


def group_algebra_mul(u: GroupAlgebraElem, v: GroupAlgebraElem) -> GroupAlgebraElem:
    """Convolution product on Q[Sigma_d], that is ``u * v``."""
    return u * v


def _stabilizer_perms(d: int, blocks: Sequence[Sequence[int]]) -> list[Permutation]:
    """All permutations of {1..d} preserving each block setwise."""
    perms = [Permutation.identity(d)]
    for block in blocks:
        if len(block) <= 1:
            continue
        new = []
        for pi in itertools.permutations(block):
            images = list(range(1, d + 1))
            for src, dst in zip(block, pi):
                images[src - 1] = dst
            tau = Permutation(tuple(images))
            new.extend(p * tau for p in perms)
        perms = new
    return perms


def row_group(t: Tableau) -> list[Permutation]:
    return _stabilizer_perms(t.shape.size, t.rows())


def column_group(t: Tableau) -> list[Permutation]:
    return _stabilizer_perms(t.shape.size, t.columns())


def young_symmetrizer(t: Tableau) -> GroupAlgebraElem:
    """c_T = (signed column sum) * (row sum) in Q[Sigma_d]; T must be
    standard.  Its coefficients are ``int``: the column and row groups meet
    only in the identity, so each product q*p occurs once, with the sign of
    q."""
    if not t.is_standard():
        raise ValueError("Young symmetrizers are defined for standard tableaux")
    d = t.shape.size
    a = GroupAlgebraElem(d, {p: 1 for p in row_group(t)})
    b = GroupAlgebraElem(d, {q: q.sign() for q in column_group(t)})
    return group_algebra_mul(b, a)

