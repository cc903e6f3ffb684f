"""Partitions, Young tableaux, tableau counts, permutations, and the group
algebra of the symmetric group with its Young symmetrizers.

All counts are produced by direct enumeration; closed formulas (hook lengths)
appear only as cross-checks in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .exact import ONE, ZERO, SparseComb


@dataclass(frozen=True)
class Partition:
    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p <= 0 for p in self.parts):
            raise ValueError("partition parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def nparts(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition(())
        return Partition(tuple(sum(1 for p in self.parts if p > i)
                               for i in range(self.parts[0])))

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


def partitions_of(d: int, max_parts: int | None = None) -> list[Partition]:
    """All partitions of d (optionally with at most max_parts parts),
    in deterministic reverse-lexicographic order: (d), (d-1,1), ..."""
    if d < 1:
        raise ValueError("d must be >= 1")

    def gen(remaining: int, largest: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        if max_parts is not None and len(prefix) >= max_parts:
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return [Partition(p) for p in gen(d, d, ())]


@dataclass(frozen=True)
class Tableau:
    """A filling of a Young diagram, stored row-major."""
    shape: Partition
    filling: tuple[int, ...]

    def __post_init__(self):
        if len(self.filling) != self.shape.size:
            raise ValueError("filling length does not match shape size")

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


def count_standard(lam: Partition) -> int:
    return sum(1 for _ in standard_tableaux(lam))


def hook_length_count(lam: Partition) -> int:
    """Closed-formula cross-check for count_standard."""
    import math
    conj = lam.conjugate().parts
    prod = 1
    for r, p in enumerate(lam.parts):
        for c in range(p):
            prod *= (p - c) + (conj[c] - r) - 1
    return math.factorial(lam.size) // prod


def semistandard_tableaux(lam: Partition, n: int, lo: int = 1,
                          content: Sequence[int] | None = None) -> Iterator[Tableau]:
    """Semi-standard fillings with values in {lo, ..., lo+n-1}.

    With ``content`` given (counts per letter, letter j = lo+j), only fillings
    of that exact content are produced.
    """
    if n < 1:
        return
    parts = lam.parts
    d = lam.size
    filling = [0] * d
    offsets = [0]
    for p in parts:
        offsets.append(offsets[-1] + p)
    remaining = list(content) if content is not None else None

    def cell_bounds(r: int, c: int) -> tuple[int, int]:
        low = lo
        if c > 0:
            low = max(low, filling[offsets[r] + c - 1])          # rows weakly increase
        if r > 0:
            low = max(low, filling[offsets[r - 1] + c] + 1)       # columns strictly increase
        return low, lo + n - 1

    def fill(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == d:
            yield tuple(filling)
            return
        r = next(i for i in range(len(parts)) if offsets[i] <= pos < offsets[i + 1])
        c = pos - offsets[r]
        low, high = cell_bounds(r, c)
        for v in range(low, high + 1):
            if remaining is not None:
                j = v - lo
                if j >= len(remaining) or remaining[j] == 0:
                    continue
                remaining[j] -= 1
            filling[pos] = v
            yield from fill(pos + 1)
            filling[pos] = 0
            if remaining is not None:
                remaining[v - lo] += 1

    for f in fill(0):
        yield Tableau(lam, f)


def count_semistandard(lam: Partition, n: int) -> int:
    if n < 1:
        raise ValueError("alphabet size must be >= 1")
    return sum(1 for _ in semistandard_tableaux(lam, n))


def kostka(lam: Partition, a: Sequence[int]) -> int:
    """Number of semi-standard tableaux of shape lam with a[j] copies of letter j+1."""
    if sum(a) != lam.size:
        raise ValueError("content size must match the partition size")
    return sum(1 for _ in semistandard_tableaux(lam, len(a), content=a))


def schur_poly_eval(lam: Partition, xs: Sequence[Fraction]) -> Fraction:
    """Schur polynomial value: sum over semi-standard tableaux of the content monomial."""
    total = ZERO
    for t in semistandard_tableaux(lam, len(xs)):
        prod = ONE
        for v in t.filling:
            prod *= xs[v - 1]
        total += prod
    return total


# ---------------------------------------------------------------------------
# Permutations and the group algebra of the symmetric group.

@dataclass(frozen=True)
class Permutation:
    """Bijection of {1..d}; images[i-1] = sigma(i).  (sigma*tau)(i) = sigma(tau(i))."""
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError("not a bijection of 1..d")

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
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.d)))

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
    """Sparse element of Q[Sigma_d]; the product is the convolution."""

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
        return cls(d, {Permutation.identity(d): ONE})

    @classmethod
    def of(cls, sigma: Permutation, c: Fraction = ONE) -> "GroupAlgebraElem":
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
    """c_T = (signed column sum) * (row sum) in Q[Sigma_d]; T must be standard."""
    if not t.is_standard():
        raise ValueError("Young symmetrizers are defined for standard tableaux")
    d = t.shape.size
    a = GroupAlgebraElem(d, {p: ONE for p in row_group(t)})
    b = GroupAlgebraElem(d, {q: Fraction(q.sign()) for q in column_group(t)})
    return group_algebra_mul(b, a)


def relabel(sigma: Permutation, t: Tableau) -> Tableau:
    """Apply sigma to every entry of a tableau filled with {1..d}."""
    return Tableau(t.shape, tuple(sigma(v) for v in t.filling))
