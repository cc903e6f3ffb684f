"""Wronskian differential polynomials and the canonical (N+1)^d basis.

A Wronskian here is the determinant of the d x d matrix whose r-th row is the
r-th Leibniz derivative of a line of monomial entries t^a_j x_{v_j},
evaluated at t = 0: entry (r, j) is the single term r!/(r-a_j)! x_{v_j}[r-a_j].
The determinant is expanded row by row over sets of used columns
(``_expand``), each entry one packed exponent code with an int
coefficient: a product of monomials is a sum of ints.  ``build_wronskian``
decodes that expansion (``dpoly.MonoCodec``, one per degree) into a
DiffPoly.  Choosing the exponents a_j with triangular constraints yields
the canonical family of (N+1)^d differentially homogeneous polynomials,
expanded from the exponent data alone, up to one factor per monomial, with
codes whose top field is the jet order (``canonical_codes``).  The census
reads these, and only for the multiplicity vectors that are partitions of d
(``canonical_data`` enumerates the data of one multiplicity vector);
``enumerate_canonical_basis`` builds each element with ``build_wronskian``
once per process for each of the last few (N, d) asked for, and every
caller shares that one tuple (``dh basis``, the ``basis`` and ``jets``
suites).

The paper's Appendix A rewrites an arbitrary exponent family over d distinct
formal variables onto the triangular one (``reduce_to_triangular``, memoized
per tuple in integers), and justifies the rewriting by wedge-product
identities for nilpotent matrices (``verify_wedge_identity``, whose
Pluecker coordinates come from one integer pass over the vectors, expanded
over bitmasks of used rows like the Wronskian itself).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction

from .exact import ZERO, add_terms, integral
from .dpoly import DiffPoly, MonoCodec, gradings, to_json_dict
from .tableaux import compositions


def build_wronskian(pairs: Sequence[tuple[int, int]], n: int) -> DiffPoly:
    """The Wronskian of (t^a_1 x_v_1, ..., t^a_d x_v_d), for the (a_j, v_j)
    in ``pairs``, as a differential polynomial in x_0..x_n: the packed codes
    of :func:`_monomial_codes`, decoded under the one codec of degree d."""
    if not pairs:
        raise ValueError("a Wronskian needs at least one entry")
    for _, var in pairs:
        if not 0 <= var <= n:
            raise ValueError(f"variable index {var} exceeds bound {n}")
    codec = _codec(len(pairs))
    return _decoded(_monomial_codes(pairs, codec), codec, n)


def _monomial_codes(pairs: Sequence[tuple[int, int]], codec: MonoCodec) -> dict[int, int]:
    """The Wronskian of (t^a_1 x_v_1, ..., t^a_d x_v_d), for the (a_j, v_j) in
    ``pairs``, as {packed code: int coefficient} under ``codec``, which must
    hold orders up to d-1 and exponents up to d.  Entry (r, j) is the single
    term ``r!/(r-a_j)! x_v_j[r-a_j]`` (None for r < a_j)."""
    d = len(pairs)
    return _expand([[(codec.unit(v, r - a), math.perm(r, a)) if r >= a else None
                     for a, v in pairs] for r in range(d)])


@functools.cache
def _codec(d: int) -> MonoCodec:
    """The codec of degree-d Wronskians: orders 0..d-1, exponents up to d.
    One per d, so every Wronskian of degree d decodes into the same (i, k, e)
    factor tuples."""
    return MonoCodec(d, d.bit_length())


def _decoded(codes: Mapping[int, int], codec: MonoCodec, n: int) -> DiffPoly:
    """The DiffPoly in x_0..x_n of {packed code: coefficient} under ``codec``."""
    return DiffPoly(n, {codec.decode(w): Fraction(c) for w, c in codes.items()})


def _expand(forms: Sequence[Sequence[tuple[int, int] | None]]) -> dict[int, int]:
    """The determinant of the d x d matrix whose entry (r, c) is the monomial
    ``forms[r][c]``, a (packed code, coefficient), or None for a zero entry.

    Row by row over sets of used columns (:func:`_expand_step`).  Terms that
    cancel (a few percent on the canonical basis) are dropped at the end
    only.
    """
    d = len(forms)
    partial: dict[int, dict[int, int]] = {0: {0: 1}}
    for row in forms:
        partial = _expand_step(partial, row)
    return {w: c for w, c in partial.get((1 << d) - 1, {}).items() if c}


def _expand_step(partial: dict[int, dict], row: Sequence[tuple[int, int] | None]
                 ) -> dict[int, dict]:
    """One row of :func:`_expand`: ``partial`` maps each bitmask of r used
    columns to the signed sum of the products of rows 0..r-1 placed on them,
    as {code: coefficient}, and the result does the same for r+1 rows, with
    ``row``'s nonzero entries placed on each unused column.  A product of
    monomials is a sum of codes, so placing an entry adds its code to every
    monomial; the used columns right of c give the sign.  Applied to the
    columns of a matrix it expands the determinant of the transpose."""
    entries = [(c, 1 << c, *entry) for c, entry in enumerate(row) if entry is not None]
    grown: dict[int, dict[int, int]] = {}
    for mask, terms in partial.items():
        for c, bit, unit, ec in entries:
            if mask & bit:
                continue
            if (mask >> c).bit_count() & 1:
                ec = -ec
            out = grown.get(mask | bit)
            if out is None:
                grown[mask | bit] = {w + unit: coeff * ec for w, coeff in terms.items()}
                continue
            get = out.get
            for w, coeff in terms.items():
                w += unit
                out[w] = get(w, 0) + coeff * ec
    return grown


class CanonicalDatum(namedtuple("CanonicalDatum", "m alpha")):
    """Multiplicities m_i (summing to d) together with, per nonzero block, a
    strictly increasing exponent sequence bounded by the cumulative block size."""
    __slots__ = ()

    @property
    def flat_alpha(self) -> tuple[int, ...]:
        return tuple(a for block in self.alpha for a in block)

    @property
    def d(self) -> int:
        return sum(self.m)

    @property
    def weight(self) -> int:
        """The weight of the Wronskian, d(d-1)/2 - |alpha|: each term of the
        determinant is a product over the rows r of x_v[r - alpha_j]."""
        return self.d * (self.d - 1) // 2 - sum(self.flat_alpha)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """(alpha_j, variable_j) for each column: the entry t^alpha_j x_variable_j."""
        blocks = iter(self.alpha)
        return tuple((a, i) for i, mult in enumerate(self.m) if mult for a in next(blocks))


def canonical_data(m: Sequence[int]) -> Iterator[CanonicalDatum]:
    """The canonical data of the multiplicity vector ``m``, lexicographic in
    the flattened exponent sequence: per nonzero block, a strictly increasing
    sequence bounded by the cumulative size of the nonzero blocks up to it.
    There are d!/prod m_i! of them."""
    m = tuple(m)
    nonzero = [mult for mult in m if mult]
    cumulative = list(itertools.accumulate(nonzero))
    block_choices = [list(itertools.combinations(range(bound), mult))
                     for mult, bound in zip(nonzero, cumulative)]
    for alpha in itertools.product(*block_choices):
        yield CanonicalDatum(m=m, alpha=tuple(alpha))


def enumerate_canonical_data(n: int, d: int) -> list[CanonicalDatum]:
    """All canonical data, lexicographic in the multiplicity vector then in the
    flattened exponent sequence: :func:`canonical_data` over the
    compositions of d into N+1 parts."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return [datum for m in compositions(d, n + 1) for datum in canonical_data(m)]


@functools.lru_cache(maxsize=4)
def enumerate_canonical_basis(n: int, d: int) -> tuple[tuple[CanonicalDatum, DiffPoly], ...]:
    """The canonical basis in enumeration order, one :func:`build_wronskian`
    per canonical datum, built once per process for each of the last few
    (N, d) asked for.  Every caller shares the result, so it is a tuple, and
    its DiffPolys are never mutated."""
    return tuple((datum, build_wronskian(datum.pairs(), n))
                 for datum in enumerate_canonical_data(n, d))


def canonical_codes(d: int, l: int, data: Iterable[CanonicalDatum]
                    ) -> tuple[int, list[dict[int, int]]]:
    """Canonical data of degree d in x_0..x_{l-1} as packed rows, for the
    census: the bits ``width`` of one jet order, and per datum, in the order
    of ``data``, its Wronskian as {code: int} with the coefficient of each
    monomial M divided by c(M) = prod_{r<d} r! / prod_{x_v[k]^e in M} k!^e.
    Every term is +-prod_r r!/(r-a)! M = +-c(M) M, so these are the signed
    counts of the permutations, from entries of coefficient 1; c(M) scales
    a whole column, which keeps the rank of every column prefix.  Order-major:
    x_v[k] has the field of d.bit_length() bits at index k*l + v, so a code's
    jet order is its top field, ``(code.bit_length() - 1) // width``."""
    bits = d.bit_length()
    columns = [[tuple((1 << ((r - a) * l + v) * bits, 1) if r >= a else None
                      for r in range(d)) for a in range(d)] for v in range(l)]
    return bits * l, [_expand(list(zip(*(columns[v][a] for a, v in datum.pairs()))))
                      for datum in data]


def basis_manifest(n: int, d: int) -> list[dict]:
    """JSON-ready manifest of the canonical basis, in enumeration order."""
    out = []
    for datum, poly in enumerate_canonical_basis(n, d):
        g = gradings(poly)
        out.append({
            "m": list(datum.m),
            "alpha": list(datum.flat_alpha),
            "order": g.order,
            "weight": g.weight,
            "poly": to_json_dict(poly),
        })
    return out


# ---------------------------------------------------------------------------
# The formal family over d distinct variables and its triangular rewriting.

def formal_codes(d: int) -> Iterator[tuple[tuple[int, ...], dict[int, int]]]:
    """Every formal Wronskian of {0..d-1}^d as (alpha, {packed code: int
    coefficient}) under ``_codec(d)``, in lexicographic order of alpha.

    Column j of the matrix holds t^alpha_j y_j, whose entry in row r is
    ``r!/(r-alpha_j)! y_j[r-alpha_j]``, so it depends on alpha_j alone.  The
    tuples are walked as a prefix tree and the determinant is expanded
    column by column (:func:`_expand_step` on the transpose): the partial
    expansion of each prefix is built once, for all the tuples that extend
    it, and only the d partials along the current path are held.
    """
    codec = _codec(d)
    columns = [[[(codec.unit(j, r - a), math.perm(r, a)) if r >= a else None for r in range(d)]
                for a in range(d)] for j in range(d)]

    def walk(prefix: tuple[int, ...], partial: dict) -> Iterator:
        if len(prefix) == d:
            yield prefix, {w: c for w, c in partial.get((1 << d) - 1, {}).items() if c}
            return
        for a, column in enumerate(columns[len(prefix)]):
            yield from walk(prefix + (a,), _expand_step(partial, column))

    return walk((), {0: {0: 1}})


def rewriting_mismatches(d: int, rewrite: Callable[[tuple[int, ...]], list]
                         ) -> Iterator[tuple[int, ...]]:
    """The alpha of {0..d-1}^d, in lexicographic order, whose formal
    Wronskian (:func:`formal_codes`) differs from the combination of
    triangular ones that ``rewrite(alpha)`` gives, a list of (coefficient,
    tuple) like :func:`reduce_to_triangular`'s; compared in integers.

    A triangular tuple rewrites to itself, and every term of a rewriting is
    lexicographically at most alpha, so the triangular codes are held as the
    walk reaches them (d! of them) and every other one is dropped once
    compared.  A rewriting onto a tuple that is not held is a mismatch.
    """
    held: dict[tuple[int, ...], dict[int, int]] = {}
    for alpha, codes in formal_codes(d):
        comb = rewrite(alpha)
        if any(idx == alpha for _, idx in comb):
            held[alpha] = codes
        if any(idx not in held for _, idx in comb):
            yield alpha
            continue
        reduced: dict[int, int] = {}
        for c, idx in comb:
            c = integral(c)
            add_terms(reduced, ((w, c * v) for w, v in held[idx].items()))
        if reduced != codes:
            yield alpha


def _first_violation(alpha: tuple[int, ...]) -> int | None:
    """Smallest 1-based position p with alpha_p > p - 1, or None if triangular."""
    for p, a in enumerate(alpha, start=1):
        if a > p - 1:
            return p
    return None


@functools.lru_cache(maxsize=64)
def _shifts(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The gamma of compositions(p, d-p+1) other than (p, 0, ..., 0)."""
    ours = (p,) + (0,) * (d - p)
    return tuple(gamma for gamma in compositions(p, d - p + 1) if gamma != ours)


def _replacements(alpha: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """The summands other than ``alpha`` of the vanishing identity at the
    violating position p, without those with an entry >= d (the zero
    polynomial)."""
    d = len(alpha)
    head, base = alpha[:p - 1], (alpha[p - 1] - p,) + alpha[p:]
    out = []
    for gamma in _shifts(p, d):
        tail = tuple(b + g for b, g in zip(base, gamma))
        if max(tail) < d:
            out.append(head + tail)
    return out


@functools.lru_cache(maxsize=2)
def _rewritings(d: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """The rewritings ``reduce_to_triangular`` has found for length d, as
    {triangular tuple: int coefficient}: at most one per tuple of {0..d-1}^d,
    kept for the last two lengths asked for."""
    return {}


def reduce_to_triangular(alpha: Sequence[int]) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Rewrite the exponent family member ``alpha`` as an exact linear
    combination of members with the triangular bound alpha_i <= i - 1,
    sorted by tuple.

    At the smallest violating position p the vanishing identity
    ``sum over gamma in N^(d-p+1), |gamma| = p of P_(prefix, base+gamma) = 0``
    (base = tail with alpha_p lowered by p) is solved for the unique summand
    with gamma_p = p, which is ``alpha`` itself.  Every replacement is
    lexicographically smaller, so ``red(alpha) = -sum red(replacement)`` over
    the replacements with every entry < d (larger exponents index the zero
    polynomial; so does ``alpha`` itself, giving []).  ``red`` is memoized
    per tuple in integers (``_rewritings``) and evaluated with an explicit
    stack, so a check that rewrites all d^d tuples expands each one once.
    """
    d = len(alpha)
    alpha = tuple(alpha)
    if any(a >= d for a in alpha):
        return []
    memo = _rewritings(d)
    stack = [alpha]
    while stack:
        idx = stack[-1]
        if idx in memo:
            stack.pop()
            continue
        p = _first_violation(idx)
        if p is None:
            memo[stack.pop()] = {idx: 1}
            continue
        replacements = _replacements(idx, p)
        missing = [r for r in replacements if r not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[stack.pop()] = add_terms({}, ((key, -c) for r in replacements
                                           for key, c in memo[r].items()))
    return [(Fraction(c), idx) for idx, c in sorted(memo[alpha].items())]


# ---------------------------------------------------------------------------
# Wedge-product identities for nilpotent matrices.

def _mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[r][i] * b[i][c] for i in range(n)) for c in range(n)] for r in range(n)]


def _integral_vector(v: Sequence[Fraction]) -> tuple[int, ...]:
    """``v`` times the lcm of its denominators."""
    scale = math.lcm(*(c.denominator for c in v))
    return tuple(c.numerator * (scale // c.denominator) for c in v)


def _integral_rows(m: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """The square matrix ``m`` times the lcm D of all its denominators, so
    that (D m)^a = D^a m^a."""
    n = len(m)
    flat = _integral_vector([c for row in m for c in row])
    return tuple(flat[r * n:(r + 1) * n] for r in range(n))


@functools.lru_cache(maxsize=16)
def _is_nilpotent(m: tuple[tuple[Fraction, ...], ...]) -> tuple[tuple[int, ...], ...] | None:
    """``_integral_rows(m)`` when m^n = 0, else None.  Cached: the wedge
    checks ask it of one matrix for every tuple of vectors."""
    rows = _integral_rows(m)
    power = rows
    for _ in range(len(rows) - 1):
        power = _mat_mul(power, rows)
    return None if any(any(row) for row in power) else rows


def _wedge_chain(rows: Sequence[Sequence[int]], v: Sequence[Fraction], i: int
                 ) -> list[tuple[int, ...]]:
    """w, M w, ..., M^i w: M the square integer matrix ``rows`` and w the
    vector v times the lcm of its own denominators."""
    chain = [_integral_vector(v)]
    for _ in range(i):
        chain.append(_mat_vec(rows, chain[-1]))
    return chain


def _wedge_step(partial: dict[tuple[int, int], int], chain: Sequence[Sequence[int]], i: int,
                last: bool) -> dict[tuple[int, int], int]:
    """One vector of :func:`_wedge_coordinates`.  ``partial`` maps (exponent
    total t <= i, bitmask of used rows) to the signed sum of the wedges of
    M^a1 w_1, ..., M^aj w_j with a_1+...+a_j = t; the result does the same
    with M^a w appended, w the vector whose :func:`_wedge_chain` is
    ``chain``, for a <= i - t (a = i - t when ``last``), placed on each
    unused row r with the sign of the used rows above r.  Zeros are dropped,
    so an empty result stays empty under every further step."""
    d = len(chain[0])
    grown: dict[tuple[int, int], int] = {}
    for (t, mask), coeff in partial.items():
        for a in (i - t,) if last else range(i - t + 1):
            w = chain[a]
            above = 0  # used rows above r: the transpositions that placing r costs
            for r in range(d - 1, -1, -1):
                if mask >> r & 1:
                    above += 1
                elif w[r]:
                    key = (t + a, mask | 1 << r)
                    grown[key] = grown.get(key, 0) + (-coeff if above & 1 else coeff) * w[r]
    return {key: c for key, c in grown.items() if c}


def _wedge_coordinates(rows: Sequence[Sequence[int]], vectors: Sequence[Sequence[Fraction]],
                       i: int) -> dict[int, int]:
    """The nonzero Pluecker coordinates, keyed by the bitmask of their rows,
    of ``sum over a in N^c, |a| = i of M^a1 w_1 ^ ... ^ M^ac w_c``: M the
    square integer matrix ``rows``, c = len(vectors) and w_j the vector v_j
    times the lcm of its own denominators.  One pass over the vectors, as in
    ``build_wronskian``: :func:`_wedge_step` folded over their chains.
    """
    partial = {(0, 0): 1}
    for j, v in enumerate(vectors):
        partial = _wedge_step(partial, _wedge_chain(rows, v, i), i, j == len(vectors) - 1)
    return {mask: c for (t, mask), c in partial.items() if t == i}


def standard_nilpotent(d: int) -> list[list[Fraction]]:
    """The map sending basis vector e_i to i * e_{i+1} (1-based), e_d to 0."""
    m = [[ZERO] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = Fraction(i)
    return m


def _wedge_rows(nilpotent: Sequence[Sequence[Fraction]], i: int) -> tuple[tuple[int, ...], ...]:
    """The integer rows of ``nilpotent`` (:func:`_is_nilpotent`), after
    checking that it is a square nilpotent matrix and that 1 <= i <= d."""
    d = len(nilpotent)
    if any(len(row) != d for row in nilpotent):
        raise ValueError("nilpotent matrix must be square")
    rows = _is_nilpotent(tuple(map(tuple, nilpotent)))
    if rows is None:
        raise ValueError("matrix is not nilpotent")
    if not 1 <= i <= d:
        raise ValueError(f"i must lie in 1..{d}")
    return rows


def verify_wedge_identity(nilpotent: Sequence[Sequence[Fraction]],
                          vectors: Sequence[Sequence[Fraction]], i: int) -> bool:
    """Check that the sum over exponent tuples of total i of the wedge products
    N^a1 v1 ^ ... ^ N^a_(d-i+1) v_(d-i+1) vanishes identically.

    The matrix must be nilpotent and the number of vectors must be d - i + 1.
    All Pluecker coordinates of the sum are computed exactly, in one graded
    exterior pass over the vectors (``_wedge_coordinates``), in integers: N
    is scaled by the lcm D of its denominators once per matrix (cached with
    the nilpotence test), so every summand scales by D^i, and each v_j by the
    lcm of its own denominators.  The sum scales by one nonzero integer, so
    it vanishes exactly when the rational sum does.
    """
    rows = _wedge_rows(nilpotent, i)
    count = len(nilpotent) - i + 1
    if len(vectors) != count:
        raise ValueError(f"expected {count} vectors, got {len(vectors)}")
    return not _wedge_coordinates(rows, vectors, i)


def first_wedge_failure(nilpotent: Sequence[Sequence[Fraction]],
                        vectors: Sequence[Sequence[Fraction]], i: int) -> tuple[int, ...] | None:
    """The first tuple of d - i + 1 indices into ``vectors``, in
    lexicographic order, whose vectors fail :func:`verify_wedge_identity`,
    or None when every tuple passes.

    The tuples are walked as a prefix tree: the chain w, ..., N^i w of each
    vector is built once, and the partial pass of each prefix
    (:func:`_wedge_step`) once, for all the tuples that extend it.  A prefix
    whose partial pass is empty is skipped, as every extension of it
    vanishes.
    """
    rows = _wedge_rows(nilpotent, i)
    last = len(nilpotent) - i
    chains = [_wedge_chain(rows, v, i) for v in vectors]

    def walk(prefix: tuple[int, ...], partial: dict) -> tuple[int, ...] | None:
        for j, chain in enumerate(chains):
            grown = _wedge_step(partial, chain, i, len(prefix) == last)
            if grown:
                found = prefix + (j,) if len(prefix) == last else walk(prefix + (j,), grown)
                if found is not None:
                    return found
        return None

    return walk((), {(0, 0): 1})
