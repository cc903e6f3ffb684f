"""Highest weight vectors of spaces of differential polynomials.

Products of column determinants D_T indexed by Young tableaux filled with
derivative orders {0..k} realize the highest weight vectors.  There is one
builder of the D_T: each column determinant is expanded row by row over
packed exponent codes (``wronskian._expand``, ``dpoly.MonoCodec``), once per
column and codec in a process (``_column_codes``), and a product of columns
adds codes; ``column_det`` and ``d_t`` decode the result, and ``hwv_basis``
decodes the semi-standard D_T of one (lam, k, n) once per process, into one
tuple that every caller shares.

The semi-standard D_T of shape lam span S_lam W, W = Q^{k+1}, and L_1..L_k
act there as the gl(W) elements f^m / m!, f the lowering map x[i] -> i *
x[i-1].  On the tensor power W^(x d) = sum over lam of S_lam W (x) V_lam the
Leibniz spreadings J^(l) of f are l! e_l(f_1, ..., f_d), and by Newton's
identities their common kernel is that of the power sums f_1^m + ... + f_d^m,
which act on S_lam W as f^m.  So the multiplicity m_lam of V_lam in the
simultaneous kernel of the J^(l), weight by weight, is the nullity of
L_1..L_k on the weight-w D_T (the paper's functional equation,
``weight_multiplicities``): the number of those D_T minus the rank of their
images, one integer row per D_T with the image codes as columns in
ascending order (``functional_system``).  Each nullity is solved once per
process for every k: a tableau of shape lam and weight w holds no entry above
e(lam, w) = l(lam) - 1 + w - b(lam), so the system of (lam, k, w) is one
matrix for all k >= e, and ``solve_multiplicities`` caches its nullity under
(lam, min(k, e), w).  They are solved only at the
weights up to the middle one, d*k/2, as J^(1) is an sl2 lowering operator;
k >= d is read at k = d-1, as every kernel vector has its indices below d;
and at k = d-1 only the weights up to D/2, D = d(d-1)/2, are solved, the
others read from D - w at the conjugate shape, as the kernel there is the
coinvariant algebra of S_d, whose top degree D is the sign (Poincaré
duality).  The tensor side
keeps the right symmetric-group action, the Young symmetrizer projections,
the J^(l) and their kernel vectors (``full_kernel_vectors``, as tensors),
which the checks read.  A tensor is a ``MultiPoly`` with every exponent <= k:
the index vector a is the monomial X^a.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

from .exact import (SparseComb, add_terms, linear_combination, nullspace_basis,
                    operator_rows, rank)
from .dpoly import DiffPoly, MonoCodec, solve_in_span
from .tableaux import (Partition, Tableau, canonical_tableau, compositions, count_standard,
                       partitions_of, semistandard_tableaux, young_symmetrizer)
from .wronskian import _decoded, _expand

Index = tuple[int, ...]


def _codec(lam: Partition, k: int) -> MonoCodec:
    """The codec of the D_T of shape lam with entries <= k: every monomial
    has degree lam_(b+1) <= lam_1 in x_b, and so has each L_m of it."""
    return _shared_codec(k + 1, max(lam.parts, default=1).bit_length())


@lru_cache(maxsize=64)
def _shared_codec(orders: int, bits: int) -> MonoCodec:
    """One codec per (orders, bits) in a process, so the shifts and
    binomials of ``MonoCodec.lowered`` are built once for every system."""
    return MonoCodec(orders, bits)


@lru_cache(maxsize=1024)
def _column_codes(col: tuple[int, ...], orders: int, bits: int) -> dict[int, int]:
    """The column determinant det(x_b[h_a]) of col = (h_0, ..., h_r) as
    {packed code: int coefficient} in the codec of (orders, bits), expanded
    once per process and shared, for every weight of every shape that has
    the column; callers must not mutate it.  A column of r entries has r!
    terms, so the cache holds only the last 1,024 columns asked for: the
    systems of `dh kernel --d 9 --k 7` have 515 distinct columns, 136,182
    terms in all, the most of any d <= 9."""
    codec = _shared_codec(orders, bits)
    return _expand([[(codec.unit(b, h), 1) for b in range(len(col))] for h in col])


def _d_t_codes(tableaux: Iterable[Tableau], codec: MonoCodec) -> Iterator[dict[int, int]]:
    """D_T of each tableau as {packed code: int coefficient}.  A column
    (h_0, ..., h_r) is det(x_b[h_a]) (``_column_codes``); the columns
    multiply by adding codes."""
    for t in tableaux:
        acc = {0: 1}
        for col in t.columns():
            det = _column_codes(col, codec.orders, codec.bits)
            prod: dict[int, int] = {}
            get = prod.get
            for w1, c1 in acc.items():
                for w2, c2 in det.items():
                    prod[w1 + w2] = get(w1 + w2, 0) + c1 * c2
            acc = prod
        yield {w: c for w, c in acc.items() if c}


def column_det(seq: Sequence[int], n: int) -> DiffPoly:
    """Determinant of the (r+1)x(r+1) matrix with entry (a, b) = x_b[seq[a]]."""
    size = len(seq)
    if size == 0:
        raise ValueError("empty derivative sequence")
    if size > n + 1:
        raise ValueError(f"{size} rows need at least {size - 1} for the variable bound, got {n}")
    return d_t(Tableau(Partition((1,) * size), tuple(seq)), n)


def d_t(t: Tableau, n: int) -> DiffPoly:
    """Product of the column determinants of a tableau filled with derivative orders."""
    if t.shape.nparts > n + 1:
        raise ValueError(f"shape with {t.shape.nparts} rows is too tall for variable bound {n}")
    if any(h < 0 for h in t.filling):
        raise ValueError("negative derivative order")
    codec = _codec(t.shape, max(t.filling, default=0))
    return _decoded(next(_d_t_codes([t], codec)), codec, n)


@lru_cache(maxsize=4)
def hwv_basis(lam: Partition, k: int, n: int) -> tuple[tuple[Tableau, DiffPoly], ...]:
    """The D_T for semi-standard T of shape lam filled with {0..k}, built
    once per process for each of the last few (lam, k, n) asked for.  Every
    caller shares the result, so it is a tuple, and its DiffPolys are never
    mutated.  Empty when lam has more than n+1 parts (the space is zero)."""
    if lam.nparts > n + 1:
        return ()
    tableaux = list(semistandard_tableaux(lam, k + 1))
    codec = _codec(lam, k)
    return tuple((t, _decoded(codes, codec, n))
                 for t, codes in zip(tableaux, _d_t_codes(tableaux, codec)))


def _coordinates(polys: Sequence[DiffPoly], lam: Partition, k: int, n: int
                 ) -> list[list[tuple[Fraction, Tableau]] | None]:
    """Per polynomial (each in x_0..x_n), its nonzero coordinates on the
    semi-standard D_T of shape lam filled with {0..k}, each an ``int`` where
    integral, or None if it lies outside their span: one ``solve_in_span``
    for the whole family."""
    basis = hwv_basis(lam, k, n)
    return [None if coeffs is None else [(c, t) for c, (t, _) in zip(coeffs, basis) if c]
            for coeffs in solve_in_span([q for _, q in basis], polys)]


def _expo_add(a: Index, b: Index) -> Index:
    return tuple(map(operator.add, a, b))


class MultiPoly(SparseComb):
    """Sparse polynomial in X_1..X_d over Q; keys are exponent vectors.  It is
    also the d-fold tensor power of W = Q^{k+1}: the index vector a of a basis
    tensor is the monomial X^a, so a tensor is a MultiPoly with every exponent
    <= k.  Coefficients built from integers are ``int`` (tableau tensors,
    their symmetrizer projections, the J^(l) rows), and a ``Fraction`` enters
    only with a division that leaves a remainder (kernel vectors,
    non-integral coordinates)."""

    __slots__ = ("nvars",)
    _shape = ("nvars",)
    _mismatch = "variable count mismatch"
    _key_mul = staticmethod(_expo_add)

    def __init__(self, nvars: int, terms: Mapping[Index, Fraction] | None = None):
        self.nvars = nvars
        for e in terms or ():
            if len(e) != nvars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent vector {e}")
        super().__init__(terms)

    @classmethod
    def const(cls, c: Fraction | int, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, i: int, nvars: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    def _unit_key(self) -> Index:
        return (0,) * self.nvars

    def derivative(self, i: int, times: int = 1) -> "MultiPoly":
        terms = self.terms
        for _ in range(times):
            new: dict[Index, Fraction] = {}
            for e, c in terms.items():
                if e[i] == 0:
                    continue
                out = list(e)
                out[i] -= 1
                new[tuple(out)] = c * e[i]
            terms = new
        return self.with_terms(terms)

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __repr__(self) -> str:
        return f"MultiPoly(nvars={self.nvars}, {len(self.terms)} terms)"


def tensor_of_tableau(t: Tableau, k: int) -> MultiPoly:
    """Basis tensor whose index vector is the row-major reading of the
    tableau, with the ``int`` coefficient 1."""
    if any(not 0 <= v <= k for v in t.filling):
        raise ValueError("tableau entries must lie in {0..k}")
    return MultiPoly(len(t.filling), {t.filling: 1})


@lru_cache(maxsize=None)
def _symmetrizer_action(lam: Partition) -> tuple[tuple[Callable[[Index], Index], int], ...]:
    """The Young symmetrizer c_lam of the canonical tableau as (index map,
    int coefficient) pairs, one per permutation sigma of its support: the
    map sends an index vector a to that of a.sigma, whose i-th entry is
    a[sigma(i)]."""
    action = []
    for sigma, c in young_symmetrizer(canonical_tableau(lam)).terms.items():
        src = [s - 1 for s in sigma.images]
        # an itemgetter of one position returns the entry, not a 1-tuple
        action.append((operator.itemgetter(*src) if len(src) > 1
                       else operator.itemgetter(slice(None)), c))
    return tuple(action)


def symmetrizer_projection(t: MultiPoly, lam: Partition) -> MultiPoly:
    """Right multiplication by the Young symmetrizer of the canonical
    tableau.  The coefficients are ``int`` where those of t are."""
    if lam.size != t.nvars:
        raise ValueError("partition size must match the tensor degree")
    out: dict[Index, Fraction | int] = {}
    get = out.get
    items = t.terms.items()
    for index_map, c in _symmetrizer_action(lam):
        for idx, v in items:
            key = index_map(idx)
            out[key] = get(key, 0) + v * c
    return t.with_terms({key: v for key, v in out.items() if v})


def j_ell(t: MultiPoly, ell: int) -> MultiPoly:
    """Sum over ordered tuples of ell distinct factors of applying the lowering
    map x[i] -> i * x[i-1] in those factors (so each factor subset counts ell!)."""
    if not 1 <= ell <= t.nvars:
        raise ValueError(f"ell must lie in 1..{t.nvars}")
    fact = math.factorial(ell)

    def lowered():
        for idx, c in t.terms.items():
            support = [i for i, a in enumerate(idx) if a > 0]
            for subset in itertools.combinations(support, ell):
                mult = fact
                new = list(idx)
                for i in subset:
                    mult *= idx[i]
                    new[i] -= 1
                yield tuple(new), c * mult

    return t.with_terms(add_terms({}, lowered()))


# ---------------------------------------------------------------------------
# Simultaneous kernels of the J^(l).

def stacked_operator_rows(d: int, k: int, weight: int) -> tuple[list[dict[int, int]], int]:
    """Rows of all J^(l), l = 1..d, on the weight-``weight`` part of the
    tensor power, as one sparse integer matrix whose columns are the index
    vectors of that weight in lexicographic order (the order of the tensor
    basis).

    J^(l) lowers the weight by exactly l, so no row meets two weights: the
    blocks for the weights 0..d*k together are the whole stacked system.
    Read as exponent vectors, J^(l) is l! e_l(d/dX), so at k = d-1 the blocks
    are the degree blocks of the Newton power-sum system.
    """
    keys = compositions(weight, d, k)

    def apply(idx: Index):
        # integer coefficients: J^(l) has integer entries, and echelon takes ints
        t = MultiPoly(d, {idx: 1})
        for ell in range(1, d + 1):
            for out, c in j_ell(t, ell).terms.items():
                yield (ell, out), c

    return operator_rows(keys, apply), len(keys)


def functional_system(lam: Partition, k: int, weight: int) -> tuple[list[dict[int, int]], int]:
    """The integer matrix of L_1 + ... + L_k on the semi-standard D_T of
    shape lam, entries <= k and entry sum ``weight``, and its column count:
    row j holds the image of the j-th D_T (``dpoly.MonoCodec.lowered``; the
    D_T are isobaric, so the L_m images stay apart), and column i the i-th
    image code in ascending order.  Its nullity on the left, rows minus
    rank, is m_lam at that weight.

    The order of the columns is pinned: the elimination runs leftmost
    column first, and at (8, 6, 24) it took 2.4 s with ascending codes,
    7.2 s with codes in first-seen order and 17.9 s with descending codes
    (2-CPU machine).
    One row per D_T, not one per image monomial, as the images have many
    more monomials than there are D_T (26,189 against 1,196 there).

    For every k >= e, the largest entry a tableau of shape lam and entry sum
    ``weight`` can hold, this is one matrix (``solve_multiplicities``, which
    builds it only on a miss of its nullity cache and keeps no rows)."""
    codec = _codec(lam, k)
    images = [codec.lowered(p, k)
              for p in _d_t_codes(semistandard_tableaux(lam, k + 1, total=weight), codec)]
    column = {code: i for i, code in enumerate(sorted(set().union(*images)))}
    return [{column[code]: c for code, c in image.items()} for image in images], len(column)


@lru_cache(maxsize=None)
def _positions(d: int) -> dict[Partition, int]:
    """The position of each partition of d in ``partitions_of(d)``."""
    return {lam: i for i, lam in enumerate(partitions_of(d))}


@lru_cache(maxsize=None)
def _conjugates(d: int) -> tuple[int, ...]:
    """Conjugation as a permutation of ``partitions_of(d)``: entry i is the
    position of the conjugate of the i-th partition."""
    where = _positions(d)
    return tuple(where[lam.conjugate()] for lam in partitions_of(d))


@lru_cache(maxsize=None)
def weight_multiplicities(d: int, k: int, weight: int) -> tuple[int, ...]:
    """The multiplicity m_lam of each irreducible V_lam (in ``partitions_of``
    order) in the weight-``weight`` part of the simultaneous kernel of the
    J^(l), which is an S_d-module because the J^(l) commute with permuting
    the factors: the nullity of L_1..L_k on the semi-standard D_T of shape
    lam and entry sum ``weight`` (``functional_system``, one rank per lam,
    from the nullity cache of ``solve_multiplicities``, which shares one
    system among every k at or above the largest entry of its tableaux).
    Cached per (d, k, weight), so an isotypic query reads a tuple over
    the p(d) shapes without rebuilding it.

    Three theorems fix part of the answer without elimination.  The lowering
    x[i] -> i x[i-1] is one nilpotent Jordan block on W = Q^{k+1}, so W is
    the irreducible sl2-module with x[i] of h-weight 2i - k, and J^(1) is its
    lowering operator on the tensor power, where index weight w has h-weight
    2w - dk.  The lowering operator is injective on every h-weight space of
    positive weight (Humphreys, Lie algebras §7; Proctor 1982), so the
    kernel is zero at 2w > dk.  And d^d/dX_i^d lies in the ideal of the
    e_l(d/dX) (see ``pde.solution_space_dim``), so for k >= d every kernel
    vector has all indices <= d-1: the kernel is the k = d-1 kernel, weight
    for weight.

    At k = d-1, read an index vector a as the monomial X^a: the kernel of
    weight w is then the space of S_d-harmonics of degree w, the polynomials
    killed by every symmetric operator without constant term.  As a graded
    S_d-module it is the coinvariant algebra Q[X]/(e_1, ..., e_d)
    (Chevalley 1955; Steinberg 1964), whose top degree D = d(d-1)/2 is the
    sign representation, spanned by the Vandermonde, and whose product into
    degree D pairs degrees w and D - w perfectly and S_d-equivariantly.  So
    the degree-(D - w) part is the dual of the degree-w part tensored with
    the sign, and V_lam (x) sign = V_lam': m_lam(w) = m_lam'(D - w) (Stanley
    1979, the symmetry of the fake degrees).  The weights 2w > D are read
    from D - w through ``_conjugates`` (``solved_weights`` gives the weights
    solved).  This holds only at k = d-1: below it the kernel is not the
    whole space of harmonics.

    ``full_kernel_vectors`` eliminates every weight at its own k, and
    ``verify.check_kernel_full`` solves the weights read by duality, so the
    tests and the checks compare the readings with direct solves.
    """
    if k >= d:
        return weight_multiplicities(d, d - 1, weight)
    if weight in solved_weights(d, k):
        return solve_multiplicities(d, k, weight)
    top = d * k // 2
    if k == d - 1 and weight <= top:
        dual = weight_multiplicities(d, k, top - weight)
        return tuple(dual[j] for j in _conjugates(d))
    return (0,) * len(partitions_of(d))


def solved_weights(d: int, k: int) -> range:
    """The weights at which ``weight_multiplicities(d, k, .)`` solves its
    systems: 2w <= dk' with k' = min(k, d-1) (sl2 and the k >= d cap), and
    at k' = d-1 only 2w <= d(d-1)/2 (duality).  Every other weight is read
    from these or is zero."""
    k = min(k, d - 1)
    return range(d * k // (4 if k == d - 1 else 2) + 1)


# The nullity of every system solved in the process, keyed by (lam, the
# largest entry its tableaux can hold, weight); see ``solve_multiplicities``.
_nullities: dict[tuple[Partition, int, int], int] = {}


def solve_multiplicities(d: int, k: int, weight: int) -> tuple[int, ...]:
    """The multiplicities of ``weight_multiplicities`` at one weight, each
    solved as the number of D_T minus the rank of their images
    (``functional_system``), with no weight read from another: the direct
    side that the duality reading is checked against.

    A cell of row i of a semi-standard tableau holds i plus a surplus >= 0,
    so a tableau of shape lam and entry sum w exists only for w >= b(lam) =
    sum_i i lam_i (``Partition.row_index_sum``), and its surpluses add up to
    w - b(lam): every entry is at most e(lam, w) = l(lam) - 1 + w - b(lam),
    reached in the last cell of the last row.  So for every k >= e the
    system of (lam, k, w) is one matrix:

    - its tableaux are those of entries <= e, in the same order;
    - the images' codes sort in the same ascending order under any codec
      whose orders reach e, as the field of x_i[h] comes in the order of
      (i, -h) whatever the orders, and the field width depends on lam alone;
    - L_m x_b[h] = C(h, m) x_b[h-m] is zero for h < m, so L_m kills every D_T
      whose entries are all below m, and the L_m with m > e add nothing.

    Each nullity is therefore solved once per process and key (lam, min(k,
    e), w), and shared (``_nullities``, ints only); a miss builds the system
    at the caller's k, so a run expands its columns under one codec
    (``_column_codes``), and every rank is taken on the matrix the solver
    would build at that k.  A shape with w < b(lam) or more than k+1 rows
    has no D_T: its multiplicity is 0 and nothing is built."""
    out = []
    for lam in partitions_of(d):
        key = _nullity_key(lam, k, weight)
        nullity = 0 if key is None else _nullities.get(key)
        if nullity is None:
            rows, ncols = functional_system(lam, k, weight)
            nullity = _nullities[key] = len(rows) - rank(rows, ncols)
        out.append(nullity)
    return tuple(out)


def _nullity_key(lam: Partition, k: int, weight: int) -> tuple[Partition, int, int] | None:
    """The key of the system of (lam, k, weight) in ``_nullities``: (lam,
    min(k, e), weight), e = l(lam) - 1 + weight - b(lam) the largest entry
    of its tableaux; None where lam has no D_T."""
    least = lam.row_index_sum
    if weight < least or lam.nparts > k + 1:
        return None
    return lam, min(k, lam.nparts - 1 + weight - least), weight


def weight_kernel_dim(d: int, k: int, weight: int) -> int:
    """Dimension of the weight-``weight`` part of the simultaneous kernel of
    all J^(l): sum over lam of f_lam m_lam."""
    return sum(count_standard(lam) * c
               for lam, c in zip(partitions_of(d), weight_multiplicities(d, k, weight)) if c)


def _weights(d: int, k: int) -> range:
    """The weights that can hold kernel vectors: 0..d*k, and for k >= d only
    those up to d(d-1), as every index is at most d-1."""
    return range(d * min(k, d - 1) + 1)


def kernel_dim_full(d: int, k: int) -> int:
    """Dimension of the simultaneous kernel of all J^(l) on the full tensor
    power, summed over the weights."""
    return sum(weight_kernel_dim(d, k, w) for w in _weights(d, k))


def kernel_dim_isotypic(lam: Partition, k: int) -> int:
    """The multiplicity of the irreducible V_lam in the simultaneous kernel of
    the J^(l), which is also the dimension of the kernel inside the image of
    the canonical Young symmetrizer of shape lam, summed over the weights."""
    d = lam.size
    i = _positions(d)[lam]
    return sum(weight_multiplicities(d, k, w)[i] for w in _weights(d, k))


@lru_cache(maxsize=None)
def full_kernel_vectors(d: int, k: int) -> tuple[MultiPoly, ...]:
    """Reduced echelon basis of the simultaneous kernel of all J^(l), as
    tensors over the index vectors in lexicographic order (the order of the
    tensor basis).  Cached and shared: callers must not mutate the tensors.
    The dimensions do not need it; it serves the checks that read kernel
    vectors.

    Column j of a weight block is the index vector ``compositions(weight, d,
    k)[j]``, an increasing map, so each block's reduced basis is reduced on
    its own index vectors and zero elsewhere, and the tensors of all blocks
    sorted by least index vector are the global reduced form.
    """
    vectors = []
    for weight in range(d * k + 1):
        keys = compositions(weight, d, k)
        vectors += [MultiPoly(d, {keys[j]: c for j, c in vec.items()})
                    for vec in nullspace_basis(*stacked_operator_rows(d, k, weight))]
    vectors.sort(key=lambda v: min(v.terms))
    return tuple(vectors)


# ---------------------------------------------------------------------------
# The comparison maps between the D_T and the tensor power.

def _e_iso_family(polys: Sequence[DiffPoly], lam: Partition, k: int, n: int) -> list[MultiPoly]:
    """:func:`e_iso` of each polynomial of a family in x_0..x_n, from one
    semi-standard expansion of the whole family (``_coordinates``).  Each
    tableau tensor is projected once per family, and the coordinates are
    ``int`` where integral, so integral images have ``int`` coefficients."""
    if lam.nparts > n + 1:
        raise ValueError(f"shape with {lam.nparts} rows is too tall for variable bound {n}")
    images: dict[Tableau, MultiPoly] = {}
    out = []
    for coords in _coordinates(polys, lam, k, n):
        if coords is None:
            raise ValueError("input is not a combination of column-determinant products")
        for _, s in coords:
            if s not in images:
                images[s] = symmetrizer_projection(tensor_of_tableau(s, k), lam)
        out.append(linear_combination(MultiPoly(lam.size),
                                      ((c, images[s]) for c, s in coords)))
    return out


def e_iso(p: DiffPoly, lam: Partition, k: int) -> MultiPoly:
    """Comparison map into the tensor power: D_T -> (tableau tensor) . c_lam,
    extended linearly via the semi-standard expansion of p."""
    return _e_iso_family([p], lam, k, p.n)[0]


def tableau_projection(t: MultiPoly, lam: Partition, n: int) -> DiffPoly:
    """The surjection sending each basis tensor with index vector a to the
    column-determinant product of the shape-lam tableau filled row-major by a."""
    if lam.size != t.nvars:
        raise ValueError("partition size must match the tensor degree")
    return linear_combination(DiffPoly.zero(n), ((c, d_t(Tableau(lam, idx), n))
                                                 for idx, c in t.terms.items()))
