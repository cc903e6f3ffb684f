"""Highest weight vectors of spaces of differential polynomials.

Products of column determinants D_T indexed by Young tableaux filled with
derivative orders {0..k} realize the highest weight vectors; on the tensor
side, (Q^{k+1})^(x d) carries the right symmetric-group action, Young
symmetrizer projections, and the Leibniz spreadings J^(l) of the lowering
map x[i] -> i * x[i-1].  The simultaneous kernel of the J^(l) is an
S_d-module, because the J^(l) commute with permuting the factors; the
multiplicity of each irreducible V_lam in it, weight by weight, comes from
the kernels on the invariants and the alternants of Young subgroups (Young's
rule), which are far smaller systems than the whole tensor power.  They
are solved only at the weights up to the middle one, d*k/2, and k >= d is
read at k = d-1: J^(1) is an sl2 lowering operator, and every kernel vector
has its indices below d (``weight_multiplicities``).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .exact import (ONE, SparseComb, add_terms, det_expansion, linear_combination,
                    nullspace_basis, operator_rows, rank)
from .dpoly import DiffPoly, derive, lowering, solve_in_span
from .tableaux import (GroupAlgebraElem, Partition, Permutation, Tableau,
                       canonical_tableau, compositions, count_standard, dominates, kostka,
                       partitions_of, semistandard_tableaux, young_symmetrizer)

Index = tuple[int, ...]


def column_det(seq: Sequence[int], n: int) -> DiffPoly:
    """Determinant of the (r+1)x(r+1) matrix with entry (a, b) = x_b[seq[a]]."""
    size = len(seq)
    if size == 0:
        raise ValueError("empty derivative sequence")
    if size > n + 1:
        raise ValueError(f"{size} rows need at least {size - 1} for the variable bound, got {n}")
    rows = [[DiffPoly.var(b, seq[a], n) for b in range(size)] for a in range(size)]
    return det_expansion(rows, DiffPoly.zero(n), DiffPoly.const(ONE, n))


def d_t(t: Tableau, n: int) -> DiffPoly:
    """Product of the column determinants of a tableau filled with derivative orders."""
    if t.shape.nparts > n + 1:
        raise ValueError(f"shape with {t.shape.nparts} rows is too tall for variable bound {n}")
    out = DiffPoly.const(ONE, n)
    for col in t.columns():
        out = out * column_det(col, n)
    return out


@lru_cache(maxsize=4)
def _semistandard_basis(lam: Partition, k: int, n: int) -> tuple[tuple[Tableau, DiffPoly], ...]:
    """The D_T for semi-standard T of shape lam filled with {0..k}, built
    once per process for each of the last few (lam, k, n) asked for.  Every
    caller shares the result, so it is a tuple, and its DiffPolys are never
    mutated."""
    if lam.nparts > n + 1:
        return ()
    return tuple((t, d_t(t, n)) for t in semistandard_tableaux(lam, k + 1, lo=0))


def hwv_basis(lam: Partition, k: int, n: int) -> list[tuple[Tableau, DiffPoly]]:
    """The D_T for semi-standard T of shape lam filled with {0..k}, as a fresh
    list over the shared basis.

    Empty when lam has more than n+1 parts (the corresponding space is zero).
    """
    return list(_semistandard_basis(lam, k, n))


def _coordinates(p: DiffPoly, lam: Partition, k: int) -> list[tuple[Fraction, Tableau]] | None:
    """The nonzero coordinates of p on the semi-standard D_T of shape lam
    filled with {0..k}, or None if p lies outside their span."""
    basis = _semistandard_basis(lam, k, p.n)
    coeffs = solve_in_span([q for _, q in basis], p)
    if coeffs is None:
        return None
    return [(c, t) for c, (t, _) in zip(coeffs, basis) if c]


class Tensor(SparseComb):
    """Sparse element of the d-fold tensor power of the span of x[0..k]."""

    __slots__ = ("d", "k")
    _shape = ("d", "k")
    _mismatch = "tensor shape mismatch"

    def __init__(self, d: int, k: int, terms: Mapping[Index, Fraction] | None = None):
        self.d = d
        self.k = k
        for idx in terms or ():
            if len(idx) != d or any(not 0 <= a <= k for a in idx):
                raise ValueError(f"index {idx} out of bounds for d={d}, k={k}")
        super().__init__(terms)

    @classmethod
    def basis(cls, idx: Index, k: int) -> "Tensor":
        return cls(len(idx), k, {tuple(idx): ONE})

    def __repr__(self) -> str:
        return f"Tensor(d={self.d}, k={self.k}, {len(self.terms)} terms)"


def tensor_of_tableau(t: Tableau, k: int) -> Tensor:
    """Basis tensor whose index vector is the row-major reading of the tableau."""
    if any(not 0 <= v <= k for v in t.filling):
        raise ValueError("tableau entries must lie in {0..k}")
    return Tensor.basis(t.filling, k)


def _permuted_terms(t: Tensor, sigma: Permutation):
    """The (index, coefficient) pairs of t.sigma, each index once (sigma
    permutes the factors, so distinct indices stay distinct)."""
    if sigma.d != t.d:
        raise ValueError("permutation size mismatch")
    src = [s - 1 for s in sigma.images]
    return ((tuple([idx[s] for s in src]), c) for idx, c in t.terms.items())


def tensor_sigma_action(t: Tensor, sigma: Permutation) -> Tensor:
    """Right action: the i-th factor of t.sigma is the sigma(i)-th factor of t."""
    return t.with_terms(dict(_permuted_terms(t, sigma)))


def tensor_algebra_action(t: Tensor, u: GroupAlgebraElem) -> Tensor:
    if u.d != t.d:
        raise ValueError("size mismatch")
    return t.with_terms(add_terms({}, ((idx, v * c) for sigma, c in u.terms.items()
                                       for idx, v in _permuted_terms(t, sigma))))


@lru_cache(maxsize=None)
def _symmetrizer(lam: Partition) -> GroupAlgebraElem:
    return young_symmetrizer(canonical_tableau(lam))


def symmetrizer_projection(t: Tensor, lam: Partition) -> Tensor:
    """Right multiplication by the Young symmetrizer of the canonical tableau."""
    if lam.size != t.d:
        raise ValueError("partition size must match the tensor degree")
    return tensor_algebra_action(t, _symmetrizer(lam))


def j_ell(t: Tensor, ell: int) -> Tensor:
    """Sum over ordered tuples of ell distinct factors of applying the lowering
    map x[i] -> i * x[i-1] in those factors (so each factor subset counts ell!)."""
    if not 1 <= ell <= t.d:
        raise ValueError(f"ell must lie in 1..{t.d}")
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

def _basis_index(d: int, k: int) -> dict[Index, int]:
    return {idx: j for j, idx in enumerate(itertools.product(range(k + 1), repeat=d))}


@lru_cache(maxsize=None)
def _decreasing_tuples(m: int, k: int, strict: bool) -> dict[int, tuple[Index, ...]]:
    """The weakly (strictly, with ``strict``) decreasing m-tuples over {0..k},
    grouped by entry sum.  Shared: callers must not mutate it."""
    pick = itertools.combinations if strict else itertools.combinations_with_replacement
    out: dict[int, list[Index]] = {}
    for t in pick(range(k, -1, -1), m):
        out.setdefault(sum(t), []).append(t)
    return {s: tuple(ts) for s, ts in out.items()}


def _young_keys(mu: Sequence[int], k: int, weight: int, strict: bool) -> list[Index]:
    """The index vectors of weight ``weight`` that decrease inside each block
    of consecutive positions of sizes mu: block sums in lexicographic order,
    then each block's tuples.  For mu = 1^d these are all index vectors, in
    lexicographic order."""
    by_sum = [_decreasing_tuples(m, k, strict) for m in mu]
    cap = max(max(b, default=0) for b in by_sum)
    return [sum(heads, ()) for sums in compositions(weight, len(mu), cap)
            for heads in itertools.product(*(b.get(s, ()) for b, s in zip(by_sum, sums)))]


def stacked_operator_rows(d: int, k: int, weight: int, mu: Sequence[int] | None = None,
                          sign: bool = False) -> tuple[list[dict[int, int]], int]:
    """Rows of all J^(l), l = 1..d, on the weight-``weight`` part of the
    S_mu-coinvariants (``sign``: the S_mu-sign-coinvariants) of the tensor
    power, as one sparse integer matrix; S_mu permutes the factors inside
    each block of consecutive positions of sizes mu (default 1^d, the whole
    tensor power).

    The columns are the index vectors that are weakly decreasing inside each
    block (``sign``: strictly decreasing).  Each is expanded once through
    ``j_ell``, and each output index is folded to its block-sorted form, times
    the sign of the sorting permutation with ``sign``, where an output with a
    repeated entry inside a block vanishes.  The J^(l) commute with permuting
    the factors, so they pass to the coinvariants, and the kernel there has
    the dimension of the S_mu-invariants (S_mu-alternants) of the kernel on
    the tensor power.  For mu = 1^d the columns are all index vectors in
    lexicographic order (the order of the tensor basis).

    J^(l) lowers the weight by exactly l, so no row meets two weights: the
    blocks for the weights 0..d*k together are the whole stacked system.

    It serves both the kernel and the PDE: read as exponent vectors, J^(l) is
    l! e_l(d/dX), and at k = d-1 the blocks are the degree blocks of the
    Newton power-sum system (``pde.solution_space_dim``).
    """
    mu = tuple(mu) if mu is not None else (1,) * d
    if sum(mu) != d or any(m < 1 for m in mu):
        raise ValueError(f"block sizes {mu} do not split {d} factors")
    keys = _young_keys(mu, k, weight, sign)
    spans = list(zip(itertools.accumulate(mu, initial=0), itertools.accumulate(mu)))
    folded: dict[Index, tuple[Index, int]] = {}  # outputs repeat across keys

    def fold(out: Index) -> tuple[Index, int]:
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

    def apply(idx: Index):
        # integer coefficients: J^(l) has integer entries, and echelon takes ints
        t = Tensor(d, k, {idx: 1})
        terms: dict = {}
        for ell in range(1, d + 1):
            for out, c in j_ell(t, ell).terms.items():
                f = folded.get(out)
                if f is None:
                    f = folded[out] = fold(out)
                key, s = f
                if s:
                    terms[ell, key] = terms.get((ell, key), 0) + (c if s > 0 else -c)
        return ((key, c) for key, c in terms.items() if c)

    return operator_rows(keys, apply), len(keys)


def young_system_sizes(lam: Partition, k: int) -> tuple[int, int]:
    """Columns, over all weights, of the S_lam-invariant system and of the
    S_lam'-alternant system: prod C(k + lam_i, lam_i) multisets and
    prod C(k + 1, lam'_j) sets."""
    return (math.prod(math.comb(k + m, m) for m in lam.parts),
            math.prod(math.comb(k + 1, m) for m in lam.conjugate().parts))


def largest_young_system(d: int, k: int) -> int:
    """Columns of the largest system ``weight_multiplicities`` solves at (d, k),
    counted over all weights (a bound: only the weights 2w <= dk are
    solved): max over lam of min(invariant, alternant) columns."""
    return max(min(young_system_sizes(lam, k)) for lam in partitions_of(d))


@lru_cache(maxsize=None)
def _invariant_side(d: int, k: int) -> frozenset[Partition]:
    """The up-set U of the dominance order whose multiplicities are solved on
    invariants: the upward closure of the lam whose invariant system has at
    most as many columns as its alternant system.  This keeps the largest of
    the systems solved at its least possible size."""
    lams = partitions_of(d)
    seeds = [lam for lam in lams for inv, alt in [young_system_sizes(lam, k)] if inv <= alt]
    return frozenset(nu for nu in lams if any(dominates(nu, lam) for lam in seeds))


@lru_cache(maxsize=None)
def _kostka(lam: Partition, mu: Partition) -> int:
    return kostka(lam, mu.parts)


@lru_cache(maxsize=None)
def weight_multiplicities(d: int, k: int, weight: int) -> tuple[int, ...]:
    """The multiplicity m_lam of each irreducible V_lam (in ``partitions_of``
    order) in the weight-``weight`` part of the simultaneous kernel of the
    J^(l), which is an S_d-module because the J^(l) commute with permuting
    the factors.  Cached per (d, k, weight).

    Two theorems fix part of the answer without elimination.  The lowering
    x[i] -> i x[i-1] is one nilpotent Jordan block on W = Q^{k+1}, so W is
    the irreducible sl2-module with x[i] of h-weight 2i - k, and J^(1) is its
    lowering operator on the tensor power, where index weight w has h-weight
    2w - dk.  The lowering operator is injective on every h-weight space of
    positive weight (Humphreys, Lie algebras §7; Proctor 1982), so the
    kernel is zero at 2w > dk.  And d^d/dX_i^d lies in the ideal of the
    e_l(d/dX) (see ``pde.solution_space_dim``), so for k >= d every kernel
    vector has all indices <= d-1: the kernel is the k = d-1 kernel, weight
    for weight.  ``full_kernel_vectors`` eliminates every weight at its own
    k, and the tests compare the two.

    By Young's rule the kernel has sum_nu K_{nu,lam} m_nu invariants under
    the Young subgroup S_lam and sum_nu K_{nu',lam'} m_nu alternants under
    S_lam' (Fulton, Young Tableaux 7.3), and both sums are unitriangular in
    the dominance order.  So the lam of the up-set ``_invariant_side`` are
    solved from the top down on invariants, and the others from 1^d upward on
    alternants; no kernel basis is built.  Raises ArithmeticError on a
    negative multiplicity.
    """
    if k >= d:
        return weight_multiplicities(d, d - 1, weight)
    lams = partitions_of(d)
    if 2 * weight > d * k:
        return (0,) * len(lams)
    upper = _invariant_side(d, k)

    def nullity(mu: Partition, sign: bool) -> int:
        rows, ncols = stacked_operator_rows(d, k, weight, mu.parts, sign)
        return ncols - rank(rows, ncols)

    # partitions_of lists every nu before each lam it dominates
    m: dict[Partition, int] = {}
    for lam in lams:
        if lam in upper:
            m[lam] = nullity(lam, False) - sum(_kostka(nu, lam) * c for nu, c in m.items() if c)
    below: dict[Partition, int] = {}
    for lam in reversed(lams):
        if lam not in upper:
            conj = lam.conjugate()
            below[lam] = nullity(conj, True) - sum(_kostka(nu.conjugate(), conj) * c
                                                   for nu, c in below.items() if c)
    m.update(below)
    for lam in lams:
        if m[lam] < 0:
            raise ArithmeticError(f"negative multiplicity {m[lam]} for {lam} at weight {weight}")
    return tuple(m[lam] for lam in lams)


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
    i = partitions_of(d).index(lam)
    return sum(weight_multiplicities(d, k, w)[i] for w in _weights(d, k))


@lru_cache(maxsize=None)
def full_kernel_vectors(d: int, k: int) -> tuple[dict[int, Fraction], ...]:
    """Reduced echelon basis of the simultaneous kernel of all J^(l), as
    sparse rows over the tensor basis.  Cached and shared: callers must not
    mutate the rows.  The dimensions do not need it; it serves the checks
    that read kernel vectors.

    Each weight block's reduced basis, moved to the global columns (an
    increasing map), is reduced on its own columns and zero elsewhere, so the
    rows of all blocks sorted by pivot column are the global reduced form.
    """
    index = _basis_index(d, k)
    vectors = []
    for weight in range(d * k + 1):
        cols = [index[idx] for idx in compositions(weight, d, k)]
        for vec in nullspace_basis(*stacked_operator_rows(d, k, weight)):
            vectors.append({cols[j]: c for j, c in vec.items()})
    vectors.sort(key=min)
    return tuple(vectors)


# ---------------------------------------------------------------------------
# Straightening and the tableau-to-tensor comparison map.

def straighten(t: Tableau, k: int, n: int) -> list[tuple[Fraction, Tableau]]:
    """Expand D_T in the semi-standard basis of its shape, by exact linear solve.

    The empty combination encodes D_T = 0 (repeated entries in a column).
    """
    target = d_t(t, n)
    if not target:
        return []
    coords = _coordinates(target, t.shape, k)
    if coords is None:
        raise ArithmeticError("column-determinant product escaped the semi-standard span")
    return coords


def e_iso(p: DiffPoly, lam: Partition, k: int) -> Tensor:
    """Comparison map into the tensor power: D_T -> (tableau tensor) . c_lam,
    extended linearly via the semi-standard expansion of p."""
    if lam.nparts > p.n + 1:
        raise ValueError(f"shape with {lam.nparts} rows is too tall for variable bound {p.n}")
    coords = _coordinates(p, lam, k)
    if coords is None:
        raise ValueError("input is not a combination of column-determinant products")
    return linear_combination(Tensor(lam.size, k),
                              ((c, symmetrizer_projection(tensor_of_tableau(s, k), lam))
                               for c, s in coords))


def tableau_projection(t: Tensor, lam: Partition, n: int) -> DiffPoly:
    """The surjection sending each basis tensor with index vector a to the
    column-determinant product of the shape-lam tableau filled row-major by a."""
    if lam.size != t.d:
        raise ValueError("partition size must match the tensor degree")
    return linear_combination(DiffPoly.zero(n), ((c, d_t(Tableau(lam, idx), n))
                                                 for idx, c in t.terms.items()))


def functional_solution_dim(lam: Partition, k: int, n: int) -> int:
    """Dimension of solutions, inside the span of the D_T, of the one-parameter
    substitution identity  (a Id + lowering) . P = a^d P  with a formal.

    The a^(d-l) coefficient of the left side is J^(l) P / l!, and the power
    sums of the factorwise lowerings are the m! L_m: by Newton's identities the
    solutions are the common kernel of L_1..L_k (L_1 alone is not enough)."""
    polys = [p for _, p in _semistandard_basis(lam, k, n)]

    def apply(p: DiffPoly):
        for m in range(1, k + 1):
            for mono, c in derive(p, lowering(m)).terms.items():
                yield (m, mono), c

    return len(polys) - rank(operator_rows(polys, apply), len(polys))
