"""Highest weight vectors of spaces of differential polynomials.

Products of column determinants D_T indexed by Young tableaux filled with
derivative orders {0..k} realize the highest weight vectors; on the tensor
side, (Q^{k+1})^(x d) carries the right symmetric-group action, Young
symmetrizer projections, and the Leibniz spreadings J^(l) of the lowering
map x[i] -> i * x[i-1].  The simultaneous kernel of the J^(l) is an
S_d-module, because the J^(l) commute with permuting the factors; the
multiplicity of each irreducible V_lam in it comes from its class traces and
the characters chi_lam.
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
                       canonical_tableau, centralizer_size, character, compositions,
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


def stacked_operator_rows(d: int, k: int, weight: int) -> tuple[list[dict[int, Fraction]], int]:
    """Rows of all J^(l), l = 1..d, on the basis tensors of index weight
    ``weight``, as one sparse matrix whose columns are those index vectors in
    lexicographic order (the order of the tensor basis).

    J^(l) lowers the weight by exactly l, so no row meets two weights: the
    blocks for the weights 0..d*k together are the whole stacked system.

    It serves both the kernel and the PDE: read as exponent vectors, J^(l) is
    l! e_l(d/dX), and at k = d-1 the blocks are the degree blocks of the
    Newton power-sum system (``pde.solution_space_dim``).
    """
    keys = compositions(weight, d, k)

    def apply(idx: Index):
        t = Tensor.basis(idx, k)
        for ell in range(1, d + 1):
            for out, c in j_ell(t, ell).terms.items():
                yield (ell, out), c

    return operator_rows(keys, apply), len(keys)


def kernel_dim_full(d: int, k: int) -> int:
    """Dimension of the simultaneous kernel of all J^(l) on the full tensor
    power: the size of its cached basis."""
    return len(full_kernel_vectors(d, k))


@lru_cache(maxsize=None)
def full_kernel_vectors(d: int, k: int) -> tuple[dict[int, Fraction], ...]:
    """Reduced echelon basis of the simultaneous kernel of all J^(l), as
    sparse rows over the tensor basis.  Cached and shared: callers must not
    mutate the rows.

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


def _class_trace(d: int, k: int, mu: Partition) -> Fraction:
    """Trace on the simultaneous kernel of a permutation of the factors of
    cycle type mu.

    The kernel basis v_i is in reduced echelon form with pivots p_i = min(v_i):
    v_i[p_i] = 1 and v_j[p_i] = 0 for j != i.  So the coefficient of v_i in
    sigma.v_i is (sigma.v_i)[p_i] = v_i[col(sigma^-1 . idx(p_i))], and the
    trace is one lookup per vector.  sigma and sigma^-1 are conjugate in S_d,
    so the direction of the action does not matter.
    """
    # the cycles of mu on consecutive factor positions, each shifted by one
    src, start = [], 0
    for m in mu.parts:
        src += [start + (i + 1) % m for i in range(m)]
        start += m
    base = k + 1
    trace = Fraction(0)
    for v in full_kernel_vectors(d, k):
        p = min(v)
        digits = [(p // base ** (d - 1 - i)) % base for i in range(d)]
        col = 0
        for s in src:
            col = col * base + digits[s]
        trace += v.get(col, 0)
    return trace


def kernel_dim_isotypic(lam: Partition, k: int) -> int:
    """Dimension of (simultaneous kernel of the J^(l)) inside the image of the
    canonical Young symmetrizer of shape lam, which is the multiplicity of the
    irreducible V_lam in the kernel:

        sum over cycle types mu of chi_lam(mu) tr(sigma_mu | ker J) / z_mu.

    Raises ArithmeticError unless the sum is a natural number."""
    d = lam.size
    total = sum(character(lam, mu) * _class_trace(d, k, mu) / centralizer_size(mu)
                for mu in partitions_of(d))
    if total.denominator != 1 or total < 0:
        raise ArithmeticError(f"character sum {total} for {lam} is not a multiplicity")
    return int(total)


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
