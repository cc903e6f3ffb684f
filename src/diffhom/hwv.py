"""Highest weight vectors of spaces of differential polynomials.

Products of column determinants D_T indexed by Young tableaux filled with
derivative orders {0..k} realize the highest weight vectors; on the tensor
side, (Q^{k+1})^(x d) carries the right symmetric-group action, Young
symmetrizer projections, and the Leibniz spreadings J^(l) of the lowering
map x[i] -> i * x[i-1].  The simultaneous kernels of the J^(l) compute the
differentially homogeneous part of each isotypic block.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .exact import (Coeff, ONE, ParamPoly, SparseComb, add_terms, det_expansion,
                    intersection_dim, linear_combination, nullspace_basis, operator_rows, rank)
from .dpoly import DiffPoly, derivative_shift, solve_in_span
from .tableaux import (GroupAlgebraElem, Partition, Permutation, Tableau,
                       canonical_tableau, semistandard_tableaux, young_symmetrizer)

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


def hwv_basis(lam: Partition, k: int, n: int) -> list[tuple[Tableau, DiffPoly]]:
    """The D_T for semi-standard T of shape lam filled with {0..k}.

    Empty when lam has more than n+1 parts (the corresponding space is zero).
    """
    if lam.nparts > n + 1:
        return []
    return [(t, d_t(t, n)) for t in semistandard_tableaux(lam, k + 1, lo=0)]


class Tensor(SparseComb):
    """Sparse element of the d-fold tensor power of the span of x[0..k]."""

    __slots__ = ("d", "k")
    _shape = ("d", "k")
    _mismatch = "tensor shape mismatch"

    def __init__(self, d: int, k: int, terms: Mapping[Index, Coeff] | None = None):
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


def _weight_keys(d: int, k: int, weight: int) -> list[Index]:
    """The index vectors in {0..k}^d with entry sum ``weight``, in
    lexicographic order (the order of the tensor basis)."""
    if d == 0:
        return [()] if weight == 0 else []
    return [(a,) + rest for a in range(max(0, weight - k * (d - 1)), min(k, weight) + 1)
            for rest in _weight_keys(d - 1, k, weight - a)]


def stacked_operator_rows(d: int, k: int, weight: int) -> tuple[list[dict[int, Fraction]], int]:
    """Rows of all J^(l), l = 1..d, on the basis tensors of index weight
    ``weight``, as one sparse matrix whose columns follow ``_weight_keys``.

    J^(l) lowers the weight by exactly l, so no row meets two weights: the
    blocks for the weights 0..d*k together are the whole stacked system.
    """
    keys = _weight_keys(d, k, weight)

    def apply(idx: Index):
        t = Tensor.basis(idx, k)
        for ell in range(1, d + 1):
            for out, c in j_ell(t, ell).terms.items():
                yield (ell, out), c

    return operator_rows(keys, apply), len(keys)


def kernel_dim_full(d: int, k: int) -> int:
    """Dimension of the simultaneous kernel of all J^(l) on the full tensor
    power, summed over the weight blocks."""
    dim = 0
    for weight in range(d * k + 1):
        rows, ncols = stacked_operator_rows(d, k, weight)
        dim += ncols - rank(rows, ncols)
    return dim


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
        cols = [index[idx] for idx in _weight_keys(d, k, weight)]
        for vec in nullspace_basis(*stacked_operator_rows(d, k, weight)):
            vectors.append({cols[j]: c for j, c in enumerate(vec) if c})
    vectors.sort(key=min)
    return tuple(vectors)


def isotypic_image_rows(lam: Partition, k: int) -> list[dict[int, Fraction]]:
    """Spanning rows (over the tensor basis) of the image of right multiplication
    by the canonical Young symmetrizer of shape lam."""
    d = lam.size
    index = _basis_index(d, k)
    out = []
    for idx in index:
        v = symmetrizer_projection(Tensor.basis(idx, k), lam)
        if v:
            out.append({index[j]: c for j, c in v.terms.items()})
    return out

def kernel_dim_isotypic(lam: Partition, k: int) -> int:
    """Dimension of (simultaneous kernel of the J^(l)) inside the isotypic image,
    computed by exact intersection of the two subspaces."""
    d = lam.size
    return intersection_dim(full_kernel_vectors(d, k), isotypic_image_rows(lam, k),
                            (k + 1) ** d)


# ---------------------------------------------------------------------------
# Straightening and the tableau-to-tensor comparison map.

def straighten(t: Tableau, k: int, n: int) -> list[tuple[Fraction, Tableau]]:
    """Expand D_T in the semi-standard basis of its shape, by exact linear solve.

    The empty combination encodes D_T = 0 (repeated entries in a column).
    """
    target = d_t(t, n)
    if not target:
        return []
    ss = list(semistandard_tableaux(t.shape, k + 1, lo=0))
    coeffs = solve_in_span([d_t(s, n) for s in ss], target)
    if coeffs is None:
        raise ArithmeticError("column-determinant product escaped the semi-standard span")
    return [(c, s) for c, s in zip(coeffs, ss) if c]


def e_iso(p: DiffPoly, lam: Partition, k: int) -> Tensor:
    """Comparison map into the tensor power: D_T -> (tableau tensor) . c_lam,
    extended linearly via the semi-standard expansion of p."""
    if lam.nparts > p.n + 1:
        raise ValueError(f"shape with {lam.nparts} rows is too tall for variable bound {p.n}")
    ss = list(semistandard_tableaux(lam, k + 1, lo=0))
    if not ss:
        if p:
            raise ValueError("nonzero input in a zero tableau space")
        return Tensor(lam.size, k)
    coeffs = solve_in_span([d_t(s, p.n) for s in ss], p)
    if coeffs is None:
        raise ValueError("input is not a combination of column-determinant products")
    return linear_combination(Tensor(lam.size, k),
                              ((c, symmetrizer_projection(tensor_of_tableau(s, k), lam))
                               for c, s in zip(coeffs, ss) if c))


def tableau_projection(t: Tensor, lam: Partition, n: int) -> DiffPoly:
    """The surjection sending each basis tensor with index vector a to the
    column-determinant product of the shape-lam tableau filled row-major by a."""
    if lam.size != t.d:
        raise ValueError("partition size must match the tensor degree")
    return linear_combination(DiffPoly.zero(n), ((c, d_t(Tableau(lam, idx), n))
                                                 for idx, c in t.terms.items()))


def functional_solution_dim(lam: Partition, k: int, n: int) -> int:
    """Dimension of solutions, inside the span of the D_T, of the one-parameter
    substitution identity  (a Id + lowering) . P = a^d P  with a formal."""
    ss = list(semistandard_tableaux(lam, k + 1, lo=0))
    if lam.nparts > n + 1 or not ss:
        return 0
    d = lam.size
    al = ParamPoly.var("al")

    def apply(s: Tableau):
        p = d_t(s, n)
        delta = derivative_shift(p, [al, ONE]) - p.scale(al ** d)
        for mono, c in delta.terms.items():
            cp = c if isinstance(c, ParamPoly) else ParamPoly.const(c)
            for pmono, frac in cp.terms.items():
                yield (mono, pmono), frac

    return len(ss) - rank(operator_rows(ss, apply), len(ss))
