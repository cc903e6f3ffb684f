"""Wronskian differential polynomials and the canonical (N+1)^d basis.

A Wronskian here is the determinant of the d x d matrix whose r-th row is the
r-th Leibniz derivative of a line of entries R_j(t) * x_{n_j}, evaluated at
t = 0.  Choosing monomials t^alpha with triangular exponent constraints yields
the canonical family of (N+1)^d differentially homogeneous polynomials; the
same construction over d distinct formal variables supports the rewriting of
an arbitrary exponent family onto the triangular one, justified by exact
wedge-product identities for nilpotent matrices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .exact import ONE, ZERO, add_terms, det_expansion, linear_combination
from .dpoly import DiffPoly, UniPoly, gradings, span_rank, to_json_dict


@dataclass(frozen=True)
class WronskSpec:
    """Entries (R_j, n_j): the one-variable polynomial R_j multiplying x_{n_j}."""
    entries: tuple[tuple[UniPoly, int], ...]

    @property
    def d(self) -> int:
        return len(self.entries)

    @classmethod
    def monomials(cls, alphas: Sequence[int], variables: Sequence[int]) -> "WronskSpec":
        if len(alphas) != len(variables):
            raise ValueError("length mismatch")
        return cls(tuple((UniPoly.t_power(a), v) for a, v in zip(alphas, variables)))


def wronskian_matrix(spec: WronskSpec, n: int) -> list[list[DiffPoly]]:
    """The d x d matrix: entry (r, j) = sum_m C(r, m) R_j^(r-m)(0) x_{n_j}[m]."""
    d = spec.d
    if d < 1:
        raise ValueError("a Wronskian needs at least one entry")
    matrix = []
    for r in range(d):
        row = []
        for rpoly, var in spec.entries:
            if not 0 <= var <= n:
                raise ValueError(f"variable index {var} exceeds bound {n}")
            row.append(DiffPoly(n, {((var, m, 1),):
                                    rpoly.derivative(r - m).at_zero() * math.comb(r, m)
                                    for m in range(r + 1)}))
        matrix.append(row)
    return matrix


def build_wronskian(spec: WronskSpec, n: int) -> DiffPoly:
    matrix = wronskian_matrix(spec, n)
    return det_expansion(matrix, DiffPoly.zero(n), DiffPoly.const(ONE, n))


@dataclass(frozen=True)
class CanonicalDatum:
    """Multiplicities m_i (summing to d) together with, per nonzero block, a
    strictly increasing exponent sequence bounded by the cumulative block size."""
    m: tuple[int, ...]
    alpha: tuple[tuple[int, ...], ...]

    @property
    def flat_alpha(self) -> tuple[int, ...]:
        return tuple(a for block in self.alpha for a in block)

    @property
    def d(self) -> int:
        return sum(self.m)

    def spec(self) -> WronskSpec:
        variables = []
        alphas = []
        block = 0
        for i, mult in enumerate(self.m):
            if mult == 0:
                continue
            for a in self.alpha[block]:
                variables.append(i)
                alphas.append(a)
            block += 1
        return WronskSpec.monomials(alphas, variables)


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``slots`` naturals summing to ``total``, lexicographically."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def enumerate_canonical_data(n: int, d: int) -> list[CanonicalDatum]:
    """All canonical data, lexicographic in the multiplicity vector then in the
    flattened exponent sequence."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = []
    for m in sorted(_compositions(d, n + 1)):
        nonzero = [mult for mult in m if mult]
        cumulative = list(itertools.accumulate(nonzero))
        block_choices = [list(itertools.combinations(range(bound), mult))
                         for mult, bound in zip(nonzero, cumulative)]
        for alpha in itertools.product(*block_choices):
            out.append(CanonicalDatum(m=m, alpha=tuple(alpha)))
    return out


def enumerate_canonical_basis(n: int, d: int) -> list[tuple[CanonicalDatum, DiffPoly]]:
    return [(datum, build_wronskian(datum.spec(), n)) for datum in enumerate_canonical_data(n, d)]


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

def build_formal_wronskian(alpha: Sequence[int]) -> DiffPoly:
    """Wronskian of (t^alpha_1 y_1, ..., t^alpha_d y_d) over d distinct formal
    variables, realized as x_0..x_{d-1}.  Zero whenever some alpha_i >= d."""
    d = len(alpha)
    return build_wronskian(WronskSpec.monomials(tuple(alpha), tuple(range(d))), d - 1)


def _first_violation(alpha: tuple[int, ...]) -> int | None:
    """Smallest 1-based position p with alpha_p > p - 1, or None if triangular."""
    for p, a in enumerate(alpha, start=1):
        if a > p - 1:
            return p
    return None


def reduce_to_triangular(alpha: Sequence[int]) -> list[tuple[Fraction, tuple[int, ...]]]:
    """Rewrite the exponent family member ``alpha`` as an exact linear
    combination of members with the triangular bound alpha_i <= i - 1.

    At the smallest violating position p the vanishing identity
    ``sum over gamma in N^(d-p+1), |gamma| = p of P_(prefix, base+gamma) = 0``
    (base = tail with alpha_p lowered by p) is solved for the unique summand
    with gamma_p = p, which is ``alpha`` itself.  Every replacement term is
    lexicographically smaller, so the rewriting terminates; exponents >= d are
    dropped since they index the zero polynomial.
    """
    d = len(alpha)
    work: dict[tuple[int, ...], Fraction] = {tuple(alpha): ONE}
    result: dict[tuple[int, ...], Fraction] = {}
    while work:
        idx = max(work)
        coeff = work.pop(idx)
        if any(a >= d for a in idx):
            continue
        p = _first_violation(idx)
        if p is None:
            add_terms(result, [(idx, coeff)])
            continue
        base = list(idx)
        base[p - 1] -= p
        ours = (p,) + (0,) * (d - p)
        add_terms(work, ((idx[:p - 1] + tuple(b + g for b, g in zip(base[p - 1:], gamma)), -coeff)
                         for gamma in _compositions(p, d - p + 1) if gamma != ours))
    return sorted(((c, idx) for idx, c in result.items()), key=lambda t: t[1])


def expand_combination(comb: Iterable[tuple[Fraction, Sequence[int]]], d: int) -> DiffPoly:
    return linear_combination(DiffPoly.zero(d - 1),
                              ((c, build_formal_wronskian(idx)) for c, idx in comb))


# ---------------------------------------------------------------------------
# Wedge-product identities for nilpotent matrices.

def _mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((m[r][c] * v[c] for c in range(len(v)) if v[c]), ZERO)
                 for r in range(len(m)))


def _mat_mul(a, b):
    n = len(a)
    return [[sum((a[r][i] * b[i][c] for i in range(n) if a[r][i]), ZERO)
             for c in range(n)] for r in range(n)]


def _is_nilpotent(m: Sequence[Sequence[Fraction]]) -> bool:
    n = len(m)
    power = [list(row) for row in m]
    for _ in range(n - 1):
        if all(v == 0 for row in power for v in row):
            return True
        power = _mat_mul(power, m)
    return all(v == 0 for row in power for v in row)


def standard_nilpotent(d: int) -> list[list[Fraction]]:
    """The map sending basis vector e_i to i * e_{i+1} (1-based), e_d to 0."""
    m = [[ZERO] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = Fraction(i)
    return m


def verify_wedge_identity(nilpotent: Sequence[Sequence[Fraction]],
                          vectors: Sequence[Sequence[Fraction]], i: int) -> bool:
    """Check that the sum over exponent tuples of total i of the wedge products
    N^a1 v1 ^ ... ^ N^a_(d-i+1) v_(d-i+1) vanishes identically.

    All Pluecker coordinates of the sum are computed exactly; the matrix must
    be nilpotent and the number of vectors must be d - i + 1.
    """
    d = len(nilpotent)
    if any(len(row) != d for row in nilpotent):
        raise ValueError("nilpotent matrix must be square")
    if not _is_nilpotent(nilpotent):
        raise ValueError("matrix is not nilpotent")
    count = d - i + 1
    if not 1 <= i <= d:
        raise ValueError(f"i must lie in 1..{d}")
    if len(vectors) != count:
        raise ValueError(f"expected {count} vectors, got {len(vectors)}")
    powers: list[list[tuple[Fraction, ...]]] = []
    for v in vectors:
        chain = [tuple(v)]
        for _ in range(i):
            chain.append(_mat_vec(nilpotent, chain[-1]))
        powers.append(chain)
    totals: dict[tuple[int, ...], Fraction] = {}
    for rows in itertools.combinations(range(d), count):
        totals[rows] = ZERO
    for exps in _compositions(i, count):
        cols = [powers[j][exps[j]] for j in range(count)]
        for rows in totals:
            sub = [[cols[j][r] for j in range(count)] for r in rows]
            totals[rows] += det_expansion(sub, ZERO, ONE)
    return all(v == 0 for v in totals.values())


def theta_family_rank(n: int, d: int, theta: Fraction) -> int:
    """Observed rank of the family Wronsk(x_{n_1}, (theta+t) x_{n_2}, ...,
    (theta+t)^{d-1} x_{n_d}) over all index tuples; reported, never asserted."""
    theta = Fraction(theta)
    if theta == 0:
        raise ValueError("theta must be nonzero")
    polys = []
    for tup in itertools.product(range(n + 1), repeat=d):
        spec = WronskSpec(tuple((UniPoly.shifted_power(theta, j), v)
                                for j, v in enumerate(tup)))
        polys.append(build_wronskian(spec, n))
    return span_rank([p for p in polys if p])
