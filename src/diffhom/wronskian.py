"""Wronskian differential polynomials and the canonical (N+1)^d basis.

A Wronskian here is the determinant of the d x d matrix whose r-th row is the
r-th Leibniz derivative of a line of entries R_j(t) * x_{n_j}, evaluated at
t = 0.  Every entry is a sparse linear form in the x_i[k], so the determinant
is expanded row by row over sets of used columns, in integer arithmetic
while the entries are integral (``build_wronskian``).  Choosing monomials
t^alpha with triangular exponent constraints yields the canonical family of
(N+1)^d differentially homogeneous polynomials, which ``canonical_basis``
builds once per process for each of the last few (N, d) asked for; the same
construction over d distinct formal variables supports the rewriting of
an arbitrary exponent family onto the triangular one, justified by exact
wedge-product identities for nilpotent matrices.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import ONE, ZERO, add_terms, det_expansion, linear_combination
from .dpoly import DiffPoly, UniPoly, _mono_from_exps, gradings, span_rank, to_json_dict
from .tableaux import compositions


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


def build_wronskian(spec: WronskSpec, n: int) -> DiffPoly:
    """The Wronskian of ``spec`` (rational R_j) as a differential polynomial
    in x_0..x_n.

    Entry (r, j) of the matrix is the linear form
    ``sum_m C(r, m) R_j^(r-m)(0) x_{n_j}[m] = sum_s r!/(r-s)! c_s x_{n_j}[r-s]``,
    c_s the t^s coefficient of R_j; for R_j = t^a it is the single term
    ``r!/(r-a)! x_{n_j}[r-a]``.  The determinant is expanded row by row over
    sets of used columns: after row r, ``partial`` maps each bitmask of r+1
    columns to the signed sum of the products of rows 0..r placed on them.
    Monomials are sorted tuples of (i, k) factors, one per unit of exponent,
    and coefficients stay ints while the entries are integral; the result
    becomes a DiffPoly with Fraction coefficients once, at the end.
    """
    d = spec.d
    if d < 1:
        raise ValueError("a Wronskian needs at least one entry")
    for _, var in spec.entries:
        if not 0 <= var <= n:
            raise ValueError(f"variable index {var} exceeds bound {n}")
    forms = [[[((var, r - s), math.perm(r, s) * _integral(c))
               for s, c in enumerate(rpoly.coeffs[:r + 1]) if c]
              for rpoly, var in spec.entries] for r in range(d)]
    partial: dict[int, dict[tuple, int | Fraction]] = {0: {(): 1}}
    for row in forms:
        grown: dict[int, dict[tuple, int | Fraction]] = {}
        for mask, terms in partial.items():
            above = 0  # used columns right of c: the inversions that placing c adds
            for c in range(d - 1, -1, -1):
                if mask >> c & 1:
                    above += 1
                    continue
                if not row[c]:
                    continue
                out = grown.setdefault(mask | 1 << c, {})
                for key, ec in row[c]:
                    if above & 1:
                        ec = -ec
                    for mono, coeff in terms.items():
                        j = bisect.bisect(mono, key)
                        prod = mono[:j] + (key,) + mono[j:]
                        out[prod] = out.get(prod, 0) + coeff * ec
        partial = {mask: nonzero for mask, terms in grown.items()
                   if (nonzero := {m: c for m, c in terms.items() if c})}
    return DiffPoly(n, {_mono_from_exps(Counter(mono)): Fraction(c)
                        for mono, c in partial.get((1 << d) - 1, {}).items()})


def _integral(c: Fraction):
    """``c`` as an int when it is one, so that integral entries multiply as ints."""
    return c.numerator if c.denominator == 1 else c


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


def enumerate_canonical_data(n: int, d: int) -> list[CanonicalDatum]:
    """All canonical data, lexicographic in the multiplicity vector then in the
    flattened exponent sequence."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = []
    for m in compositions(d, n + 1):
        nonzero = [mult for mult in m if mult]
        cumulative = list(itertools.accumulate(nonzero))
        block_choices = [list(itertools.combinations(range(bound), mult))
                         for mult, bound in zip(nonzero, cumulative)]
        for alpha in itertools.product(*block_choices):
            out.append(CanonicalDatum(m=m, alpha=tuple(alpha)))
    return out


@functools.lru_cache(maxsize=4)
def canonical_basis(n: int, d: int) -> tuple[tuple[CanonicalDatum, DiffPoly], ...]:
    """The canonical basis in enumeration order, built once per process for
    each of the last few (N, d) asked for.  Every caller shares the result,
    so it is a tuple, and its DiffPolys are never mutated."""
    return tuple((datum, build_wronskian(datum.spec(), n))
                 for datum in enumerate_canonical_data(n, d))


def enumerate_canonical_basis(n: int, d: int) -> list[tuple[CanonicalDatum, DiffPoly]]:
    """A fresh list over :func:`canonical_basis`."""
    return list(canonical_basis(n, d))


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
                         for gamma in compositions(p, d - p + 1) if gamma != ours))
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


@functools.lru_cache(maxsize=16)
def _is_nilpotent(m: tuple[tuple[Fraction, ...], ...]) -> bool:
    """Whether m^n = 0.  Cached: the wedge checks ask it of one matrix for
    every tuple of vectors."""
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
    if not _is_nilpotent(tuple(map(tuple, nilpotent))):
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
    for exps in compositions(i, count):
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
    return span_rank(polys)
