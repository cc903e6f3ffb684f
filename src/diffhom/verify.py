"""Verification suites: every structural identity the library is built on,
re-checked by exact computation at configurable size caps.

Each check is a pure top-level function returning a :class:`CheckResult`, so
suites can run in a process pool.  A check passes iff its expected and
computed strings agree; observation-only entries (values recorded without a
reference) use the computed value on both sides.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from collections import Counter, namedtuple
from functools import partial

from .exact import add_terms, operator_rows, pivot_columns, rank
from .dpoly import (DiffPoly, derive, gl_elementary, is_diff_homogeneous, mono_multidegree,
                    span_rank)
from .tableaux import (Partition, canonical_tableau, compositions, count_semistandard,
                       count_standard, group_algebra_mul, kostka, partition_parts,
                       partitions_of, young_symmetrizer)
from .wronskian import (enumerate_canonical_basis, first_wedge_failure,
                        reduce_to_triangular, rewriting_mismatches, standard_nilpotent,
                        verify_wedge_identity)
from .hwv import (MultiPoly, _e_iso_family, full_kernel_vectors, hwv_basis, j_ell,
                  kernel_dim_full, kernel_dim_isotypic, solve_multiplicities,
                  solved_weights, stacked_operator_rows, symmetrizer_projection,
                  tableau_projection, weight_multiplicities)
from .pde import newton_operator, solution_space_dim, vandermonde, vandermonde_staircase
from .jets import census, classify_basis, multidegree_profile, verify_theorem2

DEFAULT_SEED = 20240817
WEDGE_RANDOM_TRIALS = 20  # random tuples per (d, i) in wedge_random


class CheckResult(namedtuple("CheckResult", "check_id params expected computed seconds",
                             defaults=(0.0,))):
    """One check's expected and computed strings; ``seconds`` is set by the runner."""
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


class VerificationReport(namedtuple("VerificationReport", "suite seed results wall_time")):
    """The CheckResults of a suite run, in order, and its wall time."""
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)


def _result(check_id: str, params: dict, expected, computed) -> CheckResult:
    return CheckResult(check_id, params, str(expected), str(computed))


def _observe(check_id: str, params: dict, computed) -> CheckResult:
    return CheckResult(check_id, params, str(computed), str(computed))


# ---------------------------------------------------------------------------
# basis suite

def check_basis_rank(n: int, d: int) -> CheckResult:
    basis = enumerate_canonical_basis(n, d)
    r = span_rank([p for _, p in basis])
    return _result("basis_rank", {"N": n, "d": d},
                   (n + 1) ** d, r if len(basis) == (n + 1) ** d else f"{r} of {len(basis)}")


def check_basis_diffhom(n: int, d: int) -> CheckResult:
    bad = []
    for datum, poly in enumerate_canonical_basis(n, d):
        verdict = is_diff_homogeneous(poly)
        if verdict != (True, d):
            bad.append(datum)
    return _result("basis_diffhom", {"N": n, "d": d}, "all degree d",
                   "all degree d" if not bad else f"{len(bad)} failures, first {bad[0]}")


def _chevalley_pairs(n: int) -> list[tuple[int, int]]:
    """The (p, q) of the Chevalley generators E_{i,i+1} and E_{i+1,i} of
    sl_{N+1}, with E_pq = sum_k x_p[k] d/dx_q[k] (``dpoly.gl_elementary``)."""
    return [(i, i + 1) for i in range(n)] + [(i + 1, i) for i in range(n)]


def _lie_block_ranks(blocks: dict[tuple[int, ...], list[DiffPoly]],
                     pairs: list[tuple[int, int]]) -> dict[tuple[int, ...], tuple[int, int]]:
    """For each multidegree nu that an image E_pq f reaches, f in the block of
    its multidegree mu (so nu = mu + e_p - e_q), (rank of the block nu, rank
    of that block with those images).  One forward elimination per target
    block, with the block's members as its first columns: the pivots among
    them give its rank, and a pivot in an image column is an image outside
    its span."""
    images: dict[tuple[int, ...], list[DiffPoly]] = {}
    for mu, block in blocks.items():
        for p, q in pairs:
            if not mu[q]:
                continue
            nu = list(mu)
            nu[p] += 1
            nu[q] -= 1
            found = [g for f in block if (g := derive(f, gl_elementary(p, q)))]
            if found:
                images.setdefault(tuple(nu), []).extend(found)
    out = {}
    for nu, found in sorted(images.items()):
        block = blocks.get(nu, [])
        family = [*block, *found]
        pivots = pivot_columns(operator_rows(family, lambda f: f.terms.items()), len(family))
        out[nu] = (sum(j < len(block) for j in pivots), len(pivots))
    return out


def _gl_lie_note(polys: list[DiffPoly], n: int) -> str:
    """The computed string of :func:`check_basis_gl_lie` on a family.  Each
    member joins its block as an integer multiple (scaling keeps the spans),
    so that the derivations run in int arithmetic."""
    blocks: dict[tuple[int, ...], list[DiffPoly]] = {}
    for j, p in enumerate(polys):
        degrees = {tuple(mono_multidegree(m, n)) for m in p.terms}
        if len(degrees) > 1:
            return f"element {j} is not multihomogeneous"
        if degrees:
            den = math.lcm(*(c.denominator for c in p.terms.values()))
            blocks.setdefault(degrees.pop(), []).append(
                p.with_terms({m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}))
    for nu, (r, joint) in _lie_block_ranks(blocks, _chevalley_pairs(n)).items():
        if joint != r:
            return f"multidegree {nu}: span grew from {r} to {joint}"
    return "stable"


def check_basis_gl_lie(n: int, d: int) -> CheckResult:
    """The span of the basis is GL_{N+1}(Q)-stable, certified by the Lie
    algebra: every element is multihomogeneous, and each image of a
    Chevalley generator E_{i,i+1}, E_{i+1,i} lies in the span of the basis
    elements of its multidegree.

    Why that is every matrix.  GL_{N+1}(Q) is generated by the diagonal
    matrices and the transvections x_q -> x_q + t x_p (elementary row
    operations).  A diagonal matrix acts on a multihomogeneous element of
    multidegree mu by the scalar prod a_i^mu_i, so a span of such elements is
    stable under the torus; that is why each element is tested, not assumed,
    to be multihomogeneous.  A transvection acts as exp(t E_pq), a finite sum
    on polynomials, since E_pq lowers the degree in x_q; so a span stable
    under E_pq is stable under it.  The E_{i,i+1} and E_{i+1,i} generate
    every E_pq, p != q, by brackets (E_pr = [E_pq, E_qr] for distinct p, q,
    r, so E_{i,j} is an iterated bracket of E_{i,i+1}, ..., E_{j-1,j}), and a
    span stable under two derivations is stable under their bracket.  E_pq
    maps multidegree mu to mu + e_p - e_q, so the test runs per target
    block: rank(block with images) = rank(block) (``_lie_block_ranks``)."""
    note = _gl_lie_note([p for _, p in enumerate_canonical_basis(n, d)], n)
    return _result("basis_gl_lie", {"N": n, "d": d}, "stable", note)


def suite_basis(max_d: int, max_n: int, seed: int) -> list[partial]:
    tasks = []
    for n in range(0, max_n + 1):
        for d in range(1, max_d + 1):
            tasks.append(partial(check_basis_rank, n=n, d=d))
            tasks.append(partial(check_basis_diffhom, n=n, d=d))
            if n >= 1:
                tasks.append(partial(check_basis_gl_lie, n=n, d=d))
    return tasks


# ---------------------------------------------------------------------------
# rsk suite

def check_rsk_squares(d: int) -> CheckResult:
    total = sum(count_standard(lam) ** 2 for lam in partitions_of(d))
    return _result("rsk_squares", {"d": d}, math.factorial(d), total)


def check_rsk_mixed(d: int, n: int) -> CheckResult:
    total = sum(count_standard(lam) * count_semistandard(lam, n) for lam in partitions_of(d))
    return _result("rsk_mixed", {"d": d, "n": n}, n ** d, total)


def check_kostka_sum(parts: tuple, n: int) -> CheckResult:
    lam = Partition(parts)
    total = sum(kostka(lam, a) for a in compositions(lam.size, n))
    return _result("kostka_sum", {"lam": parts, "n": n}, count_semistandard(lam, n), total)


def check_standard_is_kostka(parts: tuple) -> CheckResult:
    lam = Partition(parts)
    return _result("standard_is_kostka", {"lam": parts},
                   count_standard(lam), kostka(lam, (1,) * lam.size))


def suite_rsk(max_d: int, max_n: int, seed: int) -> list[partial]:
    tasks = []
    for d in range(1, max_d + 1):
        tasks.append(partial(check_rsk_squares, d=d))
    for d in range(1, min(max_d, 6) + 1):
        for n in range(1, 5):
            tasks.append(partial(check_rsk_mixed, d=d, n=n))
    for d in range(1, min(max_d, 5) + 1):
        for lam in partitions_of(d):
            for n in range(1, 5):
                tasks.append(partial(check_kostka_sum, parts=lam.parts, n=n))
            tasks.append(partial(check_standard_is_kostka, parts=lam.parts))
    return tasks


# ---------------------------------------------------------------------------
# kernel suite

def check_kernel_full(d: int) -> CheckResult:
    """The kernel at k = d-1 has dimension d!.  For d <= 6 the multiplicities
    that ``weight_multiplicities`` reads by Poincaré duality, at the weights
    2w > d(d-1)/2, are also solved directly (``solve_multiplicities``), and
    a reading that differs from its solve replaces the dimension with a note
    naming the weight: a wrong reading can keep the sum d! (V_lam and V_lam'
    have one dimension), and it shows here, not only in tests.  From d = 7
    on those solves would cost most of what duality saves."""
    k = d - 1
    computed = kernel_dim_full(d, k)
    top = d * k // 2
    upper = range(solved_weights(d, k).stop, top + 1) if d <= 6 else ()
    wrong = next((w for w in upper
                  if solve_multiplicities(d, k, w) != weight_multiplicities(d, k, w)), None)
    if wrong is not None:
        computed = f"duality reading differs from the solve at weight {wrong}"
    return _result("kernel_full", {"d": d, "k": k}, math.factorial(d), computed)


def check_kernel_isotypic(parts: tuple) -> CheckResult:
    lam = Partition(parts)
    return _result("kernel_isotypic", {"lam": parts, "k": lam.size - 1},
                   count_standard(lam), kernel_dim_isotypic(lam, lam.size - 1))


def observe_kernel_low(d: int, k: int) -> CheckResult:
    return _observe("observe_kernel_full", {"d": d, "k": k}, kernel_dim_full(d, k))


def suite_kernel(max_d: int, max_n: int, seed: int) -> list[partial]:
    tasks = []
    for d in range(1, max_d + 1):
        tasks.append(partial(check_kernel_full, d=d))
        for lam in partitions_of(d):
            tasks.append(partial(check_kernel_isotypic, parts=lam.parts))
        for k in range(0, d - 1):
            tasks.append(partial(observe_kernel_low, d=d, k=k))
    return tasks


# ---------------------------------------------------------------------------
# pde suite

def check_pde_dimension(d: int) -> CheckResult:
    return _result("pde_dimension", {"d": d}, math.factorial(d), solution_space_dim(d))


def check_pde_oracle(d: int) -> CheckResult:
    """The d! staircase derivatives of the Vandermonde Delta have rank d!,
    ranked one order at a time (the orders are homogeneous of different
    degrees, so their spans are independent), and every p_l(d) kills Delta,
    hence each of its derivatives."""
    r = sum(span_rank(block) for block in vandermonde_staircase(d))
    delta = vandermonde(d)
    annihilated = all(not newton_operator(delta, ell) for ell in range(1, d + 1))
    computed = f"rank={r}, annihilated={annihilated}"
    return _result("pde_oracle", {"d": d}, f"rank={math.factorial(d)}, annihilated=True", computed)


def check_pde_stability(d: int) -> CheckResult:
    """No solutions in the two degrees above the Vandermonde degree.  Those
    blocks are ranked in full here: ``weight_multiplicities`` reads zeros
    above the middle weight by the sl2 argument this check tests."""
    base = solution_space_dim(d)
    top = d * (d - 1) // 2
    wider = base
    for w in (top + 1, top + 2):
        rows, ncols = stacked_operator_rows(d, d - 1, w)
        wider += ncols - rank(rows, ncols)
    return _result("pde_degree_stability", {"d": d}, base, wider)


def check_pde_system_equivalence(d: int) -> CheckResult:
    """The capped J^(l) kernel that solution_space_dim counts against the
    uncapped Newton system.  Each kernel vector, read as a polynomial over the
    exponent vectors {0..d-1}^d, is killed by every power-sum operator, and
    the Newton system on all monomials of each degree up to d(d-1)/2 has as
    many solutions as the kernel has vectors of that weight."""
    vectors = full_kernel_vectors(d, d - 1)
    killed = all(not newton_operator(vec, ell) for vec in vectors for ell in range(1, d + 1))
    capped = Counter(sum(min(vec.terms)) for vec in vectors)

    def apply(e):
        p = MultiPoly(d, {e: 1})
        for ell in range(1, d + 1):
            for out, c in newton_operator(p, ell).terms.items():
                yield (ell, out), c

    uncapped = Counter()
    for deg in range(d * (d - 1) // 2 + 1):
        keys = compositions(deg, d)
        uncapped[deg] = len(keys) - rank(operator_rows(keys, apply), len(keys))
    return _result("pde_system_equivalence", {"d": d}, True, killed and capped == uncapped)


def suite_pde(max_d: int, max_n: int, seed: int) -> list[partial]:
    tasks = []
    for d in range(1, max_d + 1):
        tasks.append(partial(check_pde_dimension, d=d))
        tasks.append(partial(check_pde_oracle, d=d))
        tasks.append(partial(check_pde_stability, d=d))
        if d <= 3:
            tasks.append(partial(check_pde_system_equivalence, d=d))
    return tasks


# ---------------------------------------------------------------------------
# appendixA suite: triangular rewriting and wedge identities

def check_triangular_reduction(d: int) -> CheckResult:
    """Each formal Wronskian of {0..d-1}^d equals the combination of
    triangular ones that ``reduce_to_triangular`` gives.  The Wronskians are
    expanded as packed codes, once each, in one lexicographic walk that
    holds only the d! triangular ones (``wronskian.rewriting_mismatches``)."""
    bad = list(rewriting_mismatches(d, reduce_to_triangular))
    return _result("triangular_reduction", {"d": d, "cases": d ** d},
                   "all identities hold", "all identities hold" if not bad
                   else f"{len(bad)} failures, first {bad[0]}")


def check_wedge_basis_tuples(d: int, i: int) -> CheckResult:
    """The wedge identity on every tuple of d - i + 1 standard basis
    vectors, walked as a prefix tree (``wronskian.first_wedge_failure``)."""
    basis = [tuple(int(r == j) for r in range(d)) for j in range(d)]
    tup = first_wedge_failure(standard_nilpotent(d), basis, i)
    return _result("wedge_basis_tuples", {"d": d, "i": i}, "all vanish",
                   "all vanish" if tup is None else f"failure at tuple {tup}")


def check_wedge_random(d: int, i: int, seed: int) -> CheckResult:
    rng = random.Random(seed * 1000003 + d * 1009 + i)
    nil = standard_nilpotent(d)
    nvec = d - i + 1
    params = {"d": d, "i": i, "seed": seed, "count": WEDGE_RANDOM_TRIALS}
    for trial in range(WEDGE_RANDOM_TRIALS):
        vectors = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(nvec)]
        if not verify_wedge_identity(nil, vectors, i):
            return _result("wedge_random", params, "all vanish", f"failure at trial {trial}")
    return _result("wedge_random", params, "all vanish", "all vanish")


def suite_appendixA(max_d: int, max_n: int, seed: int) -> list[partial]:
    tasks = []
    for d in range(1, max_d + 1):
        tasks.append(partial(check_triangular_reduction, d=d))
        for i in range(1, d + 1):
            tasks.append(partial(check_wedge_basis_tuples, d=d, i=i))
            tasks.append(partial(check_wedge_random, d=d, i=i, seed=seed))
    return tasks


# ---------------------------------------------------------------------------
# hwv suite

def check_hwv_counts(parts: tuple, k: int, n: int) -> CheckResult:
    lam = Partition(parts)
    basis = hwv_basis(lam, k, n)
    expected = count_semistandard(lam, k + 1) if lam.nparts <= n + 1 else 0
    r = span_rank([p for _, p in basis])
    return _result("hwv_counts", {"lam": parts, "k": k, "N": n},
                   f"count={expected}, rank={expected}", f"count={len(basis)}, rank={r}")


def check_hwv_weight(parts: tuple, k: int, n: int) -> CheckResult:
    """Each D_T has weight lam under the diagonal torus: every monomial has
    multidegree lam, padded with zeros (vacuous when lam has > N+1 parts)."""
    lam = Partition(parts)
    weight = list(lam.parts) + [0] * (n + 1 - lam.nparts)
    bad = next((t for t, p in hwv_basis(lam, k, n)
                if any(mono_multidegree(m, n) != weight for m in p.terms)), None)
    return _result("hwv_weight", {"lam": parts, "k": k, "N": n}, "weight vector",
                   "weight vector" if bad is None else f"failure at tableau {bad.filling}")


def check_hwv_unipotent(parts: tuple, k: int, n: int) -> CheckResult:
    """Each D_T is invariant under x_q -> x_q + t x_p for p < q, that is,
    killed by the derivation E_pq = sum_k x_p[k] d/dx_q[k]."""
    lam = Partition(parts)
    for t, p in hwv_basis(lam, k, n):
        for q in range(1, n + 1):
            for pp in range(q):
                if derive(p, gl_elementary(pp, q)):
                    return _result("hwv_unipotent", {"lam": parts, "k": k, "N": n},
                                   "invariant", f"failure at tableau {t.filling}, (q,p)=({q},{pp})")
    return _result("hwv_unipotent", {"lam": parts, "k": k, "N": n}, "invariant", "invariant")


def check_e_iso_injective(parts: tuple, k: int) -> CheckResult:
    lam = Partition(parts)
    n = lam.nparts - 1
    basis = hwv_basis(lam, k, n)
    expected = count_semistandard(lam, k + 1)
    r = span_rank(_e_iso_family([p for _, p in basis], lam, k, n))
    return _result("e_iso_injective", {"lam": parts, "k": k}, expected, r)


def check_commutative_diagram(parts: tuple, k: int) -> CheckResult:
    """e_iso after the tableau projection equals the symmetrizer projection
    on every basis tensor; the projections are expanded in one family."""
    lam = Partition(parts)
    d = lam.size
    n = lam.nparts - 1
    index = list(itertools.product(range(k + 1), repeat=d))
    lhs = _e_iso_family([tableau_projection(MultiPoly(d, {a: 1}), lam, n) for a in index],
                        lam, k, n)
    for a, left in zip(index, lhs):
        if left != symmetrizer_projection(MultiPoly(d, {a: 1}), lam):
            return _result("commutative_diagram", {"lam": parts, "k": k},
                           "commutes", f"failure at index {a}")
    return _result("commutative_diagram", {"lam": parts, "k": k}, "commutes", "commutes")


def check_symmetrizer_scalar(parts: tuple) -> CheckResult:
    lam = Partition(parts)
    c = young_symmetrizer(canonical_tableau(lam))
    square = group_algebra_mul(c, c)
    m = math.factorial(lam.size) // count_standard(lam)
    return _result("symmetrizer_scalar", {"lam": parts},
                   f"c^2 = ({m}) c", f"c^2 = ({m}) c" if square == c.scale(m)
                   else "square is not the expected multiple")


def check_leibniz_expansion(d: int, k: int) -> CheckResult:
    """(a Id + lowering)^(tensor d) v = sum_l a^(d-l)/l! J^(l) v + a^d v.

    The factorwise substitution x[i] -> a x[i] + i x[i-1] is expanded one
    power a^(d-l) at a time, as the sum over the sets of l lowered factors;
    l! times that sum is compared with J^(l) v, so no division enters."""
    for idx in itertools.product(range(k + 1), repeat=d):
        v = MultiPoly(d, {idx: 1})
        for ell in range(d + 1):
            fact = math.factorial(ell)
            group = add_terms({}, ((tuple(a - (i in low) for i, a in enumerate(idx)),
                                    fact * math.prod(idx[i] for i in low))
                                   for low in itertools.combinations(range(d), ell)))
            if group != (j_ell(v, ell) if ell else v).terms:
                return _result("leibniz_expansion", {"d": d, "k": k},
                               "identity holds", f"failure at {idx}")
    return _result("leibniz_expansion", {"d": d, "k": k}, "identity holds", "identity holds")


def check_functional_iso(parts: tuple, k: int) -> CheckResult:
    """The functional equation on the span of the D_T of shape lam
    (``kernel_dim_isotypic``) against the tensor side: the kernel K of the
    J^(l) is an S_d-module, so K.c_lam, the image of its reduced basis under
    the Young symmetrizer, has dimension m_lam."""
    lam = Partition(parts)
    image = [symmetrizer_projection(vec, lam) for vec in full_kernel_vectors(lam.size, k)]
    return _result("functional_iso", {"lam": parts, "k": k},
                   kernel_dim_isotypic(lam, k), span_rank(image))


def suite_hwv(max_d: int, max_n: int, seed: int) -> list[partial]:
    tasks = []
    max_k = 3
    for d in range(1, max_d + 1):
        for lam in partitions_of(d):
            for k in range(0, max_k + 1):
                tasks.append(partial(check_hwv_counts, parts=lam.parts, k=k, n=max_n))
            k = min(d - 1, max_k)
            tasks.append(partial(check_hwv_weight, parts=lam.parts, k=k, n=max_n))
            tasks.append(partial(check_hwv_unipotent, parts=lam.parts, k=k, n=max_n))
            tasks.append(partial(check_e_iso_injective, parts=lam.parts, k=k))
            if d <= 3:
                tasks.append(partial(check_commutative_diagram, parts=lam.parts, k=k))
                tasks.append(partial(check_functional_iso, parts=lam.parts, k=k))
    for d in range(1, min(max_d, 5) + 1):
        for lam in partitions_of(d):
            tasks.append(partial(check_symmetrizer_scalar, parts=lam.parts))
    for d in range(1, min(max_d, 3) + 1):
        tasks.append(partial(check_leibniz_expansion, d=d, k=min(d - 1, 2) if d > 1 else 1))
    return tasks


# ---------------------------------------------------------------------------
# jets suite

def check_theorem2(n: int, d: int) -> CheckResult:
    """The Theorem 2 report on the census, which eliminates one multidegree
    per partition of d and credits it to every rearrangement
    (``jets.pivot_profile``).  Every distinct ordering of each partition's
    parts is eliminated here too; one whose profile differs from its
    partition's is named in the computed value."""
    rep = verify_theorem2(n, d)
    detail = "; ".join(f"{item.name}:{'pass' if item.passed else item.witness}"
                       for item in rep.items)
    for parts in partition_parts(d, n + 1):
        for ordering in sorted(set(itertools.permutations(parts))):
            if multidegree_profile(ordering) != multidegree_profile(parts):
                detail += f"; orbit:{ordering} differs from {parts}"
    return _result("theorem2", {"N": n, "d": d},
                   "k_stability:pass; total_dimension:pass; weight_vanishing:pass", detail)


def check_census_order_zero(n: int, d: int) -> CheckResult:
    entries = census(n, d, 0)
    forms = math.comb(n + d, d)
    computed = {e.n: e.count for e in entries}
    return _result("census_order_zero", {"N": n, "d": d},
                   {0: forms}, computed)


def check_census_cotangent() -> CheckResult:
    entries = {e.n: e.count for e in census(1, 2, 1)}
    return _result("census_cotangent", {"N": 1, "d": 2, "k": 1}, 1, entries.get(1, 0))


def check_order_weight_audit(n: int, d: int) -> CheckResult:
    weight_bad = 0
    order_over = 0
    discrepancies = []
    for c in classify_basis(n, d):
        if c.weight != c.weight_formula:
            weight_bad += 1
        if c.order > c.order_bound:
            order_over += 1
        if c.order < c.order_bound:
            discrepancies.append((c.datum.m, c.datum.flat_alpha))
    computed = f"weight_mismatches={weight_bad}, order_over_bound={order_over}"
    return _result("order_weight_audit",
                   {"N": n, "d": d, "order_discrepancies": len(discrepancies)},
                   "weight_mismatches=0, order_over_bound=0", computed)


def suite_jets(max_d: int, max_n: int, seed: int) -> list[partial]:
    tasks = []
    grid = [(1, d) for d in range(1, min(max_d, 4) + 1)]
    if max_n >= 2:
        grid += [(2, d) for d in range(1, min(max_d, 3) + 1)]
    for n, d in grid:
        tasks.append(partial(check_theorem2, n=n, d=d))
        tasks.append(partial(check_census_order_zero, n=n, d=d))
        tasks.append(partial(check_order_weight_audit, n=n, d=d))
    tasks.append(partial(check_census_cotangent))
    return tasks


# ---------------------------------------------------------------------------
# runner

# suite: (builder, default caps, largest caps accepted).  The largest caps
# are the largest values of the flags a suite reads whose run, at the
# largest value of the other flag, took at most two minutes on a 2-CPU
# machine; the README lists the times.  A flag a suite does not read, or
# reads only up to a fixed value, has no cap.
_SUITES = {
    "basis": (suite_basis, {"max_d": 4, "max_n": 2}, {"max_d": 6, "max_n": 3}),
    "rsk": (suite_rsk, {"max_d": 8, "max_n": 4}, {"max_d": 50}),
    "kernel": (suite_kernel, {"max_d": 4, "max_n": 2}, {"max_d": 8}),
    "pde": (suite_pde, {"max_d": 4, "max_n": 2}, {"max_d": 6}),
    "appendixA": (suite_appendixA, {"max_d": 4, "max_n": 2}, {"max_d": 6}),
    "hwv": (suite_hwv, {"max_d": 4, "max_n": 3}, {"max_d": 8, "max_n": 20}),
    "jets": (suite_jets, {"max_d": 4, "max_n": 2}, {}),
}
SUITE_NAMES = ("all", *_SUITES)


def _suite_names(suite: str) -> list[str]:
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    return list(_SUITES) if suite == "all" else [suite]


def over_cap(suite: str, max_d: int | None, max_n: int | None) -> str | None:
    """Why ``max_d`` or ``max_n`` is refused: it exceeds the cap of a suite
    that ``suite`` runs (the first such, in suite order).  None when both are
    within every cap."""
    for name in _suite_names(suite):
        for flag, value in (("max_d", max_d), ("max_n", max_n)):
            cap = _SUITES[name][2].get(flag)
            if value is not None and cap is not None and value > cap:
                return (f"--{flag.replace('_', '-')} {value} exceeds the cap of {cap} "
                        f"for the {name} suite")
    return None


def _run_task(task: partial) -> CheckResult:
    start = time.perf_counter()
    result = task()
    return result._replace(seconds=time.perf_counter() - start)


def run_suite(suite: str, max_d: int | None = None, max_n: int | None = None,
              seed: int = DEFAULT_SEED, jobs: int = 1) -> VerificationReport:
    names = _suite_names(suite)
    if (max_d is not None and max_d < 1) or (max_n is not None and max_n < 0):
        raise ValueError("max_d must be >= 1 and max_n >= 0")
    if reason := over_cap(suite, max_d, max_n):
        raise ValueError(reason)
    tasks = []
    for name in names:
        builder, defaults, _ = _SUITES[name]
        tasks.extend(builder(max_d if max_d is not None else defaults["max_d"],
                             max_n if max_n is not None else defaults["max_n"],
                             seed))
    jobs = min(jobs, os.cpu_count() or 1)
    start = time.monotonic()
    if jobs > 1:
        # imported here: concurrent.futures.process and multiprocessing cost
        # about 25 ms, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_task, tasks))
    else:
        results = [_run_task(t) for t in tasks]
    return VerificationReport(suite=suite, seed=seed, results=results,
                              wall_time=time.monotonic() - start)
