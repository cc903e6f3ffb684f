"""The verification suite runner."""

import math
import os
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from diffhom import hwv, verify
from diffhom.dpoly import mono_multidegree, parse
from diffhom.tableaux import partitions_of
from diffhom.verify import (DEFAULT_SEED, SUITE_NAMES, _chevalley_pairs, _lie_block_ranks,
                            check_basis_gl_lie, check_kernel_full, over_cap, run_suite)
from diffhom.wronskian import enumerate_canonical_basis
import formal
from formal import formal_gl_lie_verdicts, formal_gl_stability

SRC = Path(__file__).resolve().parents[1] / "src"


def test_suite_names_cover_cli_choices():
    assert set(SUITE_NAMES) == {"all", "basis", "rsk", "kernel", "pde",
                                "appendixA", "hwv", "jets"}


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


@pytest.mark.parametrize("suite", ["basis", "rsk", "kernel", "pde", "appendixA", "jets"])
def test_small_suites_pass(suite):
    report = run_suite(suite, max_d=3, max_n=1)
    assert report.results, "suite produced no checks"
    bad = [r for r in report.results if not r.passed]
    assert not bad, bad[:3]


@pytest.mark.parametrize("caps", [{"max_d": 0}, {"max_d": -1}, {"max_n": -1},
                                  {"max_d": 0, "max_n": 2}, {"max_d": 9}, {"max_n": 21}])
def test_caps_out_of_range_rejected(caps):
    with pytest.raises(ValueError):
        run_suite("hwv", **caps)


def test_hwv_suite_passes():
    report = run_suite("hwv", max_d=3, max_n=2)
    assert report.passed


def test_parallel_matches_serial():
    serial = run_suite("pde", max_d=3)
    parallel = run_suite("pde", max_d=3, jobs=2)
    assert [ (r.check_id, r.expected, r.computed) for r in serial.results ] == \
           [ (r.check_id, r.expected, r.computed) for r in parallel.results ]


def test_kernel_suite_passes_at_d5():
    report = run_suite("kernel", max_d=5)
    assert len(report.results) == 33
    bad = [r for r in report.results if not r.passed]
    assert not bad, bad[:3]


@pytest.mark.parametrize("d", range(2, 7))
def test_kernel_full_check_solves_the_weights_read_by_duality(d, monkeypatch):
    # a reading without the conjugation keeps the sum d! (V_lam and V_lam'
    # have one dimension), and the check fails naming the first weight where
    # the reading differs from its solve
    assert check_kernel_full(d).passed
    monkeypatch.setattr(hwv, "_conjugates", lambda d: tuple(range(len(partitions_of(d)))))
    hwv.weight_multiplicities.cache_clear()
    try:
        assert hwv.kernel_dim_full(d, d - 1) == math.factorial(d)
        result = check_kernel_full(d)
        assert not result.passed
        assert result.computed.startswith("duality reading differs from the solve at weight ")
    finally:
        hwv.weight_multiplicities.cache_clear()


def test_kernel_full_check_solves_the_upper_weights_up_to_d_6(monkeypatch):
    # the weights 2w > d(d-1)/2 up to d(d-1)/2, solved at d <= 6 only
    solved = []

    def solve(d, k, w):
        solved.append(w)
        return verify.weight_multiplicities(d, k, w)

    monkeypatch.setattr(verify, "solve_multiplicities", solve)
    monkeypatch.setattr(verify, "kernel_dim_full", lambda d, k: math.factorial(d))
    assert check_kernel_full(6).passed and solved == list(range(8, 16))
    solved.clear()
    assert check_kernel_full(7).passed and not solved


def test_observation_entries_always_pass():
    report = run_suite("kernel", max_d=3)
    observed = [r for r in report.results if r.check_id.startswith("observe")]
    assert observed and all(r.passed for r in observed)


def test_jobs_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures
    import diffhom.verify as verify

    def no_pool(*args, **kwargs):
        raise AssertionError("a single CPU must not start a process pool")

    monkeypatch.setattr(verify.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert run_suite("rsk", max_d=3, jobs=2).passed


@pytest.mark.parametrize("module", ["diffhom", "diffhom.verify", "diffhom.cli"])
def test_import_loads_no_module_it_does_not_run(module):
    # every command starts a fresh interpreter: a serial run must not pay for
    # the process pool, nor any import for dataclasses (with inspect),
    # typing or pathlib.  -S, so that no site hook loads one of them first.
    unused = ("dataclasses", "inspect", "typing", "pathlib",
              "concurrent.futures.process", "multiprocessing")
    code = f"import sys, {module}; print(sorted(m for m in {unused!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True).stdout
    assert out.strip() == "[]"


def test_check_results_and_reports_are_read_only_records():
    result = verify._result("x", {"d": 1}, 2, "2")
    assert repr(result) == ("CheckResult(check_id='x', params={'d': 1}, expected='2', "
                            "computed='2', seconds=0.0)")
    assert result.passed and not verify._observe("y", {}, 1)._replace(computed="2").passed
    timed = verify._run_task(partial(verify._result, "x", {"d": 1}, 2, "2"))
    assert timed.seconds > 0 and timed._replace(seconds=0.0) == result
    with pytest.raises(AttributeError):
        result.seconds = 1.0
    report = verify.VerificationReport("pde", 1, [result, timed], 0.5)
    assert report.passed
    assert not report._replace(results=[result._replace(computed="3")]).passed


def test_kernel_suite_builds_each_block_once(monkeypatch):
    # the full, isotypic and low-order kernel checks and the pde dimension
    # check share one D_T system per key (lam, min(k, e), weight) of the
    # nullity cache, e the largest entry a tableau of that shape and weight
    # holds, at the weights 2w <= dk, and at k = d-1 only up to
    # 2w <= d(d-1)/2; check_kernel_full solves the weights above that, up
    # to d(d-1)/2, to compare them with their reading by duality, so the
    # kernel suite still builds each key of 2w <= dk once, and no shape
    # without D_T.  The pde system-equivalence check (d <= 3) eliminates
    # every weight of the J^(l) stack at k = d-1 through
    # full_kernel_vectors, once each.  The stability check ranks its two
    # degrees above d(d-1)/2 through verify's own binding, not counted here
    systems = Counter()
    stacks = Counter()
    build_system, build_stack = hwv.functional_system, hwv.stacked_operator_rows

    def counted_system(*args):
        systems[hwv._nullity_key(*args)] += 1
        return build_system(*args)

    def counted_stack(*args):
        stacks[args] += 1
        return build_stack(*args)

    monkeypatch.setattr(hwv, "functional_system", counted_system)
    monkeypatch.setattr(hwv, "stacked_operator_rows", counted_stack)
    formal.clear_solver_caches()
    hwv.full_kernel_vectors.cache_clear()
    for suite in ("kernel", "pde"):
        assert all(r.passed for r in run_suite(suite).results)
    solved = {hwv._nullity_key(lam, k, w) for d in range(1, 5) for lam in partitions_of(d)
              for k in range(d) for w in range(d * k // 2 + 1)}
    assert set(systems) == solved - {None}
    assert set(stacks) == {(d, d - 1, w) for d in range(1, 4) for w in range(d * (d - 1) + 1)}
    assert max(systems.values()) == max(stacks.values()) == 1


def _perturbed_family(family):
    """(N, d, members) of a family that is not GL-stable: {x0^2}, or the
    (1, 3) basis with one element swapped for a monomial that is not
    differentially homogeneous."""
    if family == "x0^2":
        return 1, 2, [parse("x0^2", 1)]
    polys = [p for _, p in enumerate_canonical_basis(1, 3)]
    polys[len(polys) // 2] = parse("x0^2*x0[1]", 1)
    return 1, 3, polys


def _inject(monkeypatch, polys):
    import diffhom.verify as verify

    monkeypatch.setattr(verify, "enumerate_canonical_basis",
                        lambda *_: [(None, p) for p in polys])


@pytest.mark.parametrize("family", ["x0^2", "basis with x0^2*x0[1]"])
def test_gl_stability_check_fails_on_a_non_stable_family(monkeypatch, family):
    # the Lie check names a block whose span grew, and the random-trial
    # oracle sees the span grow under the seeded matrices
    n, d, polys = _perturbed_family(family)
    _inject(monkeypatch, polys)
    result = check_basis_gl_lie(n, d)
    assert not result.passed
    assert "span grew" in result.computed
    assert result.computed.startswith("multidegree (")
    assert "span grew" in formal_gl_stability(n, d, DEFAULT_SEED, polys)
    assert not all(formal_gl_lie_verdicts(polys, n).values())


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_gl_stability_check_matches_the_solving_oracle(seed):
    # every (N, d) of the default basis grid: the Lie check and the random
    # trials (formal_matrix_action images, span_rank and solve_in_span) both
    # find the span stable
    for n in range(1, 3):
        for d in range(1, 5):
            basis = [p for _, p in enumerate_canonical_basis(n, d)]
            result = check_basis_gl_lie(n, d)
            assert result.computed == formal_gl_stability(n, d, seed, basis) == "stable", (n, d)


def _chevalley_verdicts(polys, n):
    blocks = {}
    for p in polys:
        (mu,) = {tuple(mono_multidegree(m, n)) for m in p.terms}
        blocks.setdefault(mu, []).append(p)
    ranks = _lie_block_ranks(blocks, _chevalley_pairs(n))
    return {nu: r == joint for nu, (r, joint) in ranks.items()}


def test_gl_lie_generators_give_the_verdicts_of_every_e_pq():
    # the 2N Chevalley generators against all N(N+1) derivations E_pq: the
    # same verdict on each block the generators reach, and every block that
    # only the other E_pq reach is stable too
    for n in range(1, 4):
        for d in range(1, 5):
            basis = [p for _, p in enumerate_canonical_basis(n, d)]
            verdicts = _chevalley_verdicts(basis, n)
            every = formal_gl_lie_verdicts(basis, n)
            assert verdicts and set(verdicts) <= set(every), (n, d)
            assert verdicts == {nu: every[nu] for nu in verdicts}, (n, d)
            assert all(every.values()), (n, d)
    for family in ("x0^2", "basis with x0^2*x0[1]"):
        n, _, polys = _perturbed_family(family)
        assert _chevalley_verdicts(polys, n) == formal_gl_lie_verdicts(polys, n)


def test_gl_lie_check_fails_on_an_element_mixing_two_multidegrees(monkeypatch):
    # element 1 of the (1, 2) basis plus another element of a different
    # multidegree: the span is unchanged, so the random trials find it
    # stable, but the torus half of the certificate needs every element
    # multihomogeneous, and the check names the one that is not
    polys = [p for _, p in enumerate_canonical_basis(1, 2)]
    degree = {j: {tuple(mono_multidegree(m, 1)) for m in p.terms} for j, p in enumerate(polys)}
    other = next(j for j in range(len(polys)) if degree[j] != degree[1])
    polys[1] = polys[1] + polys[other]
    _inject(monkeypatch, polys)
    result = check_basis_gl_lie(1, 2)
    assert not result.passed
    assert result.computed == "element 1 is not multihomogeneous"
    assert formal_gl_stability(1, 2, DEFAULT_SEED, polys) == "stable"


def test_basis_suite_cap_is_6():
    assert over_cap("basis", 6, 3) is None
    assert over_cap("basis", 7, 3) == "--max-d 7 exceeds the cap of 6 for the basis suite"


def test_hwv_suite_cap_is_8():
    assert over_cap("hwv", 8, 20) is None
    assert over_cap("hwv", 9, 20) == "--max-d 9 exceeds the cap of 8 for the hwv suite"
    assert over_cap("hwv", 8, 21) == "--max-n 21 exceeds the cap of 20 for the hwv suite"


def test_pde_suite_cap_is_6():
    assert over_cap("pde", 6, None) is None
    assert over_cap("pde", 7, None) == "--max-d 7 exceeds the cap of 6 for the pde suite"


def test_triangular_reduction_builds_each_wronskian_once(monkeypatch):
    # one column step per prefix of the lexicographic walk, so each of the
    # 4^4 Wronskians is expanded once; every code dict the walk yields is
    # tracked, and at most the 4! triangular ones outlive the comparison
    # (besides the one being compared and the one that replaces it)
    import weakref
    from diffhom import wronskian

    class Codes(dict):  # a dict that a weak reference can follow
        pass

    steps = Counter()
    step = wronskian._expand_step

    def counted(partial, column):
        steps["calls"] += 1
        return step(partial, column)

    walk = wronskian.formal_codes
    seen = Counter()
    live = Counter()

    def tracked(d):
        for alpha, codes in walk(d):
            seen[alpha] += 1
            codes = Codes(codes)
            live["now"] += 1
            weakref.finalize(codes, live.subtract, ["now"])
            live["most"] = max(live["most"], live["now"])
            yield alpha, codes

    monkeypatch.setattr(wronskian, "_expand_step", counted)
    monkeypatch.setattr(wronskian, "formal_codes", tracked)
    assert verify.check_triangular_reduction(4).passed
    assert sum(seen.values()) == len(seen) == 4 ** 4
    assert steps["calls"] == 4 + 4 ** 2 + 4 ** 3 + 4 ** 4
    assert math.factorial(4) < live["most"] <= math.factorial(4) + 2


def test_triangular_reduction_reports_a_perturbed_rewriting(monkeypatch):
    import diffhom.verify as verify

    rewrite = verify.reduce_to_triangular

    def perturbed(alpha):
        comb = rewrite(alpha)
        if tuple(alpha) == (3, 1, 2, 0):
            (c, idx), *rest = comb
            comb = [(c + 1, idx), *rest]
        return comb

    monkeypatch.setattr(verify, "reduce_to_triangular", perturbed)
    result = verify.check_triangular_reduction(4)
    assert result.computed == "1 failures, first (3, 1, 2, 0)"


def test_wedge_random_reports_the_same_params_when_it_fails(monkeypatch):
    passed = verify.check_wedge_random(3, 2, seed=1)
    monkeypatch.setattr(verify, "verify_wedge_identity", lambda nil, vectors, i: False)
    failed = verify.check_wedge_random(3, 2, seed=1)
    assert passed.passed and not failed.passed
    assert failed.computed == "failure at trial 0"
    assert failed.params == passed.params == {"d": 3, "i": 2, "seed": 1, "count": 20}


def test_theorem2_names_an_ordering_whose_profile_differs(monkeypatch):
    passed = verify.check_theorem2(2, 3)
    profile = verify.multidegree_profile

    def perturbed(parts):
        out = profile(parts)
        if parts == (1, 2):
            out = {**out, 99: (1, (0,))}
        return out

    monkeypatch.setattr(verify, "multidegree_profile", perturbed)
    failed = verify.check_theorem2(2, 3)
    assert passed.passed and not failed.passed
    assert failed.computed == passed.computed + "; orbit:(1, 2) differs from (2, 1)"
    assert failed.params == passed.params == {"N": 2, "d": 3}
