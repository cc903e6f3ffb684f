"""The verification suite runner."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from diffhom import hwv
from diffhom.dpoly import parse
from diffhom.tableaux import partitions_of
from diffhom.verify import (DEFAULT_SEED, SUITE_NAMES, check_basis_gl_stability, over_cap,
                            run_suite)
from diffhom.wronskian import enumerate_canonical_basis
from formal import formal_gl_stability

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
                                  {"max_d": 0, "max_n": 2}, {"max_d": 8}, {"max_n": 21}])
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


def test_importing_verify_loads_no_process_pool():
    # a serial run must not pay for concurrent.futures.process and multiprocessing
    code = ("import sys, diffhom.verify; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)), check=True).stdout
    assert out.strip() == "[]"


def test_kernel_suite_builds_each_block_once(monkeypatch):
    # the full, isotypic and low-order kernel checks and the pde dimension
    # check share one D_T system per (lam, k, weight), cached with the
    # multiplicities, at the weights 2w <= dk.  The pde system-equivalence
    # check (d <= 3) eliminates every weight of the J^(l) stack at k = d-1
    # through full_kernel_vectors, once each.  The stability check ranks its
    # two degrees above d(d-1)/2 through verify's own binding, not counted here
    systems = Counter()
    stacks = Counter()
    build_system, build_stack = hwv.functional_system, hwv.stacked_operator_rows

    def counted_system(*args):
        systems[args] += 1
        return build_system(*args)

    def counted_stack(*args):
        stacks[args] += 1
        return build_stack(*args)

    monkeypatch.setattr(hwv, "functional_system", counted_system)
    monkeypatch.setattr(hwv, "stacked_operator_rows", counted_stack)
    hwv.weight_multiplicities.cache_clear()
    hwv.full_kernel_vectors.cache_clear()
    for suite in ("kernel", "pde"):
        assert all(r.passed for r in run_suite(suite).results)
    solved = {(lam, k, w) for d in range(1, 5) for lam in partitions_of(d)
              for k in range(d) for w in range(d * k // 2 + 1)}
    assert set(systems) == solved
    assert set(stacks) == {(d, d - 1, w) for d in range(1, 4) for w in range(d * (d - 1) + 1)}
    assert max(systems.values()) == max(stacks.values()) == 1


@pytest.mark.parametrize("family", ["x0^2", "basis with x0^2*x0[1]"])
def test_gl_stability_check_fails_on_a_non_stable_family(monkeypatch, family):
    # {x0^2} is not GL-stable, and neither is the (1, 3) basis with one
    # element swapped for a monomial that is not differentially homogeneous
    import diffhom.verify as verify

    if family == "x0^2":
        n, d, polys = 1, 2, [parse("x0^2", 1)]
    else:
        n, d = 1, 3
        polys = [p for _, p in enumerate_canonical_basis(n, d)]
        polys[len(polys) // 2] = parse("x0^2*x0[1]", 1)
    monkeypatch.setattr(verify, "enumerate_canonical_basis",
                        lambda *_: [(None, p) for p in polys])
    result = verify.check_basis_gl_stability(n, d, seed=verify.DEFAULT_SEED)
    assert not result.passed
    assert "span grew" in result.computed
    assert result.computed == formal_gl_stability(n, d, verify.DEFAULT_SEED, polys)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7])
def test_gl_stability_check_matches_the_solving_oracle(seed):
    # every (N, d) of the default basis grid, against span_rank and
    # solve_in_span on the matrix_action images of the same matrices
    for n in range(1, 3):
        for d in range(1, 5):
            basis = [p for _, p in enumerate_canonical_basis(n, d)]
            result = check_basis_gl_stability(n, d, seed=seed)
            assert result.computed == formal_gl_stability(n, d, seed, basis) == "stable", (n, d)


def test_pde_suite_cap_is_6():
    assert over_cap("pde", 6, None) is None
    assert over_cap("pde", 7, None) == "--max-d 7 exceeds the cap of 6 for the pde suite"


def test_triangular_reduction_builds_each_wronskian_once(monkeypatch):
    # the direct and the reduced side share the triangular Wronskians
    import diffhom.verify as verify

    calls = Counter()
    build = verify.build_formal_wronskian

    def counted(alpha):
        calls[tuple(alpha)] += 1
        return build(alpha)

    monkeypatch.setattr(verify, "build_formal_wronskian", counted)
    assert verify.check_triangular_reduction(4).passed
    assert sum(calls.values()) == len(calls) == 4 ** 4


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
