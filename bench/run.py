"""The diffhom benchmark.

    python3 bench/run.py --workload {kernel,census,check,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source tree (the directory holding ``src/diffhom``).
Builds the workload's query list from the seed, then runs timed passes over
it, each in a fresh interpreter, for ``--seconds`` seconds (at least one
pass).  Every query result is checked against its expected exact value.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with ``trace.overhead_ratio``.  A result file with provenance is
written to ``.bench_out/``; the last line of standard output is the result
as one JSON object.  See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
BASELINE = BENCH / "baseline.json"

# Set-up is short and noisy, so each run takes at least this many samples;
# processes that only set up make up the difference.
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Starts one worker process per pass and collects what it reports."""

    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join([str(root / "src"), str(BENCH)]),
                        PYTHONHASHSEED="0")

    def run(self, queries: list, trace: bool = False, spans_out: Path | None = None) -> dict:
        job = json.dumps({"queries": queries, "trace": trace,
                          "spans_out": str(spans_out) if spans_out else None}).encode()
        spawned = _monotonic()
        proc = subprocess.run([sys.executable, str(WORKER)], input=job, capture_output=True,
                              cwd=self.root, env=self.env, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace")[-2000:]
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
        report = json.loads(proc.stdout.decode().splitlines()[-1])
        report["setup_s"] = report["first_query_at"] - spawned
        return report


def _failures(oracle, reports: list[dict]) -> list[dict]:
    failed = []
    for n, report in enumerate(reports):
        for i, (result, error) in enumerate(zip(report["results"], report["errors"])):
            if error is not None or not oracle.accepts(i, result):
                failed.append({"pass": n, "query": i, "error": error,
                               "result": result, "expected": oracle.expected(i)})
    return failed


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "diffhom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.decode().strip() or None


def _another_fits(start: float, seconds: float, rounds: list[float]) -> bool:
    """Whether one more round, as long as the median one so far, ends within
    ``seconds`` of ``start``.  The first round always runs."""
    return not rounds or _monotonic() - start + statistics.median(rounds) <= seconds


def query_cost_ref(reports: list[dict]) -> list[float]:
    """Each query's cost in reference units, the median over the passes.

    A query's cost in one pass is its wall time over the mean of the
    reference times taken during that pass (``reference.py``).  The host's
    speed drifts by up to half over seconds to minutes; the reference, timed
    in the same process during the pass, drifts with it.
    """
    costs = [[t / statistics.fmean(r["reference_s"]) for t in r["query_s"]] for r in reports]
    return [statistics.median(c) for c in zip(*costs)]


def measure(runner: Runner, queries: list, seconds: float) -> tuple[dict, list[dict], dict]:
    """Untraced passes for ``seconds``; returns metrics, reports, sample counts."""
    reports, setups, rounds = [], [], []
    start = _monotonic()
    while _another_fits(start, seconds, rounds):
        began = _monotonic()
        reports.append(runner.run(queries))
        # A process that only sets up, after each pass, spreads the set-up
        # samples over the run instead of taking them in one stretch.
        setups += [reports[-1]["setup_s"], runner.run([])["setup_s"]]
        rounds.append(_monotonic() - began)
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.run([])["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_ref": sum(query_cost_ref(reports)),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in reports),
    }
    # Wall times go to the result file only: across runs they did not repeat
    # within the bounds (see NOTES.md).
    query_ms = [t * 1000 for r in reports for t in r["query_s"]]
    samples = {"passes": len(reports), "setup_samples": len(setups),
               "pass_s": statistics.median(r["pass_s"] for r in reports),
               "reference_ms": statistics.median(t * 1000 for r in reports
                                                 for t in r["reference_s"]),
               "query_samples": len(query_ms),
               "query_ms": {"p50": statistics.median(query_ms),
                            "p90": statistics.quantiles(query_ms, n=10)[-1]}}
    return metrics, reports, samples


def measure_traced(runner: Runner, queries: list, seconds: float,
                   spans_out: Path) -> tuple[dict, list[dict], list[dict], dict]:
    """Alternating untraced and traced passes; per-layer metrics are medians
    over the traced passes."""
    plain, traced, rounds = [], [], []
    start = _monotonic()
    while _another_fits(start, seconds, rounds):
        began = _monotonic()
        plain.append(runner.run(queries))
        traced.append(runner.run(queries, trace=True, spans_out=spans_out))
        rounds.append(_monotonic() - began)
    names = traced[0]["layers"]
    metrics = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    metrics["trace.overhead_ratio"] = (sum(query_cost_ref(traced))
                                       / sum(query_cost_ref(plain)))
    samples = {"passes": len(plain), "traced_passes": len(traced)}
    return metrics, plain, traced, samples


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("pivot_yield", "overhead_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diffhom" / "__init__.py").is_file():
        print(f"error: no src/diffhom under {root}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import diffhom  # noqa: F401  (compiles the bytecode the workers load, untimed)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    # Inputs are generated here, untimed; the workers receive only the queries.
    queries, constructed = workloads.make_queries(args.workload, args.seed)
    oracle = workloads.Oracle(queries, constructed)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    runner = Runner(root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        metrics, plain, traced, samples = measure_traced(
            runner, queries, args.seconds, out_dir / f"spans-{tag}.jsonl")
        reports = plain + traced
        mismatched = [n for n, r in enumerate(traced) if r["results"] != plain[0]["results"]]
        correct_extra = not mismatched
    else:
        metrics, reports, samples = measure(runner, queries, args.seconds)
        mismatched, correct_extra = [], True

    failures = _failures(oracle, reports)
    attempted = len(queries) * len(reports)
    if not args.trace:
        metrics["ok_ratio"] = (attempted - len(failures)) / attempted

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "queries_per_pass": len(queries),
        **samples,
        "pass_s_each": [r["pass_s"] for r in reports],
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "traced_passes_differing_from_untraced": mismatched,
        "steadiness": (json.loads(BASELINE.read_text()).get("steadiness")
                       if BASELINE.is_file() else None),
    }
    result = {
        "correct": not failures and correct_extra,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }
    (out_dir / f"result-{tag}.json").write_text(
        json.dumps({"provenance": provenance, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
