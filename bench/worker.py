"""One timed pass over a query list, in a fresh interpreter.

Reads ``{"queries": [...], "trace": bool, "spans_out": path | null}`` as JSON
on standard input and prints one JSON object on standard output: the
CLOCK_MONOTONIC time at which set-up ended (the caller took its
own reading just before starting this process, so the difference is the
set-up time), per-query wall times, the reference times taken during the
pass, normalised results, peak resident memory, and, when traced, the
per-layer metrics.  With an empty query list the
process only sets up.
"""

import json
import resource
import sys
import time
import traceback

import diffhom  # noqa: F401  (set-up cost is part of what is measured)

from workloads import run_query

# The reference is timed before the first query, after the last one, and
# after any query that ends this long after the previous reference.
REFERENCE_EVERY_S = 0.25


def main() -> None:
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        query = tracer.wrap("bench.query", run_query)
    else:
        query = run_query
    results, errors, times = [], [], []
    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    from reference import reference_s  # after ``first``: not part of set-up
    reference = [reference_s()]
    last_reference = time.perf_counter()
    for q in job["queries"]:
        t0 = time.perf_counter()
        try:
            results.append(query(q["op"], q["args"]))
            errors.append(None)
        except Exception:
            results.append(None)
            errors.append(traceback.format_exc(limit=3))
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - last_reference >= REFERENCE_EVERY_S:
            reference.append(reference_s())
            last_reference = time.perf_counter()
    reference.append(reference_s())
    out = {
        "first_query_at": first,
        "pass_s": sum(times),
        "query_s": times,
        "reference_s": reference,
        "results": results,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
