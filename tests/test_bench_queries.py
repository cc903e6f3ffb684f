"""Every query of the benchmark's workloads runs and passes its oracle.

``bench/workloads.py`` calls ``diffhom`` functions by name
(``enumerate_canonical_basis``, ``kernel_dim_isotypic``,
``hook_length_count``, ...).  One pass of each workload runs here in a fresh
interpreter with ``src`` and ``bench`` on the path, as the benchmark runs it,
so a rename or a changed result fails a test instead of a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PASS = """
import json
from workloads import WORKLOADS, Oracle, make_queries, run_query
rejected = []
for workload in WORKLOADS:
    queries, constructed = make_queries(workload, 1)
    oracle = Oracle(queries, constructed)
    for i, q in enumerate(queries):
        # results reach the oracle through JSON, as from a benchmark worker
        result = json.loads(json.dumps(run_query(q["op"], q["args"])))
        if not oracle.accepts(i, result):
            rejected.append([workload, q, result])
print(json.dumps(rejected))
"""


def test_every_workload_query_is_accepted():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    out = subprocess.run([sys.executable, "-c", PASS],
                         capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    assert json.loads(out.stdout) == []
