"""The benchmark's traced mode still binds every name it wraps.

``bench/layertrace.py`` finds the functions it traces by name; a rename in
``diffhom`` would silently drop a per-layer metric.  Each pass runs in a
fresh interpreter, as the benchmark does, so the ``lru_cache``s start cold.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

QUERIES = """
import json, sys
if TRACE:
    from layertrace import Tracer
    tracer = Tracer()
    tracer.install()
from fractions import Fraction
from diffhom import dpoly, exact, hwv, jets, pde, verify
from diffhom.tableaux import Partition
report = verify.run_suite("rsk", max_d=3)
# the basis suite ranks the Wronskian family, one build_wronskian per element
basis_report = verify.run_suite("basis", max_d=2)
results = [
    hwv.kernel_dim_full(3, 2),
    [hwv.kernel_dim_isotypic(lam, 2) for lam in (Partition.of(3), Partition.of(2, 1))],
    # the kernel dimensions build no kernel basis, so reach nullspace_basis directly
    len(hwv.full_kernel_vectors(3, 2)),
    # kernel_dim_isotypic applies no symmetrizer, so reach that layer directly
    sorted((list(i), str(c)) for i, c in
           hwv.symmetrizer_projection(hwv.MultiPoly(3, {(0, 1, 0): 1}), Partition.of(2, 1)).terms.items()),
    pde.solution_space_dim(3),
    # solution_space_dim counts on the J^(l) blocks, so reach the Newton layer directly
    [repr(pde.newton_operator(pde.vandermonde(3), ell)) for ell in (1, 2, 3)],
    repr(jets.census(1, 3, 1)),
    repr(hwv.column_det([0, 1], 1)),
    # column_det expands over packed codes, so reach the minor expansion directly
    str(exact.det_expansion([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]],
                            Fraction(0), Fraction(1))),
    # the GL check ranks its blocks and solves nothing, so reach solve_in_span directly
    [str(c) for c in dpoly.solve_in_span([dpoly.parse("x0*x1[1] - x1*x0[1]", 1)],
                                         [dpoly.parse("3*x1*x0[1] - 3*x0*x1[1]", 1)])[0]],
    [(r.check_id, r.expected, r.computed) for r in report.results + basis_report.results],
]
print(json.dumps({"results": results,
                  "layers": tracer.layer_metrics() if TRACE else {}}))
"""


def _pass(trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    out = subprocess.run([sys.executable, "-c", f"TRACE = {trace}\n" + QUERIES],
                         capture_output=True, text=True, env=env, cwd=ROOT, check=True)
    return json.loads(out.stdout)


def test_traced_pass_matches_and_reports_every_layer():
    plain, traced = _pass(False), _pass(True)
    assert traced["results"] == plain["results"]
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    declared.discard("trace.overhead_ratio")
    assert declared <= set(traced["layers"])
    # the layers these queries reach are seen, not only named
    for name in ("exact.echelon.calls", "exact.nullspace_basis.calls",
                 "exact.det_expansion.calls", "hwv.stacked_operator_rows.rows_out",
                 "hwv.j_ell.calls", "hwv.symmetrizer_projection.calls",
                 "pde.newton_operator.calls", "jets.census.calls",
                 "wronskian.build_wronskian.calls", "tableaux.young_symmetrizer.calls",
                 "dpoly.span_rank.calls", "dpoly.solve_in_span.calls"):
        assert traced["layers"][name] > 0, name
