"""Spans and counters around the calls into each ``diffhom`` module.

The library is not edited.  ``Tracer.install`` replaces each traced public
function, in every module namespace that binds it (``from .exact import
echelon`` makes ``jets.echelon``, ``pde.echelon``, ... separate names for the
same object) and in every function default that holds it, by a wrapper that
records a span ``(name, start, end, parent)``.  Spans stay in memory and are
written out once, at the end of the pass.  Counts are taken from the
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

MODULES = ("exact", "dpoly", "tableaux", "wronskian", "hwv", "pde", "jets", "verify", "cli")

# (module, attribute, span name).  ``verify._run_task`` runs one check.
TARGETS = (
    ("exact", "echelon", "exact.echelon"),
    ("exact", "nullspace_basis", "exact.nullspace_basis"),
    ("exact", "intersection_dim", "exact.intersection_dim"),
    ("exact", "det_expansion", "exact.det_expansion"),
    ("wronskian", "build_wronskian", "wronskian.build_wronskian"),
    ("wronskian", "enumerate_canonical_basis", "wronskian.enumerate_canonical_basis"),
    ("dpoly", "substitute", "dpoly.substitute"),
    ("dpoly", "is_diff_homogeneous", "dpoly.is_diff_homogeneous"),
    ("dpoly", "parse", "dpoly.parse"),
    ("dpoly", "span_rank", "dpoly.span_rank"),
    ("dpoly", "solve_in_span", "dpoly.solve_in_span"),
    ("tableaux", "young_symmetrizer", "tableaux.young_symmetrizer"),
    ("tableaux", "group_algebra_mul", "tableaux.group_algebra_mul"),
    ("hwv", "symmetrizer_projection", "hwv.symmetrizer_projection"),
    ("hwv", "j_ell", "hwv.j_ell"),
    ("hwv", "stacked_operator_rows", "hwv.stacked_operator_rows"),
    ("hwv", "full_kernel_vectors", "hwv.full_kernel_vectors"),
    ("pde", "newton_operator", "pde.newton_operator"),
    ("pde", "solution_space_dim", "pde.solution_space_dim"),
    ("jets", "census", "jets.census"),
    ("jets", "verify_theorem2", "jets.verify_theorem2"),
    ("verify", "run_suite", "verify.run_suite"),
    ("verify", "_run_task", "verify.check"),
)


def _echelon_in(counts, args, kwargs):
    rows, ncols = args[0], args[1]
    counts["rows_in"] += len(rows)
    counts["nnz_in"] += sum(len(r) for r in rows)
    counts["cols_max"] = max(counts["cols_max"], ncols)


def _echelon_out(counts, result):
    counts["rank_out"] += len(result)


def _substitute_in(counts, args, kwargs):
    counts["terms_in"] += len(args[0].terms)


def _basis_out(counts, result):
    counts["elements"] += len(result)


def _stacked_out(counts, result):
    rows, _ = result
    counts["rows_out"] += len(rows)
    counts["nnz_out"] += sum(len(r) for r in rows)


# Count hooks: span name -> (before the call, after it).  Both run outside
# the span, so their cost is charged to the caller's self time, not the
# layer's.
HOOKS = {
    "exact.echelon": (_echelon_in, _echelon_out),
    "dpoly.substitute": (_substitute_in, None),
    "wronskian.enumerate_canonical_basis": (None, _basis_out),
    "hwv.stacked_operator_rows": (None, _stacked_out),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []          # [name index, start, end, parent span]
        self.stack: list[int] = []
        self.counts: dict[str, Counter] = {}
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counts = self.counts.setdefault(name, Counter())
        before, after = HOOKS.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            if before:
                before(counts, args, kwargs)
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import diffhom
        modules = [diffhom] + [importlib.import_module(f"diffhom.{m}") for m in MODULES]
        for module, attr, name in TARGETS:
            original = getattr(importlib.import_module(f"diffhom.{module}"), attr)
            self.originals[name] = original
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                    elif callable(value) and getattr(value, "__defaults__", None):
                        if any(d is original for d in value.__defaults__):
                            value.__defaults__ = tuple(wrapper if d is original else d
                                                       for d in value.__defaults__)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name_id, start, end, parent in self.spans:
                fh.write(json.dumps([self.names[name_id], start, end, parent]) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of one pass, named ``<module>.<function>.<stat>``."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        slowest: dict[str, float] = {}
        reached_substitution = set()
        for idx, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[idx]
            slowest[name] = max(slowest.get(name, 0.0), dur)
            # Inclusive time counts a span only if no ancestor has its name.
            p, nested = parent, False
            while p >= 0 and not nested:
                nested = names[spans[p][0]] == name
                p = spans[p][3]
            if not nested:
                total[name] = total.get(name, 0.0) + dur
            if name == "dpoly.substitute":
                p = parent
                while p >= 0:
                    if names[spans[p][0]] == "dpoly.is_diff_homogeneous":
                        reached_substitution.add(p)
                    p = spans[p][3]

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return self_s.get(name, 0.0)

        def count(name, key):
            return self.counts[name][key]

        ech = "exact.echelon"
        rows_in = count(ech, "rows_in")
        out = {
            f"{ech}.calls": c(ech),
            f"{ech}.self_s": s(ech),
            f"{ech}.rows_in": rows_in,
            f"{ech}.nnz_in": count(ech, "nnz_in"),
            f"{ech}.cols_max": count(ech, "cols_max"),
            f"{ech}.rank_out": count(ech, "rank_out"),
            f"{ech}.pivot_yield": count(ech, "rank_out") / rows_in if rows_in else 0.0,
        }
        for name in ("exact.nullspace_basis", "exact.det_expansion",
                     "wronskian.build_wronskian", "dpoly.span_rank", "dpoly.solve_in_span",
                     "tableaux.young_symmetrizer", "tableaux.group_algebra_mul",
                     "hwv.symmetrizer_projection", "hwv.j_ell", "pde.newton_operator",
                     "jets.census", "dpoly.substitute"):
            out[f"{name}.calls"] = c(name)
            out[f"{name}.self_s"] = s(name)
        out["exact.intersection_dim.self_s"] = s("exact.intersection_dim")
        basis = "wronskian.enumerate_canonical_basis"
        out[f"{basis}.calls"] = c(basis)
        out[f"{basis}.elements"] = count(basis, "elements")
        out[f"{basis}.total_s"] = total.get(basis, 0.0)
        out["dpoly.substitute.terms_in"] = count("dpoly.substitute", "terms_in")
        idh = "dpoly.is_diff_homogeneous"
        out[f"{idh}.calls"] = c(idh)
        out[f"{idh}.total_s"] = total.get(idh, 0.0)
        out[f"{idh}.substituted"] = len(reached_substitution)
        out["dpoly.parse.self_s"] = s("dpoly.parse")
        stacked = "hwv.stacked_operator_rows"
        out[f"{stacked}.self_s"] = s(stacked)
        out[f"{stacked}.rows_out"] = count(stacked, "rows_out")
        out[f"{stacked}.nnz_out"] = count(stacked, "nnz_out")
        fkv = "hwv.full_kernel_vectors"
        out[f"{fkv}.calls"] = c(fkv)
        out[f"{fkv}.misses"] = self.originals[fkv].cache_info().misses
        out["pde.solution_space_dim.total_s"] = total.get("pde.solution_space_dim", 0.0)
        out["jets.verify_theorem2.total_s"] = total.get("jets.verify_theorem2", 0.0)
        out["verify.run_suite.self_s"] = s("verify.run_suite")
        out["verify.check.slowest_s"] = slowest.get("verify.check", 0.0)
        return out
