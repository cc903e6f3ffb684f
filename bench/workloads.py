"""Workload definitions: the query lists, how each query runs, and its oracle.

A query is a JSON-ready dict ``{"op": name, "args": [...]}``.  The benchmark
process builds the query lists (``make_queries``) and checks results against
an ``Oracle``; the worker processes receive only the queries and run them with
``run_query``.  Every result is normalised to plain JSON data so
that traced and untraced passes can be compared for identity.

Expected values come from an independent formula wherever the mathematics
gives one (``d!``, the hook-length ``f_lam``, ``C(N+d, d)``, Mahonian partial
sums, verdicts known by construction).  Values that are only observed are
pinned in ``expected.json``, which records where each came from.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("kernel", "census", "check", "verify")

PINNED = Path(__file__).with_name("expected.json")

# (N, d) pairs whose canonical basis elements seed the ``check`` stream.
CHECK_PAIRS = ((1, 6), (1, 7), (2, 4), (2, 5), (3, 3))
CHECK_KINDS = ("basis", "combination", "homogeneous", "inhomogeneous")
CHECK_MAX_TERMS = 80

VERIFY_SUITES = ("basis", "rsk", "kernel", "pde", "appendixA", "hwv", "jets")


# ---------------------------------------------------------------------------
# Running one query (worker side).

def run_query(op: str, args: list):
    """Run one query against the public API of ``diffhom``.

    Functions are looked up on their module at call time, so that a tracer
    that rebinds module attributes sees every call.
    """
    from diffhom import dpoly, hwv, jets, pde, tableaux, verify
    if op == "kernel_dim_full":
        return hwv.kernel_dim_full(*args)
    if op == "kernel_dim_isotypic":
        parts, k = args
        return hwv.kernel_dim_isotypic(tableaux.Partition(tuple(parts)), k)
    if op == "solution_space_dim":
        return pde.solution_space_dim(*args)
    if op == "verify_theorem2":
        report = jets.verify_theorem2(*args)
        return [report.passed, [[i.name, i.passed, i.witness] for i in report.items]]
    if op == "census":
        return [[e.n, e.count] for e in jets.census(*args)]
    if op == "check":
        text, n = args
        ok, degree = dpoly.is_diff_homogeneous(dpoly.parse(text, n))
        return [ok, degree]
    if op == "verify_suite":
        name, seed = args
        report = verify.run_suite(name, seed=seed, jobs=1)
        return [len(report.results), sum(r.passed for r in report.results)]
    raise ValueError(f"unknown query op {op!r}")


# ---------------------------------------------------------------------------
# Query lists (benchmark side).

def _partitions(d: int) -> list[tuple[int, ...]]:
    """Partitions of d in reverse lexicographic order, computed here so that
    the query list does not depend on the code under test."""
    def gen(rest, largest):
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, largest), 0, -1):
            for tail in gen(rest - p, p):
                yield (p,) + tail
    return list(gen(d, d))


def kernel_queries() -> list[dict]:
    q = []
    for d in range(1, 5):
        q += [{"op": "kernel_dim_full", "args": [d, k]} for k in range(d + 2)]
    q += [{"op": "kernel_dim_full", "args": [5, k]} for k in range(4)]
    for d in range(1, 5):
        q += [{"op": "kernel_dim_isotypic", "args": [list(lam), d - 1]}
              for lam in _partitions(d)]
    q += [{"op": "kernel_dim_isotypic", "args": [list(lam), 2]} for lam in _partitions(5)]
    q += [{"op": "solution_space_dim", "args": [d]} for d in range(1, 5)]
    q.append({"op": "solution_space_dim", "args": [5, 8]})
    return q


def census_queries() -> list[dict]:
    q = [{"op": "verify_theorem2", "args": [1, 6]},
         {"op": "verify_theorem2", "args": [2, 4]}]
    q += [{"op": "census", "args": [1, 7, k]} for k in range(6)]
    q += [{"op": "census", "args": [2, 5, k]} for k in range(4)]
    return q


def verify_queries(seed: int) -> list[dict]:
    return [{"op": "verify_suite", "args": [name, seed]} for name in VERIFY_SUITES]


def _random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _random_monomial(rng: random.Random, n: int, degree: int, weight: int, max_order: int):
    """A monomial of the given degree and weight whose jet orders are <= max_order."""
    from diffhom.dpoly import DiffPoly
    orders = [0] * degree
    for _ in range(weight):
        orders[rng.choice([j for j in range(degree) if orders[j] < max_order])] += 1
    mono = DiffPoly.const(Fraction(1), n)
    for k in orders:
        mono = mono * DiffPoly.var(rng.randint(0, n), k, n)
    return mono


def check_queries(seed: int) -> tuple[list[dict], list]:
    """The ``check`` stream and its verdicts, known by construction.

    For every pair in ``CHECK_PAIRS`` and every weight of its basis, a pass
    holds one query of each kind, built from the two elements of that weight
    with the most terms:

    * ``basis``: the first of them;
    * ``combination``: a rational combination of both.  Both positives are
      differentially homogeneous of degree d, because the property is linear
      for a fixed degree;
    * ``homogeneous`` (weights >= 1): the first element plus one monomial of
      the same degree and weight and of order >= 1.  Such a monomial is not
      differentially homogeneous, so by linearity neither is the sum; the
      query passes ``gradings`` and reaches the full substitution;
    * ``inhomogeneous``: the first element plus a monomial of another degree,
      rejected by ``gradings`` before any substitution.

    The seed picks the coefficients, the added monomials and the order of the
    stream.  The elements and strata are fixed, so the cost of a pass varies
    little with the seed.  Weight blocks holding an element of more than
    ``CHECK_MAX_TERMS`` terms are left out: one such query costs 0.2 to 3 s
    at the seed commit and would outweigh the rest of the pass.
    """
    from diffhom import dpoly, wronskian
    rng = random.Random(seed)
    strata = []
    for n, d in CHECK_PAIRS:
        blocks: dict[int, list] = {}
        for _, poly in wronskian.enumerate_canonical_basis(n, d):
            blocks.setdefault(dpoly.gradings(poly).weight, []).append(poly)
        for weight, block in sorted(blocks.items()):
            heavy = sorted(block, key=lambda p: -len(p.terms))[:2]
            if len(heavy[0].terms) <= CHECK_MAX_TERMS:
                strata += [(n, d, weight, heavy, kind) for kind in CHECK_KINDS
                           if weight >= 1 or kind != "homogeneous"]
    rng.shuffle(strata)
    queries, expected = [], []
    for n, d, weight, heavy, kind in strata:
        if kind == "combination":
            poly = dpoly.DiffPoly.zero(n)
            for p in heavy:
                poly = poly + p.scale(_random_coeff(rng))
        else:
            poly = heavy[0]
        order = dpoly.gradings(poly).order
        if kind == "homogeneous":
            poly = poly + _random_monomial(rng, n, d, weight, order).scale(_random_coeff(rng))
        elif kind == "inhomogeneous":
            other = d - 1 if d > 1 and rng.random() < 0.5 else d + 1
            poly = poly + _random_monomial(rng, n, other, rng.randint(0, order),
                                           order).scale(_random_coeff(rng))
        queries.append({"op": "check", "args": [dpoly.to_text(poly), n]})
        expected.append([True, d] if kind in ("basis", "combination") else [False, None])
    return queries, expected


def make_queries(workload: str, seed: int) -> tuple[list[dict], list | None]:
    """The workload's query list, and the verdicts known by construction
    (``check`` only, else None)."""
    if workload == "kernel":
        return kernel_queries(), None
    if workload == "census":
        return census_queries(), None
    if workload == "check":
        return check_queries(seed)
    if workload == "verify":
        return verify_queries(seed), None
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Oracles.

def mahonian(d: int) -> list[int]:
    """Coefficients of prod_{i=1..d} (1 + q + ... + q^(i-1))."""
    coeffs = [1]
    for i in range(1, d + 1):
        out = [0] * (len(coeffs) + i - 1)
        for j, c in enumerate(coeffs):
            for s in range(i):
                out[j + s] += c
        coeffs = out
    return coeffs


def _pinned_key(query: dict) -> str:
    return json.dumps([query["op"]] + query["args"], separators=(",", ":"))


class Oracle:
    """Decides whether one query result is the expected exact value."""

    def __init__(self, queries: list[dict], constructed: list | None):
        self.pinned = json.loads(PINNED.read_text())["values"]
        self.constructed = constructed
        self.queries = queries

    def expected(self, index: int):
        """The exact value query ``index`` must return."""
        from diffhom.tableaux import Partition, hook_length_count
        q = self.queries[index]
        op, args = q["op"], q["args"]
        if op == "kernel_dim_full":
            d, k = args
            if k >= d - 1:
                return math.factorial(d)
        elif op == "kernel_dim_isotypic":
            parts, k = args
            if k >= sum(parts) - 1:
                return hook_length_count(Partition(tuple(parts)))
        elif op == "solution_space_dim":
            d = args[0]
            bound = args[1] if len(args) > 1 else d * (d - 1) // 2
            return sum(mahonian(d)[:bound + 1])
        elif op == "census":
            n, d, k = args
            if k == 0:
                return [[0, math.comb(n + d, d)]]
        elif op == "check":
            return self.constructed[index]
        elif op == "verify_suite":
            q = {"op": op, "args": args[:1]}  # the check count does not depend on the seed
        key = _pinned_key(q)
        if key not in self.pinned:
            raise KeyError(f"no expected value for {key}")
        return self.pinned[key]

    def accepts(self, index: int, result) -> bool:
        q = self.queries[index]
        if q["op"] == "verify_theorem2":
            # The report certifies the (N+1)^d total itself; it must pass, and
            # its witnesses must match the pinned ones.
            return result[0] is True and result == self.expected(index)
        if q["op"] == "verify_suite":
            count, passed = result
            return passed == count == self.expected(index)
        return result == self.expected(index)
