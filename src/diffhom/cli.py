"""The ``dh`` command line interface.

Subcommands: basis, check, census, tableaux, kernel, verify.  Every
subcommand takes ``--format {text,json}``; census, tableaux and kernel also
offer ``csv``, except ``census --theorem2``.  ``census`` takes at most one
of ``--k``, ``--all-k`` and ``--theorem2``.  ``basis``, ``census`` and
``kernel`` take ``--max-cost``, and ``verify`` alone takes ``--seed`` and
``--jobs``.
``check @path`` reads the expression from a file.  All JSON payloads carry
a ``schema_version`` field.  No subcommand writes a file.  The tableaux and
kernel tables are written as their rows are made; ``basis`` prints every
element before it writes any, so a coefficient too long to print exits 2
with nothing written.
Exit codes: 0 success, 1 failed check/verification, 2 invalid input: from
the parser, a flag malformed, below its floor (``_at_least``) or not read by
the subcommand; with its own message, a cost above a cap.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections.abc import Iterator
from functools import partial

from . import SCHEMA_VERSION
from .dpoly import ParseError, gradings, is_diff_homogeneous, parse, to_text
from .jets import census, verify_theorem2, weight_census_bound
from .tableaux import (Partition, count_semistandard, count_standard, partition_parts,
                       partitions_of, semistandard_weight_counts)
from .hwv import kernel_dim_full, kernel_dim_isotypic, solved_weights
from .verify import DEFAULT_SEED, SUITE_NAMES, over_cap, run_suite
from .wronskian import basis_manifest, enumerate_canonical_basis

# The default cap on the cost of `dh kernel` (see `kernel_cost`): 2^16,
# under which every input timed took at most two minutes on a 2-CPU
# machine.  Counting D_T terms, not D_T, parts d = 9, k = 8 (largest
# system 1,621 D_T, 64,224 terms), which took 99 s and 142 MB, from d = 10,
# k = 5 (1,589 D_T, 191,808 terms), which took 212 s and 353 MB.  d = 8,
# k = 6 (51,264) and d = 9, k = 5 (51,840) took 52 s each, and the inputs
# of few shapes run in seconds: d = 19, k = 2 (62,208) 5 s, d = 33, k = 1
# (65,536) 23 s and d = 43, k = 0 (the floor p(43) = 63,261) 5 s and
# 43 MB.  Above the cap, d = 12, k = 4 (190,656) took 200 s, and the
# cheapest inputs, d = 11, k = 4 (68,544) and d = 14, k = 3 (69,120), 52 s
# and 23 s; every d = 9, 6 <= k <= 7 (207,360 and 757,440), every d >= 10
# at k >= d-1 and every d >= 44 (p(44) = 75,175) are refused at once.
# `--max-cost` overrides it.
KERNEL_MAX_COST = 2 ** 16

# The default caps on the cost of `dh basis` (see `basis_cost`) and `dh
# census` (see `census_cost`): the largest sizes whose runs took at most two
# minutes on a 2-CPU machine when they were set.  `dh basis --n 1 --d 10`
# (1,024 Wronskians) took 21 s and 276 MB as text, and 54 s and 1.2 GB with
# `--format json`; `--n 1 --d 11` (2,048) took 151 s and 1.7 GB as text, and
# its JSON run, which holds the whole manifest, was not made.
# The census's worst case under its cap is
# at N = 1, where the self-paired multidegree (d/2, d/2) dominates at even
# d: `dh census --n 1 --d 12 --theorem2` (2,510 Wronskians) took 71-80 s
# and 196 MB, while `--n 1 --d 13` (4,096) holds a block of 1,716 degree-13
# Wronskians and ran past 150 s.  The largest d admitted at the other N run
# in seconds: `--n 2 --d 8` (1,647) 1.5 s, `--n 3 --d 7` (1,821) 0.7 s,
# `--n 20 --d 6` (1,602) 0.3 s.  `--max-cost` overrides them.
BASIS_MAX_COST = 2 ** 10
CENSUS_MAX_COST = 5 ** 5

# The cap on the cost of `dh tableaux`, the p(d) shapes it counts: 2^20
# admits d <= 60.  `--d 60` (p = 966,467) took 66 s and 23 MB as text and
# 79 s and 20 MB as json on a 2-CPU machine, each row written as it is made;
# `--d 58` took 61 s and `--d 50` 16 s.
TABLEAUX_MAX_COST = 2 ** 20


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _json_chunks(payload: dict) -> Iterator[str]:
    """The text of ``_json_dump(payload)`` in pieces, one per element of a
    top-level list, so that the whole text is never held at once.  A
    top-level list value may be any iterator, read once as it is written.
    JSON escapes newlines inside strings, so indenting every line of an
    element's own text nests it."""
    if not payload:
        yield "{}"
        return
    for i, key in enumerate(sorted(payload)):
        value = payload[key]
        yield f"{',' if i else '{'}\n  {json.dumps(key)}: "
        if isinstance(value, (list, Iterator)):
            j = -1
            for j, item in enumerate(value):
                yield f"{',' if j else '['}\n    " + _json_dump(item).replace("\n", "\n    ")
            yield "\n  ]" if j >= 0 else "[]"
        else:
            yield _json_dump(value).replace("\n", "\n  ")
    yield "\n}"


def basis_cost(n: int, d: int, cap: int) -> int:
    """Cost estimate of the canonical basis of (N, d): its (N+1)^d elements,
    or d^2 if that is larger (each element is a d x d Wronskian, which
    matters at N = 0).  (N+1)^d is built one factor at a time and returned
    as soon as it passes ``cap``, so a huge d costs no big power."""
    cost = 1
    for _ in range(d if n else 0):
        cost *= n + 1
        if cost > cap:
            break
    return max(cost, d * d)


def census_cost(n: int, d: int, cap: int) -> int:
    """Cost estimate of the census of (N, d): the Wronskians it expands, one
    multiplicity vector per partition lam of d with at most N+1 parts, that
    is the sum of the multinomials d!/prod lam_i!, or d^2 if that is larger.
    Summed one partition at a time, from (d) on, and returned as soon as it
    passes ``cap``, so a huge d or N costs no big enumeration."""
    cost = d * d
    if cost > cap:
        return cost
    total = 0
    for parts in partition_parts(d, n + 1):
        rest, count = d, 1
        for part in parts:
            count *= math.comb(rest, part)
            rest -= part
        total += count
        if total > cap:
            break
    return max(total, cost)


def _over_cost(args, call: str, cost, default: int, measure: str) -> bool:
    """True, after a message, when ``cost(cap)`` exceeds the cap of the
    command line ``call``, whose cost counts ``measure``: ``--max-cost``
    where the command takes it and it is given, else ``default``."""
    cap = getattr(args, "max_cost", None) or default
    if cost(cap) <= cap:
        return False
    hint = "; --max-cost N raises the cap" if hasattr(args, "max_cost") else ""
    print(f"{call} costs more than the cap of {cap} ({measure}){hint}", file=sys.stderr)
    return True


_BASIS_MEASURE = "the (N+1)^d basis elements, or d^2 if larger"
_CENSUS_MEASURE = ("the Wronskians of the multiplicity vectors that are partitions of d, "
                   "or d^2 if larger")
_KERNEL_MEASURE = ("the D_T terms of the largest system solved, or q^2 if larger, q the "
                   "partitions of d with at most min(k, d-1) + 1 parts, or at least p(d)")


def cmd_basis(args) -> int:
    call = f"basis --n {args.n} --d {args.d}"
    if _over_cost(args, call, partial(basis_cost, args.n, args.d), BASIS_MAX_COST,
                  _BASIS_MEASURE):
        return 2
    try:  # every coefficient is printed before anything is written
        if args.format == "json":
            manifest = basis_manifest(args.n, args.d)
        else:
            lines = [f"  m={list(datum.m)} alpha={list(datum.flat_alpha)} order={g.order} "
                     f"weight={g.weight}  {to_text(poly)}\n"
                     for datum, poly in enumerate_canonical_basis(args.n, args.d)
                     for g in [gradings(poly)]]
    except ValueError as exc:  # a coefficient too long to print (dpoly._coeff_text)
        print(f"{call}: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.writelines(_json_chunks({"schema_version": SCHEMA_VERSION, "N": args.n,
                                            "d": args.d, "count": len(manifest),
                                            "basis": manifest}))
        sys.stdout.write("\n")
    else:
        print(f"canonical basis  N={args.n}  d={args.d}  ({len(lines)} elements)")
        sys.stdout.writelines(lines)
    return 0


def _expression_text(arg: str) -> str | None:
    """The expression ``dh check ARG`` reads: the contents of ``path`` for
    ``@path``, else ARG itself, also when ARG names a file.  None, after a
    message, when the file cannot be read."""
    if not arg.startswith("@"):
        return arg
    try:
        with open(arg[1:], encoding="utf-8") as f:
            return f.read().strip()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read {arg[1:]!r}: {getattr(exc, 'strerror', None) or exc}",
              file=sys.stderr)
        return None


def cmd_check(args) -> int:
    text = _expression_text(args.expression)
    if text is None:
        return 2
    try:
        poly = parse(text, args.n)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if not poly:
        print("the zero polynomial has no homogeneity degree", file=sys.stderr)
        return 2
    verdict, degree = is_diff_homogeneous(poly)
    if args.format == "json":
        try:
            echo = to_text(poly)
        except ValueError as exc:  # a coefficient too long to print
            print(f"check: {exc}", file=sys.stderr)
            return 2
        print(_json_dump({"schema_version": SCHEMA_VERSION, "input": echo,
                          "differentially_homogeneous": verdict, "degree": degree}))
    else:
        if verdict:
            print(f"yes: differentially homogeneous of degree {degree}")
        else:
            g = gradings(poly)
            print("no: not differentially homogeneous"
                  + (f" (ordinary degree {g.degree})" if g.degree is not None else " (inhomogeneous)"))
    return 0 if verdict else 1


def cmd_census(args) -> int:
    if _over_cost(args, f"census --n {args.n} --d {args.d}", partial(census_cost, args.n, args.d),
                  CENSUS_MAX_COST, _CENSUS_MEASURE):
        return 2
    if args.theorem2:
        if args.format == "csv":
            print("census --theorem2 has no csv output; use --format text or json",
                  file=sys.stderr)
            return 2
        report = verify_theorem2(args.n, args.d)
        if args.format == "json":
            print(_json_dump({"schema_version": SCHEMA_VERSION, "N": args.n, "d": args.d,
                              "passed": report.passed,
                              "items": [{"name": i.name,
                                         "verdict": "pass" if i.passed else "fail",
                                         "witness": i.witness} for i in report.items]}))
        else:
            for i in report.items:
                print(f"[{'PASS' if i.passed else 'FAIL'}] {i.name}: {i.witness}")
        return 0 if report.passed else 1
    if args.all_k:
        ks = list(range(0, max(args.d, 1)))
    elif args.k is not None:
        ks = [args.k]
    else:
        ks = [max(args.d - 1, 0)]
    rows = []
    for k in ks:
        for e in census(args.n, args.d, k):
            rows.append({"N": args.n, "d": args.d, "k": e.k, "n": e.n, "count": e.count})
    if args.format == "json":
        print(_json_dump({"schema_version": SCHEMA_VERSION, "entries": rows}))
    elif args.format == "csv":
        print("N,d,k,n,count")
        for r in rows:
            print(f"{r['N']},{r['d']},{r['k']},{r['n']},{r['count']}")
    else:
        print(f"census  N={args.n}  d={args.d}  (weight bound {weight_census_bound(args.n, args.d)})")
        for r in rows:
            print(f"  k={r['k']}  n={r['n']}  count={r['count']}")
        for k in ks:
            total = sum(r["count"] for r in rows if r["k"] == k)
            print(f"  total at k={k}: {total}")
    return 0


def cmd_tableaux(args) -> int:
    if _over_cost(args, f"tableaux --d {args.d}", partial(partition_count, args.d),
                  TABLEAUX_MAX_COST, "the partitions of d"):
        return 2
    alphabet = args.n or args.d
    rows = ((lam.parts, count_standard(lam), count_semistandard(lam, alphabet))
            for lam in map(Partition, partition_parts(args.d)))
    if args.format == "json":
        sys.stdout.writelines(_json_chunks({
            "schema_version": SCHEMA_VERSION, "d": args.d, "alphabet": alphabet,
            "partitions": ({"partition": list(parts), "standard": f, "semistandard": s}
                           for parts, f, s in rows)}))
        sys.stdout.write("\n")
    elif args.format == "csv":
        print("partition,standard,semistandard")
        for parts, f, s in rows:
            print(f"\"{parts}\",{f},{s}")
    else:
        print(f"partitions of {args.d}  (semi-standard counts over {alphabet} letters)")
        total = 0
        for parts, f, s in rows:
            print(f"  {parts!s:<16} f={f:<6} d={s}")
            total += f * f
        print(f"  sum f^2 = {total}")
    return 0


def _partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ..., each from the ones before it by Euler's
    pentagonal number theorem, with no partition built."""
    p = [1]
    while True:
        yield p[-1]
        n, total, j = len(p), 0, 1
        while (g := j * (3 * j - 1) // 2) <= n:
            sign = 1 if j % 2 else -1
            total += sign * (p[n - g] + (p[n - g - j] if g + j <= n else 0))
            j += 1
        p.append(total)


def partition_count(d: int, cap: int) -> int:
    """p(d), or the first p(n), n < d, above ``cap``: a huge d costs no
    more than the cap."""
    for count in itertools.islice(_partition_counts(), d + 1):
        if count > cap:
            break
    return count


def kernel_cost(d: int, k: int, cap: int) -> int:
    """Cost estimate of `dh kernel --d d --k k`: the D_T terms of the largest
    system it solves, or q^2 if that is larger, q the number of partitions
    of d with at most k' + 1 parts, k' = min(k, d-1), or at least p(d).  The
    systems are those of k', one per shape with D_T and weight
    ``hwv.solved_weights``: the solver shares the system of (lam, w) among
    every k at or above the largest entry of its tableaux, so a fresh
    process builds each once, with the rows it has at k'.  The
    system of (lam, w) has one row per semi-standard tableau of shape lam
    over {0..k'} with entry sum w (``semistandard_weight_counts``), so only
    those q shapes have D_T.  Each row is the image of a D_T, a
    product of one determinant per column of lam with at most prod_j lam'_j!
    terms, lam' the conjugate, and its D_T terms are the rows times that:
    the rows alone do not order the run times (see ``KERNEL_MAX_COST``).
    q^2 is the term that grows with the number of systems, q times the
    weights solved.  p(d), the shapes the multiplicity table runs over, is a
    linear floor: p(n) grows with n, so once p(n) passes ``cap`` that is
    returned at once, and a huge d never reaches the partitions of d;
    likewise the shapes are read only until the cost passes ``cap``.  At
    k >= d-1 every shape has D_T, q = p(d)."""
    table = partition_count(d, cap)
    if table > cap:
        return table
    k = min(k, d - 1)
    cost = max(table, sum(1 for _ in partition_parts(d, k + 1)) ** 2)
    stop = solved_weights(d, k).stop
    for lam in partitions_of(d):
        if cost > cap:
            break
        cost = max(cost, math.prod(math.factorial(c) for c in lam.conjugate().parts)
                   * max(semistandard_weight_counts(lam, k + 1)[:stop], default=0))
    return cost


def cmd_kernel(args) -> int:
    k = args.k if args.k is not None else args.d - 1
    if _over_cost(args, f"kernel --d {args.d} --k {k}", partial(kernel_cost, args.d, k),
                  KERNEL_MAX_COST, _KERNEL_MEASURE):
        return 2
    full = kernel_dim_full(args.d, k)
    rows = ((lam.parts, kernel_dim_isotypic(lam, k), count_standard(lam))
            for lam in partitions_of(args.d))
    if args.format == "json":
        sys.stdout.writelines(_json_chunks({
            "schema_version": SCHEMA_VERSION, "d": args.d, "k": k, "full_kernel_dim": full,
            "isotypic": ({"partition": list(parts), "kernel_dim": dim, "standard_count": f}
                         for parts, dim, f in rows)}))
        sys.stdout.write("\n")
    elif args.format == "csv":
        print("partition,kernel_dim,standard_count")
        for parts, dim, f in rows:
            print(f"\"{parts}\",{dim},{f}")
    else:
        print(f"simultaneous kernels  d={args.d}  k={k}")
        print(f"  full tensor power: {full}")
        for parts, dim, f in rows:
            print(f"  {parts!s:<16} kernel={dim:<4} f={f}")
    return 0


def cmd_verify(args) -> int:
    if reason := over_cap(args.suite, args.max_d, args.max_n):
        print(f"verify {reason}", file=sys.stderr)
        return 2
    report = run_suite(args.suite, max_d=args.max_d, max_n=args.max_n,
                       seed=args.seed, jobs=args.jobs)
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION,
                   "suite": report.suite,
                   "seed": report.seed,
                   "passed": report.passed,
                   "wall_time_seconds": round(report.wall_time, 3),
                   "checks": [{"id": r.check_id, "params": r.params,
                               "expected": r.expected, "computed": r.computed,
                               "seconds": round(r.seconds, 6),
                               "verdict": "pass" if r.passed else "fail"}
                              for r in report.results]}
        print(_json_dump(payload))
    else:
        for r in report.results:
            mark = "PASS" if r.passed else "FAIL"
            detail = "" if r.passed else f"  expected {r.expected!r}, computed {r.computed!r}"
            print(f"[{mark}] {r.check_id}{detail}")
        failed = sum(1 for r in report.results if not r.passed)
        print(f"suite={report.suite} seed={report.seed} checks={len(report.results)} "
              f"failed={failed} wall={report.wall_time:.2f}s")
    return 0 if report.passed else 1


def _at_least(low: int):
    """The argparse type of an int flag whose values start at ``low``: a
    smaller value exits 2 with the usage line.  Named ``int``, so a
    malformed value still reads "invalid int value"."""
    def parse_int(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse_int.__name__ = "int"
    return parse_int


def build_parser() -> argparse.ArgumentParser:
    natural, positive = _at_least(0), _at_least(1)
    plain = argparse.ArgumentParser(add_help=False)
    plain.add_argument("--format", choices=("text", "json"), default="text")
    tabular = argparse.ArgumentParser(add_help=False)
    tabular.add_argument("--format", choices=("text", "json", "csv"), default="text")

    parser = argparse.ArgumentParser(
        prog="dh",
        description="exact constructions and verifications for differentially "
                    "homogeneous polynomials")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", parents=[plain],
                       help="emit the canonical (N+1)^d basis manifest")
    p.add_argument("--n", type=natural, required=True, help="number of variables minus one")
    p.add_argument("--d", type=positive, required=True, help="degree")
    p.add_argument("--max-cost", type=positive, default=None,
                   help=f"largest cost to accept: {_BASIS_MEASURE} (default {BASIS_MAX_COST})")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("check", parents=[plain],
                       help="decide differential homogeneity of an expression or file")
    p.add_argument("expression",
                   help="expression in the x<i>[<k>] grammar, or @path to read it from a file")
    p.add_argument("--n", type=natural, default=None,
                   help="variable bound (default: largest index used)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("census", parents=[tabular],
                       help="per-weight dimensions of twisted jet differentials")
    p.add_argument("--n", type=natural, required=True)
    p.add_argument("--d", type=natural, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--k", type=natural, default=None, help="jet order (default d-1)")
    which.add_argument("--all-k", action="store_true", help="sweep k = 0..d-1")
    which.add_argument("--theorem2", action="store_true",
                       help="emit the stability/total/vanishing report instead of counts "
                            "(text or json)")
    p.add_argument("--max-cost", type=positive, default=None,
                   help=f"largest cost to accept: {_CENSUS_MEASURE} (default {CENSUS_MAX_COST})")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("tableaux", parents=[tabular],
                       help="partition and tableau counts")
    p.add_argument("--d", type=positive, required=True)
    p.add_argument("--n", type=positive, default=None, help="alphabet size (default d)")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("kernel", parents=[tabular],
                       help="simultaneous kernel dimensions on tensor powers")
    p.add_argument("--d", type=positive, required=True)
    p.add_argument("--k", type=natural, default=None, help="local dimension minus one (default d-1)")
    p.add_argument("--max-cost", type=positive, default=None,
                   help=f"largest cost to accept: {_KERNEL_MEASURE} (default {KERNEL_MAX_COST})")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", parents=[plain],
                       help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--max-d", type=positive, default=None, help="degree cap override")
    p.add_argument("--max-n", type=natural, default=None, help="variable bound cap override")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the randomized checks")
    p.add_argument("--jobs", type=positive, default=1,
                   help="worker processes (at least 1, capped at the CPU count)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
