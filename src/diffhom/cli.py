"""The ``dh`` command line interface.

Subcommands: basis, check, census, tableaux, kernel, verify.  Every
subcommand takes ``--format {text,json}``; census, tableaux and kernel also
offer ``csv``.  ``basis`` alone takes ``--cache DIR`` (default from
$DH_CACHE), and ``verify`` alone takes ``--seed`` and ``--jobs``.  A flag
given to a subcommand that does not read it exits 2.  All JSON payloads carry
a ``schema_version`` field.
Exit codes: 0 success, 1 failed check/verification, 2 invalid input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from . import SCHEMA_VERSION
from .dpoly import (ParseError, from_json_dict, gradings, is_diff_homogeneous,
                    parse, to_text)
from .jets import census, weight_census_bound
from .tableaux import count_semistandard, count_standard, partitions_of
from .hwv import kernel_dim_full, kernel_dim_isotypic
from .verify import DEFAULT_SEED, SUITE_NAMES, run_suite
from .wronskian import basis_manifest


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _manifest_hash(manifest: list[dict]) -> str:
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file in the same directory, then rename it over
    ``path``: readers see the old content or the new, never a partial file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cached_manifest(n: int, d: int, cache_dir: str | None) -> list[dict]:
    """Canonical-basis manifest, read through the on-disk cache when enabled.

    Cache entries are keyed by (N, d, schema version) and validated by a
    content hash; a corrupt entry is silently recomputed and rewritten.
    """
    if not cache_dir:
        return basis_manifest(n, d)
    path = Path(cache_dir) / f"basis_N{n}_d{d}_v{SCHEMA_VERSION}.json"
    if path.exists():
        try:
            payload = json.loads(path.read_text())
            manifest = payload["basis"]
            if (payload.get("schema_version") == SCHEMA_VERSION
                    and payload.get("content_hash") == _manifest_hash(manifest)):
                return manifest
        except (json.JSONDecodeError, KeyError, TypeError):
            pass
    manifest = basis_manifest(n, d)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema_version": SCHEMA_VERSION, "N": n, "d": d,
               "content_hash": _manifest_hash(manifest), "basis": manifest}
    _write_atomic(path, _json_dump(payload) + "\n")
    return manifest


def cmd_basis(args) -> int:
    if args.d < 1 or args.n < 0:
        print("basis requires --d >= 1 and --n >= 0", file=sys.stderr)
        return 2
    manifest = cached_manifest(args.n, args.d, args.cache)
    if args.format == "json":
        print(_json_dump({"schema_version": SCHEMA_VERSION, "N": args.n, "d": args.d,
                          "count": len(manifest), "basis": manifest}))
    else:
        print(f"canonical basis  N={args.n}  d={args.d}  ({len(manifest)} elements)")
        for entry in manifest:
            poly = from_json_dict(entry["poly"])
            print(f"  m={entry['m']} alpha={entry['alpha']} order={entry['order']} "
                  f"weight={entry['weight']}  {to_text(poly)}")
    return 0


def cmd_check(args) -> int:
    text = args.expression
    path = Path(text)
    try:
        is_file = path.is_file()
    except OSError:  # e.g. an expression longer than the file-name limit
        is_file = False
    if is_file:
        text = path.read_text().strip()
    bound = args.n
    if bound is None:
        import re
        indices = [int(m) for m in re.findall(r"x(\d+)", text)]
        bound = max(indices) if indices else 0
    try:
        poly = parse(text, bound)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    if not poly:
        print("the zero polynomial has no homogeneity degree", file=sys.stderr)
        return 2
    verdict, degree = is_diff_homogeneous(poly)
    if args.format == "json":
        print(_json_dump({"schema_version": SCHEMA_VERSION, "input": to_text(poly),
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
    if args.d < 0 or args.n < 0:
        print("census requires --d >= 0 and --n >= 0", file=sys.stderr)
        return 2
    if args.theorem2:
        from .jets import verify_theorem2
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
        if args.k < 0:
            print("census requires --k >= 0", file=sys.stderr)
            return 2
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
    if args.d < 1:
        print("tableaux requires --d >= 1", file=sys.stderr)
        return 2
    alphabet = args.n if args.n is not None else args.d
    if alphabet < 1:
        print("tableaux requires --n >= 1", file=sys.stderr)
        return 2
    rows = []
    for lam in partitions_of(args.d):
        rows.append({"partition": list(lam.parts),
                     "standard": count_standard(lam),
                     "semistandard": count_semistandard(lam, alphabet)})
    if args.format == "json":
        print(_json_dump({"schema_version": SCHEMA_VERSION, "d": args.d,
                          "alphabet": alphabet, "partitions": rows}))
    elif args.format == "csv":
        print("partition,standard,semistandard")
        for r in rows:
            print(f"\"{tuple(r['partition'])}\",{r['standard']},{r['semistandard']}")
    else:
        print(f"partitions of {args.d}  (semi-standard counts over {alphabet} letters)")
        for r in rows:
            print(f"  {tuple(r['partition'])!s:<16} f={r['standard']:<6} d={r['semistandard']}")
        print(f"  sum f^2 = {sum(r['standard'] ** 2 for r in rows)}")
    return 0


def cmd_kernel(args) -> int:
    if args.d < 1:
        print("kernel requires --d >= 1", file=sys.stderr)
        return 2
    k = args.k if args.k is not None else args.d - 1
    if k < 0:
        print("kernel requires --k >= 0", file=sys.stderr)
        return 2
    full = kernel_dim_full(args.d, k)
    per_lambda = []
    for lam in partitions_of(args.d):
        per_lambda.append({"partition": list(lam.parts),
                           "kernel_dim": kernel_dim_isotypic(lam, k),
                           "standard_count": count_standard(lam)})
    if args.format == "json":
        print(_json_dump({"schema_version": SCHEMA_VERSION, "d": args.d, "k": k,
                          "full_kernel_dim": full, "isotypic": per_lambda}))
    elif args.format == "csv":
        print("partition,kernel_dim,standard_count")
        for r in per_lambda:
            print(f"\"{tuple(r['partition'])}\",{r['kernel_dim']},{r['standard_count']}")
    else:
        print(f"simultaneous kernels  d={args.d}  k={k}")
        print(f"  full tensor power: {full}")
        for r in per_lambda:
            print(f"  {tuple(r['partition'])!s:<16} kernel={r['kernel_dim']:<4} f={r['standard_count']}")
    return 0


def cmd_verify(args) -> int:
    if args.jobs < 1:
        print("verify requires --jobs >= 1", file=sys.stderr)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--n", type=int, required=True, help="number of variables minus one")
    p.add_argument("--d", type=int, required=True, help="degree")
    p.add_argument("--cache", default=os.environ.get("DH_CACHE"),
                   help="cache directory for basis manifests (default $DH_CACHE)")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("check", parents=[plain],
                       help="decide differential homogeneity of an expression or file")
    p.add_argument("expression", help="expression in the x<i>[<k>] grammar, or a file path")
    p.add_argument("--n", type=int, default=None,
                   help="variable bound (default: largest index used)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("census", parents=[tabular],
                       help="per-weight dimensions of twisted jet differentials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="jet order (default d-1)")
    p.add_argument("--all-k", action="store_true", help="sweep k = 0..d-1")
    p.add_argument("--theorem2", action="store_true",
                   help="emit the stability/total/vanishing report instead of counts")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("tableaux", parents=[tabular],
                       help="partition and tableau counts")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="alphabet size (default d)")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("kernel", parents=[tabular],
                       help="simultaneous kernel dimensions on tensor powers")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="local dimension minus one (default d-1)")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", parents=[plain],
                       help="run a verification suite")
    p.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p.add_argument("--max-d", type=int, default=None, help="degree cap override")
    p.add_argument("--max-n", type=int, default=None, help="variable bound cap override")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for the randomized checks")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (at least 1, capped at the CPU count)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
