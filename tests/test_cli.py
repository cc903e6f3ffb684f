"""Command line interface: output formats, exit codes, determinism."""

import argparse
import ast
import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from diffhom import SCHEMA_VERSION
from diffhom.cli import build_parser, census_cost, main
import formal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def refused_by_parser(capsys, *argv) -> str:
    """The stderr of a command line that the parser refuses: exit 2 and
    nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    return out.err


def test_basis_json(capsys):
    code, out, _ = run(capsys, "basis", "--n", "1", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["count"] == 4
    assert len(payload["basis"]) == 4
    entry = payload["basis"][0]
    assert set(entry) == {"m", "alpha", "order", "weight", "poly"}


@pytest.mark.parametrize("n, d", [(1, 6), (2, 4)])
def test_basis_json_is_streamed_byte_for_byte(capsys, n, d):
    # written one element at a time, the same bytes as one json.dumps
    from diffhom.wronskian import basis_manifest
    code, out, _ = run(capsys, "basis", "--n", str(n), "--d", str(d), "--format", "json")
    manifest = basis_manifest(n, d)
    payload = {"schema_version": SCHEMA_VERSION, "N": n, "d": d, "count": len(manifest),
               "basis": manifest}
    assert code == 0 and out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload", [
    {}, {"a": []}, {"a": [1, "x\ny", None]}, {"b": {"c": [1, {"d": []}]}, "a": 2.5},
    {"z": [{"k": [1, 2], "j": {}}, []], "list": [[]], "s": "\u00e9"}], ids=repr)
def test_json_chunks_join_to_the_dump(payload):
    from diffhom.cli import _json_chunks
    dump = json.dumps(payload, indent=2, sort_keys=True)
    assert "".join(_json_chunks(payload)) == dump
    # each top-level list given as a generator, read once as it is written
    streamed = {key: (item for item in value) if isinstance(value, list) else value
                for key, value in payload.items()}
    assert "".join(_json_chunks(streamed)) == dump


@pytest.mark.parametrize("n, d", [(n, d) for n in range(4) for d in range(1, 5)])
def test_basis_text_is_the_text_of_the_json_manifest(capsys, n, d):
    # each line is the one printed from its manifest entry read back by
    # from_json_dict
    from diffhom.dpoly import to_text
    from diffhom.wronskian import basis_manifest
    from formal import from_json_dict
    code, out, _ = run(capsys, "basis", "--n", str(n), "--d", str(d))
    manifest = basis_manifest(n, d)
    assert code == 0 and out.splitlines() == [
        f"canonical basis  N={n}  d={d}  ({len(manifest)} elements)",
        *(f"  m={e['m']} alpha={e['alpha']} order={e['order']} weight={e['weight']}  "
          f"{to_text(from_json_dict(e['poly']))}" for e in manifest)]


def test_basis_text_counts(capsys):
    code, out, _ = run(capsys, "basis", "--n", "0", "--d", "3")
    assert code == 0
    assert "1 elements" in out
    code, out, _ = run(capsys, "basis", "--n", "2", "--d", "1")
    assert code == 0
    assert out.count("m=") == 3


def test_basis_rejects_bad_arguments(capsys):
    assert "--d" in refused_by_parser(capsys, "basis", "--n", "1", "--d", "0")


def test_check_positive(capsys):
    code, out, _ = run(capsys, "check", "x0*x1[1]-x1*x0[1]")
    assert code == 0
    assert "degree 2" in out


def test_check_negative(capsys):
    code, out, _ = run(capsys, "check", "x0[1]")
    assert code == 1
    assert out.startswith("no")


def test_check_file_input(tmp_path, capsys):
    f = tmp_path / "poly.txt"
    f.write_text("x0\n")
    code, out, _ = run(capsys, "check", "@" + str(f))
    assert code == 0 and "degree 1" in out


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "x0[")
    assert code == 2
    assert "parse error" in err


def test_check_rejects_non_ascii_digits(capsys):
    code, out, err = run(capsys, "check", "x0 + \uff15*x0[1]")
    assert code == 2 and not out
    assert "unexpected character '\uff15' (at position 5)" in err


def test_check_json_format(capsys):
    code, out, _ = run(capsys, "check", "x0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["differentially_homogeneous"] is True and payload["degree"] == 1


def test_census_csv(capsys):
    code, out, _ = run(capsys, "census", "--n", "1", "--d", "2", "--k", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["N,d,k,n,count", "1,2,1,0,3", "1,2,1,1,1"]


def test_census_high_k_matches_stable_value(capsys):
    _, out1, _ = run(capsys, "census", "--n", "1", "--d", "2", "--k", "1", "--format", "csv")
    _, out5, _ = run(capsys, "census", "--n", "1", "--d", "2", "--k", "5", "--format", "csv")
    assert out1.replace(",1,", ",x,") == out5.replace(",5,", ",x,")


def test_census_all_k(capsys):
    code, out, _ = run(capsys, "census", "--n", "1", "--d", "3", "--all-k", "--format", "csv")
    assert code == 0
    ks = {line.split(",")[2] for line in out.splitlines()[1:]}
    assert ks == {"0", "1", "2"}


def test_census_total_nine(capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--d", "2", "--k", "1", "--format", "csv")
    total = sum(int(line.split(",")[4]) for line in out.splitlines()[1:])
    assert code == 0 and total == 9


def test_census_theorem2_report(capsys):
    code, out, _ = run(capsys, "census", "--n", "1", "--d", "3", "--theorem2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [i["name"] for i in payload["items"]] == \
        ["k_stability", "total_dimension", "weight_vanishing"]
    assert all(i["verdict"] == "pass" for i in payload["items"])


@pytest.mark.parametrize("flags", [["--all-k", "--k", "1"], ["--k", "1", "--theorem2"],
                                   ["--all-k", "--theorem2"]])
def test_census_order_flags_are_mutually_exclusive(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--n", "1", "--d", "3"] + flags)
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


def test_census_theorem2_has_no_csv(capsys):
    code, out, err = run(capsys, "census", "--n", "1", "--d", "3", "--theorem2",
                         "--format", "csv")
    assert code == 2 and out == ""
    assert "--theorem2 has no csv output" in err


def test_tableaux_output(capsys):
    code, out, _ = run(capsys, "tableaux", "--d", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["partitions"]) == 5
    assert sum(r["standard"] ** 2 for r in payload["partitions"]) == 24
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"  # streamed, same bytes


def test_kernel_output(capsys):
    code, out, _ = run(capsys, "kernel", "--d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["full_kernel_dim"] == 6
    assert all(r["kernel_dim"] == r["standard_count"] for r in payload["isotypic"])


def test_kernel_d5_json(capsys):
    code, out, _ = run(capsys, "kernel", "--d", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["full_kernel_dim"] == 120
    assert all(r["kernel_dim"] == r["standard_count"] for r in payload["isotypic"])
    assert sum(r["standard_count"] * r["kernel_dim"] for r in payload["isotypic"]) == 120


def test_verify_small_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rsk", "--max-d", "4")
    assert code == 0
    assert "failed=0" in out


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "pde", "--max-d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["schema_version"] == SCHEMA_VERSION
    assert all(c["verdict"] == "pass" for c in payload["checks"])


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_output_deterministic(capsys):
    _, out1, _ = run(capsys, "basis", "--n", "1", "--d", "3", "--format", "json")
    _, out2, _ = run(capsys, "basis", "--n", "1", "--d", "3", "--format", "json")
    assert out1 == out2


def _long_wronskian_sum():
    # ten 2x2 Wronskians x_i x_j' - x_j x_i': a 20-term sum, homogeneous of degree 2
    pairs = [(i, j) for i in range(10, 15) for j in range(i + 1, 15)]
    return " + ".join(f"x{i}*x{j}[1] - x{j}*x{i}[1]" for i, j in pairs)


def test_check_long_expression(capsys):
    expr = _long_wronskian_sum()
    assert len(expr.encode()) > 255
    code, out, _ = run(capsys, "check", expr)
    assert code == 0 and "degree 2" in out


def test_check_long_inhomogeneous_expression(capsys):
    expr = _long_wronskian_sum() + " + x0[1]"
    assert len(expr.encode()) > 255
    code, out, _ = run(capsys, "check", expr)
    assert code == 1 and out.startswith("no")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_nonpositive_jobs(capsys, jobs):
    assert "--jobs" in refused_by_parser(capsys, "verify", "--suite", "rsk", "--max-d", "2",
                                         "--jobs", jobs)


@pytest.mark.parametrize("flag, value", [("--max-d", "0"), ("--max-d", "-1"),
                                         ("--max-n", "-1")])
def test_verify_rejects_caps_out_of_range(capsys, flag, value):
    assert flag in refused_by_parser(capsys, "verify", "--suite", "hwv", flag, value)


@pytest.mark.parametrize("argv, message", [
    (["--suite", "kernel", "--max-d", "9"], "--max-d 9 exceeds the cap of 8 for the kernel suite"),
    (["--suite", "appendixA", "--max-d", "9"],
     "--max-d 9 exceeds the cap of 6 for the appendixA suite"),
    (["--max-n", "9"], "--max-n 9 exceeds the cap of 3 for the basis suite"),
    (["--max-d", "7"], "--max-d 7 exceeds the cap of 6 for the basis suite"),
    (["--suite", "pde", "--max-d", "7"], "--max-d 7 exceeds the cap of 6 for the pde suite")])
def test_verify_refuses_caps_above_the_suite_cap(capsys, monkeypatch, argv, message):
    # refused before any work: no check runs
    import diffhom.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("verify ran a suite above its cap")

    monkeypatch.setattr(cli, "run_suite", no_run)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err == f"verify {message}\n"


@pytest.mark.parametrize("max_n, max_d", [("1", "3"), ("0", "2")])
def test_verify_hwv_with_shapes_taller_than_n_plus_one(capsys, max_n, max_d):
    # partitions with more than N+1 parts have an empty D_T basis
    code, out, _ = run(capsys, "verify", "--suite", "hwv", "--max-n", max_n, "--max-d", max_d,
                       "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks and all(c["verdict"] == "pass" for c in checks)
    weights = [c for c in checks if c["id"] == "hwv_weight"]
    assert any(len(c["params"]["lam"]) > int(max_n) + 1 for c in weights)
    assert all(c["computed"] == "weight vector" for c in weights)


def test_verify_two_jobs(capsys):
    _, serial, _ = run(capsys, "verify", "--suite", "rsk", "--max-d", "3", "--format", "json")
    code, parallel, _ = run(capsys, "verify", "--suite", "rsk", "--max-d", "3",
                            "--format", "json", "--jobs", "2")
    assert code == 0
    assert _payload_without_times(parallel) == _payload_without_times(serial)


def _payload_without_times(out: str) -> dict:
    """The verify JSON payload without the suite's and the checks' times."""
    payload = {k: v for k, v in json.loads(out).items() if k != "wall_time_seconds"}
    payload["checks"] = [{k: v for k, v in c.items() if k != "seconds"} for c in payload["checks"]]
    return payload


@pytest.mark.parametrize("argv", [["kernel", "--d", "2"], ["census", "--n", "1", "--d", "2"],
                                  ["basis", "--n", "1", "--d", "2"], ["check", "x0"],
                                  ["tableaux", "--d", "2"]])
def test_jobs_is_a_verify_only_option(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["census", "--n", "1", "--d", "3", "--cache", "CACHE"],
    ["kernel", "--d", "2", "--cache", "CACHE"],
    ["check", "x0", "--cache", "CACHE"],
    ["tableaux", "--d", "2", "--cache", "CACHE"],
    ["verify", "--suite", "rsk", "--cache", "CACHE"],
    ["kernel", "--d", "2", "--seed", "7"],
    ["basis", "--n", "1", "--d", "2", "--seed", "7"],
    ["census", "--n", "1", "--d", "2", "--seed", "7"],
    ["check", "x0", "--seed", "7"],
    ["tableaux", "--d", "2", "--seed", "7"],
    ["check", "x0", "--format", "csv"],
    ["verify", "--suite", "rsk", "--format", "csv"],
    ["basis", "--n", "1", "--d", "2", "--format", "csv"],
    ["basis", "--n", "1", "--d", "2", "--cache", "CACHE"],
])
def test_flags_are_rejected_where_unread(tmp_path, capsys, argv):
    cache = tmp_path / "cache"
    argv = [str(cache) if a == "CACHE" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not cache.exists()


def test_verify_reads_seed(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "basis", "--max-d", "1", "--max-n", "1",
                       "--seed", "7", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_tableaux_and_kernel_csv(capsys):
    code, out, _ = run(capsys, "tableaux", "--d", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["partition,standard,semistandard", '"(3,)",1,10',
                                '"(2, 1)",2,8', '"(1, 1, 1)",1,1']
    code, out, _ = run(capsys, "kernel", "--d", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["partition,kernel_dim,standard_count", '"(2,)",1,1',
                                '"(1, 1)",1,1']


def _dh(*argv, hash_seed: str | None = None, **kwargs) -> subprocess.CompletedProcess:
    """``dh ARGV`` in a fresh interpreter, with PYTHONHASHSEED set when given."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run([sys.executable, "-m", "diffhom.cli", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


def _verify_kernel_json(jobs: str) -> str:
    """``dh verify --suite kernel`` JSON from a fresh interpreter."""
    return _dh("verify", "--suite", "kernel", "--format", "json", "--jobs", jobs, check=True).stdout


def _without_times(out: str) -> str:
    """The JSON text without the suite's and the checks' times."""
    return "".join(line for line in out.splitlines(keepends=True)
                   if '"wall_time_seconds"' not in line and '"seconds"' not in line)


def test_verify_json_byte_identical_across_runs_and_jobs():
    first = _verify_kernel_json("1")
    assert json.loads(first)["passed"] is True
    expected = _without_times(first)
    assert _without_times(_verify_kernel_json("1")) == expected
    assert _without_times(_verify_kernel_json("2")) == expected


def test_verify_json_reports_each_check_time(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rsk", "--max-d", "3", "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == 0 and checks
    assert all(isinstance(c["seconds"], float) and c["seconds"] >= 0 for c in checks)


def test_check_huge_exponent_answers_quickly():
    # The exponent is added, not multiplied out; a hang fails on the timeout.
    proc = _dh("check", "x0^1000000000", "--format", "json", timeout=20)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["differentially_homogeneous"] is True
    assert payload["degree"] == 1000000000


def test_check_huge_order_answers_quickly():
    # L_1 x0[100000] = 100000 x0[99999] is nonzero: no Taylor parameters are built.
    proc = _dh("check", "x0[100000]", timeout=20)
    assert proc.returncode == 1
    assert proc.stdout.startswith("no: not differentially homogeneous")


@pytest.mark.parametrize("expression", ["x0[100000]*x1[100000]^3", "x0^1000000000*x0[1]",
                                        "x1000000[1000000]", "x0[1000000000]*x1"])
def test_check_huge_order_or_degree_with_a_lowerable_factor_answers_quickly(expression):
    # L_1 is nonzero on all of them, and the codes hold one field per variable
    # whatever its index and order: no code of i * K fields is built
    proc = _dh("check", expression, timeout=20)
    assert proc.returncode == 1
    assert proc.stdout.startswith("no: not differentially homogeneous")


def test_check_huge_variable_index_answers_quickly():
    # the Wronskian of x0 and x1000000000: two fields per variable, not 10^9
    proc = _dh("check", "x1000000000*x0[1] - x0*x1000000000[1]", "--format", "json", timeout=20)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["differentially_homogeneous"] is True
    assert payload["degree"] == 2


def test_check_json_with_a_coefficient_too_long_to_print_exits_2():
    # the verdict is computed, but the echoed input holds an 8000-digit coefficient
    nines = "9" * 4000
    proc = _dh("check", f"{nines}*{nines}*x0", "--format", "json", timeout=20)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith("check: a coefficient has more digits than the interpreter's limit")
    assert len(proc.stderr.splitlines()) == 1
    text = _dh("check", f"{nines}*{nines}*x0", timeout=20)
    assert text.returncode == 0 and text.stdout.startswith("yes")


@pytest.mark.parametrize("expression", ["x0^" + "9" * 5000, "x" + "1" * 5000])
def test_check_overlong_integer_is_a_parse_error(expression):
    # int() refuses strings past the interpreter's digit limit: exit 2, not a traceback
    proc = _dh("check", expression, timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("parse error: integer of 5000 digits is too long (at position")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [("basis", "--n", "2", "--d", "3"),
                                  ("census", "--n", "1", "--d", "5", "--all-k"),
                                  ("kernel", "--d", "4")], ids=" ".join)
def test_json_byte_identical_across_fresh_runs(argv):
    # two interpreters with different string-hash seeds: no output may follow dict or set order
    outs = [_dh(*argv, "--format", "json", hash_seed=seed, check=True).stdout
            for seed in ("1", "2")]
    assert json.loads(outs[0])["schema_version"] == SCHEMA_VERSION
    assert outs[0] == outs[1]


def test_check_at_path_reads_the_file(tmp_path, capsys):
    f = tmp_path / "poly.txt"
    f.write_text("x0*x1[1] - x1*x0[1]\n")
    code, out, err = run(capsys, "check", "@" + str(f))
    assert code == 0 and "degree 2" in out and not err


def test_check_bare_file_name_is_parsed_as_an_expression(tmp_path, capsys, monkeypatch):
    # only @path reads a file: a bare argument is an expression, even when
    # it names a file, so "x0" here is the polynomial x0, not the file "x0"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x0").write_text("x0[1]\n")
    code, out, err = run(capsys, "check", "x0")
    assert code == 0 and out.startswith("yes") and not err
    (tmp_path / "poly.txt").write_text("x0\n")
    code, out, err = run(capsys, "check", "poly.txt")
    assert code == 2 and not out and err.startswith("parse error")


def test_check_binary_file_exits_2_with_or_without_at(tmp_path, capsys):
    f = tmp_path / "poly.bin"
    f.write_bytes(b"x0\xff\xfe[1]\x00")
    code, out, err = run(capsys, "check", "@" + str(f))
    assert code == 2 and not out and err.startswith("cannot read")
    # without '@' the path is parsed as an expression, which it is not
    code, out, err = run(capsys, "check", str(f))
    assert code == 2 and not out and err.startswith("parse error")


def test_check_at_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "check", "@" + str(tmp_path / "missing.txt"))
    assert code == 2 and not out and "missing.txt" in err


def test_check_at_path_reads_a_long_expression(tmp_path, capsys):
    f = tmp_path / "long.txt"
    f.write_text(_long_wronskian_sum())
    code, out, _ = run(capsys, "check", "@" + str(f))
    assert code == 0 and "degree 2" in out


@pytest.mark.parametrize("argv", [["--d", "10"], ["--d", "44", "--k", "0"],
                                  ["--d", "10", "--k", "5"],
                                  ["--d", "1000000000", "--k", "3"],
                                  # few D_T per system (336, 867 and 770 in
                                  # the largest), but many terms per D_T
                                  ["--d", "16", "--k", "3"], ["--d", "12", "--k", "4"],
                                  ["--d", "20", "--k", "3"],
                                  ["--d", "3", "--max-cost", "8"]], ids=" ".join)
def test_kernel_refuses_oversized_input_at_once(capsys, monkeypatch, argv):
    import diffhom.cli as cli

    def no_work(*args):
        raise AssertionError("a refused input must not reach the solver")

    monkeypatch.setattr(cli, "kernel_dim_full", no_work)
    monkeypatch.setattr(cli, "kernel_dim_isotypic", no_work)
    code, out, err = run(capsys, "kernel", *argv)
    assert code == 2 and not out
    assert "more than the cap" in err and "--max-cost" in err


@pytest.mark.parametrize("argv", [["--d", "10", "--k", "0"], ["--d", "15", "--k", "0"],
                                  ["--d", "16", "--k", "0"], ["--d", "16", "--k", "1"],
                                  ["--d", "20", "--k", "1"], ["--d", "14", "--k", "2"]],
                         ids=" ".join)
def test_kernel_runs_inputs_of_few_shapes_at_the_default_cap(capsys, argv):
    # only the q shapes of at most k+1 rows have D_T, so q^2 (at most 576
    # here) and the linear floor p(d) (at most 627) stay under the cap
    code, out, _ = run(capsys, "kernel", *argv, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["full_kernel_dim"] == sum(r["kernel_dim"] * r["standard_count"]
                                             for r in payload["isotypic"])
    assert all(r["kernel_dim"] == 0 for r in payload["isotypic"]
               if len(r["partition"]) > payload["k"] + 1)
    if payload["k"] == 0:
        assert payload["full_kernel_dim"] == 1


def test_kernel_max_cost_overrides_the_cap(capsys, monkeypatch):
    code, out, _ = run(capsys, "kernel", "--d", "3", "--max-cost", "27", "--format", "json")
    assert code == 0 and json.loads(out)["full_kernel_dim"] == 6
    # d = 3, k = 2 solves systems of one D_T (weights 0 and 1), so
    # q^2 = p(3)^2 = 9 is its cost
    assert run(capsys, "kernel", "--d", "3", "--max-cost", "9")[0] == 0
    # d = 8, k = 7 (largest system 6,768 D_T terms), d = 9, k = 5 (51,840)
    # and d = 9, k = 8 (64,224) are within the default cap; d = 10, k = 5
    # (191,808) needs --max-cost
    import diffhom.cli as cli
    monkeypatch.setattr(cli, "kernel_dim_full", lambda d, k: 0)
    monkeypatch.setattr(cli, "kernel_dim_isotypic", lambda lam, k: 0)
    assert run(capsys, "kernel", "--d", "7")[0] == 0
    assert run(capsys, "kernel", "--d", "8")[0] == 0
    assert run(capsys, "kernel", "--d", "9", "--k", "5")[0] == 0
    assert run(capsys, "kernel", "--d", "9")[0] == 0
    assert run(capsys, "kernel", "--d", "10", "--k", "5")[0] == 2
    assert run(capsys, "kernel", "--d", "10", "--k", "5", "--max-cost", "191808")[0] == 0
    assert run(capsys, "kernel", "--d", "10", "--k", "5", "--max-cost", "191807")[0] == 2
    assert run(capsys, "kernel", "--d", "9", "--max-cost", "64224")[0] == 0
    assert run(capsys, "kernel", "--d", "9", "--max-cost", "64223")[0] == 2
    assert run(capsys, "kernel", "--d", "8", "--max-cost", "6768")[0] == 0
    assert run(capsys, "kernel", "--d", "8", "--max-cost", "6767")[0] == 2
    # at k = 0 one shape has D_T (q = 1), so the floor p(9) = 30 is the cost
    assert run(capsys, "kernel", "--d", "9", "--k", "0", "--max-cost", "30")[0] == 0
    assert run(capsys, "kernel", "--d", "9", "--k", "0", "--max-cost", "29")[0] == 2


def test_kernel_d8_at_the_default_cap(capsys):
    # the weights 2w <= 14 solved, the rest read by duality: 40,320 = 8!
    code, out, _ = run(capsys, "kernel", "--d", "8", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["full_kernel_dim"] == 40320
    assert all(r["kernel_dim"] == r["standard_count"] for r in payload["isotypic"])


@pytest.mark.parametrize("d", range(1, 7))
def test_kernel_cost_is_the_largest_system_solved(d, monkeypatch):
    # the D_T of every system the solver builds, one row each, at every
    # k <= d+1, counted by enumeration, times the terms of each D_T before
    # like terms merge, the product of (column length)! over the columns of
    # lam; the cost is the largest, or q^2 if larger (q the shapes with D_T,
    # those of at most min(k, d-1) + 1 rows), or p(d).  Each system built
    # has D_T, and none is built twice under one key of the nullity cache
    import diffhom.cli as cli
    from diffhom import hwv
    from diffhom.tableaux import canonical_tableau, partitions_of, semistandard_tableaux

    built = []
    keys = Counter()
    build = hwv.functional_system

    def counted(lam, k, w):
        rows, ncols = build(lam, k, w)
        d_ts = sum(1 for _ in semistandard_tableaux(lam, k + 1, total=w))
        assert len(rows) == d_ts > 0
        keys[hwv._nullity_key(lam, k, w)] += 1
        columns = canonical_tableau(lam).columns()
        built.append(d_ts * math.prod(math.factorial(len(c)) for c in columns))
        return rows, ncols

    monkeypatch.setattr(hwv, "functional_system", counted)
    for k in range(d + 2):
        built.clear()
        keys.clear()
        formal.clear_solver_caches()
        hwv.kernel_dim_full(d, k)
        assert max(keys.values()) == 1, k
        shapes = [lam for lam in partitions_of(d)
                  if any(semistandard_tableaux(lam, min(k, d - 1) + 1))]
        assert cli.kernel_cost(d, k, 10 ** 9) == max(len(partitions_of(d)), len(shapes) ** 2,
                                                     *built), k


def test_kernel_cost_counts_partitions_without_building_them():
    # the p(d) floor of kernel_cost, from Euler's pentagonal recurrence
    import diffhom.cli as cli
    from diffhom.tableaux import partitions_of

    counts = list(itertools.islice(cli._partition_counts(), 31))
    assert counts[0] == 1 and counts[1:] == [len(partitions_of(n)) for n in range(1, 31)]
    assert cli.kernel_cost(44, 0, 2 ** 16) == 75175 and cli.kernel_cost(43, 0, 2 ** 16) == 63261


@pytest.mark.parametrize("d, k, full", [("5", "40", 120), ("3", "1000000000", 6)])
def test_kernel_with_a_large_k_costs_as_k_is_d_minus_1(capsys, d, k, full):
    # every kernel vector has indices <= d-1, so --k 40 solves the k = 4
    # systems, and a huge --k reads no weight above d(d-1)
    code, out, _ = run(capsys, "kernel", "--d", d, "--k", k)
    assert code == 0 and f"full tensor power: {full}\n" in out


@pytest.mark.parametrize("argv", [["kernel", "--d", "2", "--max-cost", "0"],
                                  ["kernel", "--d", "2", "--max-cost", "-5"]])
def test_kernel_rejects_nonpositive_max_cost(capsys, argv):
    assert "--max-cost" in refused_by_parser(capsys, *argv)


@pytest.mark.parametrize("argv", [["check", "x0"], ["verify", "--suite", "rsk"],
                                  ["tableaux", "--d", "2"]], ids=lambda argv: argv[0])
def test_max_cost_is_refused_where_unread(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-cost", "5"])
    assert exc.value.code == 2
    assert "--max-cost" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["basis", "--n", "1", "--d", "11"],
                                  ["basis", "--n", "2", "--d", "7"],
                                  ["census", "--n", "1", "--d", "13"],
                                  ["census", "--n", "2", "--d", "9", "--theorem2"],
                                  ["census", "--n", "2", "--d", "1000000000"],
                                  ["census", "--n", "1000000000", "--d", "1000000000"],
                                  ["census", "--n", "0", "--d", "56"],
                                  ["basis", "--n", "1", "--d", "3", "--max-cost", "7"]],
                         ids=" ".join)
def test_basis_and_census_refuse_oversized_input_at_once(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "more than the cap" in err and "--max-cost" in err


def test_basis_and_census_max_cost_overrides_the_cap(capsys, monkeypatch):
    # (1, 4) costs 2^4 = 16 = d^2; (1, 3) costs d^2 = 9, above 2^3
    code, out, _ = run(capsys, "census", "--n", "1", "--d", "4", "--max-cost", "16",
                       "--format", "json")
    assert code == 0 and json.loads(out)["entries"]
    assert run(capsys, "basis", "--n", "1", "--d", "4", "--max-cost", "16")[0] == 0
    assert run(capsys, "census", "--n", "1", "--d", "4", "--max-cost", "15")[0] == 2
    assert run(capsys, "census", "--n", "1", "--d", "3", "--max-cost", "8")[0] == 2
    assert run(capsys, "census", "--n", "5", "--d", "0")[0] == 0
    # (1, 10) is within the basis cap, and (4, 5) (246 Wronskians, one
    # multiplicity vector per partition of 5) within the census cap
    import diffhom.cli as cli
    monkeypatch.setattr(cli, "enumerate_canonical_basis", lambda n, d: ())
    monkeypatch.setattr(cli, "census", lambda n, d, k: [])
    assert run(capsys, "basis", "--n", "1", "--d", "10")[0] == 0
    assert run(capsys, "basis", "--n", "1", "--d", "11", "--max-cost", "2048")[0] == 0
    assert run(capsys, "census", "--n", "4", "--d", "5")[0] == 0
    assert run(capsys, "census", "--n", "1", "--d", "12", "--max-cost", "4096")[0] == 0
    assert run(capsys, "census", "--n", "0", "--d", "55")[0] == 0


def test_census_cost_counts_one_multiplicity_vector_per_partition():
    # sum over lam |- d with at most N+1 parts of d!/prod lam_i!, or d^2
    assert [census_cost(1, d, 10 ** 6) for d in range(9)] == [1, 1, 4, 9, 16, 25, 42, 64, 163]
    assert census_cost(20, 6, 10 ** 6) == 1 + 6 + 15 + 30 + 20 + 60 + 120 + 90 + 180 + 360 + 720
    assert census_cost(0, 55, 10 ** 6) == 55 ** 2
    # past the cap the sum stops, so a huge d or N is refused at once
    assert census_cost(1, 10 ** 9, 10 ** 20) > 10 ** 20
    assert census_cost(10 ** 9, 10 ** 9, 10 ** 4) > 10 ** 4


def test_census_help_names_the_measure_it_caps(capsys):
    # --max-cost caps what census_cost counts, not the (N+1)^d basis size
    with pytest.raises(SystemExit) as exc:
        main(["census", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert exc.value.code == 0
    assert "the Wronskians of the multiplicity vectors that are partitions of d" in help_text
    assert "(N+1)^d" not in help_text


def test_census_n20_d6_runs_within_the_default_cap(capsys):
    code, out, err = run(capsys, "census", "--n", "20", "--d", "6", "--all-k", "--format", "json")
    assert code == 0 and not err
    totals = Counter()
    for e in json.loads(out)["entries"]:
        totals[e["k"]] += e["count"]
    assert totals[0] == math.comb(26, 6)
    assert totals[5] == 21 ** 6 == 85_766_121


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_basis_coefficient_beyond_the_digit_limit_exits_2(fmt):
    # at N = 0, d = 100 the one Wronskian has the coefficient prod_{j<100} j!,
    # beyond the interpreter's 4,300-digit limit on int-to-str conversion
    proc = _dh("basis", "--n", "0", "--d", "100", "--max-cost", "10000", "--format", fmt,
               timeout=60)
    assert proc.returncode == 2 and not proc.stdout
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("basis --n 0 --d 100: a coefficient has more digits than "
                                  f"the interpreter's limit of {sys.get_int_max_str_digits()} "
                                  "for int-to-str conversion")


@pytest.mark.parametrize("argv", [["basis", "--n", "1", "--d", "2", "--max-cost", "0"],
                                  ["census", "--n", "1", "--d", "2", "--max-cost", "-5"]])
def test_basis_and_census_reject_nonpositive_max_cost(capsys, argv):
    assert "--max-cost" in refused_by_parser(capsys, *argv)


# The floor of every int option of every subcommand; --seed takes any int.
FLOORS = {"basis": {"--n": 0, "--d": 1, "--max-cost": 1},
          "check": {"--n": 0},
          "census": {"--n": 0, "--d": 0, "--k": 0, "--max-cost": 1},
          "tableaux": {"--d": 1, "--n": 1},
          "kernel": {"--d": 1, "--k": 0, "--max-cost": 1},
          "verify": {"--max-d": 1, "--max-n": 0, "--jobs": 1}}
# A valid command line of each subcommand, which the flag under test follows.
VALID = {"basis": ["--n", "1", "--d", "2"], "check": ["x0"], "census": ["--n", "1", "--d", "2"],
         "tableaux": ["--d", "2"], "kernel": ["--d", "2"], "verify": ["--suite", "rsk"]}


def test_every_int_option_is_range_checked_by_the_parser(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = [(name, action.option_strings[0])
               for name, subparser in commands.choices.items() for action in subparser._actions
               if getattr(action.type, "__name__", None) == "int"
               and action.option_strings != ["--seed"]]
    assert sorted(options) == sorted((name, flag) for name, floors in FLOORS.items()
                                     for flag in floors)
    for name, flag in options:
        floor = FLOORS[name][flag]
        err = refused_by_parser(capsys, name, *VALID[name], flag, str(floor - 1))
        assert f"argument {flag}: must be at least {floor}, got {floor - 1}" in err
        assert err.startswith("usage: ")
        err = refused_by_parser(capsys, name, *VALID[name], flag, "x")
        assert f"argument {flag}: invalid int value: 'x'" in err
        parser.parse_args([name, *VALID[name], flag, str(floor)])


def test_check_with_a_negative_variable_bound_exits_2_without_a_traceback():
    proc = _dh("check", "5", "--n", "-1", timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --n: must be at least 0" in proc.stderr and "Traceback" not in proc.stderr


def test_no_command_range_checks_an_int_flag():
    # Range checks live in the parser (cli._at_least): no cmd_* body compares
    # an args.<flag> with an int literal.
    import diffhom.cli as cli

    def is_flag(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args")

    def is_int(node):
        if isinstance(node, ast.UnaryOp):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    found = []
    for fn in ast.parse(Path(cli.__file__).read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_"):
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if any(map(is_flag, operands)) and any(map(is_int, operands)):
                        found.append((fn.name, ast.unparse(node)))
    assert found == []


def test_tableaux_refuses_oversized_input_at_once():
    # p(100) = 190,569,292 shapes; the cost stops at the first p(n) past the cap
    proc = _dh("tableaux", "--d", "100", timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("tableaux --d 100 costs more than the cap of ")
    assert "--max-cost" not in proc.stderr


def test_partition_count_stops_past_the_cap():
    import diffhom.cli as cli
    assert cli.partition_count(100, 10 ** 9) == 190569292
    assert [cli.partition_count(d, 10 ** 9) for d in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert cli.partition_count(100, 1000) == 1002  # p(22), the first p(n) above 1000
