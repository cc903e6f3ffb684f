"""Command line interface: output formats, exit codes, cache, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diffhom import SCHEMA_VERSION
from diffhom.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_json(capsys):
    code, out, _ = run(capsys, "basis", "--n", "1", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["count"] == 4
    assert len(payload["basis"]) == 4
    entry = payload["basis"][0]
    assert set(entry) == {"m", "alpha", "order", "weight", "poly"}


def test_basis_text_counts(capsys):
    code, out, _ = run(capsys, "basis", "--n", "0", "--d", "3")
    assert code == 0
    assert "1 elements" in out
    code, out, _ = run(capsys, "basis", "--n", "2", "--d", "1")
    assert code == 0
    assert out.count("m=") == 3


def test_basis_rejects_bad_arguments(capsys):
    code, _, err = run(capsys, "basis", "--n", "1", "--d", "0")
    assert code == 2 and "basis requires" in err


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
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0 and "degree 1" in out


def test_check_parse_error(capsys):
    code, _, err = run(capsys, "check", "x0[")
    assert code == 2
    assert "parse error" in err


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


def test_tableaux_output(capsys):
    code, out, _ = run(capsys, "tableaux", "--d", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["partitions"]) == 5
    assert sum(r["standard"] ** 2 for r in payload["partitions"]) == 24


def test_kernel_output(capsys):
    code, out, _ = run(capsys, "kernel", "--d", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["full_kernel_dim"] == 6
    assert all(r["kernel_dim"] == r["standard_count"] for r in payload["isotypic"])


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


def test_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("basis", "--n", "1", "--d", "2", "--format", "json", "--cache", str(cache))
    _, out1, _ = run(capsys, *args)
    files = list(cache.glob("basis_N1_d2_v*.json"))
    assert len(files) == 1
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_cache_recovers_from_corruption(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("basis", "--n", "0", "--d", "2", "--format", "json", "--cache", str(cache))
    _, out1, _ = run(capsys, *args)
    path = next(cache.glob("*.json"))
    payload = json.loads(path.read_text())
    payload["basis"] = []
    path.write_text(json.dumps(payload))
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_cache_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DH_CACHE", str(tmp_path / "envcache"))
    code, _, _ = run(capsys, "basis", "--n", "0", "--d", "1", "--format", "json")
    assert code == 0
    assert list((tmp_path / "envcache").glob("*.json"))


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


def test_cache_write_is_atomic(tmp_path, capsys, monkeypatch):
    import diffhom.cli as cli
    from pathlib import Path

    cache = tmp_path / "cache"
    args = ("basis", "--n", "0", "--d", "2", "--format", "json", "--cache", str(cache))
    _, out1, _ = run(capsys, *args)
    path = next(cache.glob("*.json"))

    def write_half_then_fail(self, data, *a, **kw):
        with open(self, "w") as fh:
            fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError):
        cli._write_atomic(path, path.read_text().replace("basis", "BASIS"))
    assert list(cache.iterdir()) == [path]

    def no_recompute(n, d):
        raise AssertionError("the cached entry should have been read back")

    monkeypatch.setattr(cli, "basis_manifest", no_recompute)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_nonpositive_jobs(capsys, jobs):
    code, out, err = run(capsys, "verify", "--suite", "rsk", "--max-d", "2", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs" in err


def test_verify_two_jobs(capsys):
    _, serial, _ = run(capsys, "verify", "--suite", "rsk", "--max-d", "3", "--format", "json")
    code, parallel, _ = run(capsys, "verify", "--suite", "rsk", "--max-d", "3",
                            "--format", "json", "--jobs", "2")
    assert code == 0
    strip = lambda s: {k: v for k, v in json.loads(s).items() if k != "wall_time_seconds"}
    assert strip(parallel) == strip(serial)


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


def _verify_kernel_json(jobs: str) -> str:
    """``dh verify --suite kernel`` JSON from a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "diffhom.cli", "verify", "--suite", "kernel",
                           "--format", "json", "--jobs", jobs],
                          capture_output=True, text=True, env=env, check=True).stdout


def _without_wall_time(out: str) -> str:
    return "".join(line for line in out.splitlines(keepends=True)
                   if '"wall_time_seconds"' not in line)


def test_verify_json_byte_identical_across_runs_and_jobs():
    first = _verify_kernel_json("1")
    assert json.loads(first)["passed"] is True
    expected = _without_wall_time(first)
    assert _without_wall_time(_verify_kernel_json("1")) == expected
    assert _without_wall_time(_verify_kernel_json("2")) == expected
