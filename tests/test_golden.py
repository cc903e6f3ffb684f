"""Byte-level output contract: JSON of fixed commands, and the text of two
``basis`` commands, pinned by sha256.

The first eight digests were recorded before the sparse-row linear-algebra
refactor, the ``verify --suite basis``, ``verify --suite jets`` and
``check 'x0*x1[1] - x1*x0[1]'`` digests before the sparse linear-combination
core (``exact.SparseComb``) replaced the per-class arithmetic, and the
``check 'x0[1]'`` and ``check 'x0*x1[2] - x1*x0[2]'`` digests (two
non-examples, exit code 1) before the derivation test replaced the formal
Taylor-data substitution in ``is_diff_homogeneous``, and the ``verify --suite
hwv`` digest (default caps, ``d <= 4``) before the weight, unipotent,
functional-equation and Leibniz checks dropped formal parameters for
derivations over Q, and the three ``census --n 1`` digests at ``d = 6`` and
at ``d = 4``, ``k = 6`` before one pivot profile per weight block replaced
the per-order eliminations and the count of whole blocks at ``k >= d-1``, and
the ``verify --suite basis`` digest (default caps, ``d <= 4``, so it holds
the ``(2, 4)`` GL-stability check) before the integer, order-graded
``matrix_action`` replaced the ring substitution, and the ``check @FILE``
digest of a rational combination of ``(2, 3)`` basis elements before the
factor-level parser and the integer ``L_m`` test, and the ``kernel --d 5``
and ``kernel --d 6 --k 2`` digests before the functional equation on the
``D_T`` replaced the Young-subgroup multiplicities, and the ``verify --suite
pde --max-d 5`` digest before the Artin-staircase witness replaced the rank of
every Vandermonde derivative; a change to the library that keeps every result
must keep them.  The two ``verify --suite basis`` digests were re-recorded
when the Lie-algebra certificate ``basis_gl_lie`` replaced the five random
matrices of ``basis_gl_stability``; with those entries dropped, the output
before and after hashed alike (``09e61d48...`` at the default caps,
``58e1909d...`` at ``--max-d 3``), so every other check kept its bytes.  The
``kernel --d 7`` digest was recorded before the multiplicities of the upper
weights at ``k = d-1`` were read by Poincaré duality, and the ``census
--n 3 --d 4 --all-k`` and ``census --n 2 --d 5 --theorem2`` digests before
the census eliminated one multidegree per partition of d and credited it to
every rearrangement, and the ``verify --suite rsk`` and ``verify --suite
appendixA --max-d 5`` digests before ``kostka`` removed horizontal strips and
the ``appendixA`` checks walked their tuples as prefix trees, and the
``verify --suite hwv --max-d 5`` digest (which pins ``e_iso_injective`` and
``symmetrizer_scalar`` at ``d = 5``) before the Young symmetrizers, tableau
tensors and ``e_iso`` images moved to integer coefficients, and the
``kernel --d 7 --k 5`` digest (below ``k = d-1``, so every weight up to the
middle one is solved, with no duality reading) before the multiplicity
solver ranked one row per ``D_T`` image instead of one row per image
monomial, and the ``census --n 1 --d 9 --all-k`` and ``census --n 2 --d 6
--theorem2`` digests before the census rows moved to an order-major code
layout whose columns sort as plain ints and whose pivot orders are read
from the top field of each code.  The
``wall_time_seconds`` field of ``verify`` and the ``seconds`` field of each
of its checks are dropped before hashing.
"""

import hashlib
import json
import shlex

from fractions import Fraction

import pytest

from diffhom.cli import main
from diffhom.dpoly import DiffPoly, gradings, to_text
from diffhom.wronskian import enumerate_canonical_basis

GOLDEN = {
    "kernel --d 4":
        "3e4a9e49e9c9ac36a1cb43e6dbd8678d7657e6717f0465d87f8432acc9aace35",
    "kernel --d 5":
        "4d44b36692cd697abe2e566c1349bb11b6f7bb37bfb3b8e0db5cf74caa7811fb",
    "kernel --d 6 --k 2":
        "d8e1645cbc9ece060891e3b597f108d60e30a7c3f5b6935be72f96d014e8e1de",
    "kernel --d 7":
        "53734274eddee2d2aef26c571c2298b92e373dd5444f07328995dff47b8235a1",
    "kernel --d 7 --k 5":
        "dd6ae329d38975fe46cd1756c79646f50ba4fc73e33b1f761bf6d18b9855ad87",
    "census --n 1 --d 5 --all-k":
        "172002e784485197a3e7a71603ef2197ed22add94ddf814d0186716a4e367ceb",
    "census --n 2 --d 3 --theorem2":
        "10fc16c0f67588e4f64919ff32b34199c1051ffbdd6bcc44041db750218d75ad",
    "basis --n 2 --d 3":
        "f5d51ce75adcab021b7d834a0d9bd6042202a9e5f8bb3f56cb8a0d0c48e9e56d",
    "verify --suite kernel":
        "256add1609499ef98ae0d0ff923f8aa55713e0b15a32e6e9cefd4b91a1d90666",
    "verify --suite pde":
        "90452b4f833ef6cc0ad421761a942cc2d673a33a662d878ad0fb461ea2e4b5f7",
    "verify --suite pde --max-d 5":
        "ee7b4e4ca14c83505bc56e87bc7a544f6ad89a82c773a1a588677ffd8fea6293",
    "verify --suite appendixA":
        "b6cc1a5e10056b1e77a4d681a4bd82aa8a03e5af8c8cf269fd9d2170d7e8f695",
    "verify --suite hwv --max-d 3":
        "08efec92d630e7a63b696a155826b5b2c807ed2bbf69e790d526505d8de429af",
    "verify --suite hwv":
        "efdb11b291f6e1ace08e40f32dcad8d464b89f06468269170e64d3bded95ea85",
    "verify --suite hwv --max-d 5":
        "585369ae1a31d0f107281a82621a78fa85461201956c9136af2ab5241e7b2ba8",
    "verify --suite basis":
        "732d7971baf7d2cc146fc92e55261d48304e4f97eef6db0d630c58a4a16f36c1",
    "verify --suite basis --max-d 3":
        "f396888dfde2f577ee6e24ab206ab8bf3f9ed8a2888bb57ceb0432ab86198321",
    "verify --suite jets":
        "d2461b51da6c9032626a62954e5a208a2b4e5d6aaadb699015c3863c172e6676",
    "check 'x0*x1[1] - x1*x0[1]'":
        "2d3fba25204d026fe7e7dd89998c595940a5feaa8ad546ad45ea5aaa9d138379",
    "check 'x0[1]'":
        "da3028344914fcff7b2b0c68b231e4cb41f14c037312d96d3a291e0f0e85e053",
    "check 'x0*x1[2] - x1*x0[2]'":
        "25ff51880265da7bec1bc5fe821cb2f149dceb64af5cc6bc600166819a9b2e04",
    "census --n 1 --d 6 --all-k":
        "167a76abfde2c2bd2ea61c61dedc0af49c4caef582cd40e6aa278a8ac3782fc3",
    "census --n 1 --d 6 --theorem2":
        "f5af6971f46059a9ae9922e3c324c9a10ad0784f101859346e90dfa3780aaf01",
    "census --n 1 --d 4 --k 6":
        "24b22f2302edd850a78f65941dc4fdd20df4e35bd2c417618ce96947d9a3cb58",
    "census --n 3 --d 4 --all-k":
        "6f15e34ded07f52a6b80baec105896aa65ab5f789fd59f00c6c05d11207d8ac1",
    "census --n 2 --d 5 --theorem2":
        "65c13294bb74e3f496dc54c51f3e097d43a8c247dd5c3e7500fbff38d0294699",
    "verify --suite rsk":
        "5feb9154d11472af2309232bdcb7cf8a1c1bc432e3b65feb23cc7597d9231d56",
    "verify --suite appendixA --max-d 5":
        "c1a192bf3c8b54701c012c4944bb959136fa4de775e3911f8378bc7d428c1f74",
    "census --n 1 --d 9 --all-k":
        "df34d09f8723fcc1e4366699059bfddf8a0ff27b7b92bc9bc4c4bbd666ac324e",
    "census --n 2 --d 6 --theorem2":
        "5db48385aa93cb76a54b42246de93b90001a4a0bc9e7c38d1e68c5d0bbddfdcd",
}

# Exit codes other than 0: ``check`` exits 1 on a non-example.
EXIT_CODES = {"check 'x0[1]'": 1, "check 'x0*x1[2] - x1*x0[2]'": 1}

# sha256 of the raw bytes of the text output, recorded while ``dh basis``
# still printed each element from its JSON manifest entry.
TEXT_GOLDEN = {
    "basis --n 2 --d 3":
        "ed26b00ef6eb64a77c6007f8da7656fba2f7b239e716aefe9efe32af2375e0a0",
    "basis --n 1 --d 5":
        "6518346ac95727464128bf0479a22086e1126ee3122620c0d4cd96d90138dc28",
}




def _digest(argv, capsys) -> tuple[int, str]:
    code = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    payload.pop("wall_time_seconds", None)
    for check in payload.get("checks", ()):
        check.pop("seconds")
    return code, hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_json_output_digest(command, capsys):
    code, digest = _digest(shlex.split(command), capsys)
    assert code == EXIT_CODES.get(command, 0)
    assert digest == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(TEXT_GOLDEN))
def test_text_output_digest(command, capsys):
    assert main(shlex.split(command)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == TEXT_GOLDEN[command]


def test_check_file_digest(tmp_path, capsys):
    # the eight weight-2 elements of (2, 3) with alternating rational
    # coefficients, plus the weight-3 element: degree 3, not isobaric
    basis = [poly for _, poly in enumerate_canonical_basis(2, 3)]
    p = DiffPoly.zero(2)
    for j, poly in enumerate(q for q in basis if gradings(q).weight == 2):
        p = p + poly.scale(Fraction((-1) ** j * (2 * j + 1), j + 2))
    p = p + next(q for q in basis if gradings(q).weight == 3)
    path = tmp_path / "poly.txt"
    path.write_text(to_text(p) + "\n", encoding="utf-8")
    assert _digest(["check", "@" + str(path)], capsys) == (
        0, "56e377a480cc69ae4627ef5a3a1329052b19fa4f2588d9f9c4a90b64d9235d2c")
