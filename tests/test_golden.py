"""Byte-level output contract: JSON of fixed commands, pinned by sha256.

The first eight digests were recorded before the sparse-row linear-algebra
refactor, and the ``verify --suite basis``, ``verify --suite jets`` and
``check`` digests before the sparse linear-combination core
(``exact.SparseComb``) replaced the per-class arithmetic; a change to the
library that keeps every result must keep them.  The ``wall_time_seconds``
field of ``verify`` is dropped before hashing.
"""

import hashlib
import json
import shlex

import pytest

from diffhom.cli import main

GOLDEN = {
    "kernel --d 4":
        "3e4a9e49e9c9ac36a1cb43e6dbd8678d7657e6717f0465d87f8432acc9aace35",
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
    "verify --suite appendixA":
        "b6cc1a5e10056b1e77a4d681a4bd82aa8a03e5af8c8cf269fd9d2170d7e8f695",
    "verify --suite hwv --max-d 3":
        "08efec92d630e7a63b696a155826b5b2c807ed2bbf69e790d526505d8de429af",
    "verify --suite basis --max-d 3":
        "abe9a68903ecb532560c3cc5d258bf3283bd1f51e10426be2b26227325480fa1",
    "verify --suite jets":
        "d2461b51da6c9032626a62954e5a208a2b4e5d6aaadb699015c3863c172e6676",
    "check 'x0*x1[1] - x1*x0[1]'":
        "2d3fba25204d026fe7e7dd89998c595940a5feaa8ad546ad45ea5aaa9d138379",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_json_output_digest(command, capsys):
    code = main(shlex.split(command) + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    payload.pop("wall_time_seconds", None)
    blob = json.dumps(payload, sort_keys=True).encode()
    assert code == 0
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[command]
