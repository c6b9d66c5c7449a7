"""The bytes of `suite full --seed 11`, pinned on the stack that made them.

tests/data/suite-full-seed11.jsonl holds the rows of

    pvzeta suite full --seed 11 --out tests/data/suite-full-seed11.jsonl

and suite-full-seed11.versions.json the numpy and scipy versions and the
machine they were made on.  Elsewhere the last bits of a row may move
with the BLAS and the vector math of the stack, so the test skips there.
A change that moves a bit on purpose rewrites the file with that command
and lists the rows that moved in CHANGES.md.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from pvzeta import cli

DATA = Path(__file__).resolve().parent / "data"


def test_suite_full_rows_keep_their_bytes(tmp_path):
    made_on = json.loads((DATA / "suite-full-seed11.versions.json").read_text())
    here = {"numpy": np.__version__, "scipy": scipy.__version__, "machine": platform.machine()}
    other = {key: (made_on[key], here[key]) for key in here if here[key] != made_on[key]}
    if other:
        pytest.skip(f"rows made on another stack (made on, here): {other}")
    out = tmp_path / "rows.jsonl"
    assert cli.main(["suite", "full", "--seed", "11", "--out", str(out)]) == 0
    want = (DATA / "suite-full-seed11.jsonl").read_bytes().splitlines()
    got = out.read_bytes().splitlines()
    moved = [json.loads(row)["check"] for row, ref in zip(got, want) if row != ref]
    assert len(got) == len(want) and not moved, (len(got), len(want), moved)
