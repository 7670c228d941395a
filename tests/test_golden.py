"""Byte-identity of the default command outputs.

Each case runs one ``ddestab`` command and hashes every file it writes,
with the ``generated_at`` line removed. The digests in
``golden_outputs.json`` pin the outputs exactly; a change that alters an
output on purpose (a defect fix) regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its change notes.
"""

import hashlib
import json
import os
import tempfile

import pytest

from ddestab import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")

_SWEEP = ["sweep", "--target", "eq3", "--param", "b", "--lo", "0.2", "--hi", "0.45",
          "--points", "3", "--tol", "1e-3", "--step", "0.05"]
_SWEEP_EX5 = ["sweep", "--target", "ex5", "--param", "n", "--lo", "5", "--hi", "9",
              "--points", "3", "--tol", "0.05", "--step", "0.1", "--horizon", "121"]

CASES = {
    **{"check-" + name: ["check", "--target", name]
       for name in ("eq3", "eq26", "eq27", "eq3abc", "ex51", "ex5")},
    "simulate-eq26": ["simulate", "--target", "eq26"],
    "simulate-ex51": ["simulate", "--target", "ex51"],
    "sweep-certificate": _SWEEP + ["--predicate", "certificate"],
    "sweep-empirical": _SWEEP + ["--predicate", "empirical"],
    "sweep-ex5-certificate": _SWEEP_EX5 + ["--predicate", "certificate"],
    **{"reproduce-" + name: ["reproduce", name]
       for name in ("example1", "example2", "example2a", "example5", "fig1", "fig1a", "fig2")},
}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        lines = [line for line in fh.read().splitlines(keepends=True)
                 if not line.lstrip().startswith(b'"generated_at"')]
    return hashlib.sha256(b"".join(lines)).hexdigest()


def run_case(argv, out: str) -> dict:
    """Exit code plus file name -> digest for one command."""
    code = cli.main(argv + ["--out", out])
    digests = {name: _digest(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    return {"exit": code, "files": digests}


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_outputs_are_byte_identical(case, tmp_path):
    with open(GOLDEN) as fh:
        expected = json.load(fh)[case]
    assert run_case(CASES[case], str(tmp_path)) == expected


def _regenerate() -> None:
    golden = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as out:
            golden[case] = run_case(CASES[case], out)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    _regenerate()
