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
    "sweep-ex5-empirical": ["sweep", "--target", "ex5", "--param", "n", "--lo", "5", "--hi", "13",
                            "--points", "3", "--tol", "0.25", "--step", "0.1", "--horizon", "121",
                            "--predicate", "empirical"],
    # The table's runs are columns of one run where the swept value leaves
    # the sites alone, and each its own run where it moves a lag (sigma).
    "sweep-eq3abc-empirical": ["sweep", "--target", "eq3abc", "--param", "a", "--lo", "0.25",
                               "--hi", "0.8", "--set", "b=0.2", "--points", "4", "--tol", "0.02",
                               "--step", "0.05", "--horizon", "50", "--predicate", "empirical"],
    "sweep-ex51-r-empirical": ["sweep", "--target", "ex51", "--param", "r", "--lo", "3",
                               "--hi", "9", "--set", "sigma=1.2", "--points", "3", "--tol", "0.2",
                               "--step", "0.05", "--horizon", "40", "--predicate", "empirical"],
    "sweep-ex51-sigma-empirical": ["sweep", "--target", "ex51", "--param", "sigma", "--lo", "0.8",
                                   "--hi", "1.6", "--points", "3", "--tol", "0.02", "--step", "0.05",
                                   "--horizon", "40", "--predicate", "empirical"],
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
