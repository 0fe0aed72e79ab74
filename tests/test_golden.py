"""Golden regression: byte-exact CLI documents for one input per certificate case.

``data/golden_cli.json`` holds the exit code and stdout of
``lieode symmetries|recover ODE --json-only`` for five equations: the
maximal ``y'' = 0`` (trivial), the README constant-coefficient example,
``y''' + x*y = 0`` (nonconstant coefficients), and two negative controls.
It pins structure constants, derived-algebra data, recovered classes and
action matrices, so any change to an exact answer shows up here.  For each
equation it also holds ``recover ODE --json-only --dump-detsys
--dump-involutive``, which pins the determining and involutive systems.
A sixteenth case, ``symmetries "y'' - y/x^4 = 0" --json-only``, pins an
8-dimensional algebra computed at a point other than the origin (x = 0 is
singular there, so the automatic point is (1, 1)).  A seventeenth case,
``recover "y'' = y/(1+y')^2" --json-only --dump-detsys --dump-involutive``,
pins the determining system of an equation whose denominator has a repeated
jet factor: multiplying the invariance condition by Q^2 instead of Q times
the squarefree part of Q would change it.
"""
import contextlib
import io
import json
import pathlib

import pytest

from lieode.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden_cli.json")
                    .read_text(encoding="utf-8"))["cases"]


def _case_id(case):
    return " ".join(a for a in case["argv"] if a != "--json-only")


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_cli_output_matches_golden(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(case["argv"]))
    assert code == case["exit_code"]
    assert out.getvalue() == case["stdout"]
