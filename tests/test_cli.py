"""Command-line interface: exit codes, JSON payloads, error reporting."""
import contextlib
import io
import json
import sys
import time

import pytest

import lieode.cli
from lieode.cli import (EXIT_INPUT_ERROR, EXIT_INTERNAL, EXIT_LINEARIZABLE,
                        EXIT_NEGATIVE, main)

CONSTANT_EXAMPLE = "y''' + 3*y'*y'' + (y')^3 - 2*(y'' + (y')^2) + y' = 0"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run(*argv + ("--json-only",))
    return code, json.loads(out), err


# -- exit codes -----------------------------------------------------------------------


def test_exit_zero_for_linearizable():
    assert run("certify", "y'' = 0")[0] == EXIT_LINEARIZABLE == 0


def test_exit_one_for_negative():
    assert run("certify", "y'' = y^2")[0] == EXIT_NEGATIVE == 1


def test_exit_two_for_quasilinear_violation():
    code, _, err = run("certify", "(y'')^2 = y")
    assert code == EXIT_INPUT_ERROR == 2
    assert "nonlinear in its highest derivative" in err


def test_exit_two_for_parse_garbage():
    assert run("certify", "y'' + = 0")[0] == 2
    assert run("certify", "z'' = 0")[0] == 2
    code, _, err = run("certify", "y'' = y''")
    assert code == 2 and "reduces to 0 = 0" in err


def test_degree_past_the_bound_is_an_input_error_not_a_verdict():
    # total degrees stop below 2^31; a large degree under it is a verdict
    code, _, err = run("certify", "y''=y^2147483648")
    assert code == 2 and "below 2^31" in err
    assert run("certify", "y''=y^40000")[0] == 1


def test_exit_two_with_usage_errors():
    assert run()[0] == 2
    assert run("nonsense")[0] == 2
    assert run("equiv", "1,0")[0] == 2


def test_deep_nesting_is_an_input_error_not_a_verdict():
    # input nested beyond the parser's limit is the caller's error; it must
    # never surface as exit code 1, which reads as "not linearizable"
    code, _, err = run("certify", "y'' = " + "(" * 200 + "y" + ")" * 200)
    assert code == 2
    assert "nest at most" in err
    code, _, err = run("oracle", "--poly", "0,0,1",
                       "--psi", "exp(" * 400 + "y" + ")" * 400, "--phi", "x")
    assert code == 2
    assert "nest at most" in err


def test_superscript_digit_is_an_input_error_in_every_command():
    # "²" passes str.isdigit but is no integer literal; it is reported at
    # its position, never as an internal error
    for command in ("certify", "recover", "symmetries"):
        code, out, err = run(command, "y''=y^²")
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == "error: expected an integer exponent (at position 6)\n"
    for psi, phi in (("y^²", "x"), ("y", "x^²")):
        code, out, err = run("oracle", "--poly", "0,0,1", "--psi", psi,
                             "--phi", phi)
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert "(at position 2)" in err


def _raiser(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("exc", [ArithmeticError("inexact polynomial division"),
                                 ZeroDivisionError("division by zero"),
                                 RecursionError("maximum recursion depth"),
                                 ValueError("not a constant polynomial")])
def test_engine_crash_in_analysis_is_exit_three(monkeypatch, exc):
    # a crash must never read as exit code 1, "not linearizable"
    monkeypatch.setattr(lieode.cli, "analyze", _raiser(exc))
    for command in ("certify", "recover", "symmetries"):
        code, out, err = run(command, "y'' = 0")
        assert code == EXIT_INTERNAL == 3
        assert out == ""
        assert err.startswith("internal error: ")


@pytest.mark.parametrize("exc", [ArithmeticError("inexact polynomial division"),
                                 ValueError("not a constant polynomial"),
                                 RecursionError("maximum recursion depth")])
def test_engine_crash_in_oracle_is_exit_three(monkeypatch, exc):
    monkeypatch.setattr(lieode.cli, "push_linear", _raiser(exc))
    code, out, err = run("oracle", "--poly", "0,0,1", "--psi", "exp(y)",
                         "--phi", "x")
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: %s\n" % exc


def test_long_minus_run_is_not_nesting():
    # 3000 minus signs cancel: the equation is y'' = y
    code, out, _ = run("certify", "y'' = " + "-" * 3000 + "y", "--json-only")
    assert code == 0
    assert (code, out) == run("certify", "y'' = y", "--json-only")[:2]


# -- json contract --------------------------------------------------------------------


def test_json_output_is_byte_deterministic():
    first = run("recover", CONSTANT_EXAMPLE, "--json-only")
    second = run("recover", CONSTANT_EXAMPLE, "--json-only")
    assert first == second
    assert first[2] == ""          # --json-only silences the summary
    code, out, err = run("recover", CONSTANT_EXAMPLE)
    assert out == first[1]         # the summary goes to stderr only
    assert err != ""


def test_certify_payload():
    code, doc, _ = run_json("certify", "y'' = 0")
    assert code == 0
    assert doc == {"case": "trivial", "derived_abelian": False,
                   "derived_dimension": 8, "m": 8, "n": 2,
                   "verdict": "linearizable"}


def test_recover_payload_constant_case():
    code, doc, _ = run_json("recover", CONSTANT_EXAMPLE)
    assert code == 0
    assert set(doc) == {"certificate", "char_poly", "affine_class",
                        "representative_ode", "action_matrix", "note"}
    assert doc["certificate"]["case"] == "constant-coefficients"
    assert doc["certificate"]["m"] == 5
    assert doc["char_poly"] == ["0", "1", "-2", "1"]   # z (z-1)^2, ascending
    assert doc["representative_ode"] == "u''' - 1/3*u' + 2/27*u = 0"
    assert doc["affine_class"]["degree"] == 3
    assert doc["affine_class"]["trivial"] is False
    assert doc["note"] is None
    assert len(doc["action_matrix"]) == 3


def test_recover_payload_nonconstant_case():
    code, doc, _ = run_json("recover", "y''' - x*y = 0")
    assert code == 0
    assert doc["certificate"]["case"] == "nonconstant-coefficients"
    assert doc["char_poly"] is None
    assert doc["representative_ode"] is None
    assert doc["note"] == "nonconstant coefficients — recovery out of scope"


def test_recover_payload_negative_case():
    code, doc, _ = run_json("recover", "y'' = y^2")
    assert code == 1
    assert doc["certificate"]["case"] == "none"
    assert doc["char_poly"] is None


def test_symmetries_payload():
    code, doc, _ = run_json("symmetries", "y'' = 0")
    assert code == 0
    assert doc["m"] == 8
    C = doc["structure_constants"]
    assert len(C) == 8 and all(len(row) == 8 for row in C)
    assert all(isinstance(c, str) for row in C for col in row for c in col)
    assert doc["derived_dimension"] == 8
    assert doc["derived_abelian"] is False


# -- equiv ----------------------------------------------------------------------------


def test_equiv_scaling_pair():
    code, doc, _ = run_json("equiv", "1,0,1", "4,0,1")
    assert code == 0
    assert doc["equivalent"] is True
    assert doc["reason"] == "equivalent"


def test_equiv_normalizes_to_monic():
    code, doc, _ = run_json("equiv", "2,0,2", "1,0,1")
    assert code == 0 and doc["equivalent"] is True


def test_equiv_zero_pattern_mismatch():
    code, doc, _ = run_json("equiv", "0,-1,0,1", "0,0,0,1")
    assert code == 1
    assert doc["reason"] == "zero-pattern-mismatch"


def test_equiv_degree_mismatch():
    code, doc, _ = run_json("equiv", "1,1", "1,1,1")
    assert code == 1 and doc["reason"] == "degree-mismatch"


def test_equiv_coefficient_list_validation():
    assert run("equiv", "5", "1,1")[0] == 2           # degree 0
    assert run("equiv", "1,1,0", "1,1")[0] == 2       # zero leading coefficient
    code, _, err = run("equiv", "1,phi", "1,1")
    assert code == 2 and "bad coefficient list" in err


def _timed(*argv):
    start = time.perf_counter()
    code, _, err = run(*argv)
    return code, err, time.perf_counter() - start


def test_coefficient_past_the_int_conversion_limit_is_an_input_error():
    # 10^5000 has more digits than int conversion allows: refused from the
    # text, not an internal error when the value is printed
    for argv in (("equiv", "1e5000,1", "1,1"),
                 ("oracle", "--poly", "1e5000,0,1", "--psi", "y",
                  "--phi", "x")):
        code, err, seconds = _timed(*argv)
        assert code == 2 and "bad coefficient list" in err
        assert seconds < 1
    # one digit fewer is a value like any other
    limit = sys.get_int_max_str_digits()
    assert run("equiv", "1e%d,1" % (limit - 1), "1,1")[0] in (0, 1)
    assert run("equiv", "1e-%d,1" % (limit - 1), "1,1")[0] in (0, 1)
    assert run("equiv", "1e-%d,1" % limit, "1,1")[0] == 2


# -- oracle ---------------------------------------------------------------------------


def test_oracle_payload():
    code, doc, _ = run_json("oracle", "--poly", "0,-1,0,1",
                            "--psi", "exp(y)", "--phi", "x")
    assert code == 0
    assert doc["ode"] == "y''' + (y')^3 + 3*y'*y'' - y' = 0"
    assert doc["n"] == 3
    assert doc["transformation"] == "u=exp(y), t=x"
    assert doc["source_char_poly"] == ["0", "-1", "0", "1"]
    assert doc["expected_case"] == "trivial"


def test_oracle_rejects_nonrational_images():
    code, _, err = run("oracle", "--poly", "0,-1,0,1",
                       "--psi", "y", "--phi", "exp(x)")
    assert code == 2
    assert "outside the rational class" in err


def test_oracle_rejects_degenerate_transformations():
    assert run("oracle", "--poly", "0,0,1", "--psi", "x", "--phi", "x")[0] == 2


# -- shared options -------------------------------------------------------------------


def test_file_input(tmp_path):
    path = tmp_path / "example.ode"
    path.write_text("y'' + (y')^2 = 0\n")
    code, doc, _ = run_json("certify", "--file", str(path))
    assert code == 0 and doc["case"] == "trivial"
    code, _, err = run("certify", "y'' = 0", "--file", str(path))
    assert code == 2 and "not both" in err
    code, _, err = run("certify")
    assert code == 2 and "no equation given" in err
    code, _, err = run("certify", "--file", str(tmp_path / "missing.ode"))
    assert code == 2 and "cannot read" in err


def test_file_that_is_not_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "bad.ode"
    path.write_bytes(b"y'' = \xff\n")
    code, _, err = run("certify", "--file", str(path))
    assert code == EXIT_INPUT_ERROR and "cannot read" in err


def test_point_option():
    # the default expansion point for y'' + y'/x = 0 must dodge x = 0,
    # and forcing the singular point is an input error
    assert run("certify", "y'' + y'/x = 0")[0] == 0
    code, _, err = run("certify", "y'' + y'/x = 0", "--point", "0,0")
    assert code == 2 and "singular expansion point" in err
    assert run("certify", "y'' = 0", "--point", "nope")[0] == 2
    for bad in ("1/0,1", "a,b"):
        code, _, err = run("certify", "y'' = 0", "--point", bad)
        assert code == 2 and "bad --point value" in err


def test_point_past_the_int_conversion_limit_is_an_input_error():
    # 10^10000000 took 10.5 s to build as a Fraction; the text refuses it
    code, err, seconds = _timed("certify", "y''=0", "--point", "1e10000000,0")
    assert code == 2 and "bad --point value" in err
    assert seconds < 1


def test_max_order_floor():
    code, _, err = run("certify", "y'' = 0", "--max-order", "2")
    assert code == 2 and "below required" in err
    assert run("certify", "y'' = 0", "--max-order", "5")[0] == 0
    code, _, err = run("certify", "y''=y", "--max-order", "100000000")
    assert code == 2 and "above limit" in err
    assert run("certify", "y''' = 0", "--max-order", "24")[0] == 0


def test_dump_flags_and_timings():
    code, doc, _ = run_json("certify", "y'' = 0", "--dump-detsys",
                            "--dump-involutive", "--timings")
    assert code == 0
    assert len(doc["determining_system"]) == 4
    inv = doc["involutive"]
    assert set(inv) == {"ranking", "equations", "leads", "parametric",
                        "dimension"}
    assert inv["dimension"] == 8
    assert len(inv["parametric"]) == 8
    assert set(doc["timings"]) >= {"parse", "determining", "completion",
                                   "series", "structure", "certify", "total"}
    assert all(isinstance(v, float) for v in doc["timings"].values())


@pytest.mark.parametrize("argv,spelled", [
    (("oracle", "--poly", "-1,0,1", "--psi", "y", "--phi", "x*y"),
     ("oracle", "--json-only", "--poly=-1,0,1", "--psi", "y", "--phi", "x*y")),
    (("equiv", "-1,0,1", "-2,0,1"),
     ("equiv", "--json-only", "--", "-1,0,1", "-2,0,1")),
    (("certify", "y''=0", "--point", "-1,2"),
     ("certify", "--json-only", "y''=0", "--point=-1,2")),
], ids=["oracle-poly", "equiv-lists", "certify-point"])
def test_values_starting_with_a_minus_sign(argv, spelled):
    # a value with a leading negative number parses as it does after "="
    # or "--"  [DERIVED]
    code, out, _ = run(*argv, "--json-only")
    assert code == 0 and json.loads(out)
    assert run(*spelled)[:2] == (code, out)


def test_unknown_options_are_still_usage_errors():
    assert run("certify", "y''=0", "--bogus")[0] == 2
    assert run("certify", "y''=0", "-z")[0] == 2
    assert run("equiv", "1,1", "-q")[0] == 2
