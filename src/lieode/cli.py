"""Command-line interface: certify, recover, symmetries, equiv, oracle.

Machine-readable JSON goes to stdout (sorted keys, fixed layout — the bytes
are identical across runs for a fixed input unless ``--timings`` is given);
a short human summary goes to stderr, suppressed by ``--json-only``.

Each subcommand only computes and returns (payload, summary lines,
verdict); ``main`` alone writes the output and chooses the exit code.

Exit codes: 0 linearizable (resp. equivalent), 1 not, 2 input error,
3: any other exception that escapes the engine; a crash is never a verdict.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional

from .determining import XI, fields, label
from .errors import InputError
from .involutive import RANKING
from .parsing import format_ratfunc, print_ode
from .pipeline import RunReport, analyze
from .pushforward import PointTransformation, push_linear
from .ratfunc import RatFunc
from .recovery import AffineClass, CharPoly, affine_class, classify_pair

EXIT_LINEARIZABLE = 0
EXIT_NEGATIVE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3


# -- serialization helpers --------------------------------------------------------


def _class_json(c: AffineClass) -> dict:
    return {
        "degree": c.degree,
        "support": list(c.support),
        "canonical_invariants": [[j, str(v)]
                                 for j, v in zip(c.support, c.canonical)],
        "centered_coeffs": [str(v) for v in c.centered_coeffs],
        "trivial": c.is_trivial,
    }


def _equation_json(eq, lead) -> dict:
    """The equation solved for its lead: each coefficient over the lead's."""
    return {label(s): format_ratfunc(RatFunc(c, eq[lead]))
            for s, c in eq.items()}


def _dump_lead(eq) -> int:
    """The slot a dumped determining equation is solved for, by the dump's
    own convention: the largest by (xi before eta, dx, dy)."""
    return max(eq, key=lambda s: (fields(s)[0] == XI, fields(s)[1:]))


def _attach_extras(payload: dict, report: RunReport, args) -> None:
    if args.dump_detsys:
        # solved for a lead, an equation prints the same as any multiple of
        # it, so a repeated print is a duplicate equation, left out
        dumped: List[dict] = []
        for eq in report.determining:
            printed = _equation_json(eq, _dump_lead(eq))
            if printed not in dumped:
                dumped.append(printed)
        payload["determining_system"] = dumped
    if args.dump_involutive:
        inv = report.involutive
        payload["involutive"] = {
            "ranking": RANKING,
            "equations": [_equation_json(e.terms, e.lead) for e in inv.eqs],
            "leads": [label(s) for s in inv.leads],
            "parametric": [label(s) for s in inv.parametric],
            "dimension": inv.dimension,
        }
    if args.timings:
        payload["timings"] = {k: round(v, 6)
                              for k, v in report.timings.items()}


# -- input plumbing ---------------------------------------------------------------


def _ode_text(args) -> str:
    if args.file is not None:
        if args.ode is not None:
            raise InputError("give the equation either inline or via --file, not both")
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError("cannot read %s: %s" % (args.file, exc)) from exc
    if args.ode is None:
        raise InputError("no equation given (inline argument or --file)")
    return args.ode


# Fraction's decimal syntax without underscores, for the size of a value
_DECIMAL = re.compile(r"\s*[-+]?(\d*)(?:\.(\d*))?(?:e([-+]?\d+))?\s*\Z", re.I)


def _numbers(text: str, error: str) -> List[Fraction]:
    """The comma-separated numbers in ``text``, as ``Fraction`` reads them.
    A bad one is an InputError headed ``error``, and so is a numerator or
    denominator, as written, past the int conversion limit: judged from the
    text, as an exponent is a power of ten that takes long to build."""
    limit = sys.get_int_max_str_digits()
    out = []
    try:
        for part in map(str.strip, text.split(",")):
            m = _DECIMAL.match(part.replace("_", ""))
            if m and limit:
                whole, dec, exp = m.groups(default="")
                shift = int(exp or 0) - len(dec)
                num = len((whole + dec).lstrip("0")) + max(shift, 0)
                if max(num, 1 - shift) > limit:
                    raise ValueError("more than %d digits" % limit)
            out.append(Fraction(part))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("%s: %s" % (error, exc)) from exc
    return out


def _parse_point(text: str):
    if text.count(",") != 1:
        raise InputError("--point expects x0,y0 (e.g. 0,0 or 1/2,1/3)")
    return tuple(_numbers(text, "bad --point value"))


def _parse_coeff_list(text: str) -> CharPoly:
    """Comma-separated coefficients, constant term first, leading last."""
    vals = _numbers(text, "bad coefficient list %r" % (text,))
    if len(vals) < 2:
        raise InputError("a characteristic polynomial needs degree >= 1 "
                         "(at least two coefficients)")
    lead = vals[-1]
    if lead == 0:
        raise InputError("leading coefficient must be nonzero")
    return CharPoly(tuple(v / lead for v in vals[:-1]))


# -- subcommands ------------------------------------------------------------------


def _verdict_lines(report: RunReport) -> List[str]:
    cert = report.certificate
    return [print_ode(report.ode),
            "order n = %d, symmetry dimension m = %d" % (cert.n, cert.m),
            "verdict: %s (%s)" % (cert.verdict, cert.case)]


def _certify_view(report: RunReport) -> tuple:
    return report.certificate.as_dict(), _verdict_lines(report)


def _recover_view(report: RunReport) -> tuple:
    rec = report.recovery
    payload = {
        "certificate": report.certificate.as_dict(),
        "char_poly": None,
        "affine_class": None,
        "representative_ode": None,
        "action_matrix": None,
        "note": report.note,
    }
    lines = _verdict_lines(report)
    if rec is not None:
        payload["char_poly"] = [str(c) for c in rec.char_poly.full_coeffs()]
        payload["affine_class"] = _class_json(rec.affine)
        payload["representative_ode"] = rec.representative_ode
        if rec.action_matrix is not None:
            payload["action_matrix"] = [[str(v) for v in row]
                                        for row in rec.action_matrix]
        lines.append("target: %s  [char poly %s]"
                     % (rec.representative_ode, rec.char_poly))
    if report.note:
        lines.append("note: %s" % report.note)
    return payload, lines


def _symmetries_view(report: RunReport) -> tuple:
    cert = report.certificate
    table = report.algebra
    payload = {
        "m": table.m,
        "structure_constants": [[[str(v) for v in vec] for vec in row]
                                for row in table.C],
        "derived_dimension": cert.derived_dimension,
        "derived_abelian": cert.derived_abelian,
    }
    return payload, [
        print_ode(report.ode),
        "m = %d, derived dimension %d (%s)"
        % (table.m, cert.derived_dimension,
           "abelian" if cert.derived_abelian else "non-abelian")]


def cmd_analyze(args) -> tuple:
    """certify, recover and symmetries: one analysis, seen through the
    subcommand's view, plus the --dump-*/--timings extras."""
    point = _parse_point(args.point) if args.point else None
    report = analyze(_ode_text(args), point=point, max_order=args.max_order)
    payload, lines = args.view(report)
    _attach_extras(payload, report, args)
    return payload, lines, report.certificate.linearizable


def cmd_equiv(args) -> tuple:
    p = _parse_coeff_list(args.p)
    q = _parse_coeff_list(args.q)
    same, reason = classify_pair(p, q)
    payload = {
        "equivalent": same,
        "reason": reason,
        "p": _class_json(affine_class(p)),
        "q": _class_json(affine_class(q)),
    }
    return payload, ["%s vs %s: %s (%s)" % (
        p, q, "equivalent" if same else "not equivalent", reason)], same


def cmd_oracle(args) -> tuple:
    poly = _parse_coeff_list(args.poly)
    T = PointTransformation(args.psi, args.phi)
    inst = push_linear(poly, T)
    payload = {
        "ode": print_ode(inst.ode),
        "n": inst.ode.n,
        "transformation": T.name,
        "source_char_poly": [str(c) for c in poly.full_coeffs()],
        "expected_case": inst.expected_case,
    }
    return payload, [
        "%s  (from %s under %s)" % (print_ode(inst.ode), poly, T.name),
        "expected case: %s" % inst.expected_case], True


# -- parser -----------------------------------------------------------------------

# A dash followed by a digit, dot or slash starts a number, never an option:
# "-1,0,1" is a coefficient list and "-1,2" a point.
_NEGATIVE_VALUE = re.compile(r"-[\d./]")


class _Parser(argparse.ArgumentParser):
    """Reads every argument that starts with a negative number as a value.

    argparse itself does so only for a bare number such as "-1", and has no
    public hook for more.  With this class "--poly -1,0,1" and
    "equiv -1,0,1 1,1" need no "=" or "--".  Subparsers inherit the class.
    """

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lieode",
        description="Decide point-equivalence of a quasi-linear ODE "
                    "y^(n) + f(x, y, ..., y^(n-1)) = 0 to a linear equation, "
                    "and recover the constant-coefficient target class.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-only", action="store_true",
                        help="suppress the human summary on stderr")
    ode_common = argparse.ArgumentParser(add_help=False, parents=[common])
    ode_common.add_argument("ode", nargs="?", default=None,
                            help="equation text, e.g. \"y'' + (y')^2 = 0\"")
    ode_common.add_argument("--file", default=None,
                            help="read the equation from a file instead")
    ode_common.add_argument("--point", default=None, metavar="x0,y0",
                            help="series expansion point override")
    ode_common.add_argument("--max-order", type=int, default=None, metavar="N",
                            help="Taylor truncation order override")
    ode_common.add_argument("--timings", action="store_true",
                            help="include per-stage timings in the JSON")
    ode_common.add_argument("--dump-detsys", action="store_true",
                            help="include the determining system, each "
                                 "equation solved for its largest slot, xi "
                                 "before eta, duplicates dropped")
    ode_common.add_argument("--dump-involutive", action="store_true",
                            help="include the completed involutive system")

    for name, view, text in (
            ("certify", _certify_view, "linearizability verdict only"),
            ("recover", _recover_view,
             "verdict plus characteristic-polynomial recovery"),
            ("symmetries", _symmetries_view,
             "symmetry algebra: dimension and structure constants")):
        p = sub.add_parser(name, parents=[ode_common], help=text)
        p.set_defaults(func=cmd_analyze, view=view)

    p = sub.add_parser("equiv", parents=[common],
                       help="compare two characteristic polynomials up to "
                            "root maps z -> k*z + b")
    p.add_argument("p", help="coefficients, constant first: z^3-z is 0,-1,0,1")
    p.add_argument("q", help="second coefficient list")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("oracle", parents=[common],
                       help="push a linear constant-coefficient equation "
                            "through a point transformation")
    p.add_argument("--poly", required=True,
                   help="source coefficients, constant first (monic up to scale)")
    p.add_argument("--psi", required=True, help="u = psi(x, y)")
    p.add_argument("--phi", required=True, help="t = phi(x, y)")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, lines, verdict = args.func(args)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(text)
    if not args.json_only:
        for line in lines:
            print(line, file=sys.stderr)
    return EXIT_LINEARIZABLE if verdict else EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
