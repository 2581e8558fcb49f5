"""Command-line front end.

Subcommands: stirling, transform, accelerate, pade, sum, e1, oscillator.
Output is JSON (schema "facseries/1") on stdout or --out; --csv (accelerate,
sum, e1, oscillator) additionally writes a flat table for human-facing plots.
Exact integers travel as decimal strings; floats are rendered at the working
precision, so identical config plus precision gives bit-identical output.

Exit codes: 0 success, 1 usage/configuration error (a one-line
"facseries: ..." on stderr), 2 numerical failure (pole, degeneracy,
instability, ...) with a machine-readable error object.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import re
import sys
from fractions import Fraction
from math import factorial

from mpmath import libmp, mp

from . import __version__
from .acceleration import TransformInput, levin, transform_table, weniger_s
from .applications import E1Series, OSCILLATOR_METHODS, oscillator_energy
from .errors import DomainError, FacseriesError, IntegrityError
from .evaluate import (
    QuadratureSpec,
    SummationReport,
    euler_integral_eval,
    eval_power_as_factorial,
    sum_factorial_series,
)
from .pade import _pade_value, pade_construct, pade_eval
from .series import (
    FormalSeries,
    PrecisionContext,
    SeriesKind,
    _decimal_to_int,
    _fraction_obj,
    _int_to_decimal,
    _rational as _exact,
)
from .transforms import (
    factorial_to_inverse_power,
    inverse_power_to_factorial,
    power_to_factorial_coeffs,
)

SCHEMA = "facseries/1"
_NUM_DEN = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*", re.ASCII)  # as Fraction(str) reads them

# reference ground energy at beta = 1/5 from an independent high-order summation
E_EXACT_BETA_ONE_FIFTH = "1.118292654367039154"


class _UsageError(Exception):
    """A bad option value, environment setting or input file: exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(x, prec: PrecisionContext) -> str:
    """x to P digits, from an mpf's guard digits or a Fraction's one rounding to P + 15."""
    v = x._mpf_ if isinstance(x, mp.mpf) else libmp.from_rational(
        x.numerator, x.denominator, libmp.dps_to_prec(prec.digits + 15), libmp.round_nearest)
    return libmp.to_str(v, prec.digits)


def _rational(text: str, option: str) -> Fraction:
    try:
        try:
            return Fraction(text)
        except ValueError:  # past the digit limit, a num/den text is read a side at a time
            if not (m := _NUM_DEN.fullmatch(text)):
                raise
            return Fraction(_decimal_to_int(m[1]), _decimal_to_int(m[2] or "1"))
    except (ValueError, ZeroDivisionError):
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise _UsageError(f"{option}: not a rational number: {shown}") from None


def _read_json(path):
    """The JSON document in a file; one that cannot be read or parsed is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise _UsageError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_series(path) -> FormalSeries:
    return FormalSeries.from_json_obj(_read_json(path))


def _load_terms(path) -> list:
    """Accept either a series file or a bare JSON array of numbers/strings."""
    obj = _read_json(path)
    if isinstance(obj, list):
        return [_rational(str(t), f"term in {path}") for t in obj]
    return list(FormalSeries.from_json_obj(obj).coeffs)


def _write(text: str, args, fh=None) -> None:
    """text and a newline on stdout, or in the --out file (fh if open): the one document writer."""
    if args.out:
        with fh or open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(doc: dict, args, prec: PrecisionContext, header=(), rows=()) -> None:
    """The facseries/1 document and any --csv table of rows under header, both opened before
    either is written: if one cannot be, exit 1, no table, --out untouched, stdout empty."""
    out = None
    if getattr(args, "csv", None):  # only the commands that write a table have --csv
        made = not os.path.exists(args.csv)  # a path that was there, such as /dev/null, stays
        with open(args.csv, "a", newline="") as fh:  # "a": an old table survives a failed --out
            try:
                out = args.out and open(args.out, "w")
            except OSError:
                if made:  # the table file this call made, still empty
                    os.remove(args.csv)
                raise
            if os.path.isfile(args.csv):  # a device cannot be truncated (EINVAL)
                fh.truncate(0)
            csv.writer(fh).writerows([header, *rows])
    _write(json.dumps({"schema": SCHEMA, **doc, "precision_digits": prec.digits}, indent=1),
           args, out)


# --- subcommand handlers ----------------------------------------------------


def _cmd_stirling(args, prec):
    from .stirling import _check_index, _next_row

    n, k = args.n, args.k
    _check_index(n, k)  # the checks of StirlingCache.row and value, without a cache
    row = [1]
    for m in range(n):  # one row at a time, not the triangle, and of it entries 0..k only
        row = _next_row(args.kind, m, row)[: None if k is None else k + 1]
    values = row if k is None else [row[k]]
    if args.json or args.out:
        _emit({"command": "stirling", "kind": args.kind, "n": args.n,
               "k": args.k, "values": [_int_to_decimal(v) for v in values]}, args, prec)
    else:
        _write("\n".join(map(_int_to_decimal, values)), args)
    return 0


_TRANSFORMS = {
    ("invpow", "fact"): inverse_power_to_factorial,
    ("fact", "invpow"): factorial_to_inverse_power,
    ("pow", "fact"): lambda s, n: FormalSeries(
        SeriesKind.FACTORIAL, power_to_factorial_coeffs(s, n)
    ),
}

_KIND_ALIAS = {"invpow": SeriesKind.INVERSE_POWER, "fact": SeriesKind.FACTORIAL,
               "pow": SeriesKind.POWER}


def _cmd_transform(args, prec):
    key = (args.src, args.dst)
    if key not in _TRANSFORMS:
        raise _UsageError(f"no transform from {args.src} to {args.dst}")
    series = _load_series(args.infile)
    if series.kind is not _KIND_ALIAS[args.src]:
        raise IntegrityError(
            f"input file holds a {series.kind.value} series, --from says {args.src}"
        )
    order = args.order if args.order is not None else len(series) - 1
    _write(json.dumps(_TRANSFORMS[key](series, order).to_json_obj(), indent=1), args)
    return 0


def _cmd_accelerate(args, prec):
    terms = _load_terms(args.infile)
    inp = TransformInput.from_terms(terms, args.omega, _rational(args.beta, "--beta"))
    table = transform_table(inp, args.method, args.k, n=0, prec=prec)
    doc = {
        "command": "accelerate", "method": args.method, "beta": args.beta,
        "omega": args.omega, "k_max": args.k,
        "values": {str(k): _fmt(v, prec) for k, v in table.items()},
    }
    _emit(doc, args, prec, ["k", "value"], doc["values"].items())
    return 0


def _cmd_pade(args, prec):
    series = _load_series(args.infile)
    approx = pade_construct(series.coeffs, args.L, args.M)
    doc = {
        "command": "pade", "L": approx.L, "M": approx.M,
        "num": [_fraction_obj(c) for c in approx.num],
        "den": [_fraction_obj(c) for c in approx.den],
    }
    if args.eval is not None:
        doc["eval_at"] = args.eval
        doc["value"] = _fmt(pade_eval(approx, _rational(args.eval, "--eval"), prec), prec)
    _emit(doc, args, prec)
    return 0


def _cmd_sum(args, prec):
    if args.pade and args.backend != "integral":
        raise _UsageError("--pade applies only to --backend integral")
    series = _load_series(args.infile)
    z = _rational(args.z, "--z")
    terms = args.terms if args.terms is not None else len(series)
    if not 1 <= terms <= len(series):  # before any default built from it
        raise DomainError(f"terms must be in 1..{len(series)}, got {terms}")
    kind = SeriesKind.POWER if args.backend == "product" else SeriesKind.FACTORIAL
    if series.kind is not kind:  # one check for every backend, before any work
        raise IntegrityError(f"{args.backend} backend expects a {kind.value} series input")
    if args.backend == "direct":
        report = sum_factorial_series(series, z, terms, prec)
    elif args.backend == "product":
        lam = power_to_factorial_coeffs(series, terms - 1)
        report = eval_power_as_factorial(lam, z, terms, prec)
    else:  # integral: a value and no partial sums
        reduced = [d / factorial(n) for n, d in enumerate(series.coeffs[:terms])]
        pl, pm = args.pade or (terms - 1, 0)
        report = SummationReport((), euler_integral_eval(reduced, z, pl, pm, QuadratureSpec(), prec))
    doc = {
        "command": "sum", "backend": args.backend, "z": args.z, "terms": terms,
        "partial_sums": [_fmt(s, prec) for s in report.partial_sums],
        "final": _fmt(report.final, prec),
    }
    if args.backend == "integral":  # the degrees used, given or not
        doc["pade"] = {"L": pl, "M": pm}
    _emit(doc, args, prec, ["m", "partial_sum"], enumerate(doc["partial_sums"]))
    return 0


def _cmd_e1(args, prec):
    z = _rational(args.z, "--z")
    if args.terms < 1:
        raise DomainError(f"--terms must be >= 1, got {args.terms}")
    series = E1Series.build(args.terms - 1)
    report = series.summation_report(z, args.terms, prec)
    doc = {
        "command": "e1", "z": args.z, "terms": args.terms,
        "partial_sums": [_fmt(s, prec) for s in report.partial_sums],
        "final": _fmt(report.final, prec),
    }
    if args.compare:
        doc["reference"] = _fmt(report.reference, prec)
        doc["ratio"] = _fmt(_exact(report.final) / _exact(report.reference), prec)
        # three significant digits: |s - ref| cancels, so no more are known
        doc["relative_errors"] = [f"{float(e):.2e}" for e in report.relative_errors]
        # divergent-series comparison: accelerate e^z E1(z) = (1/z) 2F0(1,1;-1/z),
        # exactly from the rational terms, one cell T_k per method
        terms = [c / z ** (m + 1) for m, c in enumerate(series.inverse_power.coeffs)]
        inp = TransformInput.from_terms(terms, "first_neglected", 1)
        k = len(inp.s) - 1
        comparison = {}
        for method, transform in (("levin", levin), ("weniger", weniger_s)):
            try:
                comparison[method] = _fmt(transform(inp, k, 0, prec), prec)
            except FacseriesError as exc:
                comparison[method] = {"error": exc.code}
        # the Pade approximant is to 2F0(1,1;-1/z) = z e^z E1(z), exact at w = 1/z
        comparison["pade"] = _fmt(_pade_value(series.pade(), 1 / z) / z, prec)
        doc["accelerated"] = comparison
    _emit(doc, args, prec, ["n", "partial_sum"], enumerate(doc["partial_sums"]))
    return 0


def _cmd_oscillator(args, prec):
    beta = _rational(args.beta, "--beta")
    methods = list(OSCILLATOR_METHODS) if args.all else [args.method]
    results = {m: _fmt(oscillator_energy(beta, args.order, m, prec), prec) for m in methods}
    doc = {
        "command": "oscillator", "beta": args.beta, "order": args.order,
        "energies": results,
    }
    if beta == Fraction(1, 5):
        doc["reference"] = E_EXACT_BETA_ONE_FIFTH
        with prec.workdps():
            ref = mp.mpf(E_EXACT_BETA_ONE_FIFTH)
            # three significant digits: the 19-digit reference fixes no more
            doc["errors"] = {m: f"{float(abs(mp.mpf(v) - ref)):.2e}" for m, v in results.items()}
    _emit(doc, args, prec, ["method", "energy"], results.items())
    return 0


# --- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="facseries", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)

    common = _Parser(add_help=False)
    common.add_argument("--precision", type=int, default=None, metavar="D",
                        help="decimal working precision (default 64, "
                             "or FACSERIES_PRECISION)")
    common.add_argument("--json", action="store_true",
                        help="force JSON output for text-default commands")
    common.add_argument("--out", metavar="PATH", help="write JSON output to PATH")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stirling", parents=[common],
                       help="print exact Stirling numbers")
    p.add_argument("--kind", type=int, choices=(1, 2), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(fn=_cmd_stirling)

    p = sub.add_parser("transform", parents=[common],
                       help="coefficient transform between series kinds")
    p.add_argument("--from", dest="src", choices=("invpow", "fact", "pow"),
                   required=True)
    p.add_argument("--to", dest="dst", choices=("fact", "invpow"), required=True)
    p.add_argument("--in", dest="infile", required=True, metavar="SERIES.json")
    p.add_argument("--order", type=int, default=None, metavar="N")
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("accelerate", parents=[common],
                       help="Levin/Weniger sequence transformation of a term list")
    p.add_argument("--method", choices=("levin", "weniger"), required=True)
    p.add_argument("--beta", default="1")
    p.add_argument("--omega", choices=("first_neglected", "scaled_term"),
                   default="first_neglected")
    p.add_argument("--in", dest="infile", required=True, metavar="TERMS.json")
    p.add_argument("--k", type=int, required=True, help="maximum transform order")
    p.set_defaults(fn=_cmd_accelerate)

    p = sub.add_parser("pade", parents=[common], help="exact Pade approximant")
    p.add_argument("--in", dest="infile", required=True, metavar="SERIES.json")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--eval", default=None, metavar="Z")
    p.set_defaults(fn=_cmd_pade)

    p = sub.add_parser("sum", parents=[common],
                       help="evaluate a series by one of the summation back-ends")
    p.add_argument("--backend", choices=("direct", "product", "integral"),
                   required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--terms", type=int, default=None, metavar="N")
    p.add_argument("--pade", nargs=2, type=int, default=None, metavar=("L", "M"),
                   help="Pade degrees for --backend integral (default: terms-1 0)")
    p.add_argument("--in", dest="infile", required=True, metavar="SERIES.json")
    p.set_defaults(fn=_cmd_sum)

    p = sub.add_parser("e1", parents=[common],
                       help="factorial-series summation of the E1 asymptotic series")
    p.add_argument("--z", required=True)
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--compare", action="store_true",
                   help="attach reference, ratio, and accelerated comparisons")
    p.set_defaults(fn=_cmd_e1)

    p = sub.add_parser("oscillator", parents=[common],
                       help="quartic-oscillator ground-state energy summation")
    p.add_argument("--beta", required=True)
    p.add_argument("--order", type=int, required=True, metavar="N")
    p.add_argument("--method", choices=OSCILLATOR_METHODS, default="factorial")
    p.add_argument("--all", action="store_true", help="run every method")
    p.set_defaults(fn=_cmd_oscillator)

    for name in ("accelerate", "sum", "e1", "oscillator"):  # the commands that write a table
        sub.choices[name].add_argument("--csv", metavar="PATH", help="also write a CSV table")
    return parser


# main parses with one parser per process, built on its first call (not at
# import); parsing does not change the parser, so every call sees the same one
_parser = functools.cache(build_parser)


def _precision(args) -> PrecisionContext:
    """--precision, else FACSERIES_PRECISION, else 64 digits."""
    text = os.environ.get("FACSERIES_PRECISION", "64")
    try:
        return PrecisionContext(int(text) if args.precision is None else args.precision)
    except ValueError:
        raise _UsageError(f"FACSERIES_PRECISION is not an integer: {text!r}") from None
    except FacseriesError as exc:
        raise _UsageError(exc) from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, _precision(args))
    except (OSError, _UsageError) as exc:
        sys.stderr.write(f"facseries: {exc}\n")
        return 1
    except FacseriesError as exc:
        print(json.dumps({"schema": SCHEMA, **exc.to_json()}, indent=1))
        return 2


if __name__ == "__main__":
    sys.exit(main())
