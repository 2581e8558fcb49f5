"""End-to-end CLI runs through facseries.cli.main."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from mpmath import mp

import facseries
from facseries.applications import e1_factorial_coeffs, e1_inverse_power_coeffs
from facseries import cli
from facseries.acceleration import TransformInput, levin, weniger_s
from facseries.cli import _fmt, _load_terms, build_parser, main
from facseries.evaluate import QuadratureConvergenceWarning
from facseries.pade import pade_construct, pade_eval
from facseries.series import FormalSeries, PrecisionContext, SeriesKind, to_mpf
from facseries.transforms import inverse_power_to_factorial, power_to_factorial_coeffs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def e1_factorial_file(tmp_path):
    path = tmp_path / "e1_fact.json"
    FormalSeries(SeriesKind.FACTORIAL, e1_factorial_coeffs(14)).dump(path)
    return str(path)


class TestStirling:
    def test_row_text_output(self, capsys):
        code, out = run(capsys, "stirling", "--kind", "1", "--n", "3")
        assert code == 0
        assert out.split() == ["0", "2", "-3", "1"]

    def test_value_past_the_digit_limit(self, capsys):
        # s1(2000, 1) = -1999!, 5733 digits
        expected = str(Decimal(-factorial(1999)))
        code, out = run(capsys, "stirling", "--kind", "1", "--n", "2000", "--k", "1")
        assert code == 0 and out == expected + "\n"
        code, doc = run_json(capsys, "stirling", "--kind", "1", "--n", "2000", "--k", "1", "--json")
        assert code == 0 and doc["values"] == [expected]

    def test_single_value_json(self, capsys):
        code, doc = run_json(
            capsys, "stirling", "--kind", "2", "--n", "4", "--k", "2", "--json"
        )
        assert code == 0
        assert doc["schema"] == "facseries/1"
        assert doc["values"] == ["7"]

    def test_one_row_kept_not_the_triangle(self, capsys):
        # rows 0..400 of s1 take about 15 MB; the command keeps one row at a time
        tracemalloc.start()
        try:
            code, out = run(capsys, "stirling", "--kind", "1", "--n", "400", "--k", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and out == f"{-factorial(399)}\n"
        assert peak < 2_000_000

    @pytest.mark.parametrize("kind", [1, 2])
    def test_rows_and_values_match_the_cache(self, capsys, kind):
        from facseries.stirling import StirlingCache

        cache = StirlingCache(kind)
        for n in range(9):
            code, out = run(capsys, "stirling", "--kind", str(kind), "--n", str(n))
            assert code == 0 and out.split() == [str(v) for v in cache.row(n)]
            for k in range(n + 1):
                code, out = run(capsys, "stirling", "--kind", str(kind), "--n", str(n),
                                "--k", str(k))
                assert code == 0 and out == f"{cache.value(n, k)}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--n", "-1"], "row index must be >= 0, got -1"),
        (["--n", "-1", "--k", "0"], "need 0 <= k <= n, got n=-1, k=0"),
        (["--n", "3", "--k", "4"], "need 0 <= k <= n, got n=3, k=4"),
        (["--n", "3", "--k", "-1"], "need 0 <= k <= n, got n=3, k=-1"),
    ])
    def test_out_of_range_is_domain_error(self, capsys, argv, message):
        code, doc = run_json(capsys, "stirling", "--kind", "2", *argv)
        assert code == 2
        assert doc["error"] == "domain" and doc["message"] == message


class TestTransform:
    def test_trivial_fixed_point(self, capsys, tmp_path):
        src = tmp_path / "c.json"
        dst = tmp_path / "d.json"
        FormalSeries(SeriesKind.INVERSE_POWER, [1, 0, 0]).dump(src)
        code = main(
            ["transform", "--from", "invpow", "--to", "fact",
             "--in", str(src), "--out", str(dst)]
        )
        assert code == 0
        assert FormalSeries.load(dst).coeffs == (1, 0, 0)

    def test_round_trip_restores_input(self, capsys, tmp_path):
        src = tmp_path / "c.json"
        mid = tmp_path / "d.json"
        back = tmp_path / "c2.json"
        coeffs = [Fraction(7, 3), Fraction(-1, 2), 5, Fraction(11, 13)]
        FormalSeries(SeriesKind.INVERSE_POWER, coeffs).dump(src)
        assert main(["transform", "--from", "invpow", "--to", "fact",
                     "--in", str(src), "--out", str(mid)]) == 0
        assert main(["transform", "--from", "fact", "--to", "invpow",
                     "--in", str(mid), "--out", str(back)]) == 0
        assert FormalSeries.load(back) == FormalSeries.load(src)

    def test_coefficient_past_the_digit_limit(self, capsys, tmp_path):
        # a 5000-digit numerator through both transforms and the wire format
        src, mid, back = (tmp_path / f"{name}.json" for name in ("c", "d", "c2"))
        big = Fraction(-(3**10479) - 2, 7)
        FormalSeries(SeriesKind.INVERSE_POWER, [big, 1, Fraction(1, 2)]).dump(src)
        assert main(["transform", "--from", "invpow", "--to", "fact",
                     "--in", str(src), "--out", str(mid)]) == 0
        assert main(["transform", "--from", "fact", "--to", "invpow",
                     "--in", str(mid), "--out", str(back)]) == 0
        assert FormalSeries.load(back) == FormalSeries.load(src)
        code, out = run(capsys, "transform", "--from", "invpow", "--to", "fact", "--in", str(src))
        assert code == 0
        assert json.loads(out)["coeffs"][0]["num"] == str(Decimal(big.numerator))

    @pytest.mark.parametrize("num, den", [(1.5, 1), ("1", 2.9), (True, 1), (2.0, 1)])
    def test_non_string_numbers_refused(self, capsys, tmp_path, num, den):
        # a JSON float or boolean is not read as the integer it truncates to
        src = tmp_path / "c.json"
        src.write_text(json.dumps({"schema": "facseries/1", "kind": "inverse_power",
                                   "coeffs": [{"num": num, "den": den}]}))
        code, doc = run_json(capsys, "transform", "--from", "invpow", "--to", "fact",
                             "--in", str(src))
        assert code == 2
        assert doc["error"] == "integrity"

    def test_out_holds_the_dump_of_the_result(self, capsys, tmp_path):
        # --out and stdout carry the bytes FormalSeries.dump writes
        src, dst, dumped = (tmp_path / f"{name}.json" for name in ("c", "d", "e"))
        series = FormalSeries(SeriesKind.INVERSE_POWER, [Fraction(7, 3), Fraction(-1, 2), 5])
        series.dump(src)
        inverse_power_to_factorial(series, 2).dump(dumped)
        argv = ["transform", "--from", "invpow", "--to", "fact", "--in", str(src)]
        assert main(argv + ["--out", str(dst)]) == 0
        assert dst.read_bytes() == dumped.read_bytes()
        assert run(capsys, *argv) == (0, dumped.read_text())

    def test_power_to_factorial(self, capsys, tmp_path):
        src = tmp_path / "g.json"
        series = FormalSeries(SeriesKind.POWER, [1, Fraction(-3, 4), Fraction(21, 16), 5, Fraction(1, 7)])
        series.dump(src)
        for order in (None, 2):
            argv = ["transform", "--from", "pow", "--to", "fact", "--in", str(src)]
            code, doc = run_json(capsys, *argv, *(["--order", str(order)] if order else []))
            assert code == 0
            expected = power_to_factorial_coeffs(series, 4 if order is None else order)
            assert FormalSeries.from_json_obj(doc) == FormalSeries(SeriesKind.FACTORIAL, expected)

    def test_kind_mismatch_is_numerical_failure(self, capsys, tmp_path):
        src = tmp_path / "c.json"
        FormalSeries(SeriesKind.POWER, [1]).dump(src)
        code, doc = run_json(
            capsys, "transform", "--from", "invpow", "--to", "fact", "--in", str(src)
        )
        assert code == 2
        assert doc["error"] == "integrity"

    def test_negative_order_is_numerical_failure(self, capsys, tmp_path):
        src = tmp_path / "c.json"
        FormalSeries(SeriesKind.INVERSE_POWER, [1, 2]).dump(src)
        code, doc = run_json(capsys, "transform", "--from", "invpow", "--to", "fact",
                             "--in", str(src), "--order", "-1")
        assert code == 2
        assert doc["error"] == "domain"


class TestAccelerate:
    def test_ln2_terms(self, capsys, tmp_path):
        terms = tmp_path / "terms.json"
        terms.write_text(
            json.dumps([f"{(-1) ** m}/{m + 1}" for m in range(15)])
        )
        code, doc = run_json(
            capsys, "accelerate", "--method", "weniger", "--in", str(terms),
            "--k", "10",
        )
        assert code == 0
        import math

        assert abs(float(doc["values"]["10"]) - math.log(2)) < 1e-8

    @pytest.mark.parametrize("beta", ["1e400", "1e-400"])
    def test_extreme_beta(self, capsys, tmp_path, beta):
        # beta > 0 is checked exactly: float(1e400) overflowed, float(1e-400) read 0
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps([f"{(-1) ** m}/{m + 1}" for m in range(6)]))
        prec = PrecisionContext(64)
        inp = TransformInput.from_terms(_load_terms(str(terms)), "first_neglected", Fraction(beta))
        for method, fn in (("levin", levin), ("weniger", weniger_s)):
            code, doc = run_json(capsys, "accelerate", "--method", method, "--beta", beta,
                                 "--in", str(terms), "--k", "3")
            assert code == 0
            assert doc["values"] == {str(k): _fmt(fn(inp, k, 0, prec), prec) for k in range(4)}

    def test_terms_past_the_digit_limit(self, capsys, tmp_path):
        # 5000 ones, and a 5000-digit numerator over 3, as bare-array terms
        ones = (10**5000 - 1) // 9
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps(["1" * 5000, " -" + "1" * 5000 + "/3 ", "1/2", 3]))
        assert _load_terms(str(terms)) == [ones, Fraction(-ones, 3), Fraction(1, 2), 3]
        code, doc = run_json(capsys, "accelerate", "--method", "levin", "--in", str(terms),
                             "--k", "1")
        assert code == 0 and list(doc["values"]) == ["0", "1"]

    @pytest.mark.parametrize("term", ["1" * 5000 + "x", "1" * 5000 + "/0", "1" * 5000 + "/-3",
                                      "1" * 5000 + ".5"])
    def test_long_malformed_term_is_usage_error(self, capsys, tmp_path, term):
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps([term, "1/2"]))
        assert main(["accelerate", "--method", "levin", "--in", str(terms), "--k", "0"]) == 1
        err = capsys.readouterr().err
        # the refused text is quoted by its first 40 characters and its length
        assert "not a rational number" in err and f"({len(term)} characters)" in err
        assert len(err) < 200

    def test_negative_k_is_domain_error(self, capsys, tmp_path):
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps([1, "-1/2", "1/3"]))
        code, doc = run_json(capsys, "accelerate", "--method", "weniger", "--in", str(terms),
                             "--k", "-1")
        assert code == 2 and doc["error"] == "domain" and "values" not in doc

    def test_scaled_term_beta_zero_exit_2(self, capsys, tmp_path):
        terms = tmp_path / "terms.json"
        terms.write_text(json.dumps([1, "-1/2", "1/3", "-1/4"]))
        code, doc = run_json(capsys, "accelerate", "--method", "levin", "--omega", "scaled_term",
                             "--beta", "0", "--in", str(terms), "--k", "2")
        assert code == 2
        assert doc["error"] == "domain"
        assert doc["message"] == "beta must be > 0, got 0"


# the (z, terms) of e1 --compare's Pade checks: the solved approximant, then z far from 1
E1_PADE_CASES = [("5", 1), ("5", 2), ("1/2", 7), ("79/4", 39), ("3", 60),
                 ("1e-30", 20), ("13", 20), ("1e400", 20)]


class TestPade:
    def test_exp_1_1_with_eval(self, capsys, tmp_path):
        src = tmp_path / "exp.json"
        FormalSeries(SeriesKind.POWER, [1, 1, Fraction(1, 2)]).dump(src)
        code, doc = run_json(
            capsys, "pade", "--in", str(src), "--L", "1", "--M", "1",
            "--eval", "1",
        )
        assert code == 0
        assert doc["num"] == [{"num": "1", "den": "1"}, {"num": "1", "den": "2"}]
        assert doc["den"] == [{"num": "1", "den": "1"}, {"num": "-1", "den": "2"}]
        assert doc["value"] == "3.0"

    @pytest.mark.parametrize("z, n", E1_PADE_CASES)
    def test_eval_is_the_exact_value_rounded_once(self, capsys, tmp_path, z, n):
        src, h, w = tmp_path / "e1.json", n // 2, 1 / Fraction(z)
        e1_inverse_power_coeffs(n - 1).dump(src)
        code, doc = run_json(capsys, "pade", "--in", str(src), "--L", str(max(h - 1, 0)),
                             "--M", str(h), "--eval", str(w))
        assert code == 0
        assert doc["value"] == rounded_once(e1_pade_exact(n, w), 64)

    def test_degenerate_exit_2(self, capsys, tmp_path):
        src = tmp_path / "const.json"
        FormalSeries(SeriesKind.POWER, [1, 0, 0]).dump(src)
        code, doc = run_json(
            capsys, "pade", "--in", str(src), "--L", "1", "--M", "1"
        )
        assert code == 2
        assert doc["error"] == "degeneracy"
        assert doc["largest_m"] == 0


class TestSum:
    def test_direct_backend(self, capsys, e1_factorial_file):
        code, doc = run_json(
            capsys, "sum", "--backend", "direct", "--z", "5", "--terms", "15",
            "--in", e1_factorial_file,
        )
        assert code == 0
        assert len(doc["partial_sums"]) == 15
        assert doc["final"].startswith("0.170422306")

    def test_pole_exit_2(self, capsys, e1_factorial_file):
        code, doc = run_json(
            capsys, "sum", "--backend", "direct", "--z", "0", "--terms", "5",
            "--in", e1_factorial_file,
        )
        assert code == 2
        assert doc["error"] == "pole"

    @pytest.mark.parametrize("backend, kind", [
        ("direct", SeriesKind.FACTORIAL),
        ("product", SeriesKind.POWER),
    ])
    def test_pade_only_with_integral(self, capsys, tmp_path, backend, kind):
        path = tmp_path / "s.json"
        FormalSeries(kind, [1, Fraction(-1, 2), Fraction(1, 3)]).dump(path)
        argv = ["sum", "--backend", backend, "--z", "3", "--in", str(path)]
        code, doc = run_json(capsys, *argv)
        assert code == 0 and "pade" not in doc
        assert main(argv + ["--pade", "2", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--pade" in captured.err

    @pytest.mark.parametrize("backend", ["direct", "product", "integral"])
    @pytest.mark.parametrize("terms", ["0", "-1", "16"])
    def test_terms_checked_before_defaults(self, capsys, tmp_path, backend, terms):
        # every backend names --terms itself, not a degree or order made from it
        path = tmp_path / "s.json"
        kind = SeriesKind.POWER if backend == "product" else SeriesKind.FACTORIAL
        FormalSeries(kind, e1_factorial_coeffs(14)).dump(path)
        code, doc = run_json(capsys, "sum", "--backend", backend, "--z", "5",
                             "--terms", terms, "--in", str(path))
        assert code == 2
        assert doc == {"schema": "facseries/1", "error": "domain",
                       "message": f"terms must be in 1..15, got {terms}"}

    @pytest.mark.parametrize("backend, given, expected", [
        ("direct", SeriesKind.POWER, "factorial"),
        ("product", SeriesKind.FACTORIAL, "power"),
        ("integral", SeriesKind.INVERSE_POWER, "factorial"),
    ])
    def test_input_kind_checked_alike(self, capsys, tmp_path, backend, given, expected):
        # every backend refuses an input of the wrong kind with the same error
        path = tmp_path / "s.json"
        FormalSeries(given, [1, Fraction(-1, 2), Fraction(1, 3)]).dump(path)
        code, doc = run_json(capsys, "sum", "--backend", backend, "--z", "3", "--in", str(path))
        assert code == 2
        assert doc == {"schema": "facseries/1", "error": "integrity",
                       "message": f"{backend} backend expects a {expected} series input"}

    def test_integral_reports_degrees_used(self, capsys, e1_factorial_file):
        argv = ["sum", "--backend", "integral", "--z", "5", "--terms", "12",
                "--in", e1_factorial_file]
        code, chosen = run_json(capsys, *argv, "--pade", "5", "6")
        assert code == 0 and chosen["pade"] == {"L": 5, "M": 6}
        code, default = run_json(capsys, *argv)
        assert code == 0 and default["pade"] == {"L": 11, "M": 0}
        code, explicit = run_json(capsys, *argv, "--pade", "11", "0")
        assert code == 0 and explicit == default


# sha256 of `facseries e1 --z Z --terms N --compare` at 64 digits, as printed before the
# partial sums were exact and rounded once
E1_COMPARE_SHA256 = {
    ("1/2", 10): "846cb5cc64459e9ace98b9550329bbd77aa065f4903d7e5109cd74cfdf6770e7",
    ("1/2", 60): "7af75241cb1de14f1de4b3529ef90e5cc43e96653f560fa2d6a64dbcaa1c8d15",
    ("5", 10): "e7f711fc63061f5b1e6f1074313ef4cfb03dcaf668fd58b73ce5f56aca36acf2",
    ("5", 60): "0cd406325e1b901fb5e69e43a0c8f2793dc6cb9423ab2af5d2396c9f02c4fd4e",
    ("20", 10): "afdb79b908a79971e3d2c9cb68b514340438c848b1ec40d28e1ecaaf63104daa",
    ("20", 60): "4696c4514946310b14eb897e19c621b28e186e71612af6e64f328302ffc366a9",
}


class TestE1:
    def test_pole_message_rounds_the_tolerance(self, capsys, monkeypatch):
        monkeypatch.delenv("FACSERIES_PRECISION", raising=False)
        code, doc = run_json(capsys, "e1", "--z", "0", "--terms", "10")
        assert code == 2
        assert doc == {
            "schema": "facseries/1",
            "error": "pole",
            "message": "z=0.0 is within 1.0e-60 of the pole at 0",
        }

    def test_compare_ratio(self, capsys):
        code, doc = run_json(
            capsys, "e1", "--z", "5", "--terms", "15", "--compare"
        )
        assert code == 0
        assert doc["ratio"].startswith("1.0000007634455")
        assert doc["reference"].startswith("0.170422176284732")
        # the accelerated comparisons land close to the reference too
        for key in ("levin", "weniger", "pade"):
            val = doc["accelerated"][key]
            assert isinstance(val, str)
            assert val.startswith("0.1704")


    def test_ratio_correctly_rounded(self, capsys):
        # reference and ratio keep 15 guard digits until the one rounding to print
        z, n = Fraction(79, 4), 39
        code, doc = run_json(
            capsys, "e1", "--z", str(z), "--terms", str(n), "--compare"
        )
        assert code == 0
        d = e1_factorial_coeffs(n - 1)
        total, poch = Fraction(0), z
        for k in range(n):
            total += d[k] / poch
            poch *= z + k + 1
        with mp.workdps(120):
            zv = mp.mpf(z.numerator) / z.denominator
            ratio = (mp.mpf(total.numerator) / total.denominator) / (mp.exp(zv) * mp.e1(zv))
            assert doc["ratio"] == mp.nstr(ratio, 64)


    def test_relative_errors_three_significant_digits(self, capsys):
        # |s - ref| cancels: the printed relative errors carry 3 digits, not 64
        z, n = Fraction(3, 2), 12
        code, doc = run_json(capsys, "e1", "--z", str(z), "--terms", str(n), "--compare")
        assert code == 0
        d = e1_factorial_coeffs(n - 1)
        total, poch = Fraction(0), z
        with mp.workdps(100):
            ref = mp.exp(mp.mpf(3) / 2) * mp.e1(mp.mpf(3) / 2)
            for k, err in enumerate(doc["relative_errors"]):
                assert re.fullmatch(r"\d\.\d\de[-+]\d\d+", err), err
                total += d[k] / poch
                poch *= z + k + 1
                want = abs(mp.mpf(total.numerator) / total.denominator - ref) / ref
                assert err == f"{float(want):.2e}"
        assert len(doc["relative_errors"]) == n

    @pytest.mark.parametrize("z, n", [(Fraction(1), 55), (Fraction(3, 4), 40)])
    def test_accelerated_cells_exact_then_rounded(self, capsys, z, n):
        code, doc = run_json(capsys, "e1", "--z", str(z), "--terms", str(n), "--compare")
        assert code == 0
        for method in ("levin", "weniger"):
            cell = _e1_transform_cell(z, n, method)
            with mp.workdps(120):
                want = mp.nstr(mp.mpf(cell.numerator) / cell.denominator, 64)
            assert doc["accelerated"][method] == want

    @pytest.mark.parametrize("z, n", [("5", 1), ("5", 2), ("1/2", 7), ("79/4", 39), ("3", 60)])
    def test_pade_equals_solved_approximant(self, capsys, z, n):
        # the closed form prints what the Toeplitz solve of pade_construct gives
        code, doc = run_json(capsys, "e1", "--z", z, "--terms", str(n), "--compare")
        assert code == 0
        prec, h = PrecisionContext(64), n // 2
        solved = pade_construct(e1_inverse_power_coeffs(n - 1).coeffs, max(h - 1, 0), h)
        with prec.workdps():
            zv = to_mpf(Fraction(z))
            assert doc["accelerated"]["pade"] == _fmt(pade_eval(solved, 1 / zv, prec) / zv, prec)

    @pytest.mark.parametrize("terms", ["0", "-3"])
    def test_terms_below_one_names_the_option(self, capsys, terms):
        code, doc = run_json(capsys, "e1", "--z", "2", "--terms", terms)
        assert code == 2
        assert doc["error"] == "domain"
        assert doc["message"] == f"--terms must be >= 1, got {terms}"

    @pytest.mark.parametrize("z, n", sorted(E1_COMPARE_SHA256))
    def test_compare_documents_pinned(self, capsys, monkeypatch, z, n):
        # byte for byte the documents of the step-by-step mpf loop this route replaced
        monkeypatch.delenv("FACSERIES_PRECISION", raising=False)
        code, out = run(capsys, "e1", "--z", z, "--terms", str(n), "--compare")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == E1_COMPARE_SHA256[z, n]

    def test_precision_switches_do_not_grow_with_terms(self, capsys, monkeypatch):
        # a bounded number of workdps blocks a request, none per printed number
        switches, workdps = [], mp.workdps
        monkeypatch.setattr(mp, "workdps", lambda n: switches.append(n) or workdps(n))
        counts = []
        for n in (10, 30, 60):
            switches.clear()
            assert run(capsys, "e1", "--z", "163/8", "--terms", str(n), "--compare")[0] == 0
            counts.append(len(switches))
        assert counts[0] == counts[1] == counts[2] == 0

    @pytest.mark.parametrize("z, n", E1_PADE_CASES)
    def test_pade_is_the_exact_value_rounded_once(self, capsys, z, n):
        code, doc = run_json(capsys, "e1", "--z", z, "--terms", str(n), "--compare")
        assert code == 0
        w = 1 / Fraction(z)  # the approximant is to z e^z E1(z), in w = 1/z
        assert doc["accelerated"]["pade"] == rounded_once(e1_pade_exact(n, w) * w, 64)


def rounded_once(q, digits):
    """The exact q rounded once to `digits` significant digits, as mp.nstr prints them
    (one binary rounding 60 digits further down first, which a tie would need to see)."""
    with mp.workdps(digits + 60):
        return mp.nstr(mp.mpf(q.numerator) / q.denominator, digits)


def e1_pade_exact(n, w):
    """The solved [h-1/h] approximant of the n-term E1 series, h = n // 2, at w, exactly."""
    h = n // 2
    p = pade_construct(e1_inverse_power_coeffs(n - 1).coeffs, max(h - 1, 0), h)
    num, den = (sum(c * w**k for k, c in enumerate(cs)) for cs in (p.num, p.den))
    return num / den


def _e1_transform_cell(z, n, method):
    """T_{n-2}^(0), beta = 1, of the terms (-1)^m m!/z^(m+1), m < n, with the
    first neglected term as remainder estimate, in exact binomial sums."""
    terms = [Fraction((-1) ** m * factorial(m)) / z ** (m + 1) for m in range(n)]
    k = n - 2
    num = den = partial = Fraction(0)
    for j in range(k + 1):
        partial += terms[j]
        w = Fraction(1)
        for i in range(k - 1):  # ((1+j)/(1+k))^(k-1), resp. (1+j)_(k-1)/(1+k)_(k-1)
            w *= Fraction(1 + j, 1 + k) if method == "levin" else Fraction(1 + j + i, 1 + k + i)
        c = (-1) ** j * comb(k, j) * w / terms[j + 1]
        num += c * partial
        den += c
    return num / den


class TestOscillator:
    def test_all_methods_with_reference(self, capsys):
        code, doc = run_json(
            capsys, "oscillator", "--beta", "1/5", "--order", "6", "--all"
        )
        assert code == 0
        assert set(doc["energies"]) == {"factorial", "pade", "integral"}
        assert doc["reference"] == "1.118292654367039154"
        for err in doc["errors"].values():
            # three significant digits: the 19-digit reference fixes no more
            assert re.fullmatch(r"\d\.\d\de[-+]\d\d+", err), err
            assert float(err) < 0.01

    def test_no_reference_off_calibration_point(self, capsys):
        code, doc = run_json(
            capsys, "oscillator", "--beta", "1/10", "--order", "6",
            "--method", "pade",
        )
        assert code == 0
        assert "reference" not in doc

    def test_integral_at_extreme_coupling(self, capsys):
        # z = 1/beta far below the fixed-point unit: every digit of the closed form
        code, doc = run_json(capsys, "oscillator", "--beta", "1e100", "--order", "34",
                             "--method", "integral")
        assert code == 0
        assert doc["energies"]["integral"] == \
            "1.106108199286351291357048323866428921911588721779352429376521289e+99"
        # and far past the octave rule's reach, which warns; 1 + beta omega still prints 1
        with pytest.warns(QuadratureConvergenceWarning, match="reach"):
            code, doc = run_json(capsys, "oscillator", "--beta", "1e-100", "--order", "34",
                                 "--method", "integral")
        assert code == 0
        assert doc["energies"]["integral"] == "1.0"

    def test_all_keeps_the_energies_that_succeeded(self, capsys, tmp_path):
        # order 36: the integral route's [18/18] conjugate has a pole in (0, 1)
        table = tmp_path / "energies.csv"
        code, doc = run_json(capsys, "oscillator", "--beta", "1/5", "--order", "36", "--all",
                             "--csv", str(table))
        assert code == 0
        assert doc["energies"]["integral"] == {"error": "pole_in_domain"}
        rows = ["method,energy"]
        for method in ("factorial", "pade"):  # as each method alone prints them
            alone = run_json(capsys, "oscillator", "--beta", "1/5", "--order", "36", "--method", method)
            assert alone[0] == 0
            assert doc["energies"][method] == alone[1]["energies"][method]
            assert doc["errors"][method] == alone[1]["errors"][method]
            rows.append(f"{method},{doc['energies'][method]}")
        assert list(doc["errors"]) == ["factorial", "pade"]  # the energies only
        assert table.read_text().splitlines() == rows
        # the integral route alone still fails the command
        code, doc = run_json(capsys, "oscillator", "--beta", "1/5", "--order", "36", "--method", "integral")
        assert code == 2 and doc["error"] == "pole_in_domain"

    def test_all_failing_exits_2_with_the_first_error(self, capsys):
        code, doc = run_json(capsys, "oscillator", "--beta", "-1", "--order", "6", "--all")
        assert code == 2
        assert doc == {"schema": "facseries/1", "error": "domain",
                       "message": "coupling beta must be > 0, got -1"}

    @pytest.mark.parametrize("order", ["200", "300", "0"])
    def test_order_out_of_range_names_the_value(self, capsys, order):
        # every method reads b_(order+1), and the recursion stops at b_200
        code, doc = run_json(capsys, "oscillator", "--beta", "1/5", "--order", order,
                             "--method", "factorial")
        assert code == 2
        assert doc["error"] == "domain"
        assert doc["message"] == f"order must be in 1..199, got {order}"


class TestNoPrecisionSwitch:
    """The commands compute at the context's own bits: none enters mp.workdps or
    mp.workprec, and mpmath's global precision is as the caller left it."""

    @pytest.mark.parametrize("argv", [
        ["oscillator", "--beta", "1/5", "--order", "34", "--all"],
        ["oscillator", "--beta", "3/7", "--order", "34", "--method", "integral"],
        ["pade", "--in", "{inv}", "--L", "4", "--M", "5", "--eval", "1/3"],
        ["sum", "--backend", "integral", "--in", "{fact}", "--z", "3", "--pade", "7", "7"],
    ])
    def test_no_precision_switch(self, capsys, monkeypatch, tmp_path, e1_factorial_file, argv):
        e1_inverse_power_coeffs(14).dump(inv := tmp_path / "e1_inv.json")
        argv = [a.format(inv=inv, fact=e1_factorial_file) for a in argv]
        switches = []
        for name in ("workdps", "workprec"):
            monkeypatch.setattr(mp, name, lambda n, _name=name, _enter=getattr(mp, name):
                                switches.append((_name, n)) or _enter(n))
        old = mp.prec
        try:
            mp.dps = 37
            code, _ = run(capsys, *argv)
            assert code == 0 and switches == [] and mp.dps == 37
        finally:
            mp.prec = old


class TestPlumbing:
    def test_determinism(self, capsys):
        _, first = run(capsys, "e1", "--z", "5", "--terms", "10", "--compare")
        _, second = run(capsys, "e1", "--z", "5", "--terms", "10", "--compare")
        assert first == second

    def test_precision_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("FACSERIES_PRECISION", "32")
        code, doc = run_json(capsys, "stirling", "--kind", "1", "--n", "2", "--json")
        assert code == 0
        assert doc["precision_digits"] == 32

    def test_precision_flag_wins(self, capsys, monkeypatch):
        monkeypatch.setenv("FACSERIES_PRECISION", "32")
        code, doc = run_json(
            capsys, "stirling", "--kind", "1", "--n", "2", "--json",
            "--precision", "48",
        )
        assert doc["precision_digits"] == 48

    def test_bad_precision_exit_1(self, capsys):
        assert main(["stirling", "--kind", "1", "--n", "2", "--precision", "4"]) == 1

    def test_missing_file_exit_1(self, capsys):
        assert main(
            ["pade", "--in", "/nonexistent.json", "--L", "1", "--M", "1"]
        ) == 1

    def test_usage_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stirling", "--kind", "7", "--n", "2"])
        assert exc.value.code == 1

    def test_csv_written(self, capsys, tmp_path, e1_factorial_file):
        csv_path = tmp_path / "sums.csv"
        code, _ = run(
            capsys, "sum", "--backend", "direct", "--z", "5", "--terms", "5",
            "--in", e1_factorial_file, "--csv", str(csv_path),
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "m,partial_sum"
        assert len(lines) == 6

    @pytest.mark.parametrize("argv", [
        ["e1", "--z", "5", "--terms", "3"],
        ["oscillator", "--beta", "1/5", "--order", "4", "--method", "pade"],
        ["sum", "--backend", "direct", "--z", "5", "--terms", "3", "--in", "{series}"],
        ["accelerate", "--method", "levin", "--k", "2", "--in", "{series}"],
    ])
    def test_unwritable_csv_leaves_stdout_empty(self, capsys, tmp_path, e1_factorial_file, argv):
        # exit 1 prints nothing on stdout: the table is written before the document
        argv = [a.format(series=e1_factorial_file) for a in argv]
        code = main(argv + ["--csv", str(tmp_path / "missing" / "x.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("facseries: ") and captured.err.count("\n") == 1

    def test_unwritable_out_leaves_no_table(self, capsys, tmp_path):
        # both destinations are opened before either is written
        csv_path = tmp_path / "x.csv"
        code = main(["e1", "--z", "5", "--terms", "3", "--csv", str(csv_path),
                     "--out", str(tmp_path / "missing" / "y.json")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("facseries: ") and captured.err.count("\n") == 1
        assert not csv_path.exists()

    def test_unwritable_out_removes_only_a_table_file_it_made(self, capsys, tmp_path):
        # a --csv path that was already there (a device, a link, a user's file) is not removed
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("old\n")
        code = main(["e1", "--z", "5", "--terms", "3", "--csv", str(csv_path),
                     "--out", str(tmp_path / "missing" / "y.json")])
        assert code == 1 and capsys.readouterr().out == ""
        assert csv_path.exists()

    def test_unwritable_out_keeps_an_existing_table(self, capsys, tmp_path):
        # the old table is truncated only once --out is open
        csv_path = tmp_path / "x.csv"
        csv_path.write_bytes(b"old,table\n1,2\n")
        code = main(["e1", "--z", "5", "--terms", "3", "--csv", str(csv_path),
                     "--out", str(tmp_path / "missing" / "y.json")])
        assert code == 1 and capsys.readouterr().out == ""
        assert csv_path.read_bytes() == b"old,table\n1,2\n"

    def test_existing_table_replaced(self, capsys, tmp_path):
        # a longer table that was there is replaced whole, not appended to or overlaid
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("old,table\n" + "9,9\n" * 100)
        code, out = run(capsys, "e1", "--z", "5", "--terms", "3", "--csv", str(csv_path))
        assert code == 0
        assert csv_path.read_text().splitlines() == ["n,partial_sum"] + [
            f"{n},{s}" for n, s in enumerate(json.loads(out)["partial_sums"])]

    def test_table_to_a_device(self, capsys, tmp_path):
        # a device such as /dev/null takes the table untruncated
        code, out = run(capsys, "e1", "--z", "5", "--terms", "3", "--csv", os.devnull,
                        "--out", str(tmp_path / "y.json"))
        assert code == 0 and out == "" and os.path.exists(os.devnull)

    def test_unwritable_csv_leaves_out_untouched(self, capsys, tmp_path):
        out_path = tmp_path / "y.json"
        out_path.write_text("kept\n")
        code = main(["e1", "--z", "5", "--terms", "3", "--out", str(out_path),
                     "--csv", str(tmp_path / "missing" / "x.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert out_path.read_text() == "kept\n"

    def test_csv_and_out_both_written(self, capsys, tmp_path):
        csv_path, out_path = tmp_path / "x.csv", tmp_path / "y.json"
        code, out = run(capsys, "e1", "--z", "5", "--terms", "3", "--csv", str(csv_path),
                        "--out", str(out_path))
        assert code == 0 and out == ""
        doc = json.loads(out_path.read_text())
        assert csv_path.read_text().splitlines() == ["n,partial_sum"] + [
            f"{n},{s}" for n, s in enumerate(doc["partial_sums"])]

    @pytest.mark.parametrize("argv", [
        ["stirling", "--kind", "1", "--n", "2"],
        ["transform", "--from", "invpow", "--to", "fact", "--in", "s.json"],
        ["pade", "--in", "s.json", "--L", "0", "--M", "0"],
    ])
    def test_csv_rejected_where_no_table(self, capsys, tmp_path, argv):
        csv_path = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--csv", str(csv_path)])
        assert exc.value.code == 1
        assert "--csv" in capsys.readouterr().err
        assert not csv_path.exists()


def run_any(capsys, argv):
    """(exit code, stdout, stderr) of one main call, argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """main parses every call with one parser built on its first call."""

    SEQUENCE = [
        ["e1", "--z", "abc", "--terms", "5"],                  # usage error, exit 1
        ["stirling", "--kind", "7", "--n", "2"],               # argparse's usage error
        ["e1", "--z", "5", "--terms", "6"],
        ["e1", "--z", "5", "--terms", "6", "--compare"],
        ["e1", "--z", "5", "--terms", "6"],                    # no "accelerated" left over
        ["e1", "--z", "1/3", "--terms", "4", "--precision", "30"],
        ["e1", "--z", "1/3", "--terms", "4"],                  # back to 64 digits
        ["--version"],
    ]

    def test_each_call_as_with_a_fresh_parser(self, capsys, monkeypatch):
        monkeypatch.delenv("FACSERIES_PRECISION", raising=False)
        reused = [run_any(capsys, argv) for argv in self.SEQUENCE]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", build_parser)  # a new parser per call
        fresh = [run_any(capsys, argv) for argv in self.SEQUENCE]
        assert reused == fresh
        codes = [code for code, _, _ in reused]
        assert codes == [1, 1, 0, 0, 0, 0, 0, 0]
        docs = [json.loads(out) for code, out, _ in reused[2:7]]
        assert "accelerated" in docs[1]
        assert "accelerated" not in docs[0] and "accelerated" not in docs[2]
        assert [d["precision_digits"] for d in docs[3:]] == [30, 64]
        assert reused[7][1].strip() == facseries.__version__

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(facseries.__file__))
        code = "import facseries.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0 and proc.stdout == "0\n", proc.stderr


def assert_usage_error(capsys, argv):
    """Exit 1 with a single "facseries: ..." line on stderr."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("facseries: ") and err.count("\n") == 1, err


def run_module(*argv):
    """python -m facseries in a fresh interpreter, facseries imported from this checkout."""
    src = os.path.dirname(os.path.dirname(facseries.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "facseries", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestModuleEntryPoint:
    def test_version(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == facseries.__version__

    def test_bad_z_exit_1(self):
        proc = run_module("e1", "--z", "abc", "--terms", "5")
        assert proc.returncode == 1
        assert proc.stderr.startswith("facseries: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""


class TestUsageErrors:
    def test_e1_z_not_rational(self, capsys):
        assert_usage_error(capsys, ["e1", "--z", "abc", "--terms", "5"])

    def test_oscillator_beta_not_rational(self, capsys):
        assert_usage_error(capsys, ["oscillator", "--beta", "abc", "--order", "4"])

    def test_precision_env_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("FACSERIES_PRECISION", "x")
        assert_usage_error(capsys, ["stirling", "--kind", "1", "--n", "2"])

    def test_input_file_not_json(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        path.write_text("not json {")
        assert_usage_error(capsys, ["pade", "--in", str(path), "--L", "1", "--M", "1"])

    @pytest.mark.parametrize("src, dst", [("pow", "invpow"), ("fact", "fact"),
                                          ("invpow", "invpow")])
    def test_unsupported_transform_pair(self, capsys, tmp_path, src, dst):
        path = tmp_path / "s.json"
        FormalSeries(SeriesKind.POWER, [1, 2]).dump(path)
        assert main(["transform", "--from", src, "--to", dst, "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"facseries: no transform from {src} to {dst}\n"

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        option=st.sampled_from(["--z", "--beta", "accelerate --beta", "FACSERIES_PRECISION",
                                "--in"]),
        value=st.one_of(
            st.text(max_size=8),
            st.text(alphabet="0123456789/-+.e_ ", max_size=6),
            st.sampled_from(["1/0", "nan", "inf", "-1", "0", "3/7", "1e3", "2", "99",
                             "1e400", "1e-400"]),
        ),
    )
    def test_fuzzed_inputs_never_escape(self, capsys, monkeypatch, tmp_path, option, value):
        # exit 0, 1 or 2, and never a traceback
        path = tmp_path / "in.json"
        path.write_text('{"kind": "power", "coeffs": [{"num": "1", "den": "1"}]}')
        monkeypatch.delenv("FACSERIES_PRECISION", raising=False)
        if option == "--z":
            argv = ["e1", "--z", value, "--terms", "4"]
        elif option == "--beta":
            argv = ["oscillator", "--beta", value, "--order", "4", "--method", "pade"]
        elif option == "accelerate --beta":
            path.write_text('[1, "-1/2", "1/3", "-1/4"]')
            argv = ["accelerate", "--method", "weniger", "--beta", value,
                    "--in", str(path), "--k", "2"]
        elif option == "FACSERIES_PRECISION":
            assume("\x00" not in value)  # no environment can hold it
            monkeypatch.setenv("FACSERIES_PRECISION", value)
            argv = ["stirling", "--kind", "1", "--n", "3", "--json"]
        else:
            path.write_text(value)
            argv = ["pade", "--in", str(path), "--L", "0", "--M", "0"]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.err
