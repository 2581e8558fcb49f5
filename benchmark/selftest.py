"""Quick test of the benchmark itself (about a minute).

    python3 -m pytest benchmark/selftest.py -q

It runs the smallest rung of every workload, traced and untraced, through
run.py; checks that the printed result has the shape and the metric names
BENCHMARK.json promises; shows that every check rejects a perturbed output;
and that the benchmark refuses to run where the program's sources are
missing.  The name keeps it out of the repository's own test run.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402
from workloads import REQUESTS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("benchmark", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_rung_runs_and_reports(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--rung", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # one pass untraced; an untraced and a traced pass when tracing
    assert result["attempted"] == len(REQUESTS[workload](3, "small")) * (1 + trace)
    promised = SPEC["per_layer" if trace else "end_to_end"]
    for metric in promised:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_the_program_sources():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "benchmark"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "benchmark"))
    proc = _run("--workload", "e1-compare", "--seed", "1", "--seconds", "1", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- every check rejects a perturbed output ---------------------------------------


@pytest.fixture(scope="module")
def outputs():
    """First-pass outputs of the small rungs, produced in this process."""
    out = {}
    for workload in WORKLOADS:
        requests = REQUESTS[workload](3, "small")
        result = worker.run({"workload": workload, "requests": requests, "seconds": 0,
                             "trace": False, "mode": "run"})
        out[workload] = (requests, result["first_outputs"])
    return out


def _last_digit(text: str, step: int = 1) -> str:
    """The printed number with its last digit moved by `step` (carrying as needed)."""
    mantissa, _, exponent = text.partition("e")
    digits = mantissa.replace(".", "").replace("-", "")
    moved = str(int(digits) + step).zfill(len(digits))
    assert len(moved) == len(digits), "carry changed the digit count"
    dot = mantissa.index(".") - mantissa.startswith("-")
    body = moved[:dot] + "." + moved[dot:]
    return ("-" if mantissa.startswith("-") else "") + body + ("e" + exponent if exponent else "")


def test_genuine_outputs_pass(outputs):
    for workload, (requests, outs) in outputs.items():
        for req, out in zip(requests, outs):
            assert checks.CHECKS[workload](req, out) == [], workload
    requests, outs = outputs["beta-scan"]
    assert checks.check_scan(requests, outs) == {}


@pytest.mark.parametrize("field, step", [("final", 1), ("reference", 2), ("ratio", 2)])
def test_e1_rejects_a_changed_last_digit(outputs, field, step):
    # final is checked to its last digit; reference and ratio, formed without
    # guard digits, to within a unit of it
    requests, outs = outputs["e1-compare"]
    for req, out in zip(requests, outs):
        for moved in (step, -step):
            bad = copy.deepcopy(out)
            bad["doc"][field] = _last_digit(out["doc"][field], moved)
            assert any(field in reason for reason in checks.check_e1(req, bad)), (field, moved)


@pytest.mark.parametrize("method", ["levin", "weniger", "pade"])
def test_e1_rejects_an_acceleration_no_better_than_truncation(outputs, method):
    requests, outs = outputs["e1-compare"]
    for req, out in zip(requests, outs):
        bad = copy.deepcopy(out)
        # 1/z is the first partial sum of the divergent series, never better than the best one
        bad["doc"]["accelerated"][method] = str(float(1 / req["z"]))
        assert any(method in reason for reason in checks.check_e1(req, bad))


@pytest.mark.parametrize("workload", ["oscillator-cold", "beta-scan"])
def test_oscillator_rejects_an_energy_just_past_its_tolerance(outputs, workload):
    requests, outs = outputs[workload]
    for req, out in zip(requests, outs):
        for method, text in out["energies"].items():
            tol = checks.energy_tolerance(method, req["order"], req["beta"])
            bad = copy.deepcopy(out)
            bad["energies"][method] = str(Fraction(text) + Fraction(3 * tol))
            assert any("tolerance" in reason for reason in checks.check_oscillator(req, bad))


def test_oscillator_rejects_an_energy_outside_its_bounds():
    req = {"beta": Fraction(4), "order": 34}
    ref = checks.ground_energy(req["beta"])
    # a loose tolerance cannot hide an energy above 1 + 3 beta/4 ...
    out = {"energies": {"integral": "4.5"}, "b": [str(b) for b in checks.LEADING_B]}
    assert any("outside" in reason for reason in checks.check_oscillator(req, out))
    # ... or below the unperturbed energy
    out["energies"]["integral"] = "0.999"
    assert any("outside" in reason for reason in checks.check_oscillator(req, out))
    assert ref > 1


def test_oscillator_rejects_a_flipped_coefficient(outputs):
    requests, outs = outputs["oscillator-cold"]
    bad = copy.deepcopy(outs[0])
    bad["b"][2] = str(-Fraction(bad["b"][2]))
    assert any("b_1..b_5" in reason for reason in checks.check_oscillator(requests[0], bad))


def test_scan_rejects_energies_that_do_not_increase(outputs):
    requests, outs = outputs["beta-scan"]
    bad = copy.deepcopy(outs)
    bad[0]["energies"]["pade"], bad[1]["energies"]["pade"] = (
        bad[1]["energies"]["pade"], bad[0]["energies"]["pade"])
    assert set(checks.check_scan(requests, bad)) == {0, 1}


@pytest.mark.parametrize("field", ["roundtrip", "inverse"])
def test_transform_rejects_one_flipped_coefficient(outputs, field):
    requests, outs = outputs["transform-roundtrip"]
    bad = copy.deepcopy(outs[0])
    bad[field][3] = -bad[field][3]
    assert checks.check_transform(requests[0], bad)


def test_transform_rejects_a_wrong_companion_entry(outputs):
    requests, outs = outputs["transform-roundtrip"]
    bad = copy.deepcopy(outs[0])
    bad["companion"][-1][0] += 1
    assert any("companion" in reason for reason in checks.check_transform(requests[0], bad))


def test_transform_rejects_a_wrong_stirling_number(outputs):
    requests, outs = outputs["transform-roundtrip"]
    bad = copy.deepcopy(outs[0])
    n, k, s1, s2 = bad["stirling"][-1]
    bad["stirling"][-1] = (n, k, s1 + 1, s2)
    assert any("Stirling" in reason for reason in checks.check_transform(requests[0], bad))
