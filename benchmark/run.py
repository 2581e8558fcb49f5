"""Benchmark of facseries: one workload, one seed, one run.

    python3 benchmark/run.py --workload e1-compare --seed 1 --seconds 24 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 24

Run from the root of a checkout.  It builds the seeded request list, takes
set-up samples in fresh interpreters, runs whole passes of the list for
`--seconds` in one more, checks every output against references made apart
from the program, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (request_s.p50,
requests_per_s, setup_s, peak_rss_mb); with `--trace 1` they are the
per-layer ones from traced passes, and the tracing overhead.  Times are
wall times scaled to a reference speed of the machine (worker.py).  The full
record (every request time, every rejected output, the trace per call site)
goes to benchmark/out/.  See benchmark/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import CHECKS, CROSS_CHECKS  # noqa: E402
from tracer import LAYERS, merge  # noqa: E402
from workloads import REQUESTS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 25
WORKER_TIMEOUT_S = 150

# per-layer metrics, "<function or layer>.<field>", each per pass of the list
PER_LAYER = [
    "cli.main.self_s",
    "acceleration.transform_table.levin.s",
    "acceleration.transform_table.weniger.s",
    "applications.e1_reference.s",
    "applications.e1_factorial_coeffs.s",
    "evaluate.sum_factorial_series.s",
    "applications.oscillator_coeffs.s",
    "transforms.power_to_factorial_coeffs.s",
    "evaluate.eval_power_as_factorial.s",
    "pade.pade_construct.calls",
    "pade.pade_construct.s",
    "pade.pade_construct.distinct_ratio",
    "pade.pade_eval.s",
    "evaluate.euler_integral_eval.self_s",
    "evaluate.quadrature_warnings",
    "transforms.verify_orthogonality.calls",
    "transforms.verify_orthogonality.s",
    "transforms.verify_orthogonality.distinct_ratio",
    "transforms.inverse_power_to_factorial.s",
    "transforms.factorial_to_inverse_power.s",
    "transforms.triangular_forward.s",
    "transforms.with_computed_companion.s",
    "stirling.calls",
    "stirling.s",
    "series.wire.s",
] + [f"{layer}.self_s" for layer in LAYERS]

UNITS = {"calls": "count", "s": "s", "self_s": "s", "distinct_ratio": "ratio",
         "quadrature_warnings": "count"}


def _worker(job: dict) -> dict:
    """Run worker.py in a fresh interpreter and return its result."""
    # a session of its own, so a timeout also stops the request processes it forked
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(pickle.dumps(job), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return pickle.loads(out)


def _verdicts(workload: str, requests: list, outputs: list) -> list:
    """Reasons each first-pass output is rejected ([] = accepted)."""
    check = CHECKS[workload]
    verdicts = [check(req, out) if out is not None else [] for req, out in zip(requests, outputs)]
    cross = CROSS_CHECKS.get(workload)
    if cross:
        for i, reasons in cross(requests, outputs).items():
            verdicts[i] += reasons
    return verdicts


def _failed(run: dict, verdicts: list) -> bool:
    """A run failed if it raised, its request was rejected, or it differs from pass 1."""
    return bool(run["error"] or verdicts[run["request"]] or not run["same"])


def _count(result: dict, verdicts: list) -> tuple:
    """(attempted, failed, rejected)."""
    runs = [r for p in result["passes"] for r in p["runs"]]
    failed = sum(1 for r in runs if _failed(r, verdicts))
    return len(runs), failed, sum(1 for v in verdicts if v)


def _end_to_end(result: dict, verdicts: list, setups: list) -> dict:
    runs = [r for p in result["passes"] for r in p["runs"]]
    times = [r["s"] for r in runs]
    # completed requests over the time spent in all of them, failed ones too
    completed = sum(1 for r in runs if not _failed(r, verdicts))
    return {
        "request_s.p50": {"value": statistics.median(times), "unit": "s"},
        "requests_per_s": {"value": completed / sum(times), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def _scaled(trace: dict, factor: float) -> dict:
    """A trace summary with its times multiplied by `factor`."""
    return {section: {key: {field: value * factor if field in ("s", "self_s") else value
                            for field, value in row.items()}
                      for key, row in rows.items()}
            for section, rows in trace.items()}


def _per_layer(result: dict) -> dict:
    """Per-layer metrics per traced pass, and the tracing overhead."""
    passes = result["passes"]
    total: dict = {}
    for p in passes:
        # layer times at the reference speed too, by the speed of the pass's traced requests
        traced = [r for r in p["runs"] if r["traced"]]
        wall_s = sum(r["wall_s"] for r in traced)
        merge(total, _scaled(p["trace"], sum(r["s"] for r in traced) / wall_s if wall_s else 1.0))
    n = len(passes)
    metrics = {}
    for name in PER_LAYER:
        key, _, field = name.rpartition(".")
        if field == "quadrature_warnings":
            value = sum(r["quadrature_warnings"] for p in passes for r in p["runs"]
                        if r["traced"]) / n
        elif field == "distinct_ratio":
            row = total.get("distinct", {}).get(key)
            value = row["distinct"] / row["calls"] if row else 0.0
        else:
            section = "layers" if key in LAYERS else "functions"
            value = total.get(section, {}).get(key, {}).get(field, 0) / n
        metrics[name] = {"value": value, "unit": UNITS[field]}
    traced_s = sum(r["s"] for p in passes for r in p["runs"] if r["traced"]) / n
    plain_s = sum(r["s"] for p in passes for r in p["runs"] if not r["traced"]) / n
    metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
    metrics["trace.overhead_share"] = {"value": (traced_s - plain_s) / plain_s, "unit": "ratio"}
    return metrics, total


def run_workload(workload: str, seed: int, seconds: float, trace: int, rung: str) -> dict:
    """One run of one workload: the result object, with the full record written to out/."""
    requests = REQUESTS[workload](seed, rung)
    job = {"workload": workload, "requests": requests, "seconds": seconds, "trace": bool(trace)}
    # set-up samples before and after the timed run, so their median spans
    # the machine's speed over the whole run rather than one moment of it
    before = SETUP_SAMPLES // 2
    samples = [_worker({**job, "mode": "setup"}) for _ in range(before)]
    result = _worker({**job, "mode": "run"})
    samples.append(result)
    samples += [_worker({**job, "mode": "setup"}) for _ in range(SETUP_SAMPLES - 1 - before)]
    setups = [s["setup_s"] for s in samples]

    verdicts = _verdicts(workload, requests, result["first_outputs"])
    attempted, failed, rejected = _count(result, verdicts)
    if trace:
        metrics, summary = _per_layer(result)
    else:
        metrics, summary = _end_to_end(result, verdicts, setups), None

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "rung": rung,
        "setup_samples_s": setups, "setup_samples_wall_s": [s["setup_wall_s"] for s in samples],
        "passes": [p["runs"] for p in result["passes"]],
        "rejected": {i: v for i, v in enumerate(verdicts) if v},
        "trace_summary": summary, "metrics": metrics,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return {"correct": rejected == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                        help="all: every workload in turn, one JSON line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rung", choices=("full", "small"), default="full",
                        help="small: two requests per workload, for the self-test")
    args = parser.parse_args(argv)

    if args.workload == "all":
        for workload in WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, args.trace, args.rung)
            print(json.dumps({"workload": workload, **result}), flush=True)
        return 0
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace, args.rung)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
