"""Runs one workload against the facseries sources of this checkout.

Started by run.py as a fresh interpreter, one per set-up sample.  It reads a
pickled job on stdin and writes one pickled result on stdout:

    job    = {"workload", "requests", "seconds", "trace", "mode"}
    result = {"setup_s", "peak_rss_mb", "passes", "first_outputs", ...}

Set-up is the import of facseries plus the warm-up of its caches that a
warm session would have done; `mode == "setup"` stops there.  Otherwise
whole passes over the request list run while one more, as long as the
last, would end within `seconds` (at least one pass).  Each request is
timed alone, from the call into the program until it returns; turning its
result into plain data, comparing it with the first pass and everything
else the benchmark does stays outside the clock.  With `trace`, every
request also runs traced, next to its untraced run, so the same run gives
the tracing overhead.

Every time is reported at a fixed reference speed of the machine: a short
probe of exact rational arithmetic is timed just before, every 50 ms during
and just after each request (and just after set-up), and the wall time is
scaled by the ratio of PROBE_REFERENCE_S to the probe's mean time.  The
host's speed swings by a quarter over seconds; the program's speed follows
the probe's to within a few per cent, so the swing divides out while a
change in the program does not.  The wall times stay in the record as
`wall_s`.

`oscillator-cold` runs each request in a process forked from this one after
the import and before any facseries call, so every request starts with
empty caches and none pays for the import.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pickle
import signal
import statistics
import sys
import traceback
import warnings
from time import perf_counter

from tracer import Tracer, merge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRECISION = 64


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import facseries
    from facseries import (acceleration, applications, cli, evaluate, pade, series,
                           stirling, transforms)
    if not os.path.abspath(facseries.__file__).startswith(os.path.join(ROOT, "src", "")):
        raise ImportError(f"facseries imported from {facseries.__file__}, not this checkout")
    return {"acceleration": acceleration, "applications": applications, "cli": cli,
            "evaluate": evaluate, "pade": pade, "series": series, "stirling": stirling,
            "transforms": transforms}


# --- machine speed -----------------------------------------------------------

# the probe's median time on the 2-core machine the README describes
PROBE_REFERENCE_S = 0.0005
PROBE_REPEATS = 5
PROBE_PERIOD_S = 0.05


def _probe_work():
    from fractions import Fraction  # the program imports it; this keeps it out of setup_s

    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(1, i * i + 1)
    return total


@contextlib.contextmanager
def _collector_off():
    """Garbage the program left is collected on the program's clock, not the probe's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def speed_probe(repeats: int = PROBE_REPEATS) -> float:
    """Median time of a few runs of the probe."""
    times = []
    with _collector_off():
        for _ in range(repeats):
            t0 = perf_counter()
            _probe_work()
            times.append(perf_counter() - t0)
    return sorted(times)[repeats // 2]


class _SpeedSampler:
    """Times one run of the probe every PROBE_PERIOD_S while a request runs.

    A request of seconds outlasts the swings that a probe before and after
    it would see, so a timer signal samples the speed inside it too; the
    time the samples take is kept apart and taken off the request's time.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(speed_probe(1))
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def at_reference_speed(wall_s: float, probe_s: float) -> float:
    return wall_s * PROBE_REFERENCE_S / probe_s


# --- workloads: set-up (warm-up), one request, and its output as plain data ---


class E1Compare:
    fresh_process = False

    def __init__(self, fs, requests):
        self.fs, self.requests = fs, requests
        # Stirling rows up to the largest term count, as a warm session has them
        fs["stirling"].stirling1(max(r["terms"] for r in requests), 0)

    def call(self, i):
        req = self.requests[i]
        argv = ["e1", "--z", str(req["z"]), "--terms", str(req["terms"]), "--compare"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.fs["cli"].main(argv)
        return code, buf.getvalue()

    def output(self, i, raw):
        code, text = raw
        return {"exit": code, "doc": json.loads(text) if code == 0 else text}


class Oscillator:
    """oscillator_energy by each requested method; cold or warm."""

    fresh_process = True

    def __init__(self, fs, requests):
        self.fs, self.requests = fs, requests
        self.prec = fs["series"].PrecisionContext(PRECISION)
        self.leading = None

    def call(self, i):
        req = self.requests[i]
        energy = self.fs["applications"].oscillator_energy
        return {m: energy(req["beta"], req["order"], m, self.prec) for m in req["methods"]}

    def output(self, i, raw):
        from mpmath import nstr

        return {"energies": {m: nstr(v, 40) for m, v in raw.items()},
                "b": self.leading or self._leading()}

    def _leading(self):
        """b_1..b_5 as this process holds them."""
        return [str(x) for x in self.fs["applications"].oscillator_coeffs(5).coeffs[1:6]]


class BetaScan(Oscillator):
    fresh_process = False

    def __init__(self, fs, requests):
        super().__init__(fs, requests)
        order = max(r["order"] for r in requests)
        # a warm API session: coefficients, Stirling rows and Gauss-Legendre nodes
        fs["applications"].oscillator_coeffs(order + 1)
        fs["stirling"].stirling1(order, 0)
        ev = fs["evaluate"]
        ev.quadrature_01(lambda t: t, ev.QuadratureSpec(), self.prec)
        # read here, since a traced call after a request would land in its pass
        self.leading = self._leading()


class TransformRoundtrip:
    fresh_process = False

    def __init__(self, fs, requests):
        self.fs, self.requests = fs, requests
        tr, series = fs["transforms"], fs["series"]
        self.pairs = {n: tr.TransformMatrix.stirling_pair(n - 1)
                      for n in sorted({r["length"] for r in requests})}
        self.series = [series.FormalSeries(series.SeriesKind.INVERSE_POWER, r["coeffs"])
                       for r in requests]
        self.lower = [tr.TransformMatrix(r["lower"]) for r in requests]

    def call(self, i):
        tr, series = self.fs["transforms"], self.fs["series"]
        c = self.series[i]
        order = len(c) - 1
        d = tr.inverse_power_to_factorial(c, order)
        wire = json.dumps(d.to_json_obj())
        back = tr.factorial_to_inverse_power(series.FormalSeries.from_json_obj(json.loads(wire)),
                                             order)
        pair = self.pairs[len(c)]
        inverse = tr.triangular_inverse_apply(pair, tr.triangular_forward(pair, c.coeffs))
        companion = self.lower[i].with_computed_companion().companion
        return back, inverse, companion

    def output(self, i, raw):
        back, inverse, companion = raw
        req = self.requests[i]
        pair = self.pairs[req["length"]]
        return {"roundtrip": list(back.coeffs), "inverse": list(inverse),
                "companion": [list(row) for row in companion.rows],
                "stirling": [(n, k, pair.rows[n][k], pair.companion.rows[n][k])
                             for n, k in req["probes"]]}


WORKLOADS = {"e1-compare": E1Compare, "oscillator-cold": Oscillator,
             "beta-scan": BetaScan, "transform-roundtrip": TransformRoundtrip}


# --- timing -------------------------------------------------------------------


def _timed(work, i, quadrature_warning):
    """One request: (raw result, error, seconds, quadrature warnings, probe seconds).

    The probe seconds are the mean of the probe's time before, during (see
    _SpeedSampler) and after the request.
    """
    before = speed_probe()
    with warnings.catch_warnings(record=True) as caught, _SpeedSampler() as sampler:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            raw, error = work.call(i), None
        except Exception as exc:  # the program raised: the request failed
            raw, error = None, f"{type(exc).__name__}: {exc}"
        dt = perf_counter() - t0 - sampler.spent
    probe_s = statistics.mean([before, *sampler.samples, speed_probe()])
    warned = 0 if error else sum(issubclass(w.category, quadrature_warning) for w in caught)
    return raw, error, dt, warned, probe_s


def _record(work, i, timed):
    raw, error, dt, warned, probe_s = timed
    return (None if error else work.output(i, raw)), error, dt, warned, probe_s


def _in_fresh_process(work, i, quadrature_warning, tracer):
    """Fork, run one request in the child, and read back (record, trace, peak MB)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            timed = _timed(work, i, quadrature_warning)
            summary = tracer.summary() if tracer else None
            peak = _peak_rss_mb()
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump((_record(work, i, timed), summary, peak), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return ((None, f"request process exited with status {status}", 0.0, 0,
                 PROBE_REFERENCE_S), None, 0.0)
    return pickle.loads(data)


def _peak_rss_mb() -> float:
    """High-water resident memory of this process's own address space.

    Read from /proc rather than getrusage: a process started by exec keeps in
    ru_maxrss the peak of the process it was forked from (here, run.py).
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _one_pass(work, quadrature_warning, tracer, first):
    """Every request once; with a tracer, twice, untraced and traced in turn.

    Running the two side by side, in alternating order, keeps the machine's
    speed swings, which last seconds, out of the tracing overhead.  Returns
    the record of the pass and, for the first pass, the untraced outputs.
    """
    runs, outputs, summary, peak = [], [], {}, 0.0
    if tracer:
        tracer.reset()
    for i in range(len(work.requests)):
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        results = {}
        for traced in modes:
            if traced:
                tracer.install()
            try:
                if work.fresh_process:
                    results[traced], part, child_peak = _in_fresh_process(
                        work, i, quadrature_warning, tracer if traced else None)
                    peak = max(peak, child_peak)
                    if part:
                        merge(summary, part)
                else:
                    results[traced] = _record(work, i, _timed(work, i, quadrature_warning))
            finally:
                if traced:
                    tracer.uninstall()
        if first is None:
            outputs.append(results[False][0])
        expected = first[i] if first is not None else results[False][0]
        for traced in modes:
            output, error, dt, warned, probe_s = results[traced]
            runs.append({"request": i, "traced": traced,
                         "s": at_reference_speed(dt, probe_s), "wall_s": dt,
                         "probe_s": probe_s, "error": error,
                         "same": output == expected, "quadrature_warnings": warned})
    if tracer and not work.fresh_process:
        summary = tracer.summary()
        tracer.reset()
    return {"runs": runs, "trace": summary if tracer else None, "peak_rss_mb": peak}, outputs


def run(job) -> dict:
    t0 = perf_counter()
    fs = _import_program()
    work = WORKLOADS[job["workload"]](fs, job["requests"])
    setup_wall_s = perf_counter() - t0
    probe_s = speed_probe()
    result = {"setup_s": at_reference_speed(setup_wall_s, probe_s),
              "setup_wall_s": setup_wall_s, "setup_probe_s": probe_s}
    if job["mode"] == "run":
        quadrature_warning = fs["evaluate"].QuadratureConvergenceWarning
        tracer = Tracer() if job["trace"] else None
        passes, first = [], None
        start = perf_counter()
        while True:  # whole passes
            pass_start = perf_counter()
            record, outputs = _one_pass(work, quadrature_warning, tracer, first)
            passes.append(record)
            if first is None:
                first = outputs
            now = perf_counter()
            # stop unless one more pass, as long as this one, still fits
            if now - start + (now - pass_start) > job["seconds"]:
                break
        result.update(passes=passes, first_outputs=first)
    # the processes that ran requests: this one, or the ones forked per request
    result["peak_rss_mb"] = max([_peak_rss_mb()] + [p["peak_rss_mb"]
                                                    for p in result.get("passes", [])])
    return result


def main() -> int:
    job = pickle.load(sys.stdin.buffer)
    # the result goes to the original stdout; anything the program prints, to stderr
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    result = run(job)
    with out:
        pickle.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
