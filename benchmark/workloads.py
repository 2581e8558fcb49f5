"""Seeded request lists of the four workloads.

Every list is a pure function of (workload, seed, rung): the benchmark runs
whole passes over it, so two runs with one seed do the same work.  Where the
cost of a request depends steeply on one input (the term count N of an E1
request, the order of an oscillator request, the length of a transform
round trip), that input is drawn by stratified sampling or from a fixed
ladder, so that every seed gives nearly the same cost profile and the
medians move with the program rather than with the seed.  The other inputs
(z, beta, the coefficients, the matrices) are drawn freely from the seed.

This module imports nothing from the program: run.py builds the list
here, hands it to the worker and checks the outputs against it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("e1-compare", "oscillator-cold", "beta-scan", "transform-roundtrip")

# oscillator orders in [34, 54] whose integral route is pole-free at beta = 1/5
# (36, 40 and 44 raise PoleInDomainError), in three strata.  The dearest
# all-method request and the cheapest factorial one are the middle two of a
# pass, so they set the median: both are fixed, and the seed draws the rest.
COLD_STRATA = ((34, 35, 37, 38, 39), (41, 42, 43, 45, 46, 47, 48), (53,))
COLD_FACTORIAL_ORDERS = (99, 100, 101)
COLD_BETA = Fraction(1, 5)
BETA_SCAN_ORDER = 34
# lengths of one pass; the median length fills most of it, so the median
# request time rests on many samples rather than on one or two
TRANSFORM_LENGTHS = (40, 100, 100, 100, 100, 160)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_strata(rng: random.Random, lo: float, hi: float, count: int, den: int) -> list:
    """One value per equal-width stratum of [log lo, log hi], as a multiple of 1/den."""
    width = (math.log(hi) - math.log(lo)) / count
    out = []
    for i in range(count):
        x = math.exp(math.log(lo) + (i + rng.random()) * width)
        out.append(Fraction(min(max(round(x * den), math.ceil(lo * den)), math.floor(hi * den)), den))
    return out


def e1_requests(seed: int, rung: str = "full") -> list:
    """(z, N) for `facseries e1 --z Z --terms N --compare`, z in [1/2, 20], N in [10, 60].

    Every N in [10, 60] once; z is one seeded draw from each of 51 equal
    strata of log z, matched to N by a fixed stride, so that small and large
    z meet small and large N alike in every seed.
    """
    rng = _rng("e1-compare", seed)
    if rung == "small":
        return [{"z": Fraction(5), "terms": 10}, {"z": Fraction(1, 2), "terms": 12}]
    count = 51
    zs = _log_strata(rng, 0.5, 20.0, count, 8)
    reqs = [{"z": zs[(7 * i) % count], "terms": 10 + i} for i in range(count)]
    rng.shuffle(reqs)
    return reqs


def cold_requests(seed: int, rung: str = "full") -> list:
    """oscillator_energy at beta = 1/5, one fresh process per request."""
    rng = _rng("oscillator-cold", seed)
    if rung == "small":
        return [
            {"beta": COLD_BETA, "order": 34, "methods": ("factorial", "pade", "integral")},
            {"beta": COLD_BETA, "order": 34, "methods": ("factorial",)},
        ]
    reqs = [{"beta": COLD_BETA, "order": rng.choice(s), "methods": ("factorial", "pade", "integral")}
            for s in COLD_STRATA]
    reqs += [{"beta": COLD_BETA, "order": order, "methods": ("factorial",)}
             for order in COLD_FACTORIAL_ORDERS]
    rng.shuffle(reqs)
    return reqs


def beta_scan_requests(seed: int, rung: str = "full") -> list:
    """pade and integral energies at a fixed order for beta in [1/20, 4]."""
    rng = _rng("beta-scan", seed)
    if rung == "small":
        betas = [Fraction(1, 10), Fraction(2)]
    else:
        betas = [b if b != 1 else Fraction(1001, 1000)
                 for b in _log_strata(rng, 0.05, 4.0, 16, 1000)]
        rng.shuffle(betas)
    return [{"beta": b, "order": BETA_SCAN_ORDER, "methods": ("pade", "integral")} for b in betas]


def transform_requests(seed: int, rung: str = "full") -> list:
    """Exact round trips of seeded inverse-power series through the transform layer.

    Three lengths serve six requests, so a result that depends only on the
    length (the Stirling pair and its orthogonality check) could be reused.
    """
    rng = _rng("transform-roundtrip", seed)
    lengths = (8, 12) if rung == "small" else TRANSFORM_LENGTHS
    reqs = []
    for n in lengths:
        coeffs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 1000))
                  for _ in range(n)]
        size = n // 2
        lower = [[rng.randint(-3, 3) if k < r else 1 for k in range(r + 1)] for r in range(size)]
        probes = sorted({(nn, rng.randint(0, nn)) for nn in (rng.randrange(n) for _ in range(8))})
        reqs.append({"length": n, "coeffs": coeffs, "lower": lower, "probes": probes})
    rng.shuffle(reqs)
    return reqs


REQUESTS = {
    "e1-compare": e1_requests,
    "oscillator-cold": cold_requests,
    "beta-scan": beta_scan_requests,
    "transform-roundtrip": transform_requests,
}
