"""Core series representations and Pochhammer/beta-term arithmetic.

A factorial series is written here as

    Omega(z) = sum_n d_n / (z)_{n+1}

with unreduced coefficients d_n; the reduced coefficient a_n = d_n / n!
(the form ``sum_n a_n n!/(z)_{n+1}``) is derived on demand, never stored.
All coefficients are exact ``fractions.Fraction`` values; rounding happens
only inside the evaluation routines, which work at an explicitly passed
decimal precision.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial, lcm
from typing import Iterable, Sequence, Union

import mpmath
from mpmath import libmp, mp

from .errors import DomainError, IntegrityError, PoleError

__all__ = [
    "Real",
    "PrecisionContext",
    "SeriesKind",
    "FormalSeries",
    "MomentSequence",
    "to_mpf",
    "pochhammer",
    "factorial_term",
    "forward_difference_term",
    "term_decay_estimate",
]

Real = Union[int, float, str, Fraction, mpmath.mpf]


@dataclass(frozen=True)
class PrecisionContext:
    """Decimal working precision for every approximate real computation.

    The precision in force is mpmath's process-global ``mp.dps``: ``workdps``
    sets it for the whole process and restores it on exit (``tol`` reads only
    ``digits``).  Library calls made from two threads at once therefore run at
    one another's precision and are unsupported.  The Stirling, oscillator and
    E1 caches stay thread-shareable.
    """

    digits: int = 64

    def __post_init__(self):
        if self.digits < 16:
            raise DomainError(f"precision must be >= 16 digits, got {self.digits}")

    def workdps(self, extra: int = 0):
        """Context manager setting mpmath's decimal precision (plus guard digits)."""
        return mp.workdps(self.digits + extra)

    def tol(self, offset: int) -> mpmath.mpf:
        """10^(offset - digits), the usual relative tolerance scale, rounded at P digits."""
        return mp.make_mpf(libmp.mpf_pow_int(libmp.from_int(10), offset - self.digits,
                                             libmp.dps_to_prec(self.digits), libmp.round_nearest))


def to_mpf(x: Real) -> mpmath.mpf:
    """Convert to mpf at the current mpmath precision; a Fraction is rounded once."""
    if isinstance(x, Fraction):
        return _quotient(x.numerator, x.denominator)
    return mp.mpf(x)


def _quotient(p: int, q: int) -> mpmath.mpf:
    """p/q rounded once to the nearest mpf at the current mpmath precision."""
    return mp.make_mpf(libmp.from_rational(p, q, mp.prec, libmp.round_nearest))


def _rational(x: Real) -> Fraction:
    """The exact value of a finite Real: an mpf or a float as the dyadic rational it is,
    a str as an exact decimal; anything else is a DomainError."""
    if isinstance(x, mpmath.mpf) and mp.isfinite(x):  # to_rational(inf) raises nothing
        return Fraction(*libmp.to_rational(x._mpf_))
    if isinstance(x, (int, Fraction, float, str)):
        with suppress(ValueError, OverflowError, ZeroDivisionError):  # inf, nan, "1/0"
            return Fraction(x)
    raise DomainError(f"not a finite real number: {x!r:.60}")


class SeriesKind(str, Enum):
    POWER = "power"            # sum_n g_n z^n
    INVERSE_POWER = "inverse_power"  # sum_n c_n / z^(n+1)
    FACTORIAL = "factorial"    # sum_n d_n / (z)_(n+1)


def _as_fractions(coeffs: Iterable) -> tuple[Fraction, ...]:
    return tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)


def _common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [v * D for v in values]) with D the least common denominator."""
    d = lcm(*(v.denominator for v in values))
    if d == 1:  # the numerators themselves: no copy of a big integer
        return 1, [v.numerator for v in values]
    return d, [v.numerator * (d // v.denominator) for v in values]


# CPython refuses int <-> str beyond sys.get_int_max_str_digits() digits (4300 by
# default, never below 640 when set); past it, integers go in 512-digit chunks
_CHUNK_DIGITS = 512
_CHUNK = 10**_CHUNK_DIGITS


def _int_to_decimal(n: int) -> str:
    """str(n) at any size."""
    try:
        return str(n)
    except ValueError:
        q, chunks = abs(n), []
        while q >= _CHUNK:
            q, r = divmod(q, _CHUNK)
            chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
        chunks.append(str(q))
        return "-" * (n < 0) + "".join(reversed(chunks))


def _decimal_to_int(text) -> int:
    """int(text) of a str or an int at any size; past the limit, text must be [+-]digits.
    Any other type (a float, which int() would truncate, or a bool) is a TypeError."""
    if type(text) is not int and not isinstance(text, str):
        raise TypeError(f"expected an integer or a decimal string, got {text!r}")
    try:
        return int(text)
    except ValueError:
        text = text.strip()
        digits = text.lstrip("+-")
        if len(text) - len(digits) > 1 or not (digits.isascii() and digits.isdigit()):
            raise
        n = 0
        for i in range(0, len(digits), _CHUNK_DIGITS):
            chunk = digits[i : i + _CHUNK_DIGITS]
            n = n * 10 ** len(chunk) + int(chunk)
        return -n if text[0] == "-" else n


def _fraction_obj(c: Fraction) -> dict:
    """{"num", "den"} of the wire format, as decimal strings."""
    return {"num": _int_to_decimal(c.numerator), "den": _int_to_decimal(c.denominator)}


@dataclass(frozen=True)
class FormalSeries:
    """Tagged list of exact series coefficients (index = term order)."""

    kind: SeriesKind
    coeffs: tuple[Fraction, ...]

    def __init__(self, kind: Union[SeriesKind, str], coeffs: Iterable):
        object.__setattr__(self, "kind", SeriesKind(kind))
        object.__setattr__(self, "coeffs", _as_fractions(coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def reduced_coeffs(self) -> tuple[Fraction, ...]:
        """a_n = d_n / n! for a factorial series."""
        if self.kind is not SeriesKind.FACTORIAL:
            raise DomainError("reduced coefficients only defined for factorial series")
        return tuple(d / factorial(n) for n, d in enumerate(self.coeffs))

    # --- JSON wire format: integers as decimal strings, exact over the wire ---

    def to_json_obj(self) -> dict:
        return {
            "schema": "facseries/1",
            "kind": self.kind.value,
            "coeffs": [_fraction_obj(c) for c in self.coeffs],
        }

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_obj(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FormalSeries":
        try:
            return cls(obj["kind"], [Fraction(_decimal_to_int(c["num"]), _decimal_to_int(c["den"]))
                                      for c in obj["coeffs"]])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise IntegrityError(f"malformed series object: {exc}") from exc

    @classmethod
    def load(cls, path) -> "FormalSeries":
        with open(path) as fh:
            return cls.from_json_obj(json.load(fh))


@dataclass(frozen=True)
class MomentSequence:
    """Moments mu_0, mu_1, ... of a Stieltjes measure; all must be positive."""

    moments: tuple[Fraction, ...]

    def __init__(self, moments: Iterable):
        ms = _as_fractions(moments)
        if any(m <= 0 for m in ms):
            raise DomainError("Stieltjes moments must be positive and finite")
        object.__setattr__(self, "moments", ms)

    def __len__(self) -> int:
        return len(self.moments)

    def stieltjes_series(self) -> FormalSeries:
        """The (generally divergent) series sum_n (-1)^n mu_n / z^(n+1)."""
        return FormalSeries(
            SeriesKind.INVERSE_POWER,
            [(-1) ** n * m for n, m in enumerate(self.moments)],
        )


# --- Pochhammer / beta-term arithmetic ------------------------------------


def _check_pole(z, n: int, prec: PrecisionContext) -> None:
    """Raise if z is within 10^(4-P) of a pole 0, -1, ..., -n of 1/(z)_{n+1}.  They are 1
    apart, so only the nearest can be; max(0, nan) is 0, so a nan z tests the pole at 0."""
    tol = prec.tol(4)
    i = int(mp.nint(min(n, max(0, -z))))
    if abs(z + i) < tol:
        raise PoleError(f"z={z} is within {mp.nstr(tol, 3)} of the pole at {-i}")


def pochhammer(z: Real, n: int, prec: PrecisionContext = PrecisionContext()) -> mpmath.mpf:
    """Rising factorial (z)_n = z (z+1) ... (z+n-1); empty product is 1."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    with prec.workdps():
        zv = to_mpf(z)
        out = mp.mpf(1)
        for i in range(n):
            out *= zv + i
        return out


def factorial_term(
    z: Real, n: int, d_n: Real, prec: PrecisionContext = PrecisionContext()
) -> mpmath.mpf:
    """d_n / (z)_{n+1}, the n-th term of a factorial series at z."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    with prec.workdps():
        _check_pole(zv := to_mpf(z), n, prec)
        return to_mpf(d_n) / pochhammer(zv, n + 1, prec)


def forward_difference_term(
    z: Real, n: int, k: int, prec: PrecisionContext = PrecisionContext()
) -> mpmath.mpf:
    """k-th forward difference (in z) of n!/(z)_{n+1}, by the closed form
    (-1)^k (n+k)!/(z)_{n+k+1}: iterated differences would lose about k bits."""
    if n < 0 or k < 0:
        raise DomainError(f"need n, k >= 0, got n={n}, k={k}")
    with prec.workdps(10):
        _check_pole(zv := to_mpf(z), n + k, prec)
        return (-1) ** k * factorial(n + k) / pochhammer(zv, n + k + 1, prec)


def term_decay_estimate(
    z: Real, n: int, prec: PrecisionContext = PrecisionContext()
) -> mpmath.mpf:
    """Predicted magnitude n^(-z) of n!/(z)_{n+1} for large n (diagnostics only)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    with prec.workdps():
        return mp.mpf(n) ** (-to_mpf(z))
