"""Exact Stirling numbers of the first and second kind.

Conventions (signed first kind):

    (z-n+1)_n = sum_k s1(n, k) z^k          rising factorial of z-n+1
    z^n       = sum_k s2(n, k) (z-k+1)_k

where ``(x)_m = x (x+1) ... (x+m-1)`` is the Pochhammer symbol.  Both
triangles are built by the standard recurrences

    s1(n+1, k) = s1(n, k-1) - n s1(n, k)
    s2(n+1, k) = s2(n, k-1) + k s2(n, k)

seeded with s1(0,0) = s2(0,0) = 1, and are mutually orthogonal:

    sum_{v=k}^{n} s1(n, v) s2(v, k) = delta_{nk}.

Rows are appended lazily under a lock and never mutated, so a cache can be
shared freely between threads; reading rows already built takes no lock.
"""

from __future__ import annotations

import threading
from itertools import count, repeat

from .errors import DomainError

__all__ = [
    "StirlingCache",
    "stirling1",
    "stirling2",
    "orthogonality_defect",
    "pochhammer_coeffs",
]


class StirlingCache:
    """Triangular table of Stirling numbers of one kind.

    ``rows[n][k]`` holds the exact integer value for 0 <= k <= n.  Rows are
    appended on demand; existing rows are never mutated.
    """

    def __init__(self, kind: int):
        if kind not in (1, 2):
            raise DomainError(f"Stirling kind must be 1 or 2, got {kind}")
        self.kind = kind
        self._rows: list[list[int]] = [[1]]
        self._grow_lock = threading.Lock()

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def _extend(self, n: int) -> list[list[int]]:  # the rows, grown through row n
        if self.n_max < n:
            with self._grow_lock:  # re-checked inside: another thread may have grown it
                while self.n_max < n:
                    self._rows.append(_next_row(self.kind, self.n_max, self._rows[-1]))
        return self._rows

    def row(self, n: int) -> list[int]:
        _check_index(n)
        return list(self._extend(n)[n])

    def value(self, n: int, k: int) -> int:
        _check_index(n, k)
        return self._extend(n)[n][k]


def _check_index(n: int, k: int | None = None) -> None:  # row n >= 0; given k, 0 <= k <= n
    if k is None and n < 0:
        raise DomainError(f"row index must be >= 0, got {n}")
    if k is not None and not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")


def _next_row(kind: int, m: int, prev: list[int]) -> list[int]:
    """Row m+1 by the recurrence of ``kind`` from row m, or from its first j entries
    only: entry k needs entries k-1 and k, so the first j entries returned are right."""
    c = repeat(-m) if kind == 1 else count()
    return [a + ck * b for ck, a, b in zip(c, [0, *prev], [*prev, 0])]


_FIRST = StirlingCache(1)
_SECOND = StirlingCache(2)


def stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s1(n, k)."""
    return _FIRST.value(n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind s2(n, k)."""
    return _SECOND.value(n, k)


def orthogonality_defect(n: int, k: int) -> int:
    """sum_{v=k}^{n} s1(n, v) s2(v, k) - delta_{nk}; zero for every valid (n, k)."""
    _check_index(n, k)
    s1, s2 = _FIRST._extend(n)[n], _SECOND._extend(n)
    total = sum(s1[v] * s2[v][k] for v in range(k, n + 1))
    return total - (1 if n == k else 0)


def pochhammer_coeffs(n: int) -> list[int]:
    """Coefficients of z^v in the rising factorial (z)_n, all nonnegative.

    Equal to (-1)^(n-v) s1(n, v), i.e. the unsigned first-kind triangle.
    """
    row = _FIRST.row(n)  # row() runs _check_index(n)
    return [(-1) ** (n - v) * row[v] for v in range(n + 1)]
