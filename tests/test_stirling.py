"""Stirling triangles: paper-convention values, identities, brute-force oracles."""

import sys
import threading
from math import factorial

import pytest

from facseries.errors import DomainError
from facseries.stirling import (
    StirlingCache,
    orthogonality_defect,
    pochhammer_coeffs,
    stirling1,
    stirling2,
)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def falling_factorial_poly(n):
    """Coefficients of z(z-1)...(z-n+1), the generating polynomial of s1(n, .)."""
    p = [1]
    for i in range(n):
        p = poly_mul(p, [-i, 1])
    return p


def rising_factorial_poly(n):
    """Coefficients of z(z+1)...(z+n-1)."""
    p = [1]
    for i in range(n):
        p = poly_mul(p, [i, 1])
    return p


def partitions_into_blocks(n, k):
    """Brute-force count of set partitions of {0..n-1} into exactly k blocks."""
    if n == 0:
        return 1 if k == 0 else 0

    def rec(elements, blocks):
        if not elements:
            return 1 if len(blocks) == k else 0
        if len(blocks) > k:
            return 0
        first, rest = elements[0], elements[1:]
        total = 0
        for i in range(len(blocks)):
            total += rec(rest, blocks[:i] + [blocks[i] + [first]] + blocks[i + 1 :])
        total += rec(rest, blocks + [[first]])
        return total

    return rec(list(range(n)), [])


class TestFirstKind:
    def test_empty_product(self):
        assert stirling1(0, 0) == 1

    def test_cubic_expansion(self):
        # z(z-1)(z-2) = z^3 - 3z^2 + 2z, expanded by brute-force multiplication
        assert falling_factorial_poly(3) == [0, 2, -3, 1]
        assert stirling1(3, 1) == 2

    def test_monic_diagonal(self):
        assert stirling1(5, 5) == 1

    @pytest.mark.parametrize("n", range(13))
    def test_matches_polynomial_expansion(self, n):
        assert StirlingCache(1).row(n) == falling_factorial_poly(n)

    def test_sign_pattern(self):
        for n in range(25):
            for k in range(n + 1):
                assert (-1) ** (n - k) * stirling1(n, k) >= 0

    def test_absolute_row_sum_is_factorial(self):
        for n in range(31):
            assert sum(abs(stirling1(n, v)) for v in range(n + 1)) == factorial(n)

    def test_interior_roots(self):
        # the generating polynomial vanishes at z = 1..n-1
        for n in range(2, 16):
            for k in range(1, n):
                assert sum(k**v * stirling1(n, v) for v in range(n + 1)) == 0


class TestSecondKind:
    def test_partition_count(self):
        assert stirling2(3, 2) == 3

    def test_diagonal_and_zero_column(self):
        assert stirling2(4, 4) == 1
        assert stirling2(4, 0) == 0

    def test_matches_partition_enumeration(self):
        for n in range(8):
            for k in range(n + 1):
                assert stirling2(n, k) == partitions_into_blocks(n, k)


class TestStructure:
    @pytest.mark.parametrize("kind", [1, 2])
    def test_rows_and_diagonal(self, kind):
        cache = StirlingCache(kind)
        for n in range(20):
            row = cache.row(n)
            assert len(row) == n + 1
            assert row[n] == 1
            if n >= 1:
                assert row[0] == 0

    def test_index_errors(self):
        with pytest.raises(DomainError):
            stirling1(3, 4)
        with pytest.raises(DomainError):
            stirling2(-1, 0)
        with pytest.raises(DomainError):
            orthogonality_defect(2, 3)

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            StirlingCache(3)


class TestConcurrentGrowth:
    @pytest.mark.parametrize("kind", [1, 2])
    def test_threads_grow_fresh_cache(self, kind):
        # several threads extend one fresh cache to different sizes at once; the
        # table must equal a serial build, with no row appended twice
        shared = StirlingCache(kind)
        targets = [40, 7, 60, 25, 60, 3, 51, 60]
        results, errors = {}, []
        barrier = threading.Barrier(len(targets))

        def grow(slot, n):
            try:
                barrier.wait(timeout=10)
                results[slot] = [shared.row(m) for m in range(n, -1, -1)]
            except Exception as exc:  # reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(i, n)) for i, n in enumerate(targets)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        serial = StirlingCache(kind)
        assert shared.n_max == 60
        assert [shared.row(n) for n in range(61)] == [serial.row(n) for n in range(61)]
        for slot, n in enumerate(targets):
            assert results[slot] == [serial.row(m) for m in range(n, -1, -1)]


class TestOrthogonality:
    @pytest.mark.parametrize("n,k", [(3, 3), (6, 2), (1, 0)])
    def test_examples(self, n, k):
        assert orthogonality_defect(n, k) == 0

    def test_both_relations_exact(self):
        for n in range(26):
            for k in range(n + 1):
                assert orthogonality_defect(n, k) == 0
                other = sum(
                    stirling2(n, v) * stirling1(v, k) for v in range(k, n + 1)
                )
                assert other == (1 if n == k else 0)


class TestPochhammerCoeffs:
    def test_examples(self):
        assert pochhammer_coeffs(0) == [1]
        assert pochhammer_coeffs(2) == [0, 1, 1]
        assert pochhammer_coeffs(3) == [0, 2, 3, 1]

    def test_negative_n(self):
        with pytest.raises(DomainError, match="row index must be >= 0, got -1"):
            pochhammer_coeffs(-1)

    def test_matches_rising_factorial_and_nonnegative(self):
        for n in range(13):
            coeffs = pochhammer_coeffs(n)
            assert coeffs == rising_factorial_poly(n)
            assert all(c >= 0 for c in coeffs)
