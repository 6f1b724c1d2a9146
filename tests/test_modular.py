"""Integer and residue-run arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dbkdom.modular import (ceil_div, geometric_sum, run_mask,
                            solve_linear_congruence)


class TestGeometricSum:
    def test_known_values(self):
        assert geometric_sum(3, 3) == 40
        assert geometric_sum(2, 4) == 31  # 1+2+4+8+16
        assert geometric_sum(2, 2) == 7
        assert geometric_sum(5, 1) == 6

    def test_zero_exponent_is_one(self):
        for d in range(2, 12):
            assert geometric_sum(d, 0) == 1

    def test_closed_form_identity(self):
        # (d-1) * sum == d**(k+1) - 1 across the whole desk-scale envelope
        for d in range(2, 11):
            for k in range(0, 21):
                assert geometric_sum(d, k) * (d - 1) == d ** (k + 1) - 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            geometric_sum(1, 3)
        with pytest.raises(ValueError):
            geometric_sum(2, -1)


class TestCeilDiv:
    def test_values(self):
        assert ceil_div(40, 40) == 1
        assert ceil_div(41, 40) == 2
        assert ceil_div(0, 5) == 0
        assert ceil_div(1, 5) == 1

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=10**6))
    def test_matches_float_free_definition(self, a, b):
        q = ceil_div(a, b)
        assert (q - 1) * b < a <= q * b or (a == 0 and q == 0)


class TestRunMasks:
    def test_run_mask_wraps(self):
        assert run_mask(4, 4, 6) == 0b110011
        assert run_mask(0, 0, 6) == 0
        assert run_mask(2, 6, 6) == 0b111111

    def test_mask_round_trip(self):
        for n in range(1, 40):
            for start in range(n):
                for length in range(n + 1):
                    assert run_mask(start, length, n) == \
                        sum(1 << (start + t) % n for t in range(length))


class TestSolveLinearCongruence:
    def test_unsolvable(self):
        assert solve_linear_congruence(2, 1, 40) == []

    def test_identity_coefficient(self):
        for n in (1, 2, 7, 40):
            for b in range(-3, n + 3):
                assert solve_linear_congruence(1, b, n) == [b % n]

    def test_two_solutions(self):
        assert solve_linear_congruence(2, 6, 40) == [3, 23]

    def test_zero_coefficient(self):
        assert solve_linear_congruence(0, 0, 5) == [0, 1, 2, 3, 4]
        assert solve_linear_congruence(0, 3, 5) == []

    def test_exhaustive_against_scan(self):
        for n in range(1, 41):
            for a in range(n):
                for b in range(n):
                    expected = [x for x in range(n) if (a * x - b) % n == 0]
                    assert solve_linear_congruence(a, b, n) == expected

    @given(st.integers(min_value=1, max_value=500),
           st.integers(), st.integers())
    def test_solution_structure(self, n, a, b):
        sols = solve_linear_congruence(a, b, n)
        g = math.gcd(a % n, n)
        if b % g == 0:
            assert len(sols) == g
            assert sols == sorted(sols)
            for x in sols:
                assert (a * x - b) % n == 0
        else:
            assert sols == []
