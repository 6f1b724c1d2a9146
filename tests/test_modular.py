"""Integer and modular-interval arithmetic."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import case_split_interval
from dbkdom.modular import (ModInterval, ceil_div, geometric_sum,
                            mod_interval, run_mask, solve_linear_congruence)


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


class TestModInterval:
    def test_examples(self):
        assert set(mod_interval(6, 8, 6)) == {0, 1, 2}
        assert set(mod_interval(4, 1, 6)) == {4, 5, 0, 1}
        assert mod_interval(0, 9, 10).is_full()

    def test_wrap_order_preserved(self):
        assert list(mod_interval(4, 1, 6)) == [4, 5, 0, 1]

    def test_exhaustive_against_case_split(self):
        for n in range(1, 61):
            for i in range(n):
                for j in range(n):
                    assert set(mod_interval(i, j, n)) == \
                        case_split_interval(i, j, n), (i, j, n)

    @given(st.integers(min_value=1, max_value=200),
           st.integers(), st.integers())
    def test_case_split_any_integers(self, n, i, j):
        got = set(mod_interval(i, j, n))
        assert got == case_split_interval(i, j, n)
        assert len(got) == ((j - i) % n) + 1

    def test_member_enumerate_agree_exhaustive(self):
        for n in range(1, 51):
            for start in range(n):
                for length in range(n + 1):
                    run = ModInterval(start, length, n)
                    members = set(run)
                    assert len(members) == length
                    for v in range(n):
                        assert (v in run) == (v in members)

    def test_full_and_empty_are_canonical(self):
        # set equality must coincide with dataclass equality
        assert ModInterval(3, 5, 5) == ModInterval(0, 5, 5)
        assert ModInterval(4, 0, 9) == ModInterval(0, 0, 9)
        assert ModInterval(2, 3, 9) != ModInterval(3, 3, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModInterval(0, 6, 5)
        with pytest.raises(ValueError):
            ModInterval(0, -1, 5)
        with pytest.raises(ValueError):
            ModInterval(0, 0, 0)

    def test_mask_round_trip(self):
        for n in range(1, 40):
            for start in range(n):
                for length in range(n + 1):
                    run = ModInterval(start, length, n)
                    assert run.mask() == sum(1 << v for v in run)


class TestRunMasks:
    def test_run_mask_wraps(self):
        assert run_mask(4, 4, 6) == 0b110011
        assert run_mask(0, 0, 6) == 0
        assert run_mask(2, 6, 6) == 0b111111


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
