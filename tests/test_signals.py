"""Signal feature and damage index tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentnn import (
    DegenerateBaselineError,
    InvalidInputError,
    correlation_coefficient,
    miner_damage_index,
    power_ratio,
)


def signal_power(samples) -> float:
    # a unit-power baseline makes the ratio the signal's own power
    return power_ratio(samples, [1.0])


class TestSignalPower:
    def test_zero_signal(self):
        assert signal_power(np.zeros(47)) == 0.0

    def test_constant_amplitude(self):
        for n in (3, 10, 101):
            assert signal_power(np.full(n, 2.5)) == pytest.approx(6.25, rel=1e-12)

    def test_direct_evaluation(self):
        assert signal_power([1.0, -1.0, 1.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            signal_power([])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=64),
           st.floats(0.1, 5.0))
    def test_reversal_sign_and_scaling(self, samples, scale):
        p = signal_power(samples)
        assert signal_power(samples[::-1]) == pytest.approx(p, rel=1e-12, abs=1e-15)
        assert signal_power([-s for s in samples]) == pytest.approx(p, rel=1e-12, abs=1e-15)
        assert signal_power([scale * s for s in samples]) == pytest.approx(
            scale * scale * p, rel=1e-9, abs=1e-12
        )


class TestPowerRatio:
    def test_identity(self):
        rng = np.random.default_rng(0)
        sig = rng.normal(size=101)
        assert power_ratio(sig, sig) == 1.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=101)
        assert power_ratio(0.5 * base, base) == pytest.approx(0.25, rel=1e-12)

    def test_matches_naive_two_pass(self):
        rng = np.random.default_rng(2)
        sig, base = rng.normal(size=101), rng.normal(size=101)
        num = sum(x * x for x in sig) / len(sig)
        den = sum(x * x for x in base) / len(base)
        assert power_ratio(sig, base) == pytest.approx(num / den, rel=1e-12)

    def test_dead_baseline(self):
        with pytest.raises(DegenerateBaselineError):
            power_ratio([1.0, 2.0], [0.0, 0.0])

    def test_baseline_is_checked_before_the_signal(self):
        with pytest.raises(DegenerateBaselineError):
            power_ratio([], np.zeros(3))
        with pytest.raises(InvalidInputError, match="baseline"):
            power_ratio([np.nan], [])


class TestCorrelationCoefficient:
    def test_identity(self):
        rng = np.random.default_rng(3)
        sig = rng.normal(size=64)
        assert correlation_coefficient(sig, sig) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation(self):
        rng = np.random.default_rng(4)
        sig = rng.normal(size=64)
        assert correlation_coefficient(-sig, sig) == pytest.approx(-1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=64)
        assert correlation_coefficient(3.7 * base + 1.2, base) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            correlation_coefficient([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_zero_variance(self):
        with pytest.raises(DegenerateBaselineError):
            correlation_coefficient([1.0, 1.0], [0.5, 0.7])

    def test_tiny_amplitudes_do_not_underflow_the_variance_product(self):
        # var_x * var_y is about 1e-400 here, below the smallest normal double
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=64), rng.normal(size=64)
        r = correlation_coefficient(x, y)
        assert r == pytest.approx(-0.1724, abs=1e-4)
        assert correlation_coefficient(x * 1e-100, y * 1e-100) == pytest.approx(r, rel=1e-12)
        stacked = correlation_coefficient(np.stack([x, x * 1e-100]), np.stack([y, y * 1e-100]))
        assert stacked[0] == r
        assert stacked[1] == pytest.approx(r, rel=1e-12)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**31), a=st.floats(0.01, 10), c=st.floats(-5, 5))
    def test_bounds_and_positive_affine_invariance(self, seed, a, c):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=32), rng.normal(size=32)
        r = correlation_coefficient(x, y)
        assert -1.0 <= r <= 1.0
        assert correlation_coefficient(a * x + c, y) == pytest.approx(r, abs=1e-10)


# both sides of NumPy's pairwise-summation block of 128 elements
STACK_LENGTHS = (2, 3, 7, 8, 9, 127, 128, 129, 255, 256, 257, 1023, 1025)


def _row_by_row(fn, signals, baselines):
    return np.array([fn(s, b) for s, b in zip(signals, baselines)])


class TestStackedInputs:
    @pytest.mark.parametrize("n", STACK_LENGTHS)
    def test_stack_equals_one_dimensional_calls_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        signals = rng.normal(1.5, 2.0, size=(5, n))
        baselines = rng.normal(-0.5, 1.0, size=(5, n))
        for fn in (power_ratio, correlation_coefficient):
            expected = _row_by_row(fn, signals, baselines)
            assert np.array_equal(fn(signals, baselines), expected)

    @pytest.mark.parametrize("n", STACK_LENGTHS)
    def test_memory_layout_does_not_change_the_bits(self, n):
        rng = np.random.default_rng(1000 + n)
        signals = rng.normal(size=(6, n))
        baselines = rng.normal(size=(6, n))
        wide_s, wide_b = np.repeat(signals, 2, axis=1), np.repeat(baselines, 2, axis=1)
        layouts = [
            (np.asfortranarray(signals), np.asfortranarray(baselines)),
            (wide_s[:, ::2], wide_b[:, ::2]),
        ]
        for fn in (power_ratio, correlation_coefficient):
            expected = _row_by_row(fn, signals, baselines)
            for s, b in layouts:
                assert np.array_equal(fn(s, b), expected)

    def test_stack_of_many_blocks_equals_one_dimensional_calls_bit_for_bit(self):
        # 300 rows of 256 samples span several blocks of the reduction
        rng = np.random.default_rng(300)
        signals = rng.normal(size=(3, 100, 256))
        baselines = rng.normal(size=(3, 100, 256))
        rows_s, rows_b = signals.reshape(-1, 256), baselines.reshape(-1, 256)
        for fn in (power_ratio, correlation_coefficient):
            expected = _row_by_row(fn, rows_s, rows_b).reshape(3, 100)
            assert np.array_equal(fn(signals, baselines), expected)
            one_baseline = _row_by_row(fn, rows_s, [rows_b[0]] * len(rows_s)).reshape(3, 100)
            assert np.array_equal(fn(signals, rows_b[0]), one_baseline)

    def test_degenerate_entries_are_nan(self):
        rng = np.random.default_rng(7)
        signals = rng.normal(size=(4, 16))
        baselines = rng.normal(size=(4, 16))
        baselines[1] = 0.0
        signals[2] = 3.0
        ratio = power_ratio(signals, baselines)
        corr = correlation_coefficient(signals, baselines)
        assert np.array_equal(np.isnan(ratio), [False, True, False, False])
        assert np.array_equal(np.isnan(corr), [False, True, True, False])
        assert ratio[2] == power_ratio(signals[2], baselines[2])

    def test_one_channel_stack_is_an_array(self):
        result = power_ratio([[1.0, 2.0]], [[0.0, 0.0]])
        assert isinstance(result, np.ndarray) and result.shape == (1,)
        assert np.isnan(result[0])

    def test_baseline_is_checked_before_the_signal(self):
        bad = np.full((2, 4), np.nan)
        with pytest.raises(InvalidInputError, match="baseline"):
            power_ratio(bad, np.full((2, 4), np.inf))
        with pytest.raises(InvalidInputError, match="baseline"):
            power_ratio(bad, np.empty((2, 0)))


class TestMinerIndex:
    def test_pristine(self):
        assert miner_damage_index(0, 100_000) == 0.0

    def test_failure(self):
        assert miner_damage_index(177_309, 177_309) == 1.0

    def test_observed_coupon_quotient(self):
        assert miner_damage_index(40_000, 177_309) == pytest.approx(40_000 / 177_309, rel=1e-15)

    def test_invalid_counts(self):
        with pytest.raises(InvalidInputError):
            miner_damage_index(1, 0)
        with pytest.raises(InvalidInputError):
            miner_damage_index(-1, 10)
        with pytest.raises(InvalidInputError):
            miner_damage_index(11, 10)

    @given(big_n=st.integers(1, 10**7), data=st.data())
    def test_monotone_in_endured_cycles(self, big_n, data):
        n1 = data.draw(st.integers(0, big_n))
        n2 = data.draw(st.integers(n1, big_n))
        assert miner_damage_index(n1, big_n) <= miner_damage_index(n2, big_n)
