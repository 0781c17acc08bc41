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
    miner_damage_total,
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

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**31), a=st.floats(0.01, 10), c=st.floats(-5, 5))
    def test_bounds_and_positive_affine_invariance(self, seed, a, c):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=32), rng.normal(size=32)
        r = correlation_coefficient(x, y)
        assert -1.0 <= r <= 1.0
        assert correlation_coefficient(a * x + c, y) == pytest.approx(r, abs=1e-10)


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

    def test_multi_frequency_sum(self):
        total = miner_damage_total([(10, 100), (5, 50)])
        assert total == pytest.approx(0.2)
