import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from besselstruve import (
    GAMMA_OVERFLOW_X,
    DomainError,
    GammaOverflowError,
    PoleError,
    gamma,
    log_gamma,
    pochhammer,
    reciprocal_gamma,
    signed_log_gamma,
)

SQRT_PI = math.sqrt(math.pi)


class TestLogGamma:
    @pytest.mark.parametrize("x, expected", [
        (1.0, 0.0),
        (0.5, math.log(SQRT_PI)),
        (10.0, math.log(362880.0)),
    ])
    def test_known_values(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_against_stdlib(self):
        # rel err <= 1e-13, scaled by max(1, |ref|) near the zeros of lgamma
        for x in np.concatenate([np.linspace(0.5, 20, 1500),
                                 np.geomspace(20, 1e6, 500)]):
            ref = math.lgamma(float(x))
            assert abs(log_gamma(float(x)) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_against_scipy(self):
        x = np.linspace(0.05, 300, 777)
        ours = np.array([log_gamma(float(v)) for v in x])
        np.testing.assert_allclose(ours, gammaln(x), rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -3.5])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            log_gamma(float("nan"))


class TestGamma:
    @pytest.mark.parametrize("x, expected", [
        (4.0, 6.0),
        (-0.5, -2.0 * SQRT_PI),
        (0.5, SQRT_PI),
    ])
    def test_known_values(self, x, expected):
        assert gamma(x) == pytest.approx(expected, rel=1e-13)

    def test_against_stdlib(self):
        for x in np.linspace(-169.5, 170.0, 2000):
            x = float(x)
            if x <= 0 and abs(x - round(x)) < 1e-2:
                continue
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
    def test_pole_error(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    def test_overflow_error(self):
        with pytest.raises(GammaOverflowError):
            gamma(GAMMA_OVERFLOW_X + 1.0)
        for x in (1e-310, -1e-310):
            with pytest.raises(GammaOverflowError):
                gamma(x)
        # just below the documented threshold still evaluates
        assert math.isfinite(gamma(GAMMA_OVERFLOW_X - 0.01))

    def test_recurrence(self):
        # gamma(x+1) = x * gamma(x) on [0.5, 50]
        for x in np.linspace(0.5, 50.0, 500):
            x = float(x)
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_reflection(self):
        # gamma(x) * gamma(1-x) = pi / sin(pi x) on (0, 1)
        for x in np.linspace(0.01, 0.99, 99):
            x = float(x)
            ref = math.pi / math.sin(math.pi * x)
            assert gamma(x) * gamma(1.0 - x) == pytest.approx(ref, rel=1e-11)

    @given(st.floats(min_value=0.5, max_value=50.0))
    @settings(deadline=None, max_examples=200)
    def test_recurrence_hypothesis(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


class TestReciprocalGamma:
    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -3.0, -40.0])
    def test_exact_zero_at_poles(self, x):
        assert reciprocal_gamma(x) == 0.0

    def test_known_value(self):
        assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-14)

    def test_total_no_error(self):
        for x in (-200.5, -0.5, -1e-310, 1e-310, 1e-8, 5.0, 500.0, 1e6):
            reciprocal_gamma(x)  # must not raise

    def test_product_with_gamma_is_one(self):
        for x in np.linspace(-20.0, 20.0, 400):
            x = float(x)
            if x <= 0 and abs(x - round(x)) < 1e-2:
                continue
            assert reciprocal_gamma(x) * gamma(x) == pytest.approx(1.0, rel=1e-12)

    def test_underflows_to_zero_for_huge_argument(self):
        assert reciprocal_gamma(400.0) == 0.0


class TestSignedLogGamma:
    def test_positive_arguments(self):
        lg, sign = signed_log_gamma(7.3)
        assert sign == 1.0
        assert lg == pytest.approx(math.lgamma(7.3), rel=1e-13)

    @pytest.mark.parametrize("x", [-0.5, -1.5, -2.5, -6.7, -10.2])
    def test_negative_arguments(self, x):
        lg, sign = signed_log_gamma(x)
        ref = math.gamma(x)
        assert sign == math.copysign(1.0, ref)
        assert lg == pytest.approx(math.log(abs(ref)), rel=1e-12, abs=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            signed_log_gamma(-4.0)


class TestMpmathReference:
    """The primitives against 40-digit mpmath, which shares no code with the
    stdlib gamma they are built on."""

    @pytest.fixture(scope="class")
    def samples(self):
        """(x, gamma(x) as a 40-digit mpf, log|gamma(x)| as a float)."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20161)
        positive = np.concatenate([np.geomspace(1e-3, 170.0, 200),
                                   rng.uniform(1e-3, 170.0, 1300)])
        negative = rng.uniform(-30.0, 0.0, 500)
        out = []
        with mpmath.workdps(40):
            for x in map(float, np.concatenate([positive, negative])):
                ref = mpmath.gamma(x)
                out.append((x, ref, float(mpmath.log(abs(ref)))))
        return out

    def test_gamma(self, samples):
        for x, ref, _ in samples:
            assert abs(gamma(x) - ref) <= 1e-14 * abs(ref), x

    def test_log_gamma(self, samples):
        for x, _, lref in samples:
            if x > 0.0:
                assert abs(log_gamma(x) - lref) <= 1e-14 * max(1.0, abs(lref)), x

    def test_signed_log_gamma(self, samples):
        for x, ref, lref in samples:
            lg, sign = signed_log_gamma(x)
            assert sign == (1.0 if ref > 0 else -1.0), x
            assert abs(lg - lref) <= 1e-14 * max(1.0, abs(lref)), x


class TestPochhammer:
    @pytest.mark.parametrize("lam", [-3.7, -1.0, 0.0, 0.5, 2.0, 11.25])
    def test_n_zero_is_one(self, lam):
        assert pochhammer(lam, 0) == 1.0

    def test_known_values(self):
        assert pochhammer(3.0, 2) == 12.0
        assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)

    def test_matches_gamma_ratio(self):
        for lam in (0.3, 1.0, 2.5, 7.0):
            for n in (1, 2, 5, 20):
                ratio = gamma(lam + n) / gamma(lam)
                assert pochhammer(lam, n) == pytest.approx(ratio, rel=1e-12)

    def test_total_at_nonpositive_integer_lam(self):
        # the product form survives where the gamma-ratio form poles
        assert pochhammer(-2.0, 4) == 0.0
        assert pochhammer(-2.0, 2) == 2.0

    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20))
    @settings(deadline=None, max_examples=200)
    def test_split_identity(self, lam, m, n):
        # (lam)_{m+n} = (lam)_m * (lam+m)_n
        whole = pochhammer(lam, m + n)
        split = pochhammer(lam, m) * pochhammer(lam + m, n)
        assert whole == pytest.approx(split, rel=1e-12, abs=1e-290)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)
