"""Unit and property tests for arithmetic-intensity profiles."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.intensity import (
    APPLICATION_INTENSITIES,
    BlockScaledIntensity,
    ConstantIntensity,
    IntensityProfile,
    cmeans_intensity,
    dgemm_intensity,
    fft_intensity,
    gemv_intensity,
    gmm_intensity,
    kmeans_intensity,
    wordcount_intensity,
)


class TestPaperValues:
    """Table 5 pins the intensities; these are exact requirements."""

    def test_gemv_is_2(self):
        assert gemv_intensity().at(1e6) == 2.0

    def test_cmeans_is_5M(self):
        assert cmeans_intensity(100).at(1e6) == 500.0

    def test_gmm_is_11MD(self):
        assert gmm_intensity(10, 60).at(1e6) == 11.0 * 10 * 60

    def test_figure4_ordering(self):
        """Figure 4: wordcount < GEMV < FFT < C-means < GMM < DGEMM(large)."""
        probe = 1e9
        seq = [
            wordcount_intensity(), gemv_intensity(), fft_intensity(),
            cmeans_intensity(100), gmm_intensity(10, 60),
        ]
        values = [p.at(probe) for p in seq]
        assert values == sorted(values)
        # DGEMM's O(N) intensity overtakes everything at large blocks
        # (a 50k x 50k SP block is ~30 GB).
        assert dgemm_intensity().at(12.0 * 50_000.0**2) > values[-1]

    def test_kmeans_cheaper_than_cmeans(self):
        assert kmeans_intensity(10).at(1e6) < cmeans_intensity(10).at(1e6)


class TestConstantIntensity:
    def test_flops_scale_linearly(self):
        prof = ConstantIntensity(3.0)
        assert prof.flops(10.0) == 30.0

    def test_inverse_when_reachable(self):
        assert ConstantIntensity(5.0).inverse(3.0) == 1.0

    def test_inverse_unreachable_raises(self):
        with pytest.raises(ValueError, match="never reaches"):
            ConstantIntensity(2.0).inverse(10.0)

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError):
            ConstantIntensity(0.0)


class TestBlockScaledIntensity:
    def test_dgemm_growth_matches_closed_form(self):
        # A(B) = sqrt(B/12)/6 for square SP GEMM.
        prof = dgemm_intensity()
        nbytes = 12.0 * 1000.0**2  # n = 1000
        assert prof.at(nbytes) == pytest.approx(1000.0 / 6.0)

    def test_inverse_closed_form_roundtrip(self):
        prof = BlockScaledIntensity(coefficient=0.5, exponent=0.5)
        b = prof.inverse(10.0)
        assert prof.at(b) == pytest.approx(10.0)

    @given(st.floats(0.01, 1e3))
    def test_inverse_is_true_inverse(self, target):
        prof = dgemm_intensity()
        b = prof.inverse(target)
        assert prof.at(b) == pytest.approx(target, rel=1e-6)

    @given(st.floats(1.0, 1e12), st.floats(1.0, 1e12))
    def test_monotone_in_block_size(self, b1, b2):
        prof = dgemm_intensity()
        lo, hi = sorted((b1, b2))
        assert prof.at(lo) <= prof.at(hi) + 1e-12


class TestGenericInverseBisection:
    """Exercise the default bisection on a profile without closed inverse."""

    class LogProfile(IntensityProfile):
        label = "log"

        def at(self, nbytes):
            return math.log2(1.0 + nbytes)

    def test_bisection_finds_crossing(self):
        prof = self.LogProfile()
        b = prof.inverse(10.0)
        assert prof.at(b) >= 10.0
        # and it is nearly the minimal such block
        assert prof.at(b * 0.99) <= 10.0 + 1e-6


class TestCatalogue:
    def test_catalogue_has_table5_apps(self):
        for name in ("gemv", "cmeans", "gmm"):
            assert name in APPLICATION_INTENSITIES

    def test_catalogue_profiles_evaluate(self):
        for name, prof in APPLICATION_INTENSITIES.items():
            assert prof.at(1e6) > 0, name
