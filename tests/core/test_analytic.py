"""Tests for the analytic workload-distribution model (Equations 1-8).

The headline requirements come straight from Table 5 of the paper: with
the Delta presets the model must yield p = 97.3 % for GEMV, 11.2 % for
C-means and GMM, and the equal-time split must actually minimize the
predicted co-processing time (the paper's linear-programming argument).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analytic import (
    AnalyticModel,
    Regime,
    multi_device_split,
    node_partition_weights,
    predicted_runtime,
    workload_split,
)
from repro.core.intensity import (
    ConstantIntensity,
    cmeans_intensity,
    gemv_intensity,
    gmm_intensity,
)
from repro.hardware import Cluster
from repro.hardware.presets import bigred2_node, delta_node


def brute_force_split(node, intensity, nbytes=1e9, *, staged=True):
    """Grid-search ``argmin_p T_gc(p)``: the reference the analytic
    model's equal-time split must match."""
    ps = np.linspace(0.0, 1.0, 4096)
    times = [
        predicted_runtime(node, intensity, nbytes, p, staged=staged)
        for p in ps
    ]
    return float(ps[int(np.argmin(times))])


class TestTable5:
    """The paper's Table 5 'p calculated by Equation (8)' column."""

    def test_gemv_split(self, delta):
        d = workload_split(delta, gemv_intensity(), staged=True)
        assert d.p == pytest.approx(0.973, abs=0.005)
        assert d.regime is Regime.BELOW_CPU_RIDGE

    def test_cmeans_split(self, delta):
        # Iterative app: event matrix cached in GPU memory => resident.
        d = workload_split(delta, cmeans_intensity(100), staged=False)
        assert d.p == pytest.approx(0.112, abs=0.002)
        assert d.regime is Regime.ABOVE_GPU_RIDGE

    def test_gmm_split(self, delta):
        d = workload_split(delta, gmm_intensity(10, 60), staged=False)
        assert d.p == pytest.approx(0.112, abs=0.002)
        assert d.regime is Regime.ABOVE_GPU_RIDGE

    def test_low_intensity_favours_cpu_high_favours_gpu(self, delta):
        """§III.B.3a: low-AI apps assign more work to CPU, high-AI to GPU."""
        low = workload_split(delta, ConstantIntensity(0.25), staged=True)
        high = workload_split(delta, ConstantIntensity(1e4), staged=True)
        assert low.p > 0.9
        assert high.p < 0.2


class TestOptimality:
    """Equation (4): the equal-time p minimizes T_gc = max(T_c, T_g)."""

    @settings(max_examples=40, deadline=None)
    @given(ai=st.floats(0.1, 5000.0), staged=st.booleans())
    def test_analytic_p_matches_brute_force(self, delta, ai, staged):
        d = workload_split(delta, ai, staged=staged)
        best = brute_force_split(delta, ai, staged=staged)
        t_analytic = predicted_runtime(delta, ai, 1e9, d.p, staged=staged)
        t_best = predicted_runtime(delta, ai, 1e9, best, staged=staged)
        # Analytic time must match the grid optimum to grid resolution.
        assert t_analytic <= t_best * (1 + 1e-2)

    @settings(max_examples=40, deadline=None)
    @given(ai=st.floats(0.1, 5000.0))
    def test_p_in_unit_interval(self, delta, ai):
        assert 0.0 < workload_split(delta, ai).p < 1.0

    @settings(max_examples=30, deadline=None)
    @given(ai=st.floats(0.1, 5000.0))
    def test_equal_time_at_optimum(self, delta, ai):
        d = workload_split(delta, ai)
        t_cpu = d.p * 1e9 * ai / (d.cpu_rate * 1e9)
        t_gpu = (1 - d.p) * 1e9 * ai / (d.gpu_rate * 1e9)
        assert t_cpu == pytest.approx(t_gpu, rel=1e-9)

    def test_monotone_p_in_intensity(self, delta):
        """More intensity -> GPU relatively stronger -> smaller p."""
        ais = np.logspace(-1, 4, 60)
        ps = [workload_split(delta, float(a), staged=True).p for a in ais]
        assert all(p2 <= p1 + 1e-12 for p1, p2 in zip(ps, ps[1:]))


class TestRegimes:
    def test_regime_boundaries(self, delta):
        a_cr = delta.cpu.ridge_point()
        a_gr = delta.gpu.ridge_point(staged=True)
        assert workload_split(delta, a_cr * 0.5).regime is Regime.BELOW_CPU_RIDGE
        mid = np.sqrt(a_cr * a_gr)
        assert workload_split(delta, float(mid)).regime is Regime.BETWEEN_RIDGES
        assert workload_split(delta, a_gr * 2).regime is Regime.ABOVE_GPU_RIDGE

    def test_above_gpu_ridge_matches_peak_ratio(self, delta):
        """Third branch of Equation (8): p = P_c / (P_g + P_c)."""
        d = workload_split(delta, 1e5, staged=True)
        expected = 130.0 / (1030.0 + 130.0)
        assert d.p == pytest.approx(expected)


class TestDifferentCpuGpuIntensities:
    """A_c != A_g case (different algorithm implementations, §III.B.3a)."""

    def test_general_form_reduces_to_eq5_when_equal(self, delta):
        d1 = workload_split(delta, 50.0)
        d2 = workload_split(delta, 50.0, gpu_intensity=50.0)
        assert d1.p == d2.p

    def test_gpu_doing_more_flops_per_byte_shifts_work_to_cpu(self, delta):
        base = workload_split(delta, 1e4, staged=True)
        wasteful_gpu = workload_split(delta, 1e4, gpu_intensity=2e4, staged=True)
        # GPU needs twice the flops per byte: its byte rate halves at peak.
        assert wasteful_gpu.p > base.p

    def test_equal_time_property_holds_generalized(self, delta):
        a_c, a_g = 30.0, 90.0
        d = workload_split(delta, a_c, gpu_intensity=a_g, staged=True)
        t_cpu = d.p * a_c / d.cpu_rate
        t_gpu = (1 - d.p) * a_g / d.gpu_rate
        assert t_cpu == pytest.approx(t_gpu, rel=1e-9)


class TestPredictedRuntime:
    def test_gpu_only_time(self, delta):
        t = predicted_runtime(delta, 2.0, 1e9, p=0.0, staged=True)
        f_g = delta.gpu.attainable_gflops(2.0, staged=True)
        assert t == pytest.approx(2.0 * 1e9 / (f_g * 1e9))

    def test_cpu_only_time(self, delta):
        t = predicted_runtime(delta, 2.0, 1e9, p=1.0)
        assert t == pytest.approx(2.0 * 1e9 / (64.0 * 1e9))

    def test_rejects_p_outside_unit_interval(self, delta):
        with pytest.raises(ValueError):
            predicted_runtime(delta, 2.0, 1e9, p=1.5)

    def test_speedup_claims_shape(self, delta):
        """§IV headline: GEMV gains ~10x, C-means/GMM ~12%, from co-processing."""
        gemv = AnalyticModel(delta, gemv_intensity(), staged=True)
        cmeans = AnalyticModel(delta, cmeans_intensity(100), staged=False)
        gmm = AnalyticModel(delta, gmm_intensity(10, 60), staged=False)
        assert gemv.speedup_over_gpu_only() > 10.0
        assert 1.05 < cmeans.speedup_over_gpu_only() < 1.3
        assert 1.05 < gmm.speedup_over_gpu_only() < 1.3


class TestMultiDevice:
    def test_fractions_sum_to_one(self, delta_two_gpus):
        fr = multi_device_split(list(delta_two_gpus.devices), 500.0, staged=False)
        assert sum(fr) == pytest.approx(1.0)

    def test_two_identical_gpus_get_equal_share(self, delta_two_gpus):
        fr = multi_device_split(list(delta_two_gpus.devices), 500.0, staged=False)
        assert fr[1] == pytest.approx(fr[2])

    def test_single_device_gets_everything(self, delta):
        assert multi_device_split([delta.cpu], 10.0) == [1.0]

    def test_empty_devices_rejected(self):
        with pytest.raises(ValueError):
            multi_device_split([], 10.0)


class TestNodePartitionWeights:
    def test_homogeneous_cluster_uniform(self, delta4):
        w = node_partition_weights(delta4, 500.0, staged=False)
        assert w == pytest.approx([0.25] * 4)

    def test_heterogeneous_cluster_weights_by_rate(self):
        mixed = Cluster(name="mix",
                        nodes=(delta_node("d", n_gpus=1), bigred2_node("b")))
        w = node_partition_weights(mixed, 1e5, staged=False)
        # BigRed2's K20+Opteron is ~3x a Delta node at high AI.
        assert w[1] > 2.5 * w[0]
        assert sum(w) == pytest.approx(1.0)

    def test_gpu_only_weights(self, delta4):
        w = node_partition_weights(delta4, 500.0, staged=False, use_cpu=False)
        assert sum(w) == pytest.approx(1.0)


class TestFeedbackSplit:
    def test_matches_equation8_on_modelled_rates(self):
        from repro.core.analytic import feedback_split

        node = delta_node(n_gpus=1)
        profile = cmeans_intensity(100)
        decision = workload_split(node, profile, staged=False)
        a = profile.at(1e9)
        p = feedback_split(a, a, decision.cpu_rate, decision.gpu_rate)
        assert p == pytest.approx(decision.p, rel=1e-9)

    def test_equal_rates_split_evenly(self):
        from repro.core.analytic import feedback_split

        assert feedback_split(1.0, 1.0, 50.0, 50.0) == pytest.approx(0.5)

    def test_idle_device_pins_split(self):
        from repro.core.analytic import feedback_split

        assert feedback_split(1.0, 1.0, 0.0, 10.0) == 0.0
        assert feedback_split(1.0, 1.0, 10.0, 0.0) == 1.0

    def test_both_idle_raises(self):
        from repro.core.analytic import feedback_split

        with pytest.raises(ValueError):
            feedback_split(1.0, 1.0, 0.0, 0.0)

    def test_rejects_nonpositive_intensity(self):
        from repro.core.analytic import feedback_split

        with pytest.raises(ValueError):
            feedback_split(0.0, 1.0, 1.0, 1.0)

    @given(
        cpu=st.floats(min_value=1.0, max_value=1e4),
        gpu=st.floats(min_value=1.0, max_value=1e4),
        a=st.floats(min_value=0.01, max_value=1e3),
    )
    @settings(max_examples=50)
    def test_fraction_bounds_and_monotonicity(self, cpu, gpu, a):
        from repro.core.analytic import feedback_split

        p = feedback_split(a, a, cpu, gpu)
        assert 0.0 < p < 1.0
        faster_cpu = feedback_split(a, a, cpu * 2.0, gpu)
        assert faster_cpu > p


class TestObserveDeviceRate:
    """Equation (5) fed with rates the trace observed, as the adaptive
    feedback policy feeds it."""

    def test_observation_from_trace(self):
        from repro.core.analytic import feedback_split
        from repro.simulate.trace import Trace

        t = Trace()
        t.record("k", "n.cpu", "compute", 0.0, 2.0, flops=6e9)
        t.record("k", "n.gpu0", "compute", 0.0, 2.0, flops=40e9)
        cpu = t.observed_gflops("n.cpu")
        gpu = t.observed_gflops("n.gpu0")
        assert cpu == pytest.approx(3.0)
        assert gpu == pytest.approx(20.0)
        assert feedback_split(1.0, 1.0, cpu, gpu) == pytest.approx(3.0 / 23.0)

    def test_idle_device_zero_rate(self):
        from repro.core.analytic import feedback_split
        from repro.simulate.trace import Trace

        t = Trace()
        t.record("k", "n.cpu", "compute", 0.0, 1.0, flops=2e9)
        assert t.observed_gflops("n.gpu0") == 0.0
        assert feedback_split(1.0, 1.0, t.observed_gflops("n.cpu"), 0.0) == 1.0
