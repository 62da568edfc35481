"""End-to-end: the paper's applications on the PRS simulated cluster.

These are the integration points the evaluation section depends on —
correctness of distributed results against serial references, the Table 5
split behaviour, the §IV co-processing speedups, and weak-scaling shape.
"""

import numpy as np
import pytest

from repro.apps.cmeans import CMeansApp
from repro.apps.gemv import GemvApp
from repro.apps.gmm import GMMApp
from repro.apps.wordcount import WordCountApp
from repro.data.synth import gaussian_mixture, random_matrix, random_vector, text_corpus
from repro.hardware import delta_cluster
from repro.runtime.job import JobConfig, Overheads, Scheduling
from repro.runtime.prs import PRSRuntime
from tests.helpers import cmeans_reference

QUIET = Overheads(0.0, 0.0, 0.0, 0.0)


class TestCMeansOnPRS:
    @pytest.fixture
    def blobs(self):
        return gaussian_mixture(3000, 8, 4, seed=21, spread=15.0)

    def test_distributed_matches_serial(self, delta4, blobs):
        pts, _, _ = blobs
        app = CMeansApp(pts, 4, seed=5, epsilon=1e-12, max_iterations=6)
        PRSRuntime(delta4, JobConfig()).run(app)
        ref = cmeans_reference(pts, 4, iterations=6, seed=5)
        np.testing.assert_allclose(
            np.sort(app.centers, axis=0), np.sort(ref, axis=0), rtol=1e-5
        )

    def test_static_and_dynamic_agree_numerically(self, delta4, blobs):
        pts, _, _ = blobs
        a1 = CMeansApp(pts, 4, seed=5, max_iterations=4, epsilon=1e-12)
        a2 = CMeansApp(pts, 4, seed=5, max_iterations=4, epsilon=1e-12)
        PRSRuntime(delta4, JobConfig(scheduling=Scheduling.STATIC)).run(a1)
        PRSRuntime(delta4, JobConfig(scheduling=Scheduling.DYNAMIC)).run(a2)
        np.testing.assert_allclose(a1.centers, a2.centers, rtol=1e-7)

    def test_split_is_table5_value(self, delta4, blobs):
        pts, _, _ = blobs
        app = CMeansApp(pts, 100, seed=5, max_iterations=1)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        # Resident iterative app with M=100: p = 11.2 % (Table 5).
        assert result.splits[0].p == pytest.approx(0.112, abs=0.002)

    def test_gpu_cpu_beats_gpu_only_modestly(self, delta4, blobs):
        """§IV: 'the GPU+CPU version is 1.3 times faster than GPU only'
        for C-means; our analytic ceiling is ~1.13x."""
        pts, _, _ = blobs
        mk = lambda: CMeansApp(pts, 100, seed=5, max_iterations=3, epsilon=1e-12)
        t_both = PRSRuntime(
            delta4, JobConfig(overheads=QUIET)
        ).run(mk()).makespan
        t_gpu = PRSRuntime(
            delta4, JobConfig(use_cpu=False, overheads=QUIET)
        ).run(mk()).makespan
        assert 1.02 < t_gpu / t_both < 1.4


class TestGemvOnPRS:
    def test_result_correct(self, delta4):
        a = random_matrix(2000, 64, seed=1)
        x = random_vector(64, seed=2)
        app = GemvApp(a, x)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        y = app.assemble(result.output)
        # float32 kernels vs float64 reference: absolute tolerance needed
        # near zero-crossing entries.
        np.testing.assert_allclose(y, app.reference(), rtol=1e-3, atol=1e-5)

    def test_split_is_table5_value(self, delta4):
        app = GemvApp(random_matrix(512, 64, seed=3), random_vector(64, seed=4))
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.splits[0].p == pytest.approx(0.973, abs=0.005)

    def test_huge_co_processing_gain(self, delta4):
        """§IV headline: 'using all CPU cores increase the GPU performance
        by 1011.8%' for GEMV — i.e. ~11x, bounded by ~36x analytic."""
        mk = lambda: GemvApp(
            random_matrix(60_000, 64, seed=5), random_vector(64, seed=6)
        )
        t_both = PRSRuntime(
            delta4, JobConfig(overheads=QUIET)
        ).run(mk()).makespan
        t_gpu = PRSRuntime(
            delta4, JobConfig(use_cpu=False, overheads=QUIET)
        ).run(mk()).makespan
        assert t_gpu / t_both > 5.0


class TestGmmOnPRS:
    def test_distributed_em_increases_likelihood(self, delta4):
        pts, _, _ = gaussian_mixture(2000, 6, 3, seed=31, spread=8.0)
        app = GMMApp(pts, 3, seed=9, max_iterations=5)
        PRSRuntime(delta4, JobConfig()).run(app)
        hist = app.loglik_history
        assert len(hist) >= 2
        assert all(b >= a - 1e-6 * abs(a) for a, b in zip(hist, hist[1:]))

    def test_split_matches_table5(self, delta4):
        pts, _, _ = gaussian_mixture(500, 60, 3, seed=32)
        app = GMMApp(pts, 10, seed=10, max_iterations=1)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.splits[0].p == pytest.approx(0.112, abs=0.002)


class TestWordCountOnPRS:
    def test_counts_exact(self, delta4):
        docs = text_corpus(200, words_per_doc=60, seed=41)
        app = WordCountApp(docs)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.output == app.reference()

    def test_cpu_dominates_split(self, delta4):
        docs = text_corpus(50, seed=42)
        app = WordCountApp(docs)
        result = PRSRuntime(delta4, JobConfig()).run(app)
        assert result.splits[0].p > 0.95


class TestWeakScalingShape:
    """Figure 6 shape: near-constant GFLOP/s per node as nodes grow."""

    def test_cmeans_weak_scaling_flat(self):
        per_node = 20_000
        gflops = []
        for n_nodes in (1, 2, 4):
            pts, _, _ = gaussian_mixture(per_node * n_nodes, 16, 4, seed=51)
            app = CMeansApp(pts, 10, seed=5, max_iterations=3, epsilon=1e-12)
            cluster = delta_cluster(n_nodes=n_nodes)
            result = PRSRuntime(
                cluster, JobConfig(overheads=QUIET)
            ).run(app)
            gflops.append(result.gflops_per_node(n_nodes))
        # Per-node throughput within 20% across cluster sizes.
        assert max(gflops) / min(gflops) < 1.25

    def test_reduction_overhead_grows_with_nodes(self):
        """§IV.B: 'peak performance per node decrease ... due to the
        increasing overhead in global reduction stage'."""
        per_node = 2000
        times = {}
        for n_nodes in (1, 8):
            pts, _, _ = gaussian_mixture(per_node * n_nodes, 16, 4, seed=52)
            app = CMeansApp(pts, 10, seed=5, max_iterations=3, epsilon=1e-12)
            result = PRSRuntime(
                delta_cluster(n_nodes=n_nodes), JobConfig(overheads=QUIET)
            ).run(app)
            times[n_nodes] = result.makespan
        # Same per-node work, larger cluster is (slightly) slower.
        assert times[8] >= times[1]
