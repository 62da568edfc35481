"""Tests for K-means and GMM EM applications."""

import numpy as np
import pytest

from repro.apps.gmm import (
    GMMApp,
    _cholesky_head,
    _gmm_factors,
    _mahalanobis,
    _responsibilities,
)
from repro.apps.kmeans import KMeansApp, nearest_centers
from repro.data.synth import gaussian_mixture
from repro.runtime.api import Block
from repro.runtime.shuffle import group_by_key
from tests.helpers import assert_pairs_identical


def log_gaussian_pdf(points, mean, cov):
    """Log of Equation (15) for one component, for every point."""
    x = np.asarray_chkfinite(points, dtype=np.float64)
    linv, head = _cholesky_head(cov, x.shape[1])
    return -0.5 * (head + _mahalanobis(x, np.asarray_chkfinite(mean), linv))


def gmm_responsibilities(points, weights, means, covariances):
    """E step: responsibilities ``(n, M)`` and per-row log-likelihood."""
    x = np.asarray(points, dtype=np.float64)
    return _responsibilities(x, _gmm_factors(x, weights, means, covariances))


def drive(app, iterations=None, block=128):
    limit = iterations if iterations is not None else app.max_iterations
    done = 0
    for _ in range(limit):
        pairs = []
        for lo in range(0, app.n_items(), block):
            pairs.extend(app.cpu_map(Block(lo, min(lo + block, app.n_items()))))
        reduced = {k: app.cpu_reduce(k, vs) for k, vs in group_by_key(pairs).items()}
        app.update(reduced)
        done += 1
        if iterations is None and app.converged:
            break
    return done


class TestKMeans:
    def test_sse_monotone_decreasing(self):
        pts, _, _ = gaussian_mixture(500, 4, 3, seed=1)
        app = KMeansApp(pts, 3, seed=2)
        drive(app, iterations=6)
        hist = app.sse_history
        assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))

    def test_converges_and_recovers_centers(self):
        pts, _, true_centers = gaussian_mixture(2000, 3, 3, seed=4, spread=25.0)
        app = KMeansApp(pts, 3, seed=5, max_iterations=40)
        drive(app)
        assert app.converged
        for tc in true_centers.astype(np.float64):
            assert np.min(np.linalg.norm(app.centers - tc, axis=1)) < 1.0

    def test_block_invariance(self):
        pts, _, _ = gaussian_mixture(400, 3, 2, seed=6)

        def run(bs):
            app = KMeansApp(pts, 2, seed=3)
            drive(app, iterations=4, block=bs)
            return app.centers

        np.testing.assert_allclose(run(50), run(173), rtol=1e-9)

    def test_labels_are_nearest(self):
        pts, _, _ = gaussian_mixture(200, 2, 2, seed=7)
        app = KMeansApp(pts, 2, seed=7)
        drive(app, iterations=3)
        np.testing.assert_array_equal(
            app.labels(), nearest_centers(pts, app.centers)
        )

    def test_empty_cluster_keeps_center(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]], dtype=np.float32)
        app = KMeansApp(pts, 2, seed=0)
        # Force a far-away center that will capture no points.
        app.centers[1] = np.array([100.0, 100.0])
        before = app.centers[1].copy()
        drive(app, iterations=1)
        np.testing.assert_array_equal(app.centers[1], before)

    def test_kmeans_intensity_below_cmeans(self):
        pts, _, _ = gaussian_mixture(100, 2, 2, seed=0)
        from repro.apps.cmeans import CMeansApp

        k = KMeansApp(pts, 2)
        c = CMeansApp(pts, 2)
        assert k.intensity().at(1e6) < c.intensity().at(1e6)


class TestGaussianPdf:
    def test_standard_normal_at_origin(self):
        # log N(0 | 0, I) in 2-D = -log(2 pi)
        val = log_gaussian_pdf(
            np.zeros((1, 2)), np.zeros(2), np.eye(2)
        )
        assert val[0] == pytest.approx(-np.log(2 * np.pi))

    def test_matches_scipy(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(3)
        mean = rng.normal(size=3)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + np.eye(3)
        x = rng.normal(size=(20, 3))
        ours = log_gaussian_pdf(x, mean, cov)
        ref = multivariate_normal(mean, cov).logpdf(x)
        np.testing.assert_allclose(ours, ref, rtol=1e-9)


class TestGMM:
    def test_responsibilities_sum_to_one(self):
        pts, _, _ = gaussian_mixture(200, 3, 2, seed=1)
        app = GMMApp(pts, 2, seed=1)
        gamma, norm = gmm_responsibilities(
            pts, app.weights, app.means, app.covariances
        )
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=1e-9)
        assert np.all(np.isfinite(norm))

    def test_loglik_monotone_nondecreasing(self):
        """EM guarantee: log-likelihood never drops."""
        pts, _, _ = gaussian_mixture(600, 3, 3, seed=2, spread=8.0)
        app = GMMApp(pts, 3, seed=2)
        drive(app, iterations=8)
        hist = app.loglik_history
        assert len(hist) == 8
        assert all(b >= a - 1e-6 * abs(a) for a, b in zip(hist, hist[1:]))

    def test_weights_stay_normalized(self):
        pts, _, _ = gaussian_mixture(300, 2, 3, seed=3)
        app = GMMApp(pts, 3, seed=3)
        drive(app, iterations=5)
        assert app.weights.sum() == pytest.approx(1.0)
        assert np.all(app.weights >= 0)

    def test_covariances_positive_definite(self):
        pts, _, _ = gaussian_mixture(300, 4, 2, seed=4)
        app = GMMApp(pts, 2, seed=4)
        drive(app, iterations=5)
        for cov in app.covariances:
            eigvals = np.linalg.eigvalsh(cov)
            assert np.all(eigvals > 0)

    def test_recovers_mixture_parameters(self):
        pts, labels, true_centers = gaussian_mixture(
            3000, 2, 2, seed=5, spread=12.0, weights=np.array([0.7, 0.3])
        )
        app = GMMApp(pts, 2, seed=6, max_iterations=50)
        drive(app)
        # match components to truth by nearest mean
        order = [
            int(np.argmin(np.linalg.norm(app.means - tc, axis=1)))
            for tc in true_centers.astype(np.float64)
        ]
        assert sorted(order) == [0, 1]
        weights = app.weights[order]
        np.testing.assert_allclose(weights, [0.7, 0.3], atol=0.05)

    def test_converges_by_tolerance(self):
        pts, _, _ = gaussian_mixture(500, 2, 2, seed=7, spread=15.0)
        app = GMMApp(pts, 2, seed=7, tolerance=1e-6, max_iterations=100)
        iters = drive(app)
        assert app.converged
        assert iters < 100

    def test_block_invariance(self):
        pts, _, _ = gaussian_mixture(300, 3, 2, seed=8)

        def run(bs):
            app = GMMApp(pts, 2, seed=8)
            drive(app, iterations=3, block=bs)
            return app.means

        np.testing.assert_allclose(run(64), run(97), rtol=1e-7)

    def test_combiner_associative(self):
        pts, _, _ = gaussian_mixture(200, 3, 2, seed=9)
        app = GMMApp(pts, 2, seed=9)
        a = [v for k, v in app.cpu_map(Block(0, 100)) if k == 0]
        b = [v for k, v in app.cpu_map(Block(100, 200)) if k == 0]
        direct = app.cpu_reduce(0, a + b)
        staged = app.cpu_reduce(0, [app.combiner(0, a), app.combiner(0, b)])
        assert direct[0] == pytest.approx(staged[0])
        np.testing.assert_allclose(direct[1], staged[1], rtol=1e-12)
        np.testing.assert_allclose(direct[2], staged[2], rtol=1e-12)

    def test_gmm_intensity_matches_table5(self):
        pts, _, _ = gaussian_mixture(100, 60, 2, seed=0)
        app = GMMApp(pts, 10, seed=0)
        assert app.intensity().at(1e6) == 11.0 * 10 * 60


class TestGMMRowKernel:
    """GMM's per-row products are the same bits at every block size."""

    @pytest.fixture(scope="class")
    def model(self):
        pts, _, _ = gaussian_mixture(1000, 16, 5, seed=21)
        app = GMMApp(pts, 5, seed=21)
        drive(app, iterations=1)  # full, fitted covariances
        x = pts.astype(np.float64)
        return x, _gmm_factors(x, app.weights, app.means, app.covariances)

    @pytest.mark.parametrize("size", [1, 3, 7, 333, 1000])
    def test_rows_bitwise_equal_at_every_block_size(self, model, size):
        x, factors = model
        blocks = [
            _responsibilities(x[lo : lo + size], factors)
            for lo in range(0, len(x), size)
        ]
        gamma, norm = _responsibilities(x, factors)
        assert np.array_equal(np.concatenate([g for g, _ in blocks]), gamma)
        assert np.array_equal(np.concatenate([n for _, n in blocks]), norm)


def _public_map(app, block):
    """``GMMApp.cpu_map`` rebuilt from the whole input's rows, sliced."""
    gamma, norm = gmm_responsibilities(
        app.points, app.weights, app.means, app.covariances
    )
    lo, hi = block.start, block.stop
    x, g = app.points[lo:hi].astype(np.float64), gamma[lo:hi]
    (n, d), k = x.shape, app.n_components
    s = ((g[:, :, None] * x[:, None, :]).reshape(n, k * d).T @ x).reshape(k, d, d)
    n_m, f_m = g.sum(0), g.T @ x
    pairs = [(m, (float(n_m[m]), f_m[m], s[m])) for m in range(k)]
    return pairs + [("loglik", float(np.sum(norm[lo:hi])))]


class TestGMMFactorMemo:
    """The per-iteration row memo never serves a stale model."""

    BLOCK = Block(37, 181)

    def _app(self):
        pts, _, _ = gaussian_mixture(300, 4, 3, seed=12)
        return GMMApp(pts, 3, seed=12)

    def test_no_factors_after_constructor(self):
        assert self._app()._rows is None

    def test_map_matches_public_path_across_updates(self):
        app = self._app()
        for _ in range(3):  # iteration 0, after one and after two updates
            assert_pairs_identical(
                app.cpu_map(self.BLOCK), _public_map(app, self.BLOCK)
            )
            drive(app, iterations=1)
            assert app._rows is None

    def test_map_matches_public_path_after_restore(self):
        app = self._app()
        drive(app, iterations=1)
        app.cpu_map(self.BLOCK)
        state = app.checkpoint()
        assert state["_rows"] is not None
        drive(app, iterations=1)
        app.cpu_map(self.BLOCK)  # memo of the newer model
        newer = app._model_rows()[0].copy()
        app.restore(state)
        assert_pairs_identical(
            app.cpu_map(self.BLOCK), _public_map(app, self.BLOCK)
        )
        assert not np.array_equal(app._model_rows()[0], newer)

    def test_shuffled_partition_matches_whole_input_slices(self):
        app = self._app()
        drive(app, iterations=1)
        n = app.n_items()
        rng = np.random.default_rng(14)
        cuts = np.sort(rng.choice(np.arange(1, n), size=40, replace=False))
        bounds = [0, *cuts.tolist(), n]
        blocks = [Block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        rng.shuffle(blocks)
        assert blocks[0].start != 0  # the memo is built from a later block
        for block in blocks:
            assert_pairs_identical(app.cpu_map(block), _public_map(app, block))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [0, -1])
    def test_non_finite_point_fails_the_job(self, bad, row):
        from repro.hardware import delta_cluster
        from repro.runtime.job import JobConfig
        from repro.runtime.prs import PRSRuntime

        pts, _, _ = gaussian_mixture(400, 4, 3, seed=13)
        pts[row, 2] = bad
        runtime = PRSRuntime(delta_cluster(n_nodes=2), JobConfig())
        with pytest.raises(ValueError, match="infs or NaNs"):
            runtime.run(GMMApp(pts, 3, seed=13))
