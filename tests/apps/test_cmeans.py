"""Tests for fuzzy C-means: Equations 12-14 and the MapReduce decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.cmeans import (
    CMeansApp,
    _coincident,
    _memberships_from_d2,
    _squared_distances,
    fuzzy_memberships,
)
from repro.data.synth import gaussian_mixture
from repro.runtime.api import Block
from tests.helpers import assert_pairs_identical, cmeans_reference


@pytest.fixture
def blobs():
    return gaussian_mixture(600, 4, 3, seed=11, spread=12.0)


class TestMemberships:
    def test_rows_sum_to_one(self, blobs):
        pts, _, centers = blobs
        u = fuzzy_memberships(pts, centers)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=1e-9)

    def test_in_unit_interval(self, blobs):
        pts, _, centers = blobs
        u = fuzzy_memberships(pts, centers)
        assert np.all(u >= 0) and np.all(u <= 1)

    def test_point_on_center_is_hard(self):
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        pts = np.array([[0.0, 0.0]])
        u = fuzzy_memberships(pts, centers)
        np.testing.assert_allclose(u, [[1.0, 0.0]])

    def test_nearest_center_gets_highest_membership(self, blobs):
        pts, _, centers = blobs
        u = fuzzy_memberships(pts, centers)
        d2 = (
            np.sum(pts.astype(np.float64) ** 2, axis=1)[:, None]
            - 2.0 * pts.astype(np.float64) @ centers.T.astype(np.float64)
            + np.sum(centers.astype(np.float64) ** 2, axis=1)[None, :]
        )
        np.testing.assert_array_equal(np.argmax(u, axis=1), np.argmin(d2, axis=1))

    def test_equidistant_point_uniform(self):
        centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
        pts = np.array([[0.0, 5.0]])
        u = fuzzy_memberships(pts, centers)
        np.testing.assert_allclose(u, [[0.5, 0.5]], atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(m=st.floats(1.1, 5.0))
    def test_any_fuzzifier_valid(self, m):
        pts, _, centers = gaussian_mixture(50, 3, 2, seed=0)
        u = fuzzy_memberships(pts, centers, m)
        np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=1e-9)

    def test_rejects_m_at_most_one(self):
        with pytest.raises(ValueError):
            fuzzy_memberships(np.zeros((2, 2)), np.ones((2, 2)), m=1.0)

    def test_sharper_with_larger_m_toward_uniform(self, blobs):
        """As m -> inf memberships approach uniform; small m -> hard."""
        pts, _, centers = blobs
        u_soft = fuzzy_memberships(pts, centers, m=8.0)
        u_hard = fuzzy_memberships(pts, centers, m=1.2)
        spread_soft = np.mean(np.max(u_soft, axis=1))
        spread_hard = np.mean(np.max(u_hard, axis=1))
        assert spread_hard > spread_soft


def cmeans_objective(x, centers, m=2.0):
    """Equation (12): ``J_m = sum_i sum_j u_ij^m ||x_i - c_j||^2``."""
    u = fuzzy_memberships(x, centers, m)
    return float(np.sum(u**m * _squared_distances(x, centers)))


class TestObjective:
    def test_reference_iterations_decrease_objective(self, blobs):
        pts, _, _ = blobs
        rng = np.random.default_rng(0)
        idx = rng.choice(pts.shape[0], 3, replace=False)
        centers = pts[idx].astype(np.float64)
        x = pts.astype(np.float64)
        objectives = []
        for _ in range(6):
            objectives.append(cmeans_objective(x, centers))
            u = fuzzy_memberships(x, centers)
            w = u**2.0
            centers = (w.T @ x) / w.sum(axis=0)[:, None]
        assert all(b <= a + 1e-6 for a, b in zip(objectives, objectives[1:]))


class TestMapReduceDecomposition:
    def test_blockwise_partials_equal_global_update(self, blobs):
        """Summed per-block partials must reproduce the serial center
        update exactly (up to float associativity)."""
        pts, _, _ = blobs
        app = CMeansApp(pts, n_clusters=3, seed=4)
        pairs = []
        for lo in range(0, pts.shape[0], 100):
            block = Block(lo, min(lo + 100, pts.shape[0]))
            pairs.extend(app.cpu_map(block))
        from repro.runtime.shuffle import group_by_key

        reduced = {
            k: app.cpu_reduce(k, vs) for k, vs in group_by_key(pairs).items()
        }
        # Serial oracle
        x = pts.astype(np.float64)
        u = fuzzy_memberships(x, app.centers, app.m)
        w = u**app.m
        expected = (w.T @ x) / w.sum(axis=0)[:, None]

        app.update(reduced)
        np.testing.assert_allclose(app.centers, expected, rtol=1e-8)

    def test_block_partition_invariance(self, blobs):
        """Final centers must not depend on how the input was blocked."""
        pts, _, _ = blobs

        def run(block_size):
            app = CMeansApp(pts, n_clusters=3, seed=4)
            for _ in range(3):
                pairs = []
                for lo in range(0, pts.shape[0], block_size):
                    block = Block(lo, min(lo + block_size, pts.shape[0]))
                    pairs.extend(app.cpu_map(block))
                from repro.runtime.shuffle import group_by_key

                reduced = {
                    k: app.cpu_reduce(k, vs)
                    for k, vs in group_by_key(pairs).items()
                }
                app.update(reduced)
            return app.centers

        np.testing.assert_allclose(run(64), run(211), rtol=1e-7)

    def test_combiner_is_associative_with_reduce(self, blobs):
        pts, _, _ = blobs
        app = CMeansApp(pts, n_clusters=3, seed=4)
        pairs = app.cpu_map(Block(0, 200))
        key = 0
        values = [v for k, v in pairs if k == key]
        more = [v for k, v in app.cpu_map(Block(200, 400)) if k == key]
        direct = app.cpu_reduce(key, values + more)
        staged = app.cpu_reduce(
            key, [app.combiner(key, values), app.combiner(key, more)]
        )
        np.testing.assert_allclose(direct[0], staged[0], rtol=1e-12)
        assert direct[1] == pytest.approx(staged[1])


class TestConvergence:
    def test_converges_on_separable_data(self):
        pts, labels, _ = gaussian_mixture(500, 4, 3, seed=2, spread=20.0)
        app = CMeansApp(pts, 3, epsilon=1e-4, max_iterations=60, seed=1)
        reduced_iters = _drive(app)
        assert app.converged
        assert reduced_iters < 60

    def test_objective_history_monotone(self):
        pts, _, _ = gaussian_mixture(400, 4, 3, seed=5)
        app = CMeansApp(pts, 3, seed=3)
        _drive(app, iterations=6)
        hist = app.objective_history
        assert len(hist) >= 2
        assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))

    def test_matches_reference_implementation(self):
        pts, _, _ = gaussian_mixture(300, 3, 2, seed=8, spread=15.0)
        app = CMeansApp(pts, 2, seed=8, epsilon=1e-12, max_iterations=10)
        _drive(app, iterations=10)
        ref = cmeans_reference(pts, 2, iterations=10, seed=8)
        np.testing.assert_allclose(
            np.sort(app.centers, axis=0), np.sort(ref, axis=0), rtol=1e-6
        )

    def test_recovers_true_centers(self):
        pts, _, true_centers = gaussian_mixture(2000, 3, 3, seed=13, spread=25.0)
        app = CMeansApp(pts, 3, seed=7, max_iterations=40)
        _drive(app)
        # match each found center to its nearest true center
        found = app.centers
        for tc in true_centers.astype(np.float64):
            nearest = np.min(np.linalg.norm(found - tc, axis=1))
            assert nearest < 1.0


class TestZeroDistanceMask:
    def test_mask_matches_isclose(self):
        d2 = np.array([0.0, 5e-9, 1e-8, 2e-8, np.nan, np.inf])
        np.testing.assert_array_equal(_coincident(d2), np.isclose(d2, 0.0))

    def test_point_near_center_gets_hard_membership(self):
        centers = np.array([[1.0, 2.0, -0.5], [5.0, -3.0, 4.0]])
        pts = centers + np.array([[9e-5, 0.0, 0.0], [0.0, -3e-5, 5e-5]])
        np.testing.assert_array_equal(fuzzy_memberships(pts, centers), np.eye(2))


class TestValidation:
    def test_rejects_1d_points(self):
        with pytest.raises(ValueError):
            CMeansApp(np.zeros(10), 2)

    def test_rejects_too_many_clusters(self):
        with pytest.raises(ValueError):
            CMeansApp(np.zeros((3, 2)), 5)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            CMeansApp(np.zeros((10, 2)), 2, m=1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("row", [0, -1])
    def test_non_finite_point_fails_the_job(self, bad, row):
        """A NaN/inf point must not pass for convergence."""
        from repro.hardware import delta_cluster
        from repro.runtime.job import JobConfig
        from repro.runtime.prs import PRSRuntime

        pts, _, _ = gaussian_mixture(400, 4, 3, seed=13)
        pts[row, 1] = bad
        app = CMeansApp(pts, 3, seed=13)
        runtime = PRSRuntime(delta_cluster(n_nodes=2), JobConfig())
        with pytest.raises(ValueError, match="cmeans: non-finite input"):
            runtime.run(app)
        assert not app.converged and app.objective_history == []


def _drive(app, iterations=None):
    """Serial driver mirroring the PRS iteration loop."""
    from repro.runtime.shuffle import group_by_key

    limit = iterations if iterations is not None else app.max_iterations
    done = 0
    for _ in range(limit):
        pairs = []
        for lo in range(0, app.n_items(), 128):
            pairs.extend(app.cpu_map(Block(lo, min(lo + 128, app.n_items()))))
        reduced = {
            k: app.cpu_reduce(k, vs) for k, vs in group_by_key(pairs).items()
        }
        app.update(reduced)
        done += 1
        if iterations is None and app.converged:
            break
    return done


class TestCMeansRowKernel:
    """C-means' per-row distances and weights are the same bits at every
    block size."""

    @pytest.fixture(scope="class")
    def model(self):
        pts, _, _ = gaussian_mixture(1000, 16, 5, seed=21)
        app = CMeansApp(pts, 5, seed=21)
        _drive(app, iterations=1)
        return pts.astype(np.float64), app.centers, app.m

    @pytest.mark.parametrize("size", [1, 3, 7, 333, 1000])
    def test_rows_bitwise_equal_at_every_block_size(self, model, size):
        x, centers, m = model
        d2 = [
            _squared_distances(x[lo : lo + size], centers)
            for lo in range(0, len(x), size)
        ]
        w = [_memberships_from_d2(b, m) ** m for b in d2]
        whole = _squared_distances(x, centers)
        assert np.array_equal(np.concatenate(d2), whole)
        assert np.array_equal(
            np.concatenate(w), _memberships_from_d2(whole, m) ** m
        )


def _public_map(app, block):
    """``CMeansApp.cpu_map`` rebuilt from the whole input's rows, sliced."""
    x = app.points.astype(np.float64)
    w = fuzzy_memberships(x, app.centers, app.m) ** app.m
    objective = np.sum(w * _squared_distances(x, app.centers), axis=1)
    lo, hi = block.start, block.stop
    x, w = x[lo:hi], w[lo:hi]
    numerators, denominators = w.T @ x, w.sum(0)
    pairs = [
        (j, (numerators[j], float(denominators[j])))
        for j in range(app.n_clusters)
    ]
    return pairs + [("objective", float(np.sum(objective[lo:hi])))]


class TestCMeansRowMemo:
    """The per-iteration row memo never serves stale centers."""

    BLOCK = Block(37, 181)

    def _app(self):
        pts, _, _ = gaussian_mixture(300, 4, 3, seed=12)
        return CMeansApp(pts, 3, seed=12)

    def test_no_memo_after_constructor(self):
        assert self._app()._rows is None

    def test_map_matches_public_path_across_updates(self):
        app = self._app()
        for _ in range(3):  # iteration 0, after one and after two updates
            assert_pairs_identical(
                app.cpu_map(self.BLOCK), _public_map(app, self.BLOCK)
            )
            _drive(app, iterations=1)
            assert app._rows is None

    def test_map_matches_public_path_after_restore(self):
        app = self._app()
        _drive(app, iterations=1)
        app.cpu_map(self.BLOCK)
        state = app.checkpoint()
        assert state["_rows"] is not None
        _drive(app, iterations=1)
        newer = app.cpu_map(self.BLOCK)  # memo of the newer centers
        app.restore(state)
        restored = app.cpu_map(self.BLOCK)
        assert_pairs_identical(restored, _public_map(app, self.BLOCK))
        assert not np.array_equal(restored[0][1][0], newer[0][1][0])

    def test_shuffled_partition_matches_whole_input_slices(self):
        app = self._app()
        _drive(app, iterations=1)
        n = app.n_items()
        rng = np.random.default_rng(14)
        cuts = np.sort(rng.choice(np.arange(1, n), size=40, replace=False))
        bounds = [0, *cuts.tolist(), n]
        blocks = [Block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        rng.shuffle(blocks)
        assert blocks[0].start != 0  # the memo is built from a later block
        for block in blocks:
            assert_pairs_identical(app.cpu_map(block), _public_map(app, block))
