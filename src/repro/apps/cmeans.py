"""Fuzzy C-means clustering (paper §IV.A.1, Equations 12-14).

The MapReduce decomposition follows the paper exactly: "The Map function
calculates the distance and membership matrices, and then multiplies the
distance matrix by the membership matrix in order to calculate the new
cluster centers.  The Reduce function aggregates partial cluster centers
and calculates the final cluster centers."

Each map task covers a block of points and emits, per cluster ``j``, the
partial numerator ``sum_i u_ij^m x_i`` and denominator ``sum_i u_ij^m`` of
Equation (14), plus one ``("objective", ...)`` pair carrying the block's
contribution to ``J_m`` (Equation 12).  ``update`` recomputes the centers
and stops when they move less than ``epsilon`` — a center-based restatement
of the paper's membership test ``max_ij |u_ij^(k+1) - u_ij^(k)| < eps``
(tracking the full membership matrix across iterations would need O(N*M)
state on the master; centers determine memberships, so center convergence
implies membership convergence).

The distance and membership matrices of one point depend only on that
point and the centers, and :func:`_squared_distances` gives each row
the same bits whatever rows share the call.  So the app computes the
weights ``u_ij^m`` and each row's objective term
``sum_j u_ij^m ||x_i - c_j||^2`` once per model version over all
points, keeps them in a memo, and each map slices its block out of the
memo.  The per-block sums of Equation (14) are still taken per block.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Any

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.core.intensity import IntensityProfile, cmeans_intensity
from repro.runtime.api import Block, IterativeMapReduceApp

_OBJECTIVE_KEY = "objective"


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """``||x_i - c_j||^2`` of shape ``(n, M)`` via the expansion trick,
    clipped at 0 so rounding never makes it negative.

    Each row's result is the same bits whatever rows come with it:
    einsum (without ``optimize``, so never BLAS) sums each row's
    products on its own, where ``points @ centers.T`` changes path with
    the row count.
    """
    d2 = (
        np.einsum("nd,nd->n", points, points)[:, None]
        - 2.0 * np.einsum("nd,md->nm", points, centers)
        + np.einsum("md,md->m", centers, centers)[None, :]
    )
    np.clip(d2, 0.0, None, out=d2)
    return d2


def _coincident(d2: np.ndarray) -> np.ndarray:
    """Where a point sits on a center: ``np.isclose(d2, 0.0)`` for the
    clipped ``d2 >= 0`` (NaN and inf included), without its overhead."""
    return d2 <= 1e-8


def _memberships_from_d2(d2: np.ndarray, m: float) -> np.ndarray:
    """Equation (13) from the clipped squared distances *d2*."""
    exponent = 1.0 / (m - 1.0)  # (d^2)^(1/(m-1)) == d^(2/(m-1))
    zero_mask = _coincident(d2)
    zero_rows = zero_mask.any(axis=1)
    # Pad exact zeros so the power stays finite; those rows are replaced by
    # hard memberships below.
    d2_safe = np.where(zero_mask, 1.0, d2)
    inv = d2_safe ** (-exponent)
    u = inv / np.sum(inv, axis=1, keepdims=True)
    if np.any(zero_rows):
        # A point sitting exactly on >= 1 center: all mass on the nearest.
        hard = np.zeros((int(zero_rows.sum()), d2.shape[1]))
        nearest = np.argmin(d2[zero_rows], axis=1)
        hard[np.arange(hard.shape[0]), nearest] = 1.0
        u[zero_rows] = hard
    return u


def fuzzy_memberships(
    points: np.ndarray, centers: np.ndarray, m: float = 2.0
) -> np.ndarray:
    """Equation (13): membership matrix ``U`` of shape ``(n, M)``.

    ``U_ij = 1 / sum_k (||x_i - c_j|| / ||x_i - c_k||)^(2/(m-1))``,
    computed stably as normalized inverse-power distances.  Points that
    coincide with a center get a hard membership of 1 there.
    """
    require_positive("m", m)
    if m <= 1.0:
        raise ValueError(f"fuzzifier m must be > 1, got {m}")
    x = np.asarray(points, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    return _memberships_from_d2(_squared_distances(x, c), m)


class CMeansApp(IterativeMapReduceApp):
    """Fuzzy C-means on the PRS runtime."""

    name = "cmeans"

    def __init__(
        self,
        points: np.ndarray,
        n_clusters: int,
        m: float = 2.0,
        epsilon: float = 1e-3,
        max_iterations: int = 20,
        seed: int = 0,
    ) -> None:
        points = np.ascontiguousarray(points)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        require_positive_int("n_clusters", n_clusters)
        if n_clusters > points.shape[0]:
            raise ValueError(
                f"n_clusters {n_clusters} exceeds point count {points.shape[0]}"
            )
        if m <= 1.0:
            raise ValueError(f"fuzzifier m must be > 1, got {m}")
        require_positive("epsilon", epsilon)
        require_positive_int("max_iterations", max_iterations)

        self.points = points
        self.n_clusters = n_clusters
        self.m = m
        self.epsilon = epsilon
        self.max_iterations = max_iterations

        rng = np.random.default_rng(seed)
        idx = rng.choice(points.shape[0], size=n_clusters, replace=False)
        #: current cluster centers (float64 for stable accumulation)
        self.centers = points[idx].astype(np.float64).copy()
        self._converged = False
        #: ``(u^m, per-row objective)`` of every point under the current
        #: centers, built by the first map of an iteration and dropped by
        #: :meth:`update`
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
        #: J_m after each completed iteration
        self.objective_history: list[float] = []
        self._intensity = cmeans_intensity(n_clusters)

    # ------------------------------------------------------------------
    # Cost metadata
    # ------------------------------------------------------------------
    def n_items(self) -> int:
        return self.points.shape[0]

    def item_bytes(self) -> float:
        return float(self.points.shape[1] * self.points.itemsize)

    def intensity(self) -> IntensityProfile:
        return self._intensity

    def map_output_bytes(self, block: Block) -> float:
        # Per cluster: a D-vector numerator + scalar denominator, float64.
        d = self.points.shape[1]
        return self.n_clusters * (d * 8.0 + 8.0) + 16.0

    def reduce_flops(self, key: Any, values: list[Any]) -> float:
        d = self.points.shape[1]
        return float(len(values) * (d + 1))

    # ------------------------------------------------------------------
    # MapReduce kernels
    # ------------------------------------------------------------------
    def _model_rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is None:
            d2 = _squared_distances(self.points.astype(np.float64), self.centers)
            w = _memberships_from_d2(d2, self.m) ** self.m
            self._rows = w, np.sum(w * d2, axis=1)
        return self._rows

    def cpu_map(self, block: Block) -> list[tuple[Any, Any]]:
        w, objective = self._model_rows()
        lo, hi = block.start, block.stop
        w = w[lo:hi]
        x = self.points[lo:hi].astype(np.float64)
        numerators = w.T @ x  # (M, D)
        denominators = np.sum(w, axis=0)  # (M,)
        objective = float(np.sum(objective[lo:hi]))

        pairs: list[tuple[Any, Any]] = [
            (j, (numerators[j], float(denominators[j])))
            for j in range(self.n_clusters)
        ]
        pairs.append((_OBJECTIVE_KEY, objective))
        return pairs

    def cpu_reduce(self, key: Any, values: list[Any]) -> Any:
        # Folded in order, as Python <= 3.11's sum() adds (3.12's sum()
        # compensates, so its last bits differ).
        if key == _OBJECTIVE_KEY:
            return float(reduce(add, values, 0))
        numerator = np.sum([v[0] for v in values], axis=0)
        denominator = float(reduce(add, [v[1] for v in values], 0))
        return (numerator, denominator)

    def combiner(self, key: Any, values: list[Any]) -> Any:
        # Partial aggregation is identical to the reduce.
        return self.cpu_reduce(key, values)

    # ------------------------------------------------------------------
    # Iteration driver hooks
    # ------------------------------------------------------------------
    def iteration_state(self) -> np.ndarray:
        return self.centers

    def update(self, reduced: dict[Any, Any]) -> None:
        objective = reduced.get(_OBJECTIVE_KEY)
        if objective is not None and not np.isfinite(objective):
            raise ValueError(
                f"cmeans: non-finite input: objective J_m is {objective}; "
                "the points hold a NaN or inf"
            )
        new_centers = self.centers.copy()
        for j in range(self.n_clusters):
            if j not in reduced:
                raise RuntimeError(f"cmeans: lost partials for cluster {j}")
            numerator, denominator = reduced[j]
            if not np.isfinite(denominator):
                raise ValueError(
                    f"cmeans: non-finite input: membership mass of cluster "
                    f"{j} is {denominator}; the points hold a NaN or inf"
                )
            # Reduce may deliver a combiner-aggregated tuple or a raw one.
            if denominator > 0:
                new_centers[j] = np.asarray(numerator) / denominator
        delta = float(np.max(np.linalg.norm(new_centers - self.centers, axis=1)))
        self.centers = new_centers
        self._rows = None
        if objective is not None:
            self.objective_history.append(float(objective))
        self._converged = delta < self.epsilon

    @property
    def converged(self) -> bool:
        return self._converged

    # ------------------------------------------------------------------
    def memberships(self) -> np.ndarray:
        """Final membership matrix for the whole input."""
        return fuzzy_memberships(self.points, self.centers, self.m)

    def labels(self) -> np.ndarray:
        """Hard labels: argmax membership per point."""
        return np.argmax(self.memberships(), axis=1)
