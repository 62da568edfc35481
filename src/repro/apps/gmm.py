"""Gaussian-mixture-model EM (paper §IV.A.2, Equation 15).

The E step is the map: each task computes, for its block of points, the
responsibilities ``gamma_nm = P(m | y_n, theta)`` via Equation (15)
(evaluated in log space for stability) and emits per-component partial
statistics: the responsibility mass ``N_m``, the first moment
``F_m = sum_n gamma_nm y_n`` and the second moment
``S_m = sum_n gamma_nm y_n y_n^T``, plus the block's log-likelihood.
The M step is ``update``: ``pi_m = N_m / N``, ``mu_m = F_m / N_m``,
``R_m = S_m / N_m - mu_m mu_m^T`` (with a diagonal regulariser keeping
``R_m`` positive definite).  Convergence is a relative log-likelihood
test.

The paper pins the arithmetic intensity at ``11 * M * D`` flops/byte
(Table 5), which we adopt as the cost profile.
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.core.intensity import IntensityProfile, gmm_intensity
from repro.runtime.api import Block, IterativeMapReduceApp

_LL_KEY = "loglik"

#: diagonal regulariser added to every covariance update
_COV_REG = 1e-6

_LOG_2PI = np.log(2.0 * np.pi)

#: one component's model-derived kernel inputs: ``(log pi_m, mu_m, U_m,
#: D log 2pi + log|R_m|)`` with ``U_m^T U_m = R_m`` (``U_m`` is the
#: transposed Cholesky factor, Fortran-ordered for LAPACK)
Factor = tuple[float, np.ndarray, np.ndarray, float]


@functools.cache
def _dtrtrs():
    """LAPACK's float64 triangular solve, looked up once per process."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("trtrs",), (np.empty((1, 1)),))[0]


def _cholesky_head(cov: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Upper Cholesky factor of *cov* and ``D log 2pi + log|cov|``.

    Raises ``ValueError`` if the factor holds a NaN or inf, so the apply
    step may skip its own finite checks.
    """
    chol = np.asarray_chkfinite(np.linalg.cholesky(cov))
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return chol.T, d * _LOG_2PI + logdet


def _mahalanobis(x: np.ndarray, mean: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of every row of *x* (inputs pre-checked)."""
    diff = x - mean
    # Solve U^T z = diff^T => z = L^{-1} diff^T; Mahalanobis = ||z||^2.
    sol, info = _dtrtrs()(upper, diff.T, lower=False, trans=True)
    if info:
        raise np.linalg.LinAlgError(f"gmm: singular covariance factor ({info})")
    return np.sum(sol * sol, axis=0)


def _gmm_factors(
    points: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
) -> list[Factor]:
    """Factor step: the per-component inputs of Equation (15).

    They depend only on the model, so an iteration computes them once and
    every block reuses them.  Raises ``ValueError`` when *points*, the
    means or a Cholesky factor is not finite.
    """
    d = means.shape[1]
    factors = []
    for m in range(means.shape[0]):
        upper, head = _cholesky_head(covariances[m], d)
        factors.append((np.log(max(weights[m], 1e-300)), means[m], upper, head))
    np.asarray_chkfinite(means)
    np.asarray_chkfinite(points)
    return factors


def log_gaussian_pdf(
    points: np.ndarray, mean: np.ndarray, cov: np.ndarray
) -> np.ndarray:
    """Log of Equation (15) for one component, for every point.

    Uses a Cholesky solve rather than an explicit inverse for stability.
    """
    x = np.asarray_chkfinite(points, dtype=np.float64)
    upper, head = _cholesky_head(cov, x.shape[1])
    maha = _mahalanobis(x, np.asarray_chkfinite(mean), upper)
    return -0.5 * (head + maha)


def _responsibilities(
    x: np.ndarray, factors: list[Factor]
) -> tuple[np.ndarray, float]:
    """Apply step: responsibilities ``(n, M)`` and the log-likelihood of
    the float64 points *x*, which :func:`_gmm_factors` has checked."""
    log_prob = np.empty((x.shape[0], len(factors)), dtype=np.float64)
    for m, (log_w, mean, upper, head) in enumerate(factors):
        log_prob[:, m] = log_w + (-0.5 * (head + _mahalanobis(x, mean, upper)))
    # log-sum-exp across components
    top = np.max(log_prob, axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        norm = top[:, 0] + np.log(np.sum(np.exp(log_prob - top), axis=1))
    gamma = np.exp(log_prob - norm[:, None])
    return gamma, float(np.sum(norm))


def gmm_responsibilities(
    points: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
) -> tuple[np.ndarray, float]:
    """E step: responsibilities ``(n, M)`` and the block log-likelihood."""
    x = np.asarray(points, dtype=np.float64)
    factors = _gmm_factors(x, weights, means, covariances)
    return _responsibilities(x, factors)


class GMMApp(IterativeMapReduceApp):
    """Expectation-maximization for Gaussian mixtures on PRS."""

    name = "gmm"

    def __init__(
        self,
        points: np.ndarray,
        n_components: int,
        tolerance: float = 1e-4,
        max_iterations: int = 30,
        seed: int = 0,
    ) -> None:
        points = np.ascontiguousarray(points)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        require_positive_int("n_components", n_components)
        if n_components > points.shape[0]:
            raise ValueError(
                f"n_components {n_components} exceeds point count "
                f"{points.shape[0]}"
            )
        require_positive("tolerance", tolerance)

        self.points = points
        self.n_components = n_components
        self.tolerance = tolerance
        self.max_iterations = max_iterations

        n, d = points.shape
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=n_components, replace=False)
        x64 = points.astype(np.float64)
        #: mixture weights pi_m
        self.weights = np.full(n_components, 1.0 / n_components)
        #: component means mu_m
        self.means = x64[idx].copy()
        #: spectral covariance matrices R_m
        global_cov = np.cov(x64, rowvar=False) + _COV_REG * np.eye(d)
        self.covariances = np.tile(global_cov, (n_components, 1, 1))
        self._converged = False
        #: :func:`_gmm_factors` of the current model, built by the first
        #: map of an iteration and dropped by :meth:`update`
        self._factors: list[Factor] | None = None
        #: total log-likelihood after each iteration
        self.loglik_history: list[float] = []
        self._intensity = gmm_intensity(n_components, d)

    # ------------------------------------------------------------------
    def n_items(self) -> int:
        return self.points.shape[0]

    def item_bytes(self) -> float:
        return float(self.points.shape[1] * self.points.itemsize)

    def intensity(self) -> IntensityProfile:
        return self._intensity

    def map_output_bytes(self, block: Block) -> float:
        d = self.points.shape[1]
        # Per component: N_m scalar + F_m vector + S_m matrix, float64.
        return self.n_components * (8.0 + d * 8.0 + d * d * 8.0) + 16.0

    def reduce_flops(self, key: Any, values: list[Any]) -> float:
        d = self.points.shape[1]
        return float(len(values) * (1 + d + d * d))

    # ------------------------------------------------------------------
    def _model_factors(self) -> list[Factor]:
        if self._factors is None:
            self._factors = _gmm_factors(
                self.points, self.weights, self.means, self.covariances
            )
        return self._factors

    def cpu_map(self, block: Block) -> list[tuple[Any, Any]]:
        factors = self._model_factors()
        x = self.points[block.start : block.stop].astype(np.float64)
        gamma, loglik = _responsibilities(x, factors)
        pairs: list[tuple[Any, Any]] = []
        for m in range(self.n_components):
            g = gamma[:, m]
            n_m = float(np.sum(g))
            f_m = g @ x  # (D,)
            s_m = (x * g[:, None]).T @ x  # (D, D)
            pairs.append((m, (n_m, f_m, s_m)))
        pairs.append((_LL_KEY, loglik))
        return pairs

    def cpu_reduce(self, key: Any, values: list[Any]) -> Any:
        if key == _LL_KEY:
            return float(sum(values))
        n_m = float(sum(v[0] for v in values))
        f_m = np.sum([v[1] for v in values], axis=0)
        s_m = np.sum([v[2] for v in values], axis=0)
        return (n_m, f_m, s_m)

    def combiner(self, key: Any, values: list[Any]) -> Any:
        return self.cpu_reduce(key, values)

    # ------------------------------------------------------------------
    def iteration_state(self) -> dict[str, np.ndarray]:
        return {
            "weights": self.weights,
            "means": self.means,
            "covariances": self.covariances,
        }

    def update(self, reduced: dict[Any, Any]) -> None:
        n_total = self.points.shape[0]
        d = self.points.shape[1]
        eye = np.eye(d)
        for m in range(self.n_components):
            if m not in reduced:
                raise RuntimeError(f"gmm: lost partials for component {m}")
            n_m, f_m, s_m = reduced[m]
            if n_m < 1e-12:
                continue  # dead component: keep previous parameters
            mu = np.asarray(f_m) / n_m
            cov = np.asarray(s_m) / n_m - np.outer(mu, mu)
            self.weights[m] = n_m / n_total
            self.means[m] = mu
            self.covariances[m] = cov + _COV_REG * eye
        # Renormalise weights against numerical drift.
        self.weights = self.weights / np.sum(self.weights)
        self._factors = None

        loglik = float(reduced.get(_LL_KEY, np.nan))
        if self.loglik_history:
            prev = self.loglik_history[-1]
            denom = max(abs(prev), 1e-12)
            self._converged = abs(loglik - prev) / denom < self.tolerance
        self.loglik_history.append(loglik)

    @property
    def converged(self) -> bool:
        return self._converged

    # ------------------------------------------------------------------
    def responsibilities(self) -> np.ndarray:
        gamma, _ = _responsibilities(
            self.points.astype(np.float64), self._model_factors()
        )
        return gamma

    def labels(self) -> np.ndarray:
        return np.argmax(self.responsibilities(), axis=1)
