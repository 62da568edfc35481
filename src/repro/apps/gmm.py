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

The host computes the E step in two parts.  The factor step inverts
each component's lower Cholesky factor ``L_m`` once per model version.
The row kernel then gives each point its responsibilities and its
log-likelihood, ``log sum_m pi_m N(y_n | mu_m, R_m)``.  Its
Mahalanobis term is an einsum against ``L_m^-1``, and each row's bits
do not depend on which other rows share the call.  So the app runs the
kernel once per model version over all points, keeps the result in a
memo, and each map slices its block out of the memo.  The per-block
sums ``N_m``, ``F_m`` and ``S_m`` are still taken per block, for all
components in three NumPy calls: the column sums of ``gamma``, the
product ``gamma^T Y``, and the product of the block's ``(n, M*D)``
matrix of ``gamma_nm y_n`` rows with ``Y``.

The paper pins the arithmetic intensity at ``11 * M * D`` flops/byte
(Table 5), which we adopt as the cost profile.
"""

from __future__ import annotations

import functools
from operator import add
from typing import Any

import numpy as np

from repro._validation import require_positive, require_positive_int
from repro.core.intensity import IntensityProfile, gmm_intensity
from repro.runtime.api import Block, IterativeMapReduceApp

_LL_KEY = "loglik"

#: diagonal regulariser added to every covariance update
_COV_REG = 1e-6

_LOG_2PI = np.log(2.0 * np.pi)

#: one component's model-derived kernel inputs: ``(log pi_m, mu_m, L_m^-1,
#: D log 2pi + log|R_m|)`` with ``L_m L_m^T = R_m`` (``L_m`` is the lower
#: Cholesky factor)
Factor = tuple[float, np.ndarray, np.ndarray, float]


@functools.cache
def _dtrtri():
    """LAPACK's float64 triangular inverse, looked up once per process."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("trtri",), (np.empty((1, 1)),))[0]


def _cholesky_head(cov: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Inverse lower Cholesky factor of *cov* and ``D log 2pi + log|cov|``.

    Raises ``ValueError`` if the factor holds a NaN or inf, so the apply
    step may skip its own finite checks.
    """
    chol = np.asarray_chkfinite(np.linalg.cholesky(cov))
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    linv, info = _dtrtri()(chol, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"gmm: singular covariance factor ({info})")
    return linv, d * _LOG_2PI + logdet


def _mahalanobis(x: np.ndarray, mean: np.ndarray, linv: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of every row of *x* (inputs pre-checked).

    ``z_n = L^-1 (x_n - mu)`` and the distance is ``||z_n||^2``.  Each
    row's result is the same bits whatever rows come with it: einsum
    sums each row's products on its own, where a LAPACK solve or a BLAS
    product over the rows changes path with the row count.
    """
    z = np.einsum("nd,ed->ne", x - mean, linv)
    return np.sum(z * z, axis=1)


def _gmm_factors(
    points: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
) -> list[Factor]:
    """Factor step: the per-component inputs of Equation (15).

    They depend only on the model, so an iteration computes them once.
    Each holds ``L_m^-1``, not ``L_m``, so that the row kernel is a
    product with no solve in it.  Raises ``ValueError`` when *points*,
    the means or a Cholesky factor is not finite.
    """
    d = means.shape[1]
    factors = []
    for m in range(means.shape[0]):
        linv, head = _cholesky_head(covariances[m], d)
        factors.append((np.log(max(weights[m], 1e-300)), means[m], linv, head))
    np.asarray_chkfinite(means)
    np.asarray_chkfinite(points)
    return factors


def _responsibilities(
    x: np.ndarray, factors: list[Factor]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply step: responsibilities ``(n, M)`` and per-row log-likelihood
    ``(n,)`` of the float64 points *x*, which :func:`_gmm_factors` has
    checked.  Every row's results are independent of the other rows."""
    log_prob = np.empty((x.shape[0], len(factors)), dtype=np.float64)
    for m, (log_w, mean, linv, head) in enumerate(factors):
        log_prob[:, m] = log_w + (-0.5 * (head + _mahalanobis(x, mean, linv)))
    # log-sum-exp across components
    top = np.max(log_prob, axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        norm = top[:, 0] + np.log(np.sum(np.exp(log_prob - top), axis=1))
    gamma = np.exp(log_prob - norm[:, None])
    return gamma, norm


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
        #: ``(gamma, per-row log-likelihood)`` of every point under the
        #: current model, built by the first map of an iteration and
        #: dropped by :meth:`update`
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
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
    def _model_rows(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is None:
            x = self.points.astype(np.float64)
            self._rows = _responsibilities(
                x, _gmm_factors(x, self.weights, self.means, self.covariances)
            )
        return self._rows

    def cpu_map(self, block: Block) -> list[tuple[Any, Any]]:
        gamma, norm = self._model_rows()
        gamma = gamma[block.start : block.stop]
        x = self.points[block.start : block.stop].astype(np.float64)
        (n, d), k = x.shape, self.n_components
        n_m = gamma.sum(axis=0)  # (M,)
        f_m = gamma.T @ x  # (M, D)
        gx = (gamma[:, :, None] * x[:, None, :]).reshape(n, k * d)
        s_m = (gx.T @ x).reshape(k, d, d)  # (M, D, D)
        pairs: list[tuple[Any, Any]] = [
            (m, (float(n_m[m]), f_m[m], s_m[m])) for m in range(k)
        ]
        pairs.append((_LL_KEY, float(np.sum(norm[block.start : block.stop]))))
        return pairs

    def cpu_reduce(self, key: Any, values: list[Any]) -> Any:
        # Folded in order, as Python <= 3.11's sum() adds (3.12's sum()
        # compensates, so its last bits differ).
        if key == _LL_KEY:
            return float(functools.reduce(add, values, 0))
        n_m = float(functools.reduce(add, [v[0] for v in values], 0))
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
        self._rows = None

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
    def labels(self) -> np.ndarray:
        return np.argmax(self._model_rows()[0], axis=1)
