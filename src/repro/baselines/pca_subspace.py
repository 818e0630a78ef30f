"""PCA subspace (residual / Q-statistic) baseline detector.

The PCA-based approach is the other major non-signature anomaly detection
family of the era: project traffic onto the principal components that capture
most of the normal variance, and alarm when the squared prediction error
(SPE) — the energy left in the residual subspace — exceeds a threshold.  The
threshold can be set either from the Q-statistic (Jackson–Mudholkar) formula
or empirically from a percentile of the training SPE distribution.

This detector scores records individually (record-level PCA), which is the
fair per-connection comparison to the SOM-family detectors.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.detector import BaseAnomalyDetector
from repro.exceptions import ConfigurationError, NotFittedError
from repro.utils.validation import check_array_2d, check_fraction


def q_statistic_threshold(residual_eigenvalues: np.ndarray, alpha: float = 0.01) -> float:
    """Jackson–Mudholkar Q-statistic threshold for the squared prediction error.

    Parameters
    ----------
    residual_eigenvalues:
        Eigenvalues of the covariance matrix belonging to the residual
        (discarded) subspace.
    alpha:
        Target false-alarm probability.

    Returns
    -------
    float
        The SPE value above which a sample is declared anomalous at the
        ``1 - alpha`` confidence level.
    """
    check_fraction(alpha, "alpha", inclusive=False)
    eigenvalues = np.asarray(residual_eigenvalues, dtype=float)
    eigenvalues = eigenvalues[eigenvalues > 0]
    if eigenvalues.size == 0:
        return 0.0
    phi1 = float(np.sum(eigenvalues))
    phi2 = float(np.sum(eigenvalues**2))
    phi3 = float(np.sum(eigenvalues**3))
    h0 = 1.0 - (2.0 * phi1 * phi3) / (3.0 * phi2**2)
    if h0 <= 0:
        h0 = 1e-6
    c_alpha = _normal_quantile(1.0 - alpha)
    term = (
        c_alpha * np.sqrt(2.0 * phi2 * h0**2) / phi1
        + phi2 * h0 * (h0 - 1.0) / phi1**2
        + 1.0
    )
    if term <= 0:
        return float(phi1)
    return float(phi1 * term ** (1.0 / h0))


def _normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"quantile probability must be in (0, 1), got {p}")
    # Coefficients for the central and tail regions.
    a = [-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00]
    b = [-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00]
    p_low = 0.02425
    if p < p_low:
        q = np.sqrt(-2.0 * np.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = np.sqrt(-2.0 * np.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


class PcaSubspaceDetector(BaseAnomalyDetector):
    """Residual-subspace (SPE / Q-statistic) anomaly detector.

    Parameters
    ----------
    variance_fraction:
        Fraction of total variance the retained (normal) subspace must
        explain; the remaining components form the residual subspace.
    n_components:
        Explicit number of retained components (overrides
        ``variance_fraction`` when given).
    alpha:
        Q-statistic false-alarm probability.
    threshold_mode:
        ``"q_statistic"`` (default) uses the analytic threshold;
        ``"percentile"`` uses the empirical ``1 - alpha`` percentile of the
        training SPE distribution, which is more robust when the Gaussian
        assumptions behind the Q-statistic are badly violated.
    fit_on_normal_only:
        When labels are passed to :meth:`fit`, estimate the subspace from
        normal records only (recommended — attack records otherwise leak into
        the "normal" subspace).
    """

    name = "pca"

    def __init__(
        self,
        variance_fraction: float = 0.95,
        *,
        n_components: Optional[int] = None,
        alpha: float = 0.01,
        threshold_mode: str = "q_statistic",
        fit_on_normal_only: bool = True,
    ) -> None:
        check_fraction(variance_fraction, "variance_fraction", inclusive=False)
        check_fraction(alpha, "alpha", inclusive=False)
        if threshold_mode not in ("q_statistic", "percentile"):
            raise ConfigurationError(
                f"threshold_mode must be 'q_statistic' or 'percentile', got {threshold_mode!r}"
            )
        if n_components is not None and n_components < 1:
            raise ConfigurationError(f"n_components must be >= 1, got {n_components}")
        self.variance_fraction = float(variance_fraction)
        self.n_components = n_components
        self.alpha = float(alpha)
        self.threshold_mode = threshold_mode
        self.fit_on_normal_only = fit_on_normal_only
        self._mean: Optional[np.ndarray] = None
        self._components: Optional[np.ndarray] = None  # (d, k) retained eigenvectors
        self._eigenvalues: Optional[np.ndarray] = None
        self._n_retained: Optional[int] = None
        self._spe_threshold: Optional[float] = None

    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        return self._components is not None and self._spe_threshold is not None

    @property
    def n_retained_components(self) -> int:
        """Number of principal components kept in the normal subspace."""
        if self._n_retained is None:
            raise NotFittedError("PcaSubspaceDetector is not fitted")
        return self._n_retained

    # ------------------------------------------------------------------ #
    def fit(self, X, y: Optional[Sequence[str]] = None) -> "PcaSubspaceDetector":
        """Estimate the normal subspace and calibrate the SPE threshold."""
        matrix = check_array_2d(X, "X", min_rows=2)
        fit_matrix = matrix
        if y is not None and self.fit_on_normal_only:
            labels = np.array([str(label) for label in y])
            if labels.shape[0] != matrix.shape[0]:
                raise ConfigurationError(
                    f"got {matrix.shape[0]} samples but {labels.shape[0]} labels"
                )
            normal_mask = labels == "normal"
            if normal_mask.sum() >= 2:
                fit_matrix = matrix[normal_mask]
        self._mean = fit_matrix.mean(axis=0)
        centered = fit_matrix - self._mean
        covariance = centered.T @ centered / max(fit_matrix.shape[0] - 1, 1)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.maximum(eigenvalues[order], 0.0)
        eigenvectors = eigenvectors[:, order]
        self._eigenvalues = eigenvalues
        if self.n_components is not None:
            n_retained = min(self.n_components, eigenvalues.size)
        else:
            total = eigenvalues.sum()
            if total <= 0:
                n_retained = 1
            else:
                cumulative = np.cumsum(eigenvalues) / total
                n_retained = int(np.searchsorted(cumulative, self.variance_fraction) + 1)
                n_retained = min(max(n_retained, 1), eigenvalues.size)
        self._n_retained = n_retained
        self._components = eigenvectors[:, :n_retained]
        residual_eigenvalues = eigenvalues[n_retained:]
        if self.threshold_mode == "q_statistic":
            threshold = q_statistic_threshold(residual_eigenvalues, alpha=self.alpha)
        else:
            spe = self._squared_prediction_error(fit_matrix)
            threshold = float(np.percentile(spe, 100.0 * (1.0 - self.alpha)))
        self._spe_threshold = max(threshold, 1e-12)
        return self

    # ------------------------------------------------------------------ #
    def _squared_prediction_error(self, matrix: np.ndarray) -> np.ndarray:
        centered = matrix - self._mean
        projected = centered @ self._components  # (n, k)
        reconstructed = projected @ self._components.T
        residual = centered - reconstructed
        return np.einsum("ij,ij->i", residual, residual)

    def score_samples(self, X) -> np.ndarray:
        """Threshold-normalised anomaly scores (SPE / SPE threshold)."""
        self._require_fitted(self.is_fitted)
        matrix = check_array_2d(X, "X")
        if matrix.shape[1] != self._mean.shape[0]:
            raise ConfigurationError(
                f"X has {matrix.shape[1]} features, the detector expects {self._mean.shape[0]}"
            )
        return self._squared_prediction_error(matrix) / self._spe_threshold

    def explained_variance_ratio(self) -> np.ndarray:
        """Per-component fraction of total variance (descending)."""
        self._require_fitted(self.is_fitted)
        total = self._eigenvalues.sum()
        if total <= 0:
            return np.zeros_like(self._eigenvalues)
        return self._eigenvalues / total

