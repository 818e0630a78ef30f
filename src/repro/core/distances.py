"""Distance kernels used by the SOM family.

All functions are vectorised over numpy arrays: given a batch of samples with
shape ``(n, d)`` and a codebook with shape ``(u, d)`` they return an
``(n, u)`` matrix of distances.  The GHSOM measures everything in Euclidean
distance.  Squared Euclidean distance is the work-horse (best-matching-unit
search only needs the argmin, so the square root can be skipped); quantization
errors take its square root.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def squared_euclidean(
    samples: np.ndarray,
    codebook: np.ndarray,
    sample_norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pairwise squared Euclidean distances between ``samples`` and ``codebook``.

    Uses the expansion ``|x - w|^2 = |x|^2 - 2 x.w + |w|^2`` which avoids
    materialising the ``(n, u, d)`` difference tensor.  A caller that
    measures the same samples against many codebooks passes their ``|x|^2``
    as ``sample_norms`` (the row-wise einsum computed here otherwise).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    codebook = np.atleast_2d(np.asarray(codebook, dtype=float))
    if sample_norms is None:
        sample_norms = np.einsum("ij,ij->i", samples, samples)
    code_norms = np.einsum("ij,ij->i", codebook, codebook)[None, :]
    cross = samples @ codebook.T
    distances = sample_norms[:, None] - 2.0 * cross + code_norms
    # Numerical noise can push tiny distances slightly below zero.
    np.maximum(distances, 0.0, out=distances)
    return distances


def euclidean(samples: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances."""
    return np.sqrt(squared_euclidean(samples, codebook))
