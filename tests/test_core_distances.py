"""Tests for repro.core.distances."""

from __future__ import annotations

import numpy as np

from repro.core.distances import euclidean, squared_euclidean


class TestSquaredEuclidean:
    def test_matches_naive_computation(self, rng):
        samples = rng.random((7, 5))
        codebook = rng.random((4, 5))
        expected = ((samples[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(squared_euclidean(samples, codebook), expected, atol=1e-10)

    def test_zero_distance_to_self(self, rng):
        points = rng.random((5, 3))
        distances = squared_euclidean(points, points)
        np.testing.assert_allclose(np.diag(distances), 0.0, atol=1e-10)

    def test_never_negative(self, rng):
        samples = rng.random((50, 8)) * 1e-6
        assert squared_euclidean(samples, samples).min() >= 0.0

    def test_1d_inputs_promoted(self):
        distances = squared_euclidean(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert distances.shape == (1, 1)
        np.testing.assert_allclose(distances, [[1.0]])


class TestEuclidean:
    def test_euclidean_is_sqrt_of_squared(self, rng):
        samples, codebook = rng.random((6, 4)), rng.random((3, 4))
        np.testing.assert_allclose(
            euclidean(samples, codebook) ** 2, squared_euclidean(samples, codebook), atol=1e-10
        )

    def test_euclidean_between_linf_and_l1(self, rng):
        """For any pair: max |x - w| <= |x - w|_2 <= sum |x - w|."""
        samples, codebook = rng.random((10, 6)), rng.random((5, 6))
        differences = np.abs(samples[:, None, :] - codebook[None, :, :])
        eucl = euclidean(samples, codebook)
        assert np.all(differences.max(axis=2) <= eucl + 1e-12)
        assert np.all(eucl <= differences.sum(axis=2) + 1e-12)
