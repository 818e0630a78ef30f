"""Shared fixtures for the test suite.

The fixtures deliberately use small datasets and fast GHSOM configurations
(few epochs, small map-size caps) so the whole suite stays quick while still
exercising the real code paths.  Session scope is used for the expensive
fixtures (dataset generation, fitted detectors) because they are read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GhsomConfig, SomTrainingConfig
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A seeded generator shared by tests that need raw randomness."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def generator() -> KddSyntheticGenerator:
    """A seeded synthetic dataset generator for ad-hoc use inside tests."""
    return KddSyntheticGenerator(random_state=7)


@pytest.fixture(scope="session")
def small_dataset():
    """A mixed-traffic dataset of 600 records (own generator: independent of test order)."""
    return KddSyntheticGenerator(random_state=11).generate(600)


@pytest.fixture(scope="session")
def small_split():
    """A (train, test) pair of mixed-traffic datasets (own generator: independent of test order)."""
    return KddSyntheticGenerator(random_state=12).generate_train_test(900, 450)


@pytest.fixture(scope="session")
def fitted_pipeline(small_split):
    """A preprocessing pipeline fitted on the training split."""
    train, _ = small_split
    pipeline = PreprocessingPipeline()
    pipeline.fit(train)
    return pipeline


@pytest.fixture(scope="session")
def train_matrix(small_split, fitted_pipeline):
    """Encoded training matrix."""
    train, _ = small_split
    return fitted_pipeline.transform(train)


@pytest.fixture(scope="session")
def test_matrix(small_split, fitted_pipeline):
    """Encoded test matrix."""
    _, test = small_split
    return fitted_pipeline.transform(test)


@pytest.fixture(scope="session")
def train_categories(small_split):
    """Training categories as a list of strings."""
    train, _ = small_split
    return [str(category) for category in train.categories]


@pytest.fixture(scope="session")
def test_binary_truth(small_split):
    """Binary ground truth (1 = attack) for the test split."""
    _, test = small_split
    return test.is_attack.astype(int)


@pytest.fixture(scope="session")
def fast_config() -> GhsomConfig:
    """A GHSOM configuration small and fast enough for unit tests."""
    return GhsomConfig(
        tau1=0.4,
        tau2=0.1,
        max_depth=2,
        max_map_size=36,
        max_growth_rounds=10,
        min_samples_for_expansion=25,
        training=SomTrainingConfig(epochs=3),
        random_state=0,
    )


@pytest.fixture(scope="session")
def blob_data(rng) -> np.ndarray:
    """Three well-separated Gaussian blobs in 4 dimensions (for SOM-level tests)."""
    centers = np.array(
        [
            [0.1, 0.1, 0.1, 0.1],
            [0.9, 0.9, 0.9, 0.9],
            [0.1, 0.9, 0.1, 0.9],
        ]
    )
    blobs = [center + rng.normal(0.0, 0.03, size=(80, 4)) for center in centers]
    return np.clip(np.concatenate(blobs, axis=0), 0.0, 1.0)


#: The build failure a compiler-less host reports.
NO_COMPILER = "no C compiler on PATH (cc/gcc/clang)"


@pytest.fixture(scope="class")
def compilerless_host():
    """A host where the fused C kernel did not build; yields the reason.

    Such a host runs the numpy engine, so this is also how a test gets the
    numpy engine, the reference the legacy descent pins byte for byte.  Class
    scoped, so a class-scoped fitted detector can be built under it: in a
    test class it holds from the first test that asks for it to the end of
    the class, and for a test outside a class, for that test alone.
    """
    from repro.core import kernels

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_cc_library", lambda: (None, NO_COMPILER))
        yield NO_COMPILER
