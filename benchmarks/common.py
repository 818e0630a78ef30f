"""Shared workload construction for the benchmark harness.

Every benchmark regenerates one table or figure of the reconstructed
evaluation plan (see DESIGN.md section 4).  The helpers here build the shared
train/test splits and the detector line-up so individual benchmark files only
describe what is specific to their experiment.
"""

from __future__ import annotations

import os

from typing import Dict, Optional

from repro.baselines import KMeansDetector, KnnDetector, PcaSubspaceDetector, SomDetector
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator

#: Seed used by every benchmark so printed numbers are reproducible run to run.
BENCH_SEED = 2013

#: Training / test sizes used by the detection-quality experiments.
N_TRAIN = 4000
N_TEST = 2000


def default_ghsom_config(**overrides) -> GhsomConfig:
    """The GHSOM configuration used throughout the evaluation (tau1=0.3, tau2=0.05)."""
    base = {
        "tau1": 0.3,
        "tau2": 0.05,
        "max_depth": 3,
        "max_map_size": 100,
        "max_growth_rounds": 30,
        # Expanding units with fewer than ~60 mapped records produces noisy
        # child maps on KDD-scale data; 60 keeps leaves statistically stable.
        "min_samples_for_expansion": 60,
        "training": SomTrainingConfig(epochs=5),
        "random_state": BENCH_SEED,
    }
    base.update(overrides)
    return GhsomConfig(**base)


def make_detectors(random_state: int = BENCH_SEED) -> Dict[str, object]:
    """The detector line-up compared in Tables 2-3 and Figure 1."""
    return {
        "ghsom": GhsomDetector(default_ghsom_config(), random_state=random_state),
        "som": SomDetector(
            10, 10, training=SomTrainingConfig(epochs=10), random_state=random_state
        ),
        "kmeans": KMeansDetector(n_clusters=60, random_state=random_state),
        "pca": PcaSubspaceDetector(variance_fraction=0.95, threshold_mode="percentile"),
        "knn": KnnDetector(n_neighbors=5, max_reference_size=3000, random_state=random_state),
    }


def make_supervised_workload(
    n_train: int = N_TRAIN,
    n_test: int = N_TEST,
    seed: int = BENCH_SEED,
) -> Dict[str, object]:
    """Mixed-traffic train/test split with labels (Tables 1-5, Figures 2-5)."""
    generator = KddSyntheticGenerator(random_state=seed)
    train, test = generator.generate_train_test(n_train, n_test)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    X_test = pipeline.transform(test)
    return {
        "generator": generator,
        "train": train,
        "test": test,
        "pipeline": pipeline,
        "X_train": X_train,
        "X_test": X_test,
        "y_train": [str(category) for category in train.categories],
        "test_categories": [str(category) for category in test.categories],
        "y_test": test.is_attack.astype(int),
    }


def make_oneclass_workload(
    n_train: int = N_TRAIN,
    n_test: int = N_TEST,
    seed: int = BENCH_SEED,
) -> Dict[str, object]:
    """Normal-only training split plus a mixed test split (Figure 1 ROC)."""
    generator = KddSyntheticGenerator(random_state=seed)
    train = generator.generate_normal(n_train)
    test = generator.generate(n_test)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    X_test = pipeline.transform(test)
    return {
        "generator": generator,
        "train": train,
        "test": test,
        "pipeline": pipeline,
        "X_train": X_train,
        "X_test": X_test,
        "y_test": test.is_attack.astype(int),
        "test_categories": [str(category) for category in test.categories],
    }


#: Env vars every mainstream BLAS reads for its pool size.  Parallel-speedup
#: claims are only meaningful against a single-threaded baseline, so CI pins
#: all three to 1; benchmarks record them for provenance.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_threads_env() -> Dict[str, Optional[str]]:
    """Snapshot of the BLAS thread-pool env vars, for benchmark payloads."""
    return {name: os.environ.get(name) for name in BLAS_THREAD_ENV}


def usable_cpus() -> int:
    """CPU count the scheduler will actually give this process.

    Affinity-aware (the same count ``repro-ids inspect`` reports), so
    recorded throughput is attributed to the cores the run could really use.
    """
    from repro.serving.config import usable_workers

    return usable_workers()


def runtime_provenance() -> Dict[str, object]:
    """Engine/hardware context recorded by the perf benchmarks.

    Throughput numbers are meaningless without knowing what executed them:
    the host's compute engine (``"fused"`` where the C kernel loaded,
    ``"numpy"`` otherwise) and why the kernel did not load, plus the usable
    CPU count and BLAS pinning they were measured under.
    """
    from repro.core import kernels

    return {
        "engine": kernels.host_engine(),
        "fused_build_error": kernels.fused_build_error(),
        "n_cpus": usable_cpus(),
        "blas_threads_env": blas_threads_env(),
    }

