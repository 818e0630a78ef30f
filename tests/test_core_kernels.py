"""Engine-equivalence tests for the fused descent kernel.

The fused engine's contract (see :mod:`repro.core.kernels`): it lands every
sample on the **exact same leaf** as the numpy frontier descent, with
Euclidean distances matching within the documented
``FUSED_DISTANCE_RTOL``.  The hypothesis suite below exercises that contract
over randomly generated flat-array trees and entry nodes —
the same surface the sharded engine drives via per-shard entry points.

The host-engine tests prove the degradation story: a host where the C
kernel did not build, or whose CPU lacks AVX-512, runs the numpy engine
silently (no warning spam on compiler-less hosts), and
:func:`~repro.core.kernels.fused_build_error` names the reason.
"""

from __future__ import annotations

import gc
import json
import mmap
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import kernels
from repro.core.compiled import frontier_descent
from repro.exceptions import ConfigurationError
from repro.serving.config import ServingConfig

#: Tree generation is cheap (no GHSOM fit), so the suite affords many more
#: examples than the fit-based property tests.
TREE_SETTINGS = {
    "max_examples": 40,
    "deadline": None,
    "suppress_health_check": [HealthCheck.too_slow, HealthCheck.data_too_large],
}

fused_missing = kernels.host_engine() != "fused"
needs_fused = pytest.mark.skipif(
    fused_missing, reason=f"no fused kernel: {kernels.fused_build_error()}"
)


class KernelCache:
    """A private kernel cache root and the compile commands run against it."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.directory = root / f"repro-kernels-{os.getuid()}"
        self.compiles: list = []

    def files(self) -> list:
        """The cached libraries (the directory also remembers compiler versions)."""
        return sorted(self.directory.glob("*.so"))


@pytest.fixture
def empty_kernel_cache(tmp_path, monkeypatch):
    """Point the kernel cache at an empty temp dir and forget the loaded kernel."""
    cache = KernelCache(tmp_path)
    run = kernels.subprocess.run

    def counting_run(command, **kwargs):
        if "-shared" in command:
            cache.compiles.append(command)
        return run(command, **kwargs)

    monkeypatch.setattr(kernels.subprocess, "run", counting_run)
    monkeypatch.setattr(kernels.tempfile, "tempdir", str(tmp_path))
    kernels._reset_for_tests()
    yield cache
    kernels._reset_for_tests()


@pytest.fixture
def no_avx512(monkeypatch):
    """Call the returned function to make the CPU probe answer "no AVX-512"."""

    def apply() -> None:
        monkeypatch.setattr(kernels, "_cpu_has_avx512f", lambda lib: False)
        kernels._reset_for_tests()

    yield apply
    kernels._reset_for_tests()


class TreeOwner:
    """Minimal flat-array tree carrier accepted by the kernel entry points.

    A plain class (not a dataclass/SimpleNamespace) so the kernel-plan cache
    can hold it by weak reference, exactly like ``CompiledGhsom``.
    """

    def __init__(self, codebook, node_offsets, child_of_unit, leaf_of_unit, unit_norms):
        self.codebook = codebook
        self.node_offsets = node_offsets
        self.child_of_unit = child_of_unit
        self.leaf_of_unit = leaf_of_unit
        self.unit_norms = unit_norms


def random_tree(
    rng: np.random.Generator,
    n_features: int,
    *,
    max_nodes: int = 14,
    max_units: int = 7,
    child_probability: float = 0.45,
) -> TreeOwner:
    """A random multi-level flat-array hierarchy in the compiled layout.

    Children are always assigned node ids greater than their parent's, so
    every random tree is a well-formed DAG-free descent structure.
    """
    children_of_node = {}
    queue = [0]
    next_node = 1
    while queue:
        node = queue.pop(0)
        n_units = int(rng.integers(1, max_units + 1))
        children = []
        for _ in range(n_units):
            if next_node < max_nodes and rng.random() < child_probability:
                children.append(next_node)
                queue.append(next_node)
                next_node += 1
            else:
                children.append(-1)
        children_of_node[node] = children
    n_nodes = next_node
    counts = [len(children_of_node[node]) for node in range(n_nodes)]
    node_offsets = np.zeros(n_nodes + 1, dtype=np.intp)
    np.cumsum(counts, out=node_offsets[1:])
    child_of_unit = np.concatenate(
        [np.asarray(children_of_node[node], dtype=np.intp) for node in range(n_nodes)]
    )
    leaf_of_unit = np.full(child_of_unit.shape, -1, dtype=np.intp)
    leaf_units = np.flatnonzero(child_of_unit < 0)
    leaf_of_unit[leaf_units] = np.arange(leaf_units.size, dtype=np.intp)
    codebook = rng.normal(0.0, 1.0, size=(child_of_unit.size, n_features))
    unit_norms = np.einsum("ij,ij->i", codebook, codebook)
    return TreeOwner(codebook, node_offsets, child_of_unit, leaf_of_unit, unit_norms)


def numpy_descent(owner, matrix, entries):
    """The numpy engine's descent of ``owner`` (a tree or a compiled model)."""
    return frontier_descent(
        matrix,
        entries,
        codebook=owner.codebook,
        node_offsets=owner.node_offsets,
        child_of_unit=owner.child_of_unit,
        leaf_of_unit=owner.leaf_of_unit,
        unit_norms=owner.unit_norms,
    )


def _memory_mapped(array) -> bool:
    """Whether ``array``'s data lives in a memory map (its base chain ends in one)."""
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return isinstance(array, mmap.mmap)


def descend_both(owner, matrix, entries):
    """(numpy result, fused result) for the same tree/batch/entries."""
    fused = kernels.fused_descent(owner, matrix, np.ascontiguousarray(entries, dtype=np.int64))
    return numpy_descent(owner, matrix, entries), fused


@needs_fused
class TestFusedEquivalence:
    @given(data=st.data())
    @settings(**TREE_SETTINGS)
    def test_random_trees_and_entries(self, data):
        seed = data.draw(st.integers(0, 2**16))
        n_features = data.draw(st.integers(1, 24))
        n_samples = data.draw(st.integers(1, 48))
        rng = np.random.default_rng(seed)
        owner = random_tree(rng, n_features)
        matrix = rng.normal(0.0, 1.2, size=(n_samples, n_features))
        if data.draw(st.booleans()):
            entries = np.zeros(n_samples, dtype=np.intp)
        else:
            # Arbitrary per-sample entry nodes — the sharded engine's usage.
            n_nodes = owner.node_offsets.size - 1
            entries = rng.integers(0, n_nodes, size=n_samples).astype(np.intp)
        (ref_leaf, ref_dist), (fused_leaf, fused_dist) = descend_both(owner, matrix, entries)
        np.testing.assert_array_equal(fused_leaf, ref_leaf)
        np.testing.assert_allclose(
            fused_dist, ref_dist, rtol=kernels.FUSED_DISTANCE_RTOL, atol=0.0
        )
        assert fused_dist.dtype == ref_dist.dtype == np.float64

    def test_exact_ties_break_to_first_unit(self):
        # Duplicate weight rows force exact distance ties: the fused argmin
        # must pick the lowest unit index, like np.argmin.
        codebook = np.tile(np.linspace(0.1, 0.9, 5), (9, 1))
        owner = TreeOwner(
            codebook=codebook,
            node_offsets=np.array([0, 9], dtype=np.intp),
            child_of_unit=np.full(9, -1, dtype=np.intp),
            leaf_of_unit=np.arange(9, dtype=np.intp),
            unit_norms=np.einsum("ij,ij->i", codebook, codebook),
        )
        matrix = np.tile(np.linspace(0.2, 0.8, 5), (4, 1))
        entries = np.zeros(4, dtype=np.intp)
        (ref_leaf, _), (fused_leaf, _) = descend_both(owner, matrix, entries)
        np.testing.assert_array_equal(fused_leaf, ref_leaf)
        assert set(np.asarray(fused_leaf).tolist()) == {0}

    def test_single_sample_single_unit(self):
        rng = np.random.default_rng(5)
        codebook = rng.normal(size=(1, 3))
        owner = TreeOwner(
            codebook=codebook,
            node_offsets=np.array([0, 1], dtype=np.intp),
            child_of_unit=np.array([-1], dtype=np.intp),
            leaf_of_unit=np.array([0], dtype=np.intp),
            unit_norms=np.einsum("ij,ij->i", codebook, codebook),
        )
        matrix = rng.normal(size=(1, 3))
        (ref_leaf, ref_dist), (fused_leaf, fused_dist) = descend_both(
            owner, matrix, np.zeros(1, dtype=np.intp)
        )
        np.testing.assert_array_equal(fused_leaf, ref_leaf)
        np.testing.assert_allclose(
            fused_dist, ref_dist, rtol=kernels.FUSED_DISTANCE_RTOL, atol=0.0
        )

    def test_plan_is_cached_per_owner(self):
        rng = np.random.default_rng(11)
        owner = random_tree(rng, 6)
        assert kernels.fused_plan(owner) is kernels.fused_plan(owner)

    def test_a_plan_keeps_every_array_it_addresses(self):
        # int32 topology: the plan's int64 copies are referenced by the plan
        # alone, and the kernel reads them by address on every call.
        rng = np.random.default_rng(13)
        tree = random_tree(rng, 5)
        owner = TreeOwner(
            tree.codebook,
            tree.node_offsets.astype(np.int32),
            tree.child_of_unit.astype(np.int32),
            tree.leaf_of_unit.astype(np.int32),
            tree.unit_norms,
        )
        matrix = rng.normal(size=(37, 5))
        first = kernels.fused_descent(owner, matrix)
        plan = kernels.fused_plan(owner)
        held = (
            plan.tcodebook, plan.toffsets, plan.tnorm_offsets, plan.punits,
            plan.tnorms, plan.node_offsets, plan.child_of_unit, plan.leaf_of_unit,
        )
        assert plan.addresses == tuple(map(kernels._address, held))
        assert {kernels._address(plan.tcodebook) % 64, kernels._address(plan.tnorms) % 64} == {0}
        gc.collect()
        scribble = [np.full(array.size, -1, dtype=array.dtype) for array in held]
        second = kernels.fused_descent(owner, matrix)
        assert scribble and second[0].tobytes() == first[0].tobytes()
        assert second[1].tobytes() == first[1].tobytes()
        np.testing.assert_array_equal(
            first[0], numpy_descent(tree, matrix, np.zeros(37, dtype=np.intp))[0]
        )

    def test_a_mismatched_width_or_entry_count_is_refused(self):
        # The kernel reads d features per row and one entry node per row
        # by address; a mismatch is a typed error, never an out-of-bounds read.
        rng = np.random.default_rng(3)
        owner = random_tree(rng, 4)
        with pytest.raises(ConfigurationError, match="3 features"):
            kernels.fused_descent(owner, rng.normal(size=(2, 3)))
        with pytest.raises(ConfigurationError, match=r"shape \(1,\) for 2 rows"):
            kernels.fused_descent(owner, rng.normal(size=(2, 4)), np.zeros(1, dtype=np.int64))
        with pytest.raises(ConfigurationError, match="1-D batch"):
            kernels.ewma_update(np.zeros((2, 2)), 0.5, 0.0, 0.0)

    def test_non_float64_matrix_is_refused(self):
        # The kernel reads doubles; any other dtype is a typed error, never
        # a reinterpretation of the buffer.
        rng = np.random.default_rng(2)
        owner = random_tree(rng, 4)
        matrix = rng.normal(size=(3, 4)).astype(np.float32)
        with pytest.raises(ConfigurationError, match="float32"):
            kernels.fused_descent(owner, matrix, np.zeros(3, dtype=np.int64))

    def test_kernel_compiles_one_shared_object(self, empty_kernel_cache):
        assert kernels.fused_available()
        assert kernels.fused_build_error() == ""
        # One build, one flag set: no fallback compile.
        assert len(empty_kernel_cache.compiles) == 1
        assert [path.suffix for path in empty_kernel_cache.files()] == [".so"]


@needs_fused
class TestDetectorEngineEquivalence:
    """The host engine end-to-end: same leaves, bounded drift, numpy without AVX-512."""

    @pytest.fixture(scope="class")
    def detector(self, fast_config, train_matrix, train_categories):
        from repro.core import GhsomDetector

        detector = GhsomDetector(fast_config, random_state=0)
        detector.fit(train_matrix, train_categories)
        return detector

    def test_assign_arrays_runs_the_fused_kernel(self, detector, test_matrix):
        compiled = detector._compiled_model()
        entries = np.zeros(test_matrix.shape[0], dtype=np.intp)
        ref_leaf, ref_dist = numpy_descent(compiled, test_matrix, entries)
        fused_leaf, fused_dist = compiled.assign_arrays(test_matrix)
        kernel = kernels.fused_descent(compiled, test_matrix, entries)
        assert fused_dist.tobytes() == kernel[1].tobytes()
        np.testing.assert_array_equal(fused_leaf, ref_leaf)
        np.testing.assert_allclose(
            fused_dist, ref_dist, rtol=kernels.FUSED_DISTANCE_RTOL, atol=0.0
        )

    def test_host_engine_is_fused_then_numpy_without_avx512(
        self, detector, test_matrix, no_avx512
    ):
        compiled = detector._compiled_model()
        entries = np.zeros(test_matrix.shape[0], dtype=np.intp)
        fused = kernels.fused_descent(compiled, test_matrix, entries)
        numpy = numpy_descent(compiled, test_matrix, entries)
        default = compiled.assign_arrays(test_matrix)
        assert default[1].tobytes() == fused[1].tobytes()
        np.testing.assert_array_equal(default[0], fused[0])
        no_avx512()
        default = compiled.assign_arrays(test_matrix)
        assert default[1].tobytes() == numpy[1].tobytes()
        np.testing.assert_array_equal(default[0], numpy[0])

    def test_a_numpy_host_lands_on_the_same_leaves(self, detector, test_matrix, no_avx512):
        reference = detector.detect(test_matrix)
        no_avx512()
        numpy = detector.detect(test_matrix)
        np.testing.assert_array_equal(numpy.leaf_index, reference.leaf_index)
        np.testing.assert_array_equal(numpy.predictions, reference.predictions)
        assert numpy.categories == reference.categories

    def test_a_memory_mapped_shard_plan_outlives_garbage_collection(
        self, detector, test_matrix, tmp_path
    ):
        from repro.core.serialization import load_detector, save_detector

        path = tmp_path / "model.json"
        save_detector(detector, path)
        expected = detector.detect(test_matrix).scores.tobytes()
        loaded = load_detector(path, overrides={"shards": 2})
        assert loaded.detect(test_matrix).scores.tobytes() == expected
        shard = loaded._sharded.shards[1]
        compiled = loaded._compiled_model()
        plans = [kernels.fused_plan(shard), kernels.fused_plan(compiled)]
        # The plans bind the owners' topology arrays, not copies of them; the
        # unsharded model's are pages of the memory-mapped sidecar.
        assert np.shares_memory(plans[0].child_of_unit, shard.child_of_unit)
        assert _memory_mapped(plans[1].child_of_unit)
        entries = np.zeros(test_matrix.shape[0], dtype=np.int64)
        first = [kernels.fused_descent(owner, test_matrix, entries) for owner in (shard, compiled)]
        del loaded
        gc.collect()
        for owner, plan, (leaf, dist) in zip((shard, compiled), plans, first, strict=True):
            again = kernels.fused_descent(owner, test_matrix, entries)
            assert kernels.fused_plan(owner) is plan
            assert again[0].tobytes() == leaf.tobytes()
            assert again[1].tobytes() == dist.tobytes()
        reloaded = load_detector(path, overrides={"shards": 2})
        assert reloaded.detect(test_matrix).scores.tobytes() == expected
        gc.collect()
        assert reloaded.detect(test_matrix).scores.tobytes() == expected

    def test_sharded_fused_leaves_match(self, detector, test_matrix):
        from repro.serving import ShardedGhsom

        compiled = detector._compiled_model()
        reference = compiled.assign_arrays(test_matrix)
        engine = ShardedGhsom.from_compiled(compiled, 2)
        try:
            assert {shard.engine for shard in engine.shards} == {"fused"}
            leaf, dist = engine.assign_arrays(test_matrix)
        finally:
            engine.close()
        np.testing.assert_array_equal(leaf, reference[0])
        assert dist.tobytes() == reference[1].tobytes()


@needs_fused
@pytest.mark.parametrize("engine", ["numpy", "fused"])
def test_fit_calibrates_on_the_host_engine(request, fast_config, train_matrix, engine):
    # Thresholds and scores come from one arithmetic: a host without the
    # kernel calibrates on the numpy engine, an AVX-512 host on the kernel.
    from repro.core import GhsomDetector
    from repro.core.thresholds import make_threshold_strategy

    if engine == "numpy":
        request.getfixturevalue("compilerless_host")
    detector = GhsomDetector(fast_config, random_state=0).fit(train_matrix)
    compiled = detector.model.compile()
    entries = np.zeros(train_matrix.shape[0], dtype=np.intp)
    if engine == "numpy":
        leaf_index, distances = numpy_descent(compiled, train_matrix, entries)
    else:
        leaf_index, distances = kernels.fused_descent(compiled, train_matrix, entries)
    expected = make_threshold_strategy(
        detector.threshold_strategy_name, **detector.threshold_kwargs
    ).fit(distances, compiled.keys_of(leaf_index))
    assert detector.threshold_.to_dict() == expected.to_dict()
    assert detector.serving_config.provenance()["engine"] == engine


#: Probes the kernel in a fresh process; prints availability and compile count.
PROBE_SCRIPT = """
import json
from repro.core import kernels

compiles = []
run = kernels.subprocess.run

def counting_run(command, **kwargs):
    if "-shared" in command:
        compiles.append(command)
    return run(command, **kwargs)

kernels.subprocess.run = counting_run
print(json.dumps({"available": kernels.fused_available(), "compiles": len(compiles)}))
"""


@needs_fused
class TestKernelCache:
    def test_key_changes_with_source_compiler_or_flags(self):
        source, version, flags = kernels._C_SOURCE, "cc (GCC) 12.2.0", kernels._CFLAGS
        key = kernels._cache_key(source, version, flags)
        assert key == kernels._cache_key(source, version, flags)
        variants = {
            key,
            kernels._cache_key(source + "\n", version, flags),
            kernels._cache_key(source, "cc (GCC) 13.1.0", flags),
            kernels._cache_key(source, version, flags[:-1]),
            kernels._cache_key(source, version, (*flags, "-g")),
        }
        assert len(variants) == 5
        # The parts are delimited: moving text across a boundary is a new key.
        assert kernels._cache_key("ab", "c", ()) != kernels._cache_key("a", "bc", ())

    def test_two_processes_share_one_build(self, tmp_path):
        env = dict(os.environ, TMPDIR=str(tmp_path))
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))

        def probe() -> dict:
            completed = subprocess.run(
                [sys.executable, "-c", PROBE_SCRIPT],
                env=env, capture_output=True, text=True, timeout=300, check=True,
            )
            return json.loads(completed.stdout.splitlines()[-1])

        directory = tmp_path / f"repro-kernels-{os.getuid()}"
        assert probe() == {"available": True, "compiles": 1}
        (library,) = directory.glob("*.so")
        built = library.stat().st_mtime_ns
        contents = sorted(directory.iterdir())
        assert probe() == {"available": True, "compiles": 0}
        assert sorted(directory.iterdir()) == contents
        assert library.stat().st_mtime_ns == built
        # No temporary source or half-written library is left behind.
        assert sorted(path.suffix for path in contents) == [".so", ".txt"]
        assert directory.stat().st_mode & 0o777 == 0o700

    @staticmethod
    def _plant(directory: Path, monkeypatch) -> Path:
        """A file that is not a library, under the name the loader looks for."""
        monkeypatch.setattr(kernels, "_cache_key", lambda *parts: "planted")
        planted = directory / "kernels-planted.so"
        planted.write_bytes(b"not a library")
        return planted

    def test_the_loader_reads_a_trusted_cache_dir(self, empty_kernel_cache, monkeypatch):
        # The control for the two tests below: in a private directory the
        # planted file is what gets loaded, and loading it fails.
        empty_kernel_cache.directory.mkdir(mode=0o700)
        self._plant(empty_kernel_cache.directory, monkeypatch)
        assert not kernels.fused_available()
        assert "OSError" in kernels.fused_build_error()
        assert empty_kernel_cache.compiles == []

    @pytest.mark.parametrize("mode", [0o770, 0o707, 0o777], ids=["group", "world", "both"])
    def test_writable_cache_dir_is_not_loaded_from(self, empty_kernel_cache, monkeypatch, mode):
        directory = empty_kernel_cache.directory
        directory.mkdir(mode=0o700)
        directory.chmod(mode)
        planted = self._plant(directory, monkeypatch)
        assert kernels.fused_available()
        assert len(empty_kernel_cache.compiles) == 1
        assert sorted(directory.iterdir()) == [planted]
        assert planted.read_bytes() == b"not a library"

    def test_cache_dir_owned_by_another_user_is_not_loaded_from(
        self, empty_kernel_cache, monkeypatch
    ):
        other = os.getuid() + 1
        directory = empty_kernel_cache.root / f"repro-kernels-{other}"
        directory.mkdir(mode=0o700)
        planted = self._plant(directory, monkeypatch)
        monkeypatch.setattr(kernels.os, "getuid", lambda: other)
        assert kernels.fused_available()
        assert len(empty_kernel_cache.compiles) == 1
        assert sorted(directory.iterdir()) == [planted]
        assert planted.read_bytes() == b"not a library"

    def test_untrusted_cache_dir_leaves_no_build_dir_behind(self, empty_kernel_cache):
        # With the cache untrusted, each load builds in a private directory
        # of its own, which must be gone once the library is loaded.
        directory = empty_kernel_cache.directory
        directory.mkdir(mode=0o700)
        directory.chmod(0o777)
        for _ in range(2):
            kernels._reset_for_tests()
            assert kernels.host_engine() == "fused"
        assert len(empty_kernel_cache.compiles) == 2
        assert sorted(empty_kernel_cache.root.iterdir()) == [directory]
        assert list(directory.iterdir()) == []

    def test_reset_then_probe_reloads_from_the_cache(self, empty_kernel_cache):
        assert kernels.fused_available()
        (library,) = empty_kernel_cache.files()
        built = library.stat().st_mtime_ns
        kernels._reset_for_tests()
        assert kernels.fused_available()
        assert len(empty_kernel_cache.compiles) == 1
        assert empty_kernel_cache.files() == [library]
        assert library.stat().st_mtime_ns == built


@pytest.fixture(scope="module")
def fused_detectors(fast_config, train_matrix, train_categories):
    """One fitted model on the fused engine: unsharded, and sharded K=2 and K=3."""
    from repro.core import GhsomDetector
    from repro.core.serialization import detector_binary_payload, detector_from_dict

    fitted = GhsomDetector(fast_config, random_state=0).fit(train_matrix, train_categories)
    payload, arrays = detector_binary_payload(fitted)
    detectors = {}
    for shards in (None, 2, 3):
        detector = detector_from_dict(payload, arrays=arrays)
        detector.configure(ServingConfig(shards=shards))
        detectors[shards] = detector
    yield detectors
    for detector in detectors.values():
        detector.configure(ServingConfig())


def _draw_rows(data, test_matrix) -> np.ndarray:
    """Test rows, some of them pushed off the data (a random subset and order)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n_rows = data.draw(st.integers(1, 64))
    rows = test_matrix[rng.integers(0, test_matrix.shape[0], size=n_rows)]
    noise = rng.normal(0.0, data.draw(st.sampled_from([0.0, 0.05, 0.5])), rows.shape)
    return np.ascontiguousarray(rows + noise)


def _assert_bit_equal(pieces, whole) -> None:
    scores = np.concatenate([piece.scores for piece in pieces])
    assert scores.tobytes() == whole.scores.tobytes()
    np.testing.assert_array_equal(
        np.concatenate([piece.leaf_index for piece in pieces]), whole.leaf_index
    )


@needs_fused
class TestFusedBatchInvariance:
    """On the fused engine a row's score does not depend on its batch."""

    def test_the_sharded_models_have_the_shards_asked_for(self, fused_detectors, test_matrix):
        for shards in (2, 3):
            fused_detectors[shards].detect(test_matrix[:1])
            assert fused_detectors[shards]._sharded.n_shards == shards

    @given(data=st.data())
    @settings(**TREE_SETTINGS)
    def test_one_at_a_time_random_splits_and_one_batch(self, data, fused_detectors, test_matrix):
        detector = fused_detectors[None]
        rows = _draw_rows(data, test_matrix)
        whole = detector.detect(rows)
        cuts = data.draw(st.lists(st.integers(1, max(1, rows.shape[0] - 1)), max_size=6))
        splits = [part for part in np.split(rows, sorted(set(cuts))) if len(part)]
        _assert_bit_equal([detector.detect(part) for part in splits], whole)
        _assert_bit_equal([detector.detect(row[None]) for row in rows], whole)

    @given(data=st.data())
    @settings(**TREE_SETTINGS)
    def test_sharded_equals_unsharded(self, data, fused_detectors, test_matrix):
        rows = _draw_rows(data, test_matrix)
        whole = fused_detectors[None].detect(rows)
        for shards in (2, 3):
            _assert_bit_equal([fused_detectors[shards].detect(rows)], whole)


class TestHostEngine:
    def test_host_engine_is_fused_where_the_kernel_loaded(self):
        expected = "fused" if kernels.fused_available() else "numpy"
        assert kernels.host_engine() == expected
        assert (kernels.fused_build_error() == "") == kernels.fused_available()

    @needs_fused
    def test_numpy_when_the_cpu_probe_says_no_avx512(self, no_avx512):
        no_avx512()
        assert not kernels.fused_available()
        assert "avx512f" in kernels.fused_build_error()
        assert kernels.host_engine() == "numpy"

    def test_a_narrow_intp_is_a_build_failure(self, monkeypatch):
        monkeypatch.setattr(kernels.np, "intp", np.int32)
        library, error = kernels._build_cc_library()
        assert library is None
        assert "np.intp" in error


class TestCompilerlessHost:
    """A host without the kernel: numpy everywhere, silently."""

    def test_numpy_without_kernel_and_without_warnings(self, compilerless_host):
        assert not kernels.fused_available()
        assert kernels.fused_build_error() == compilerless_host
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):  # repeated probing must stay silent too
                assert kernels.host_engine() == "numpy"

    def test_fused_descent_refuses_without_the_kernel(self, compilerless_host):
        owner = random_tree(np.random.default_rng(5), 3)
        matrix = np.random.default_rng(6).normal(size=(2, 3))
        with pytest.raises(ConfigurationError, match="unavailable"):
            kernels.fused_descent(owner, matrix, np.zeros(2, dtype=np.int64))

    def test_shards_carry_the_numpy_engine(
        self, fast_config, train_matrix, train_categories, compilerless_host
    ):
        from repro.core import GhsomDetector
        from repro.serving import ShardedGhsom

        detector = GhsomDetector(fast_config, random_state=0)
        detector.fit(train_matrix, train_categories)
        engine = ShardedGhsom.from_compiled(detector._compiled_model(), 2)
        assert {shard.engine for shard in engine.shards} == {"numpy"}

    def test_fitted_detector_serves_numpy_without_kernel(
        self, fast_config, train_matrix, train_categories, compilerless_host
    ):
        from repro.core import GhsomDetector

        detector = GhsomDetector(fast_config, random_state=0)
        detector.fit(train_matrix, train_categories)
        detector.configure(ServingConfig(shards=2))
        assert detector.serving_config.provenance()["engine"] == "numpy"
        result = detector.detect(train_matrix[:8])
        assert result.stats.engine == "numpy"
