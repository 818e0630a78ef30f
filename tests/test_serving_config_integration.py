"""Integration tests of the unified ServingConfig layer across the stack.

What these tests pin down, layer by layer:

* the detector's single mutation path (``configure``) is atomic, and
  configuring the knobs one at a time gives the same result in any order;
* a configured detector's ServingConfig is embedded in v2/v3 artifacts and
  survives save → load → refit with byte-identical scores; payloads written
  while the config still carried an engine or a fused-provider pin keep
  loading, and score on the host's engine;
* ``DetectionResult.stats`` carries per-stage timings plus the config's
  provenance;
* a config built from CLI flags, embedded in a v3 bundle and served through
  a remote shard worker scores byte-identically to local ``detect``.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro.cli import (
    build_parser,
    load_bundle,
    save_bundle,
    serving_overrides_from_args,
)
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig, kernels
from repro.core.serialization import load_detector, save_detector
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.exceptions import ConfigurationError
from repro.serving import ServingConfig, ServingStats, ShardWorkerServer
from repro.streaming import OnlineDetector


# --------------------------------------------------------------------------- #
# fixtures (the pristine fitted detector is never mutated; mutation tests
# load their own independent copies from the bundles)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def workload():
    generator = KddSyntheticGenerator(random_state=71)
    train = generator.generate(900)
    test = generator.generate(400)
    pipeline = PreprocessingPipeline()
    return {
        "pipeline": pipeline,
        "X_train": pipeline.fit_transform(train),
        "X_test": pipeline.transform(test),
        "y_train": [str(category) for category in train.categories],
    }


@pytest.fixture(scope="module")
def fitted(workload):
    detector = GhsomDetector(
        GhsomConfig(
            tau1=0.3,
            tau2=0.05,
            max_depth=2,
            max_map_size=36,
            min_samples_for_expansion=25,
            training=SomTrainingConfig(epochs=3),
            random_state=29,
        ),
        random_state=29,
    )
    detector.fit(workload["X_train"], workload["y_train"])
    return detector


@pytest.fixture(scope="module")
def model_bundle(workload, fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("config_model") / "model.json"
    save_bundle(workload["pipeline"], fitted, path)
    return path


@pytest.fixture(scope="module")
def baseline_scores(fitted, workload):
    return np.asarray(fitted.detect(workload["X_test"]).scores)


def _fresh_detector(bundle_path):
    _, detector = load_bundle(bundle_path)
    return detector


# --------------------------------------------------------------------------- #
# configure(): the single mutation path
# --------------------------------------------------------------------------- #
class TestConfigure:
    def test_constructor_accepts_a_config(self, workload):
        config = ServingConfig(verify=True)
        detector = GhsomDetector(GhsomConfig(random_state=0), serving=config)
        assert detector.serving_config == config

    def test_constructor_rejects_config_plus_legacy_engine(self):
        # The engine is the host's: neither the detector nor its config takes one.
        with pytest.raises(TypeError, match="engine"):
            GhsomDetector(
                GhsomConfig(random_state=0),
                engine="numpy",
                serving=ServingConfig(),
            )
        assert not hasattr(GhsomDetector(GhsomConfig(random_state=0)), "engine")

    def test_configure_is_atomic_on_failure(self, model_bundle, workload, baseline_scores):
        detector = _fresh_detector(model_bundle)
        detector.configure(ServingConfig(shards=2))
        before, backend = detector.serving_config, detector._backend
        try:
            with pytest.raises(ConfigurationError, match="needs a ServingConfig"):
                detector.configure({"shards": 3})
            # Nothing was committed: same config and backend, same scores.
            assert detector.serving_config == before
            assert detector._backend is backend
            scores = np.asarray(detector.detect(workload["X_test"]).scores)
        finally:
            detector.configure(ServingConfig())
        assert scores.tobytes() == baseline_scores.tobytes()

    def test_configure_rejects_non_config(self, model_bundle):
        detector = _fresh_detector(model_bundle)
        with pytest.raises(ConfigurationError):
            detector.configure({"engine": "numpy"})

    def test_sharded_configure_is_byte_identical(
        self, model_bundle, workload, baseline_scores
    ):
        detector = _fresh_detector(model_bundle)
        detector.configure(ServingConfig(shards=3))
        try:
            scores = np.asarray(detector.detect(workload["X_test"]).scores)
        finally:
            detector.configure(ServingConfig())
        np.testing.assert_array_equal(scores, baseline_scores)


# --------------------------------------------------------------------------- #
# order independence: one knob per configure() call, in every order
# --------------------------------------------------------------------------- #
class TestOrderIndependence:
    def test_every_setter_ordering_yields_the_same_config_and_scores(
        self, model_bundle, workload
    ):
        knobs = {"verify": {"verify": True}, "shards": {"shards": 2}}
        configs, scores = [], []
        for ordering in itertools.permutations(knobs):
            detector = _fresh_detector(model_bundle)
            for name in ordering:
                detector.configure(detector.serving_config.with_overrides(knobs[name]))
            configs.append(detector.serving_config)
            scores.append(np.asarray(detector.detect(workload["X_test"]).scores))
            detector.configure(detector.serving_config.with_overrides({"shards": None}))
        assert all(config == configs[0] for config in configs[1:])
        assert configs[0] == ServingConfig(shards=2, verify=True)
        for other in scores[1:]:
            np.testing.assert_array_equal(other, scores[0])


# --------------------------------------------------------------------------- #
# satellite 3: the config travels inside artifacts and survives refits
# --------------------------------------------------------------------------- #
class TestArtifactEmbeddedConfig:
    def test_config_round_trips_through_a_bundle(self, workload, model_bundle, tmp_path):
        configured = ServingConfig(shards=3)
        detector = _fresh_detector(model_bundle)
        detector.configure(configured)
        expected = np.asarray(detector.detect(workload["X_test"]).scores)
        path = tmp_path / "configured.json"
        save_bundle(workload["pipeline"], detector, path)
        detector.configure(ServingConfig())
        _, loaded = load_bundle(path)  # no arguments: the artifact speaks
        try:
            assert loaded.serving_config == configured
            result = loaded.detect(workload["X_test"])
            assert result.stats.plan["n_shards"] == 3
            np.testing.assert_array_equal(np.asarray(result.scores), expected)
        finally:
            loaded.configure(ServingConfig())

    @pytest.mark.parametrize(
        ("provider", "engine"),
        [
            (None, None),
            ("cc", None),
            ("none", "numpy"),
            (None, "numpy"),
            (None, "fused"),
            ("cc", "auto"),
        ],
    )
    def test_parent_format_config_loads_and_scores_identically(
        self, fitted, workload, baseline_scores, tmp_path, provider, engine
    ):
        # The serving_config a detector artifact carried while the config
        # still had an engine (config_version 1, "engine" key) and, earlier,
        # a fused-provider pin ("provider" key).  Both are ignored: the
        # artifact scores on the host's engine.
        path = tmp_path / "detector.json"
        save_detector(fitted, path)
        payload = json.loads(path.read_text())
        payload["serving_config"] = {
            "config_version": 1,
            "dtype": "float64",
            "engine": engine,
            "provider": provider,
            "sharding": {
                "shards": None,
                "workers": None,
                "backend": None,
                "remote_workers": None,
                "provisioning": "auto",
            },
            "artifact": {"mmap": True, "verify": False},
        }
        path.write_text(json.dumps(payload))
        loaded = load_detector(path)
        assert loaded.serving_config == ServingConfig()
        assert loaded.serving_config.provenance()["engine"] == kernels.host_engine()
        scores = np.asarray(loaded.detect(workload["X_test"]).scores)
        assert scores.tobytes() == baseline_scores.tobytes()

    def test_cli_overrides_beat_the_embedded_config(
        self, workload, model_bundle, tmp_path
    ):
        detector = _fresh_detector(model_bundle)
        detector.configure(ServingConfig(verify=True))
        path = tmp_path / "verified.json"
        save_bundle(workload["pipeline"], detector, path)
        _, loaded = load_bundle(path, overrides={"shards": 2})
        try:
            assert loaded.serving_config.shards == 2
            assert loaded.serving_config.verify is True  # untouched field survives
        finally:
            loaded.configure(ServingConfig())

    def test_config_survives_a_refit(self, model_bundle, workload):
        configured = ServingConfig(shards=2, verify=True)
        detector = _fresh_detector(model_bundle)
        detector.configure(configured)
        try:
            detector.fit(workload["X_train"], workload["y_train"])
            assert detector.serving_config == configured
            result = detector.detect(workload["X_test"])
            assert result.stats.sharded is True
            assert result.stats.engine == kernels.host_engine()
        finally:
            detector.configure(ServingConfig())

    def test_online_detector_exposes_and_keeps_the_config(
        self, model_bundle, workload
    ):
        detector = _fresh_detector(model_bundle)
        configured = ServingConfig(verify=True)
        detector.configure(configured)
        online = OnlineDetector(detector, warmup_size=10, buffer_size=200)
        assert online.serving_config is detector.serving_config
        online.process(workload["X_test"][:64])
        # A drift-triggered refit goes through detector.fit, which re-applies
        # the config; exercise that path directly.
        detector.fit(workload["X_train"])
        assert online.serving_config == configured


# --------------------------------------------------------------------------- #
# serving stats on DetectionResult
# --------------------------------------------------------------------------- #
class TestDetectionStats:
    def test_unsharded_stats(self, fitted, workload):
        result = fitted.detect(workload["X_test"])
        stats = result.stats
        assert isinstance(stats, ServingStats)
        assert stats.n_records == workload["X_test"].shape[0]
        assert not hasattr(stats, "dtype")
        assert stats.engine in ("numpy", "fused")
        assert stats.sharded is False
        for value in (stats.ingest_s, stats.route_s, stats.descend_s, stats.merge_s):
            assert value >= 0.0
        assert stats.total_s > 0.0
        assert stats.plan == fitted.serving_config.provenance()

    def test_sharded_stats_carry_plan_provenance(self, model_bundle, workload):
        _, detector = load_bundle(model_bundle, overrides={"shards": 2})
        try:
            stats = detector.detect(workload["X_test"]).stats
        finally:
            detector.configure(ServingConfig())
        assert stats.sharded is True
        assert stats.plan["n_shards"] == 2
        assert stats.plan["backend"] == "serial"

    @pytest.mark.parametrize("n_shards", [None, 2])
    def test_detect_validates_each_batch_once(
        self, model_bundle, workload, monkeypatch, n_shards
    ):
        import time

        import repro.core.compiled
        import repro.core.detector
        import repro.serving.router
        from repro.exceptions import DataValidationError
        from repro.utils.validation import check_array_2d

        _, detector = load_bundle(
            model_bundle, overrides={"shards": n_shards} if n_shards else None
        )
        X = workload["X_test"]
        detector.detect(X)  # builds the sharded engine outside the count
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1] if len(args) > 1 else kwargs.get("name"))
            time.sleep(0.02)  # must show up in ingest_s
            return check_array_2d(*args, **kwargs)

        for module in (repro.core.detector, repro.core.compiled, repro.serving.router):
            monkeypatch.setattr(module, "check_array_2d", counting)
        try:
            stats = detector.detect(X).stats
            assert len(calls) == 1, calls
            assert stats.ingest_s >= 0.02
            # Callers of the engines' public entry point are still validated.
            bad = X[:3].copy()
            bad[0, 0] = np.nan
            engine = detector._serving_engine()
            with pytest.raises(DataValidationError, match="NaN or infinite"):
                engine.assign_arrays(bad)
            assert len(calls) == 2
        finally:
            detector.configure(ServingConfig())


# --------------------------------------------------------------------------- #
# CLI flag helpers
# --------------------------------------------------------------------------- #
class TestCliHelpers:
    def test_only_explicit_flags_become_overrides(self):
        args = build_parser().parse_args(
            ["detect", "--model", "m", "--input", "i", "--verify", "--shards", "2"]
        )
        assert serving_overrides_from_args(args) == {"verify": True, "shards": 2}

    def test_no_flags_mean_no_overrides(self):
        args = build_parser().parse_args(["detect", "--model", "m", "--input", "i"])
        assert serving_overrides_from_args(args) == {}
        assert ServingConfig().with_overrides(serving_overrides_from_args(args)) == ServingConfig()

    def test_full_flag_set_builds_a_config(self):
        args = build_parser().parse_args(
            [
                "detect",
                "--model", "m",
                "--input", "i",
                "--verify",
                "--shards", "4",
                "--remote-workers", "a:1,b:2",
            ]
        )
        config = ServingConfig().with_overrides(serving_overrides_from_args(args))
        assert config == ServingConfig(shards=4, remote_workers="a:1,b:2", verify=True)

    def test_removed_provisioning_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [
                    "detect",
                    "--model", "m",
                    "--input", "i",
                    "--shards", "2",
                    "--remote-workers", "a:1",
                    "--provisioning", "value",
                ]
            )
        assert excinfo.value.code == 2
        assert "--provisioning" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["detect", "--model", "m", "--input", "i", "--no-mmap"], "--no-mmap"),
            (["inspect", "--model", "m", "--no-mmap"], "--no-mmap"),
            (["train", "--train", "t", "--model", "m", "--format", "binary"], "--format"),
        ],
        ids=["detect-no-mmap", "inspect-no-mmap", "train-format"],
    )
    def test_removed_artifact_flags_exit_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_inspect_prints_the_resolved_plan(self, model_bundle, capsys):
        from repro.cli import main

        assert main(["inspect", "--model", str(model_bundle), "--verify"]) == 0
        output = capsys.readouterr().out
        assert "Serving plan" in output
        assert "engine" in output
        assert "usable cores" in output
        rows = output.splitlines()
        assert any(row.replace(" ", "") == "verify|yes" for row in rows), rows
        assert "mmap" not in output  # the sidecar is always mapped

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", "--model", "m", "--input", "i"],
            ["serve", "--listen", "127.0.0.1:0", "--model", "m"],
            ["inspect", "--model", "m"],
        ],
        ids=["detect", "serve", "inspect"],
    )
    @pytest.mark.parametrize("engine", ["numpy", "fused", "auto"])
    def test_removed_engine_flag_exits_2(self, capsys, argv, engine):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--engine", engine])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: --engine {engine}" in capsys.readouterr().err

    def test_inspect_names_the_kernel_build_failure(self, model_bundle, capsys, compilerless_host):
        # Last in the class: the host stays compiler-less until it ends.
        from repro.cli import main

        assert main(["inspect", "--model", str(model_bundle)]) == 0
        output = capsys.readouterr().out
        rows = [row.replace(" ", "") for row in output.splitlines()]
        assert "engine|numpy" in rows, rows
        assert compilerless_host in output


# --------------------------------------------------------------------------- #
# acceptance: CLI flags → embedded config → remote worker, same scores
# --------------------------------------------------------------------------- #
class TestCliConfigServesRemotely:
    def test_cli_config_through_bundle_serves_remotely_byte_identical(
        self, workload, model_bundle, tmp_path, baseline_scores
    ):
        with ShardWorkerServer("127.0.0.1", 0).start() as server:
            address = f"{server.address[0]}:{server.address[1]}"
            # The operator's intent, expressed once as CLI flags.
            args = build_parser().parse_args(
                [
                    "detect",
                    "--model", "m",
                    "--input", "i",
                    "--shards", "2",
                    "--remote-workers", address,
                ]
            )
            config = ServingConfig().with_overrides(serving_overrides_from_args(args))
            detector = _fresh_detector(model_bundle)
            detector.configure(config)
            path = tmp_path / "remote_configured.json"
            save_bundle(workload["pipeline"], detector, path)
            detector.configure(ServingConfig())
            # Round trip: the bundle alone rehydrates the remote setup.
            _, loaded = load_bundle(path)
            try:
                assert loaded.serving_config == config
                plan = loaded.serving_config.provenance()
                scores = np.asarray(loaded.detect(workload["X_test"]).scores)
                stats = dict(loaded._backend.stats)
            finally:
                loaded.configure(ServingConfig())
        assert plan["n_shards"] == 2
        assert (plan["backend"], plan["remote_workers"]) == ("remote", [address])
        assert stats["remote_tasks"] > 0
        assert stats["failover_tasks"] == 0
        # The worker has no --model, so it gets the shards by value.
        assert stats["provision_value"] == 1
        # Byte identity: remote serving changed nothing.
        assert scores.tobytes() == baseline_scores.tobytes()
