"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, load_bundle, main, save_bundle
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.core.serialization import write_json_atomic
from repro.data.loader import load_csv, save_csv
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.exceptions import SerializationError

from legacy_artifacts import v1_payload, v2_payload


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """Small train/test CSV files shared by the CLI tests."""
    directory = tmp_path_factory.mktemp("cli_data")
    generator = KddSyntheticGenerator(random_state=3)
    train, test = generator.generate_train_test(700, 300)
    save_csv(train, directory / "train.csv")
    save_csv(test, directory / "test.csv")
    return directory


@pytest.fixture(scope="module")
def trained_model_path(data_dir, tmp_path_factory):
    """A model bundle produced through the CLI train command."""
    model_path = tmp_path_factory.mktemp("cli_model") / "model.json"
    exit_code = main(
        [
            "train",
            "--train", str(data_dir / "train.csv"),
            "--model", str(model_path),
            "--max-map-size", "49",
            "--max-depth", "2",
            "--epochs", "3",
            "--min-expansion", "40",
        ]
    )
    assert exit_code == 0
    return model_path


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("generate", "simulate", "train", "detect", "evaluate", "inspect"):
            assert command in text

    def test_missing_command_raises_system_exit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_removed_process_shard_backend_exits_2(self, capsys):
        # The process backend went first; --shard-backend and --workers
        # followed with the thread backend.
        argv = ["detect", "--model", "m", "--input", "i", "--shards", "2"]
        for removed in (
            ["--shard-backend", "process"],
            ["--shard-backend", "thread"],
            ["--shard-backend", "serial"],
            ["--workers", "2"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, *removed])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {' '.join(removed)}" in err

    def test_removed_float32_flag_exits_2(self, capsys):
        # Serving is float64 only; the float32 opt-in flag is gone.
        with pytest.raises(SystemExit) as excinfo:
            main(["detect", "--model", "m", "--input", "i", "--float32"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --float32" in capsys.readouterr().err

    def test_removed_shard_worker_engine_flag_exits_2(self, capsys):
        # The coordinator's shard states carry the engine; a worker has no
        # engine of its own.
        with pytest.raises(SystemExit) as excinfo:
            main(["shard-worker", "--listen", "127.0.0.1:0", "--engine", "fused"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine fused" in capsys.readouterr().err


class TestGenerateAndSimulate:
    def test_generate_writes_loadable_csv(self, tmp_path, capsys):
        output = tmp_path / "generated.csv"
        assert main(["generate", "--records", "200", "--output", str(output), "--seed", "1"]) == 0
        dataset = load_csv(output)
        assert len(dataset) == 200
        assert "wrote 200 records" in capsys.readouterr().out

    def test_generate_normal_only(self, tmp_path):
        output = tmp_path / "normal.csv"
        assert main(["generate", "--records", "150", "--normal-only", "--output", str(output)]) == 0
        assert not load_csv(output).is_attack.any()

    def test_simulate_with_attacks(self, tmp_path, capsys):
        output = tmp_path / "trace.csv"
        code = main(
            [
                "simulate",
                "--duration", "60",
                "--rate", "2.0",
                "--attack", "portsweep:20",
                "--attack", "neptune:40",
                "--output", str(output),
                "--seed", "2",
            ]
        )
        assert code == 0
        dataset = load_csv(output)
        counts = dataset.class_counts()
        assert counts.get("probe", 0) > 0 and counts.get("dos", 0) > 0

    def test_simulate_bad_attack_spec_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["simulate", "--duration", "30", "--attack", "neptune", "--output", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestUnreadableBundles:
    """A bundle that cannot be read is a one-line error and exit code 2."""

    @pytest.fixture
    def bad_bundles(self, trained_model_path, tmp_path):
        truncated = tmp_path / "truncated.json"
        truncated.write_text(trained_model_path.read_text()[:200])
        listed = tmp_path / "list.json"
        listed.write_text("[]")
        return {"truncated": truncated, "missing": tmp_path / "missing.json", "list": listed}

    @pytest.mark.parametrize("kind", ["truncated", "missing", "list"])
    @pytest.mark.parametrize("command", ["detect", "inspect"])
    def test_unreadable_bundle_exits_2(self, bad_bundles, data_dir, capsys, command, kind):
        argv = [command, "--model", str(bad_bundles[kind])]
        if command == "detect":
            argv += ["--input", str(data_dir / "test.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("error: ")
        assert str(bad_bundles[kind]) in lines[0]


class TestTrainDetectInspect:
    def test_bundle_round_trip(self, trained_model_path, data_dir):
        pipeline, detector = load_bundle(trained_model_path)
        test = load_csv(data_dir / "test.csv")
        predictions = detector.predict(pipeline.transform(test))
        assert predictions.shape == (len(test),)

    def test_bundle_matches_in_process_training(self, data_dir, tmp_path):
        """The CLI bundle must behave identically to a pipeline+detector built in process."""
        train = load_csv(data_dir / "train.csv")
        test = load_csv(data_dir / "test.csv")
        pipeline = PreprocessingPipeline()
        X_train = pipeline.fit_transform(train)
        detector = GhsomDetector(
            GhsomConfig(
                tau1=0.3, tau2=0.05, max_depth=2, max_map_size=49,
                min_samples_for_expansion=40, training=SomTrainingConfig(epochs=3), random_state=0,
            ),
            random_state=0,
        )
        detector.fit(X_train, [str(category) for category in train.categories])
        bundle_path = tmp_path / "bundle.json"
        save_bundle(pipeline, detector, bundle_path)
        # The default save writes the v3 pair, and the load maps its sidecar.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle.json", "bundle.npz"]
        assert json.loads(bundle_path.read_text())["format_version"] == 3
        reloaded_pipeline, reloaded_detector = load_bundle(bundle_path)
        assert isinstance(reloaded_detector._compiled_model().codebook, np.memmap)
        np.testing.assert_allclose(
            reloaded_pipeline.transform(test), pipeline.transform(test)
        )
        expected = detector.detect(pipeline.transform(test))
        observed = reloaded_detector.detect(reloaded_pipeline.transform(test))
        assert observed.scores.tobytes() == expected.scores.tobytes()
        np.testing.assert_array_equal(observed.predictions, expected.predictions)
        assert list(observed.categories) == list(expected.categories)

    @pytest.mark.parametrize("version", [1, 2])
    def test_legacy_bundle_scores_identical_to_v3_bundle(
        self, trained_model_path, data_dir, tmp_path, version
    ):
        """v1 and v2 bundles are no longer written, but still load and detect."""
        pipeline, detector = load_bundle(trained_model_path)
        legacy_payload = v1_payload(detector) if version == 1 else v2_payload(detector)
        legacy_path = tmp_path / f"model_v{version}.json"
        write_json_atomic(
            {
                "kind": "repro_bundle",
                "format_version": version,
                "pipeline": pipeline.to_dict(),
                "detector": legacy_payload,
            },
            legacy_path,
        )
        test = load_csv(data_dir / "test.csv")
        legacy_pipeline, legacy_detector = load_bundle(legacy_path)
        expected = detector.detect(pipeline.transform(test))
        observed = legacy_detector.detect(legacy_pipeline.transform(test))
        assert observed.scores.tobytes() == expected.scores.tobytes()
        np.testing.assert_array_equal(observed.predictions, expected.predictions)
        assert list(observed.categories) == list(expected.categories)

        outputs = {}
        for name, model in (("v3", trained_model_path), ("legacy", legacy_path)):
            outputs[name] = tmp_path / f"alarms_{name}.csv"
            argv = ["detect", "--model", str(model), "--input", str(data_dir / "test.csv")]
            assert main([*argv, "--output", str(outputs[name])]) == 0
        assert outputs["legacy"].read_bytes() == outputs["v3"].read_bytes()

    def test_save_bundle_refuses_the_removed_json_format(self, trained_model_path, tmp_path):
        pipeline, detector = load_bundle(trained_model_path)
        with pytest.raises(SerializationError, match="writer was removed"):
            save_bundle(pipeline, detector, tmp_path / "x.json", format="json")
        assert list(tmp_path.iterdir()) == []

    def test_train_writes_pair_and_detects(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train",
                "--train", str(data_dir / "train.csv"),
                "--model", str(model_path),
                "--max-map-size", "49",
                "--max-depth", "2",
                "--epochs", "3",
                "--min-expansion", "40",
            ]
        )
        assert code == 0
        assert "binary array sidecar" in capsys.readouterr().out
        sidecar = tmp_path / "model.npz"
        assert sidecar.exists()
        # detect and inspect auto-detect the format from the JSON header.
        assert main(["detect", "--model", str(model_path), "--input", str(data_dir / "test.csv")]) == 0
        assert main(["inspect", "--model", str(model_path)]) == 0

    def test_detect_missing_sidecar_fails_cleanly(self, data_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(
            [
                "train",
                "--train", str(data_dir / "train.csv"),
                "--model", str(model_path),
                "--max-map-size", "49", "--max-depth", "2",
                "--epochs", "3", "--min-expansion", "40",
            ]
        ) == 0
        (tmp_path / "model.npz").unlink()
        capsys.readouterr()
        code = main(["detect", "--model", str(model_path), "--input", str(data_dir / "test.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "missing binary sidecar" in err

    def test_detect_prints_metrics_and_writes_output(self, trained_model_path, data_dir, tmp_path, capsys):
        output = tmp_path / "alarms.csv"
        code = main(
            [
                "detect",
                "--model", str(trained_model_path),
                "--input", str(data_dir / "test.csv"),
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "alarms" in out
        assert "detection_rate" in out
        lines = output.read_text().strip().splitlines()
        assert lines[0] == "record_index,alarm,score,predicted_category"
        assert len(lines) == len(load_csv(data_dir / "test.csv")) + 1

    def test_assume_unlabeled_suppresses_metrics_on_labelled_input(
        self, trained_model_path, data_dir, capsys
    ):
        """--assume-unlabeled must win even when the input contains attack labels."""
        code = main(
            [
                "detect",
                "--model", str(trained_model_path),
                "--input", str(data_dir / "test.csv"),
                "--assume-unlabeled",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scored" in out
        assert "detection_rate" not in out

    def test_all_normal_input_prints_no_metrics_table(
        self, trained_model_path, tmp_path, capsys
    ):
        """Inputs without attack labels have nothing to compute quality against."""
        normal_csv = tmp_path / "normal.csv"
        assert main(
            ["generate", "--records", "120", "--normal-only", "--output", str(normal_csv)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["detect", "--model", str(trained_model_path), "--input", str(normal_csv)]
        ) == 0
        out = capsys.readouterr().out
        assert "scored" in out
        assert "detection_rate" not in out

    def test_empty_input_fails_cleanly(self, trained_model_path, data_dir, tmp_path, capsys):
        """A header-only CSV must produce a clean error, not a ZeroDivisionError."""
        empty_csv = tmp_path / "empty.csv"
        header = (data_dir / "test.csv").read_text().splitlines()[0]
        empty_csv.write_text(header + "\n")
        code = main(
            ["detect", "--model", str(trained_model_path), "--input", str(empty_csv)]
        )
        assert code == 2
        assert "no records" in capsys.readouterr().err

    def test_detect_runs_exactly_one_assignment_pass(
        self, trained_model_path, data_dir, monkeypatch, capsys
    ):
        """The serving path must descend the tree once per invocation, not thrice."""
        from repro.core.compiled import CompiledGhsom

        # Every descent, validated by the caller or not, enters here.
        calls = []
        original = CompiledGhsom.assign_validated

        def counting(self, matrix, **kwargs):
            calls.append(len(matrix))
            return original(self, matrix, **kwargs)

        monkeypatch.setattr(CompiledGhsom, "assign_validated", counting)
        assert main(
            ["detect", "--model", str(trained_model_path), "--input", str(data_dir / "test.csv")]
        ) == 0
        assert len(calls) == 1

    def test_inspect_prints_topology(self, trained_model_path, capsys):
        assert main(["inspect", "--model", str(trained_model_path)]) == 0
        out = capsys.readouterr().out
        assert "Model topology" in out
        assert "root" in out
        assert "Leaf label distribution" in out

    def test_one_class_training(self, data_dir, tmp_path):
        model_path = tmp_path / "oneclass.json"
        code = main(
            [
                "train",
                "--train", str(data_dir / "train.csv"),
                "--model", str(model_path),
                "--one-class",
                "--max-map-size", "36",
                "--max-depth", "2",
                "--epochs", "2",
            ]
        )
        assert code == 0
        _, detector = load_bundle(model_path)
        assert not detector.is_labeled


class TestEvaluate:
    def test_evaluate_writes_reports(self, data_dir, tmp_path, capsys):
        json_path = tmp_path / "results.json"
        report_path = tmp_path / "report.md"
        code = main(
            [
                "evaluate",
                "--train", str(data_dir / "train.csv"),
                "--test", str(data_dir / "test.csv"),
                "--detectors", "kmeans,pca",
                "--json", str(json_path),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Evaluation results" in out
        payload = json.loads(json_path.read_text())
        assert set(payload["results"]) == {"kmeans", "pca"}
        assert "Overall comparison" in report_path.read_text()

    def test_unknown_detector_fails_cleanly(self, data_dir, capsys):
        code = main(
            [
                "evaluate",
                "--train", str(data_dir / "train.csv"),
                "--test", str(data_dir / "test.csv"),
                "--detectors", "quantum_forest",
            ]
        )
        assert code == 2
        assert "unknown detector" in capsys.readouterr().err
