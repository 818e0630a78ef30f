"""The observable forms of a serving config, pinned for three configs.

A serving config shows itself in five places: its ``to_dict()`` payload,
``DetectionResult.stats.plan``, the ``inspect`` "Serving plan" table, the
``detect`` banner and the gateway handshake's ``info["plan"]``.  Each is
pinned exactly here for an unsharded config, three serial shards, and two
shards on two loopback shard workers.  The configs are built only through
the public entry points (``with_overrides``, ``load_bundle`` and the CLI),
so these tests do not depend on how the config is laid out inside.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import load_bundle, main, save_bundle
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig, kernels
from repro.data.loader import save_csv
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.serving import (
    DetectionGateway,
    GatewayClient,
    ServingConfig,
    ShardWorkerServer,
    usable_workers,
)

CONFIGS = ("unsharded", "serial3", "remote2")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A trained bundle and a test CSV (the CLI reads both from disk)."""
    directory = tmp_path_factory.mktemp("observable_forms")
    generator = KddSyntheticGenerator(random_state=83)
    train, test = generator.generate(700), generator.generate(200)
    pipeline = PreprocessingPipeline()
    detector = GhsomDetector(
        GhsomConfig(
            tau1=0.3,
            tau2=0.05,
            max_depth=2,
            max_map_size=36,
            min_samples_for_expansion=25,
            training=SomTrainingConfig(epochs=3),
            random_state=41,
        ),
        random_state=41,
    )
    detector.fit(pipeline.fit_transform(train), [str(c) for c in train.categories])
    bundle = directory / "model.json"
    save_bundle(pipeline, detector, bundle)
    csv = directory / "test.csv"
    save_csv(test, csv)
    return {"bundle": bundle, "csv": csv, "X": pipeline.transform(test), "dir": directory}


@pytest.fixture(scope="module")
def addresses(files):
    """Two loopback shard workers holding the bundle's sidecar."""
    with ShardWorkerServer(model_path=files["bundle"]).start() as w1, \
            ShardWorkerServer(model_path=files["bundle"]).start() as w2:
        yield [f"{host}:{port}" for host, port in (w1.address, w2.address)]


def _overrides(name, addresses):
    return {
        "unsharded": {},
        "serial3": {"shards": 3},
        "remote2": {"shards": 2, "remote_workers": ",".join(addresses)},
    }[name]


def _flags(name, addresses):
    return {
        "unsharded": [],
        "serial3": ["--shards", "3"],
        "remote2": ["--shards", "2", "--remote-workers", ",".join(addresses)],
    }[name]


def _plan(name, addresses):
    """The provenance dict every surface shows (before host diagnostics)."""
    sharding = {
        "unsharded": (False, None, None, None, []),
        "serial3": (True, 3, "serial", 1, []),
        "remote2": (True, 2, "remote", 2, list(addresses)),
    }[name]
    keys = ("sharded", "n_shards", "backend", "workers", "remote_workers")
    return {"engine": kernels.host_engine(), **dict(zip(keys, sharding)), "verify": False}


@pytest.mark.parametrize("name", CONFIGS)
def test_to_dict_json(name, addresses):
    config = ServingConfig().with_overrides(_overrides(name, addresses))
    shards, remote = {
        "unsharded": ("null", "null"),
        "serial3": ("3", "null"),
        "remote2": ("2", json.dumps(",".join(addresses))),
    }[name]
    assert json.dumps(config.to_dict()) == (
        '{"config_version": 1, '
        f'"sharding": {{"shards": {shards}, "remote_workers": {remote}}}, '
        '"artifact": {"verify": false}}'
    )


@pytest.mark.parametrize("name", CONFIGS)
def test_stats_plan(name, files, addresses):
    _, detector = load_bundle(files["bundle"], overrides=_overrides(name, addresses) or None)
    try:
        plan = detector.detect(files["X"]).stats.plan
    finally:
        detector.configure(ServingConfig())
    assert plan == _plan(name, addresses)
    assert list(plan) == list(_plan(name, addresses))


@pytest.mark.parametrize("name", CONFIGS)
def test_inspect_serving_plan_rows(name, files, addresses, capsys):
    capsys.readouterr()
    assert main(["inspect", "--model", str(files["bundle"]), *_flags(name, addresses)]) == 0
    lines = capsys.readouterr().out.splitlines()
    table = lines[lines.index("Serving plan") + 4 :]
    rows = [[cell.strip() for cell in line.split("|")] for line in table]
    layout = {
        "unsharded": "-",
        "serial3": "3 shards / serial backend",
        "remote2": f"2 shards / remote backend ({','.join(addresses)})",
    }[name]
    assert rows == [
        ["engine", kernels.host_engine()],
        ["sharding", layout],
        ["verify", "no"],
        ["usable cores", str(usable_workers())],
        ["fused kernel", kernels.fused_build_error() or "available"],
    ]


@pytest.mark.parametrize("name", CONFIGS)
def test_detect_banner(name, files, addresses, capsys):
    capsys.readouterr()
    output = files["dir"] / f"alarms-{name}.csv"
    argv = ["detect", "--model", str(files["bundle"]), "--input", str(files["csv"])]
    assert main([*argv, "--output", str(output), *_flags(name, addresses)]) == 0
    banner = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("sharded serving")
    ]
    assert banner == {
        "unsharded": [],
        "serial3": ["sharded serving: 3 shards on the serial backend"],
        "remote2": ["sharded serving: 2 shards on the remote backend (2 workers)"],
    }[name]


@pytest.mark.parametrize("name", CONFIGS)
def test_gateway_handshake_plan(name, files, addresses):
    _, detector = load_bundle(files["bundle"], overrides=_overrides(name, addresses) or None)
    try:
        with DetectionGateway(detector).start() as gateway:
            with GatewayClient(gateway.address) as client:
                plan = client.info["plan"]
    finally:
        detector.configure(ServingConfig())
    assert sorted(plan) == sorted([*_plan(name, addresses), "usable_cores"])
    assert plan == {**_plan(name, addresses), "usable_cores": usable_workers()}
