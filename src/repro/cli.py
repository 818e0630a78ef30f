"""Command-line interface for the GHSOM traffic anomaly detector.

The CLI wraps the most common workflows so the system can be driven without
writing Python:

``repro-ids generate``
    Write a synthetic KDD-style dataset to a CSV file.
``repro-ids simulate``
    Simulate raw enterprise traffic with injected attacks and write the
    derived KDD-style records to a CSV file.
``repro-ids train``
    Train a GHSOM detector (supervised or one-class) on a CSV dataset and
    save a model bundle holding the preprocessing pipeline and the fitted
    detector: a JSON document plus the ``.npz`` array sidecar next to it.
``repro-ids detect``
    Score a CSV dataset with a saved bundle; prints a summary and optionally
    writes per-record alarms.
``repro-ids evaluate``
    Train and compare several detectors on a train/test CSV pair and print
    (or save) the comparison report.
``repro-ids inspect``
    Print the topology and layer tree of a saved model bundle.
``repro-ids shard-worker``
    Serve shard tasks over TCP for distributed detection: start one worker
    per host, then point ``repro-ids detect --shards K
    --remote-workers HOST:PORT,...`` at them.
``repro-ids serve``
    Run the async detection gateway: load one model bundle, listen for
    concurrent ``detect`` requests over the framed transport, and serve
    the requests that queue up while one detection call runs as the next
    single batched call (see :class:`repro.serving.gateway.DetectionGateway`).

Run ``repro-ids <command> --help`` for the options of each command.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence


from repro.baselines import KMeansDetector, KnnDetector, LofDetector, PcaSubspaceDetector, SomDetector
from repro.core import GhsomConfig, GhsomDetector, SomTrainingConfig
from repro.core import kernels
from repro.core.inspection import describe_tree
from repro.core.serialization import (
    BINARY_FORMAT_VERSION,
    _read_json,
    _write_artifact_pair,
    detector_binary_payload,
    detector_from_dict,
    sidecar_path_for,
)
from repro.data.loader import load_csv, save_csv
from repro.data.preprocess import PreprocessingPipeline
from repro.data.synthetic import KddSyntheticGenerator
from repro.eval.experiments import DetectorResult, evaluate_detector
from repro.eval.metrics import binary_metrics, per_category_detection_rates
from repro.eval.reporting import save_markdown_report, save_results_json
from repro.eval.tables import format_table
from repro.exceptions import ReproError, SerializationError
from repro.serving.config import ServingConfig

#: Bundles are written as v3 (``BINARY_FORMAT_VERSION``): the JSON document
#: plus an ``.npz`` sidecar next to it, memory-mapped at load.  v1 and v2
#: (single-JSON) bundles are still read.
SUPPORTED_BUNDLE_VERSIONS = (1, 2, 3)


# --------------------------------------------------------------------------- #
# bundle helpers (pipeline + detector in one JSON document)
# --------------------------------------------------------------------------- #
def save_bundle(
    pipeline: PreprocessingPipeline,
    detector: GhsomDetector,
    path: Path,
    *,
    format: str = "binary",
) -> None:
    """Write the preprocessing pipeline and the fitted detector as one bundle.

    The bundle is a v3 pair: the JSON document (metadata, pipeline, tree
    structure, integrity header) plus an ``.npz`` array sidecar next to it
    that ``load_bundle`` memory-maps.  ``format`` accepts only
    ``"binary"``.  Every file is written atomically (temp file + rename),
    sidecar first: a crash mid-save can never leave a truncated, unloadable
    bundle behind.
    """
    detector_payload, arrays = detector_binary_payload(detector)
    payload = {
        "kind": "repro_bundle",
        "format_version": BINARY_FORMAT_VERSION,
        "pipeline": pipeline.to_dict(),
        "detector": detector_payload,
    }
    # The sidecar header lives on the *detector* payload (where the reader
    # resolves it) and the sidecar shares the bundle's stem.
    _write_artifact_pair(payload, arrays, path, header_owner=detector_payload, format=format)


def load_bundle(
    path: Path,
    *,
    config: Optional[ServingConfig] = None,
    overrides: Optional[Mapping[str, object]] = None,
):
    """Load a bundle written by :func:`save_bundle` (any supported version).

    The bundle version is auto-detected from the JSON header; a v3 (binary)
    bundle memory-maps the ``.npz`` sidecar next to the JSON file.

    How the loaded detector serves is one declarative object — a
    :class:`repro.serving.ServingConfig` covering sharding and artifact
    options.  Precedence follows
    :func:`repro.serving.config.effective_config`: pass ``config=`` (a full
    config, wins wholesale), or ``overrides=`` (flat field overrides — the
    knobs the caller actually chose — applied on top of the config embedded
    in the artifact, falling back to the library default).  A v2+ bundle
    saved from a configured detector therefore round-trips its serving
    setup: ``load_bundle(path)`` alone rehydrates the detector exactly as it
    was configured when saved.

    The config is applied at load time, so a bad one fails here instead of
    at the first score.  Scores stay byte-identical to the unsharded engine
    for every sharding setup (``overrides={"shards": K}``).
    """
    path = Path(path)
    payload = _read_json(path)
    if payload.get("kind") != "repro_bundle":
        raise ReproError(f"{path} is not a repro model bundle")
    if payload.get("format_version") not in SUPPORTED_BUNDLE_VERSIONS:
        raise ReproError(
            f"{path} has unsupported bundle version {payload.get('format_version')!r}"
        )
    for key in ("pipeline", "detector"):
        if not isinstance(payload.get(key), dict):
            raise SerializationError(f"{path} has no {key!r} object")
    pipeline = PreprocessingPipeline.from_dict(payload["pipeline"])
    detector = detector_from_dict(
        payload["detector"],
        config=config,
        overrides=overrides,
        sidecar_dir=path.parent,
    )
    return pipeline, detector


# --------------------------------------------------------------------------- #
# shared serving flags
# --------------------------------------------------------------------------- #
def add_serving_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared serving flags to one subcommand parser.

    One flag block for every command that loads a model (``detect``,
    ``serve``, ``inspect``), so the vocabulary cannot drift between
    commands.  The flags map one-to-one onto
    :class:`repro.serving.ServingConfig` fields via
    :func:`serving_overrides_from_args`.
    """
    group = parser.add_argument_group("serving options")
    group.add_argument(
        "--verify",
        action="store_true",
        help="check a binary (v3) sidecar's SHA-256 against the integrity header at load",
    )
    group.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=(
            "serve through K root-subtree shards, run serially in this "
            "process unless --remote-workers is given (scores stay "
            "byte-identical)"
        ),
    )
    group.add_argument(
        "--remote-workers",
        metavar="HOST:PORT[,HOST:PORT...]",
        default=None,
        help=(
            "run the shards on these shard workers (one repro-ids "
            "shard-worker per address; requires --shards; unreachable "
            "workers fail over to local serial execution)"
        ),
    )


def serving_overrides_from_args(args: argparse.Namespace) -> Dict[str, object]:
    """The serving-config overrides the operator explicitly passed.

    Only flags that were actually given end up in the mapping — that is what
    gives CLI flags field-wise precedence over an artifact-embedded config
    without clobbering it (see
    :func:`repro.serving.config.effective_config`).
    """
    overrides: Dict[str, object] = {}
    if args.verify:
        overrides["verify"] = True
    if args.shards is not None:
        overrides["shards"] = args.shards
    if args.remote_workers is not None:
        overrides["remote_workers"] = args.remote_workers
    return overrides


# --------------------------------------------------------------------------- #
# commands
# --------------------------------------------------------------------------- #
def cmd_generate(args: argparse.Namespace) -> int:
    generator = KddSyntheticGenerator(random_state=args.seed)
    if args.normal_only:
        dataset = generator.generate_normal(args.records)
    else:
        dataset = generator.generate(args.records)
    save_csv(dataset, args.output)
    print(f"wrote {len(dataset)} records to {args.output}")
    print(f"class mix: {dataset.class_counts()}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.netsim import AttackInjection, TrafficSimulator

    injections = []
    for spec in args.attack or []:
        try:
            name, start = spec.split(":", maxsplit=1)
            injections.append(AttackInjection(name.strip(), float(start)))
        except ValueError as exc:
            raise ReproError(f"invalid --attack spec {spec!r}; expected NAME:START_SECONDS") from exc
    simulator = TrafficSimulator(
        duration_seconds=args.duration,
        sessions_per_second=args.rate,
        injections=injections,
        random_state=args.seed,
    )
    dataset = simulator.run()
    save_csv(dataset, args.output)
    print(f"simulated {args.duration:.0f}s of traffic: {len(dataset)} connections -> {args.output}")
    print(f"class mix: {dataset.class_counts()}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_csv(args.train)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(dataset)
    config = GhsomConfig(
        tau1=args.tau1,
        tau2=args.tau2,
        max_depth=args.max_depth,
        max_map_size=args.max_map_size,
        min_samples_for_expansion=args.min_expansion,
        training=SomTrainingConfig(epochs=args.epochs),
        random_state=args.seed,
    )
    detector = GhsomDetector(
        config, threshold_strategy=args.threshold_strategy, random_state=args.seed
    )
    labels = None if args.one_class else [str(category) for category in dataset.categories]
    detector.fit(X_train, labels)
    model_path = Path(args.model)
    save_bundle(pipeline, detector, model_path)
    topology = detector.topology_summary()
    print(f"trained GHSOM on {len(dataset)} records ({'one-class' if args.one_class else 'labelled'})")
    print(
        f"topology: {topology['n_maps']} maps, {topology['n_units']} units, depth {topology['depth']}"
    )
    print(f"model bundle written to {args.model}")
    print(
        f"binary array sidecar written to {sidecar_path_for(model_path)} "
        "(keep it next to the bundle; detect/inspect mmap it on load)"
    )
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    overrides = serving_overrides_from_args(args)
    pipeline, detector = load_bundle(Path(args.model), overrides=overrides or None)
    dataset = load_csv(args.input)
    if len(dataset) == 0:
        # load_csv already rejects empty files; this keeps the alarm-rate
        # division safe (and the exit contract identical) should it ever
        # start returning empty datasets.
        raise ReproError(f"{args.input} contains no records")
    X = pipeline.transform(dataset)
    plan = detector.serving_config.provenance()
    if plan["sharded"]:
        workers = f" ({plan['workers']} workers)" if plan["backend"] == "remote" else ""
        print(
            f"sharded serving: {plan['n_shards']} shards on the "
            f"{plan['backend']} backend{workers}"
        )
    # One pass: scores, decisions and categories all come from a single
    # tree descent instead of one per method call.  Sharded serving is
    # disabled again afterwards so remote connections never linger into
    # interpreter shutdown.
    try:
        result = detector.detect(X)
    finally:
        detector.configure(ServingConfig(verify=plan["verify"]))
    alarms, scores, categories = result.predictions, result.scores, result.categories
    n_alarms = int(alarms.sum())
    print(f"scored {len(dataset)} records: {n_alarms} alarms ({n_alarms / len(dataset):.2%})")
    stats = result.stats
    if stats is not None:
        print(
            f"serving: engine={stats.engine} "
            f"ingest {stats.ingest_s * 1e3:.1f} ms, route {stats.route_s * 1e3:.1f} ms, "
            f"descend {stats.descend_s * 1e3:.1f} ms, merge {stats.merge_s * 1e3:.1f} ms "
            f"(total {stats.total_s * 1e3:.1f} ms)"
        )
    # If the input carries attack labels, also report detection quality —
    # unless the operator said the labels are not to be trusted.
    true_categories = [str(category) for category in dataset.categories]
    labels_present = any(category != "normal" for category in true_categories)
    if not args.assume_unlabeled and labels_present:
        metrics = binary_metrics(dataset.is_attack.astype(int), alarms)
        print(
            format_table(
                [[metrics.detection_rate, metrics.false_positive_rate, metrics.precision, metrics.f1]],
                ["detection_rate", "false_positive_rate", "precision", "f1"],
                title="Detection quality (using labels found in the input)",
            )
        )
        rates = per_category_detection_rates(true_categories, alarms)
        print()
        print(
            format_table(
                [[category, rate] for category, rate in sorted(rates.items())],
                ["category", "alarm_fraction"],
            )
        )
    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        with output.open("w") as handle:
            handle.write("record_index,alarm,score,predicted_category\n")
            for index, (alarm, score, category) in enumerate(zip(alarms, scores, categories, strict=True)):
                handle.write(f"{index},{int(alarm)},{float(score):.6f},{category}\n")
        print(f"\nper-record decisions written to {output}")
    return 0


def cmd_shard_worker(args: argparse.Namespace) -> int:
    """Run one distributed-serving worker until interrupted.

    With ``--model`` the worker validates the artifact pair on its disk
    (fail fast, before a coordinator depends on it) and advertises the v3
    sidecar's fingerprint so coordinators can provision shards *by
    reference* — the wire then carries region descriptors instead of
    codebook bytes.  ``--shards K`` additionally validates the bundle is
    servable sharded at K and pre-reads the sidecar, so the first
    provisioning request lands on a warm page cache.  Without ``--model``
    the worker still serves any coordinator, receiving its shards by value.
    """
    from repro.serving.remote import ShardWorkerServer
    from repro.serving.transport import parse_address

    host, port = parse_address(args.listen)
    if args.shards and args.model is None:
        # Same convention as load_bundle: an inapplicable flag is rejected,
        # never silently ignored (the operator believes the worker is
        # validated and warm when nothing happened).
        raise ReproError(
            "--shards validates and warms a local model artifact; pass "
            "--model alongside it (a worker without --model serves shards "
            "by value only)"
        )
    if args.model is not None:
        model_path = Path(args.model)
        # Fail fast on a broken or missing artifact; optionally prove the
        # compiled arrays plan cleanly into K shards (and touch the
        # sidecar so first-provision page faults land on a warm cache).
        pipeline, detector = load_bundle(
            model_path,
            overrides={"shards": args.shards} if args.shards else None,
        )
        del pipeline, detector
        sidecar = sidecar_path_for(model_path)
        if args.shards and sidecar.exists():
            # Warm the page cache in fixed-size chunks: the sidecar can be
            # larger than this host's RAM, so never materialise it whole.
            with sidecar.open("rb") as stream:
                while stream.read(1 << 22):
                    pass
    server = ShardWorkerServer(host, port, model_path=args.model)
    mode = (
        "by-reference/by-value provisioning"
        if server.sidecar_path is not None
        else "by-value provisioning only"
        if args.model
        else "by-value provisioning only (no --model)"
    )
    print(
        f"shard worker listening on {server.address[0]}:{server.address[1]} "
        f"(pid {os.getpid()}, {mode})",
        flush=True,
    )
    try:
        server.serve_forever()
    finally:
        server.shutdown()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async detection gateway until interrupted.

    One model bundle, configured through the standard serving-config
    precedence (CLI flags > artifact-embedded config > defaults) exactly
    once at startup, so a misconfiguration fails here, never at a client's
    first request; the banner prints the serving plan.
    """
    from repro.serving.gateway import DetectionGateway
    from repro.serving.transport import parse_address

    host, port = parse_address(args.listen)
    overrides = serving_overrides_from_args(args)
    pipeline, detector = load_bundle(Path(args.model), overrides=overrides or None)
    del pipeline  # the gateway serves preprocessed records
    gateway = DetectionGateway(
        detector,
        host,
        port,
        max_batch_rows=args.max_batch_rows,
        max_pending_rows=args.max_pending_rows,
    )
    plan = detector.serving_config.provenance()
    plan_text = f"engine={plan['engine']}" + (
        f" shards={plan['n_shards']} backend={plan['backend']}" if plan["sharded"] else ""
    )
    print(
        f"detection gateway listening on {gateway.address[0]}:{gateway.address[1]} "
        f"(pid {os.getpid()}, max batch {args.max_batch_rows} rows, {plan_text})",
        flush=True,
    )
    try:
        gateway.serve_forever()
    finally:
        gateway.shutdown()
    return 0


def _build_detector(name: str, seed: int):
    registry = {
        "ghsom": lambda: GhsomDetector(GhsomConfig(random_state=seed), random_state=seed),
        "som": lambda: SomDetector(10, 10, training=SomTrainingConfig(epochs=10), random_state=seed),
        "kmeans": lambda: KMeansDetector(n_clusters=60, random_state=seed),
        "pca": lambda: PcaSubspaceDetector(threshold_mode="percentile"),
        "knn": lambda: KnnDetector(random_state=seed),
        "lof": lambda: LofDetector(random_state=seed),
    }
    if name not in registry:
        raise ReproError(f"unknown detector {name!r}; available: {sorted(registry)}")
    return registry[name]()


def cmd_evaluate(args: argparse.Namespace) -> int:
    train = load_csv(args.train)
    test = load_csv(args.test)
    pipeline = PreprocessingPipeline()
    X_train = pipeline.fit_transform(train)
    X_test = pipeline.transform(test)
    y_train = None if args.one_class else [str(category) for category in train.categories]
    names = [name.strip() for name in args.detectors.split(",") if name.strip()]
    results: Dict[str, DetectorResult] = {}
    for name in names:
        detector = _build_detector(name, args.seed)
        result = evaluate_detector(
            detector,
            X_train,
            y_train,
            X_test,
            [str(category) for category in test.categories],
            with_confusion=not args.one_class,
        )
        result.name = name
        results[name] = result
    rows = [results[name].summary_row() for name in names]
    print(format_table(rows, DetectorResult.summary_headers(), title="Evaluation results"))
    if args.json:
        save_results_json(results, args.json, metadata={"train": str(args.train), "test": str(args.test)})
        print(f"JSON results written to {args.json}")
    if args.report:
        save_markdown_report(
            results,
            args.report,
            title="GHSOM evaluation report",
            metadata={"train": str(args.train), "test": str(args.test)},
        )
        print(f"Markdown report written to {args.report}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    overrides = serving_overrides_from_args(args)
    pipeline, detector = load_bundle(Path(args.model), overrides=overrides or None)
    topology = detector.topology_summary()
    print(
        format_table(
            [[topology[key] for key in ("n_maps", "n_units", "n_leaf_units", "depth", "tau1", "tau2")]],
            ["maps", "units", "leaf_units", "depth", "tau1", "tau2"],
            title="Model topology",
        )
    )
    print()
    print(describe_tree(detector.model, detector.labeler))
    if detector.is_labeled:
        print()
        print(
            format_table(
                [[label, count] for label, count in sorted(detector.leaf_label_distribution().items())],
                ["leaf label", "count"],
                title="Leaf label distribution",
            )
        )
    # The serving plan: what this host would actually execute for the
    # loaded artifact + the flags passed to this command (artifact-embedded
    # config with CLI overrides on top).
    plan = detector.serving_config.provenance(usable_cores=True)
    shard_layout = "-"
    if plan["sharded"]:
        shard_layout = f"{plan['n_shards']} shards / {plan['backend']} backend"
        if plan["remote_workers"]:
            shard_layout += f" ({','.join(plan['remote_workers'])})"
    rows = [
        ["engine", plan["engine"]],
        ["sharding", shard_layout],
        ["verify", plan["verify"]],
        ["usable cores", plan["usable_cores"]],
        ["fused kernel", kernels.fused_build_error() or "available"],
    ]
    print()
    print(format_table(rows, ["knob", "resolved"], title="Serving plan"))
    return 0


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ids",
        description="GHSOM-based network traffic anomaly detection",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic KDD-style dataset")
    generate.add_argument("--records", type=int, default=5000, help="number of records")
    generate.add_argument("--output", required=True, help="output CSV path")
    generate.add_argument("--normal-only", action="store_true", help="generate only normal traffic")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=cmd_generate)

    simulate = subparsers.add_parser("simulate", help="simulate raw traffic with injected attacks")
    simulate.add_argument("--duration", type=float, default=600.0, help="trace length in seconds")
    simulate.add_argument("--rate", type=float, default=2.0, help="background sessions per second")
    simulate.add_argument(
        "--attack",
        action="append",
        metavar="NAME:START",
        help="inject an attack, e.g. --attack neptune:120 (repeatable)",
    )
    simulate.add_argument("--output", required=True, help="output CSV path")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=cmd_simulate)

    train = subparsers.add_parser("train", help="train a GHSOM detector and save a model bundle")
    train.add_argument("--train", required=True, help="training CSV")
    train.add_argument(
        "--model",
        required=True,
        help="output model bundle (JSON; its .npz array sidecar is written next to it)",
    )
    train.add_argument("--one-class", action="store_true", help="ignore labels (novelty detection)")
    train.add_argument("--tau1", type=float, default=0.3)
    train.add_argument("--tau2", type=float, default=0.05)
    train.add_argument("--max-depth", type=int, default=3)
    train.add_argument("--max-map-size", type=int, default=100)
    train.add_argument("--min-expansion", type=int, default=60)
    train.add_argument("--epochs", type=int, default=5)
    train.add_argument(
        "--threshold-strategy", choices=("per_unit", "global"), default="per_unit"
    )
    train.add_argument("--seed", type=int, default=0)
    train.set_defaults(handler=cmd_train)

    detect = subparsers.add_parser("detect", help="score a dataset with a saved model bundle")
    detect.add_argument("--model", required=True, help="model bundle (JSON)")
    detect.add_argument("--input", required=True, help="CSV of records to score")
    detect.add_argument("--output", help="optional CSV of per-record decisions")
    detect.add_argument(
        "--assume-unlabeled",
        action="store_true",
        help="do not compute quality metrics from labels in the input",
    )
    add_serving_args(detect)
    detect.set_defaults(handler=cmd_detect)

    shard_worker = subparsers.add_parser(
        "shard-worker",
        help="serve shard tasks over TCP for distributed detection",
    )
    shard_worker.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on (PORT 0 binds an ephemeral port, printed at startup)",
    )
    shard_worker.add_argument(
        "--model",
        default=None,
        help=(
            "model bundle on this host; a v3 (binary) bundle enables "
            "by-reference shard provisioning (validated against the "
            "coordinator's per-member CRC-32s)"
        ),
    )
    shard_worker.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="validate --model serves sharded at K and pre-read the sidecar (warm start)",
    )
    shard_worker.set_defaults(handler=cmd_shard_worker)

    serve = subparsers.add_parser(
        "serve",
        help="run the async detection gateway (micro-batched live scoring)",
    )
    serve.add_argument(
        "--listen",
        required=True,
        metavar="HOST:PORT",
        help="address to listen on (PORT 0 binds an ephemeral port, printed at startup)",
    )
    serve.add_argument("--model", required=True, help="model bundle to serve")
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=4096,
        metavar="N",
        help="row cap per coalesced detect call (also the largest row-block one request may carry)",
    )
    serve.add_argument(
        "--max-pending-rows",
        type=int,
        default=32768,
        metavar="N",
        help=(
            "admission bound on rows admitted-but-unanswered; requests over "
            "it are rejected with an explicit error reply (backpressure, "
            "never silent drops)"
        ),
    )
    add_serving_args(serve)
    serve.set_defaults(handler=cmd_serve)

    evaluate = subparsers.add_parser("evaluate", help="compare detectors on a train/test pair")
    evaluate.add_argument("--train", required=True)
    evaluate.add_argument("--test", required=True)
    evaluate.add_argument(
        "--detectors",
        default="ghsom,som,kmeans,pca,knn",
        help="comma-separated detectors (ghsom,som,kmeans,pca,knn,lof)",
    )
    evaluate.add_argument("--one-class", action="store_true")
    evaluate.add_argument("--json", help="write machine-readable results to this path")
    evaluate.add_argument("--report", help="write a Markdown report to this path")
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(handler=cmd_evaluate)

    inspect = subparsers.add_parser(
        "inspect",
        help="print the structure and resolved serving plan of a saved model bundle",
    )
    inspect.add_argument("--model", required=True)
    add_serving_args(inspect)
    inspect.set_defaults(handler=cmd_inspect)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.handler(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
