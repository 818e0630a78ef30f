"""The unified serving-configuration layer: ``ServingConfig`` → ``ServingPlan``.

Every serving knob lives in one object, :class:`ServingConfig`; the
loaders (``config=`` / ``overrides=``), ``GhsomDetector.configure`` and the
CLI flag block all go through it.  This module holds it and its companions:

:class:`ServingConfig`
    A frozen, *declarative* description of how a model is served: the
    compute engine, the sharding spec and the artifact-loading options.  It
    validates strictly on construction, round-trips through JSON
    (``to_dict`` / ``from_dict``, versioned) and embeds in v2/v3 model
    artifacts.  It never
    touches the environment: a config built on one host means exactly the
    same thing on another.

:class:`ServingPlan`
    The *resolved* form: :meth:`ServingConfig.resolve` performs every
    environment-dependent decision — fused-kernel availability,
    remote address parsing — in one place, under one
    strict/degrade policy (``strict=True`` raises on an unprovidable
    ``"fused"`` request; ``strict=False`` degrades to the numpy engine, the
    per-batch hot-path behaviour).  The plan is still a frozen value object;
    :meth:`ServingPlan.build_backend` is the single constructor of live
    :class:`~repro.serving.backends.ShardBackend` instances.

:class:`ServingStats`
    Uniform per-batch serving observability attached to
    :class:`~repro.core.detector.DetectionResult` by ``GhsomDetector.detect``:
    per-stage timings (ingest / route / descend / merge) plus the resolved
    plan's provenance, so gateways and fleet tooling can see how a batch was
    actually executed without instrumenting the layers themselves.

Precedence, everywhere a config can come from more than one place (the CLI,
an artifact, library defaults): **explicit caller config > CLI-style field
overrides > artifact-embedded config > library default** — see
:func:`effective_config`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # runtime import stays lazy inside build_backend
    from repro.serving.backends import ShardBackend

#: Version marker of the serialized ``ServingConfig`` payload (bumped on any
#: incompatible change; readers reject versions they do not understand).
CONFIG_VERSION = 1

#: ``dtype`` values payloads written before serving became float64-only may
#: carry.  The stored arrays were float64 either way, so both read as float64.
_LEGACY_DTYPES = ("float64", "float32")

#: Shard-backend names payloads written before the local pools were removed
#: may carry.  Every local name now reads as serial sharding.
_LEGACY_LOCAL_BACKENDS = ("serial", "thread", "process")

_SERIAL_OR_REMOTE = (
    "local shards run serially, and remote_workers alone selects the remote backend"
)
#: Override keys of knobs that no longer exist, and why.
_REMOVED_OVERRIDES = {
    "workers": _SERIAL_OR_REMOTE,
    "backend": _SERIAL_OR_REMOTE,
    "dtype": "models always serve in float64",
    "provisioning": (
        "remote workers get the shard set by reference when they hold the "
        "same sidecar, by value otherwise"
    ),
    "mmap": "a v3 sidecar is always memory-mapped",
}

#: ``provisioning`` values payloads written before remote provisioning had
#: one policy may carry.  Each reads as that one policy.
_LEGACY_PROVISIONING = ("auto", "reference", "value")


def usable_workers() -> int:
    """Worker count matching the usable cores (affinity-aware).

    The single owner of the "how parallel is this host" question: the
    ``inspect`` view and the benchmark provenance both report it.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


def _parse_remote_workers(spec: str) -> Tuple[str, ...]:
    """Normalise a ``HOST:PORT[,HOST:PORT...]`` spec into address strings."""
    from repro.serving.transport import parse_address

    addresses: List[str] = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        host, port = parse_address(part)
        addresses.append(f"{host}:{port}")
    return tuple(addresses)


def _opt_int(value: object) -> Optional[int]:
    """``None`` passes through; otherwise an integer or a whole-number float.

    The strict-typed bridge from JSON payloads / CLI override mappings
    (``object`` values) to the typed dataclass fields; range validation stays
    in the dataclass ``__post_init__``.  A bool or a fractional float is
    refused rather than truncated.
    """
    if value is None:
        return None
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigurationError(f"expected an integer, got {value!r}")


def _opt_str(value: object) -> Optional[str]:
    """``None`` passes through; everything else is stringified."""
    return None if value is None else str(value)


def _check_legacy_dtype(data: Mapping[str, object]) -> None:
    """Refuse the ``dtype`` values older readers refused.

    Payloads written while float32 serving existed carry a ``dtype`` key;
    ``"float64"`` and ``"float32"`` (and their numpy aliases) read as the one
    float64 serving precision, anything else is still rejected.
    """
    if "dtype" not in data:
        return
    value = str(data["dtype"])
    try:
        name = np.dtype(value).name
    except TypeError as exc:
        raise ConfigurationError(f"invalid serving dtype {value!r}: {exc}") from exc
    if name not in _LEGACY_DTYPES:
        raise ConfigurationError(
            f"unsupported serving dtype {name!r}; models serve in float64 "
            "(payloads naming float32 read as float64)"
        )


def _check_legacy_backend(sharding: Mapping[str, object]) -> None:
    """Refuse the ``backend``/``workers`` values older readers refused.

    Payloads written before the pool backends were removed name a backend
    and may carry a worker count.  A local name reads as serial sharding,
    ``"remote"`` says what the addresses already say, and the worker count is
    ignored.  What the old validation rejected is still rejected, so a
    corrupt payload does not start to load.
    """
    backend = _opt_str(sharding.get("backend"))
    workers = _opt_int(sharding.get("workers"))
    if backend is None and workers is None:
        return
    remote = sharding.get("remote_workers") is not None
    if not sharding.get("shards"):
        problem = "workers/backend only apply to sharded serving"
    elif backend not in (None, "remote", *_LEGACY_LOCAL_BACKENDS):
        problem = f"unknown shard backend {backend!r}"
    elif backend == "remote" and not remote:
        problem = "the remote shard backend needs worker addresses"
    elif backend in _LEGACY_LOCAL_BACKENDS and remote:
        problem = f"remote_workers conflicts with backend {backend!r}"
    elif workers is not None and remote:
        problem = "the remote backend's worker count is its address list"
    else:
        return
    raise ConfigurationError(f"serving config sharding spec: {problem}")


def _check_legacy_provisioning(sharding: Mapping[str, object]) -> None:
    """Refuse the ``provisioning`` values older readers refused.

    Payloads written while remote provisioning had modes carry a
    ``provisioning`` key.  Every mode reads as the one policy (by reference
    when the worker's sidecar matches, by value otherwise); an unknown mode,
    or a mode other than ``"auto"`` without worker addresses, is still
    rejected.
    """
    mode = str(sharding.get("provisioning", "auto"))
    if mode not in _LEGACY_PROVISIONING:
        raise ConfigurationError(
            f"unknown provisioning mode {mode!r}; expected one of {_LEGACY_PROVISIONING}"
        )
    if mode != "auto" and sharding.get("remote_workers") is None:
        raise ConfigurationError(
            "provisioning only applies to the remote shard backend; "
            f"got provisioning mode {mode!r} without remote_workers"
        )


def _check_legacy_mmap(artifact: Mapping[str, object]) -> None:
    """Refuse the ``mmap`` values older readers refused.

    Payloads written while in-RAM sidecar loading existed carry an ``mmap``
    flag.  Every sidecar is memory-mapped now, so the flag is ignored, but a
    value that is not a real bool is still rejected.
    """
    value = artifact.get("mmap", True)
    if not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"artifact option mmap must be a bool, got {value!r}")


def _sub_mapping(data: Mapping[str, object], key: str) -> Dict[str, object]:
    """A payload sub-section as a dict (absent/None becomes empty)."""
    raw = data.get(key) or {}
    if not isinstance(raw, Mapping):
        raise ConfigurationError(
            f"serving config section {key!r} must be a mapping, "
            f"got {type(raw).__name__}"
        )
    return dict(raw)


# --------------------------------------------------------------------------- #
# the declarative config
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardingSpec:
    """Declarative sharded-serving spec (``shards=None`` means unsharded).

    The addresses choose the backend: shards run on the remote shard workers
    when ``remote_workers`` is set, and serially in this process otherwise.

    Attributes
    ----------
    shards:
        Number of root-subtree shards, or ``None`` for the unsharded engine.
    remote_workers:
        ``"HOST:PORT[,HOST:PORT...]"`` shard-worker addresses, one
        ``repro-ids shard-worker`` per address.  Each worker gets the shard
        set by reference when it holds the coordinator's sidecar, by value
        otherwise (see :class:`~repro.serving.remote.RemoteBackend`).
    """

    shards: Optional[int] = None
    remote_workers: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards is not None:
            object.__setattr__(self, "shards", int(self.shards))
            if self.shards < 1:
                raise ConfigurationError(
                    f"n_shards must be >= 1, got {self.shards}"
                )
        if self.remote_workers is not None:
            if not self.shards:
                raise ConfigurationError(
                    "remote worker addresses only apply to sharded serving; "
                    "pass shards=K (CLI: --shards) to enable it"
                )
            addresses = _parse_remote_workers(self.remote_workers)
            if not addresses:
                raise ConfigurationError(
                    "the remote backend needs at least one worker address (HOST:PORT)"
                )
            object.__setattr__(self, "remote_workers", ",".join(addresses))

    @property
    def enabled(self) -> bool:
        return bool(self.shards)


@dataclass(frozen=True)
class ArtifactOptions:
    """How binary (v3) artifacts are opened at load time.

    The ``.npz`` sidecar is always memory-mapped (O(metadata) cold start);
    ``verify=True`` additionally checks its SHA-256 against the integrity
    header (reads the whole file).
    """

    verify: bool = False

    def __post_init__(self) -> None:
        # Payload flags must be real bools: ``bool("false")`` is True.
        if not isinstance(self.verify, (bool, np.bool_)):
            raise ConfigurationError(
                f"artifact option verify must be a bool, got {self.verify!r}"
            )
        object.__setattr__(self, "verify", bool(self.verify))


@dataclass(frozen=True)
class ServingConfig:
    """One serializable, versioned description of how a model is served.

    Strictly validated on construction; environment-independent by design
    (resolution against the host happens in :meth:`resolve`).  Equality is
    field-wise, so "same serving intent" compares equal across processes and
    hosts — the property the artifact-embedding and remote-provisioning
    paths rely on.
    """

    engine: Optional[str] = None
    sharding: ShardingSpec = field(default_factory=ShardingSpec)
    artifact: ArtifactOptions = field(default_factory=ArtifactOptions)

    def __post_init__(self) -> None:
        if self.engine is not None:
            kernels.check_engine(self.engine)
        if not isinstance(self.sharding, ShardingSpec):
            raise ConfigurationError(
                f"sharding must be a ShardingSpec, got {type(self.sharding).__name__}"
            )
        if not isinstance(self.artifact, ArtifactOptions):
            raise ConfigurationError(
                f"artifact must be ArtifactOptions, got {type(self.artifact).__name__}"
            )

    # ------------------------------------------------------------------ #
    # JSON round trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload; exact inverse of :meth:`from_dict`."""
        return {
            "config_version": CONFIG_VERSION,
            "engine": self.engine,
            "sharding": {
                "shards": self.sharding.shards,
                "remote_workers": self.sharding.remote_workers,
            },
            "artifact": {"verify": self.artifact.verify},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ServingConfig":
        """Rebuild a config from :meth:`to_dict` output (strictly validated).

        Payloads written before the fused-provider pin was removed carry a
        ``provider`` key: ``None`` and ``"cc"`` (the only provider) mean the
        same as no pin, and ``"none"`` — which disabled the fused engine —
        reads as the numpy engine.  Payloads written before the pool
        backends were removed may carry ``backend`` and ``workers``: see
        :func:`_check_legacy_backend`.  Payloads written while float32
        serving existed carry ``dtype``: see :func:`_check_legacy_dtype`.
        Payloads written while remote provisioning had modes carry
        ``provisioning``: see :func:`_check_legacy_provisioning`.  Payloads
        written while in-RAM sidecar loading existed carry ``artifact.mmap``:
        see :func:`_check_legacy_mmap`.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"serving config payload must be a mapping, got {type(data).__name__}"
            )
        version = data.get("config_version")
        if version != CONFIG_VERSION:
            raise ConfigurationError(
                f"unsupported serving-config version {version!r}; "
                f"this reader understands version {CONFIG_VERSION}"
            )
        known = {"config_version", "dtype", "engine", "provider", "sharding", "artifact"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"serving config payload has unknown keys {unknown}; "
                "the payload is corrupt or from an incompatible writer"
            )
        sharding = _sub_mapping(data, "sharding")
        unknown = sorted(
            set(sharding) - {"shards", "workers", "backend", "remote_workers", "provisioning"}
        )
        if unknown:
            raise ConfigurationError(
                f"serving config sharding spec has unknown keys {unknown}"
            )
        artifact = _sub_mapping(data, "artifact")
        unknown = sorted(set(artifact) - {"mmap", "verify"})
        if unknown:
            raise ConfigurationError(
                f"serving config artifact options have unknown keys {unknown}"
            )
        engine = _opt_str(data.get("engine"))
        provider = data.get("provider")
        if provider == "none":
            engine = "numpy"
        elif provider not in (None, "cc"):
            raise ConfigurationError(
                f"unknown fused provider {provider!r} in serving config payload; "
                "expected 'cc', 'none' or null"
            )
        _check_legacy_dtype(data)
        _check_legacy_backend(sharding)
        _check_legacy_provisioning(sharding)
        _check_legacy_mmap(artifact)
        return cls(
            engine=engine,
            sharding=ShardingSpec(
                shards=_opt_int(sharding.get("shards")),
                remote_workers=_opt_str(sharding.get("remote_workers")),
            ),
            artifact=ArtifactOptions(
                verify=artifact.get("verify", False),  # type: ignore[arg-type]
            ),
        )

    # ------------------------------------------------------------------ #
    # derivation helpers
    # ------------------------------------------------------------------ #
    def evolve(self, **changes: object) -> "ServingConfig":
        """A copy with top-level fields replaced (validates the result)."""
        return replace(self, **changes)

    def with_overrides(self, overrides: Mapping[str, object]) -> "ServingConfig":
        """Apply flat, CLI-style field overrides on top of this config.

        ``overrides`` maps flat knob names — ``engine``, ``shards``,
        ``remote_workers``, ``verify`` — to values; keys that are absent keep this config's value, which is what
        gives CLI flags field-wise precedence over an artifact-embedded
        config.  Overriding any sharding field replaces the *whole* sharding
        spec (a ``--shards 4`` override must not inherit a stale remote
        address list from the artifact).
        """
        removed = sorted(set(overrides) & set(_REMOVED_OVERRIDES))
        if removed:
            raise ConfigurationError(
                f"serving config override {removed[0]!r} was removed: "
                + _REMOVED_OVERRIDES[removed[0]]
            )
        unknown = sorted(
            set(overrides) - {"engine", "shards", "remote_workers", "verify"}
        )
        if unknown:
            raise ConfigurationError(f"unknown serving config overrides {unknown}")
        config = self
        if "engine" in overrides:
            config = replace(config, engine=_opt_str(overrides["engine"]))
        if "shards" in overrides or "remote_workers" in overrides:
            config = replace(
                config,
                sharding=ShardingSpec(
                    shards=_opt_int(overrides.get("shards")),
                    remote_workers=_opt_str(overrides.get("remote_workers")),
                ),
            )
        if "verify" in overrides:
            config = replace(
                config,
                artifact=ArtifactOptions(verify=overrides["verify"]),  # type: ignore[arg-type]
            )
        return config

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def resolve(
        self,
        *,
        metric: str = "euclidean",
        strict: bool = True,
    ) -> "ServingPlan":
        """Resolve this config against the current host into a :class:`ServingPlan`.

        All environment-dependent decisions happen here, under one policy:

        * the engine request (``None`` → :data:`~repro.core.kernels.DEFAULT_ENGINE`)
          is resolved to a concrete ``"numpy"`` / ``"fused"`` via
          :func:`repro.core.kernels.resolve_engine` — ``strict=True`` raises
          :class:`~repro.exceptions.ConfigurationError` when a ``"fused"``
          request has no kernel for ``metric``; ``strict=False``
          degrades to numpy (the hot-path / worker-side policy);
        * a sharded plan runs on the ``"remote"`` backend when the spec
          lists worker addresses (one worker per address) and on the
          ``"serial"`` backend (one worker) otherwise.
        """
        requested = self.engine if self.engine is not None else kernels.DEFAULT_ENGINE
        resolved = kernels.resolve_engine(requested, metric=metric, strict=strict)
        sharding = self.sharding
        backend: Optional[str] = None
        workers: Optional[int] = None
        remote_workers: Tuple[str, ...] = ()
        if sharding.remote_workers is not None:
            remote_workers = _parse_remote_workers(sharding.remote_workers)
            backend, workers = "remote", len(remote_workers)
        elif sharding.enabled:
            backend, workers = "serial", 1
        return ServingPlan(
            config=self,
            engine_requested=requested,
            engine=resolved,
            n_shards=sharding.shards,
            backend=backend,
            workers=workers,
            remote_workers=remote_workers,
            verify=self.artifact.verify,
        )


# --------------------------------------------------------------------------- #
# the resolved plan
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServingPlan:
    """A :class:`ServingConfig` resolved against one host.

    Every field is concrete: the engine is ``"numpy"`` or ``"fused"``,
    worker counts are integers, remote
    addresses are parsed.  The plan is still a passive value object —
    :meth:`build_backend` constructs the live executor.
    """

    config: ServingConfig
    engine_requested: str
    engine: str
    n_shards: Optional[int]
    backend: Optional[str]
    workers: Optional[int]
    remote_workers: Tuple[str, ...]
    verify: bool

    @property
    def sharded(self) -> bool:
        return bool(self.n_shards)

    def to_dict(self) -> Dict[str, object]:
        """Resolved-plan provenance (JSON-compatible; used by stats/inspect)."""
        return {
            "engine_requested": self.engine_requested,
            "engine": self.engine,
            "sharded": self.sharded,
            "n_shards": self.n_shards,
            "backend": self.backend,
            "workers": self.workers,
            "remote_workers": list(self.remote_workers),
            "verify": self.verify,
        }

    def build_backend(self) -> "Optional[ShardBackend]":
        """Construct the live :class:`~repro.serving.backends.ShardBackend`.

        The single place a declarative plan becomes a running executor:
        ``load_bundle``, ``GhsomDetector.configure`` and the CLI all come
        through here, so backend-construction policy cannot drift between
        layers.  Returns ``None`` for an unsharded plan.
        """
        if not self.sharded:
            return None
        if self.backend == "remote":
            from repro.serving.remote import RemoteBackend

            return RemoteBackend(list(self.remote_workers))
        from repro.serving.backends import SerialBackend

        return SerialBackend()

    def describe(self) -> Dict[str, object]:
        """Plan provenance plus host diagnostics (the ``inspect`` view)."""
        summary = self.to_dict()
        summary["usable_cores"] = usable_workers()
        summary["default_engine"] = kernels.DEFAULT_ENGINE
        return summary


# --------------------------------------------------------------------------- #
# precedence
# --------------------------------------------------------------------------- #
def effective_config(
    *,
    config: Optional[ServingConfig] = None,
    overrides: Optional[Mapping[str, object]] = None,
    embedded: Optional[Mapping[str, object]] = None,
) -> ServingConfig:
    """The one precedence rule: caller config > overrides > embedded > default.

    ``config`` (a full :class:`ServingConfig`) wins wholesale when given.
    Otherwise the artifact-``embedded`` payload (or the library default when
    absent) is the base and the flat ``overrides`` mapping — CLI flags the
    operator actually passed — is applied field-wise on top.
    """
    if config is not None:
        if not isinstance(config, ServingConfig):
            raise ConfigurationError(
                f"config must be a ServingConfig, got {type(config).__name__}"
            )
        if overrides:
            raise ConfigurationError(
                "pass either a full ServingConfig or field overrides, not both"
            )
        return config
    base = ServingConfig() if embedded is None else ServingConfig.from_dict(embedded)
    if overrides:
        base = base.with_overrides(overrides)
    return base


# --------------------------------------------------------------------------- #
# serving observability
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServingStats:
    """Per-batch serving observability attached to ``DetectionResult.stats``.

    Timings are wall-clock seconds per stage: ``ingest`` (validation and
    the one conversion to a float64 matrix), ``route`` (the sharded router's
    root distance+argmin; zero on the unsharded engine, which fuses routing
    into the descent), ``descend`` (the tree descent itself) and ``merge``
    (score folding, label resolution and — when sharded — scattering shard
    results back into input order).  ``plan`` carries the resolved
    :meth:`ServingPlan.to_dict` provenance so a consumer can tell *how* the
    batch executed, not just how long it took.
    """

    n_records: int
    engine: str
    sharded: bool
    ingest_s: float
    route_s: float
    descend_s: float
    merge_s: float
    total_s: float
    plan: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_records": self.n_records,
            "engine": self.engine,
            "sharded": self.sharded,
            "ingest_s": self.ingest_s,
            "route_s": self.route_s,
            "descend_s": self.descend_s,
            "merge_s": self.merge_s,
            "total_s": self.total_s,
            "plan": self.plan,
        }
