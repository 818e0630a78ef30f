"""The serving configuration: one flat :class:`ServingConfig`.

Every serving knob lives in one object; the loaders (``config=`` /
``overrides=``), ``GhsomDetector.configure`` and the CLI flag block all go
through it.  This module holds it and its companions:

:class:`ServingConfig`
    A frozen description of how a model is served — ``shards``,
    ``remote_workers`` and ``verify``.  It validates strictly on
    construction, round-trips through JSON (``to_dict`` / ``from_dict``,
    versioned) and embeds in v2/v3 model artifacts.  The fields never touch
    the environment: a config built on one host means exactly the same
    thing on another.  :meth:`ServingConfig.build_backend` is the one
    constructor of live :class:`~repro.serving.backends.ShardBackend`
    instances, and :meth:`ServingConfig.provenance` the one record of how
    this host serves under the config (the backend follows from the
    addresses; the compute engine is the host's,
    :func:`repro.core.kernels.host_engine`, and not a setting).

:class:`ServingStats`
    Uniform per-batch serving observability attached to
    :class:`~repro.core.detector.DetectionResult` by ``GhsomDetector.detect``:
    per-stage timings (ingest / route / descend / merge) plus the config's
    provenance, so gateways and fleet tooling can see how a batch was
    actually executed without instrumenting the layers themselves.

Precedence, everywhere a config can come from more than one place (the CLI,
an artifact, library defaults): **explicit caller config > CLI-style field
overrides > artifact-embedded config > library default** — see
:func:`effective_config`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.config import as_integer
from repro.exceptions import ConfigurationError, ServingError

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
    "engine": (
        "the engine is the host's: the fused kernel where it loaded, numpy elsewhere"
    ),
}

#: ``provisioning`` values payloads written before remote provisioning had
#: one policy may carry.  Each reads as that one policy.
_LEGACY_PROVISIONING = ("auto", "reference", "value")

#: ``engine`` and ``provider`` values payloads written while the compute
#: engine was a setting may carry.
_LEGACY_ENGINES = ("numpy", "fused", "auto")
_LEGACY_PROVIDERS = ("cc", "none")


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
    """Normalise a ``HOST:PORT[,HOST:PORT...]`` spec into address strings.

    An IPv6 host keeps its brackets, so the normalised spec parses again.  A
    malformed address is a configuration error.
    """
    from repro.serving.transport import parse_address

    addresses: List[str] = []
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            host, port = parse_address(part)
        except ServingError as exc:
            raise ConfigurationError(str(exc)) from exc
        addresses.append(f"[{host}]:{port}" if ":" in host else f"{host}:{port}")
    return tuple(addresses)


def _opt_int(value: object, name: str) -> Optional[int]:
    """``None`` passes through; otherwise :func:`~repro.core.config.as_integer`.

    Range validation stays in ``ServingConfig.__post_init__``.
    """
    return None if value is None else as_integer(value, name)


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
    workers = _opt_int(sharding.get("workers"), "workers")
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


def _check_legacy_engine(data: Mapping[str, object]) -> None:
    """Refuse the ``engine``/``provider`` values older readers refused.

    Payloads written while the compute engine was a setting carry an
    ``engine`` key, and older ones a fused-kernel ``provider``.  The engine
    is now the host's, so both are ignored, but an unknown provider or
    engine name is still rejected.  A ``"none"`` provider pinned the numpy
    engine whatever the engine said, so under it the engine is not checked.
    """
    provider = data.get("provider")
    if provider not in (None, *_LEGACY_PROVIDERS):
        raise ConfigurationError(
            f"unknown fused provider {provider!r} in serving config payload; "
            "expected 'cc', 'none' or null"
        )
    engine = _opt_str(data.get("engine"))
    if provider != "none" and engine is not None and engine not in _LEGACY_ENGINES:
        raise ConfigurationError(
            f"unknown compute engine {engine!r}; expected one of {_LEGACY_ENGINES}"
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
# the config
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServingConfig:
    """How a model is served: three settable values, validated on construction.

    Attributes
    ----------
    shards:
        Number of root-subtree shards, or ``None`` for the unsharded engine.
        The shards run serially in this process unless ``remote_workers`` is
        set.
    remote_workers:
        ``"HOST:PORT[,HOST:PORT...]"`` shard-worker addresses, one
        ``repro-ids shard-worker`` per address; setting them selects the
        remote backend.  Each worker gets the shard set by reference when it
        holds the coordinator's sidecar, by value otherwise (see
        :class:`~repro.serving.remote.RemoteBackend`).
    verify:
        Check a v3 sidecar's SHA-256 against the integrity header at load
        (reads the whole file).  The sidecar is always memory-mapped.

    Environment-independent by design: equality is field-wise, so "same
    serving intent" compares equal across processes and hosts — the
    property the artifact-embedding and remote-provisioning paths rely on.
    The host enters only the provenance (:meth:`provenance`).
    """

    shards: Optional[int] = None
    remote_workers: Optional[str] = None
    verify: bool = False

    def __post_init__(self) -> None:
        shards = _opt_int(self.shards, "shards")
        if shards is not None and shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {shards}")
        object.__setattr__(self, "shards", shards)
        if self.remote_workers is not None:
            if not shards:
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
        # Payload flags must be real bools: ``bool("false")`` is True.
        if not isinstance(self.verify, (bool, np.bool_)):
            raise ConfigurationError(
                f"artifact option verify must be a bool, got {self.verify!r}"
            )
        object.__setattr__(self, "verify", bool(self.verify))

    # ------------------------------------------------------------------ #
    # JSON round trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible payload; exact inverse of :meth:`from_dict`."""
        return {
            "config_version": CONFIG_VERSION,
            "sharding": {"shards": self.shards, "remote_workers": self.remote_workers},
            "artifact": {"verify": self.verify},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ServingConfig":
        """Rebuild a config from :meth:`to_dict` output (strictly validated).

        Payloads written while the compute engine was a setting carry
        ``engine`` and ``provider``: see :func:`_check_legacy_engine`.
        Payloads written before the pool backends were removed may carry
        ``backend`` and ``workers``: see
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
        _check_legacy_engine(data)
        _check_legacy_dtype(data)
        _check_legacy_backend(sharding)
        _check_legacy_provisioning(sharding)
        _check_legacy_mmap(artifact)
        return cls(
            shards=sharding.get("shards"),  # type: ignore[arg-type]
            remote_workers=_opt_str(sharding.get("remote_workers")),
            verify=artifact.get("verify", False),  # type: ignore[arg-type]
        )

    def with_overrides(self, overrides: Mapping[str, object]) -> "ServingConfig":
        """Apply flat, CLI-style field overrides on top of this config.

        ``overrides`` maps field names — ``shards``, ``remote_workers``,
        ``verify`` — to values; keys that are absent keep this config's
        value, which is what gives CLI flags field-wise precedence over an
        artifact-embedded config.  Overriding either sharding field replaces
        *both* (a ``--shards 4`` override must not inherit a stale remote
        address list from the artifact).
        """
        removed = sorted(set(overrides) & set(_REMOVED_OVERRIDES))
        if removed:
            raise ConfigurationError(
                f"serving config override {removed[0]!r} was removed: "
                + _REMOVED_OVERRIDES[removed[0]]
            )
        unknown = sorted(set(overrides) - {"shards", "remote_workers", "verify"})
        if unknown:
            raise ConfigurationError(f"unknown serving config overrides {unknown}")
        changes: Dict[str, Any] = dict(overrides)
        if "shards" in overrides or "remote_workers" in overrides:
            changes.setdefault("shards", None)
            changes.setdefault("remote_workers", None)
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # what the config means on this host
    # ------------------------------------------------------------------ #
    def build_backend(self) -> "Optional[ShardBackend]":
        """Construct the live :class:`~repro.serving.backends.ShardBackend`.

        The one place a config becomes a running executor: ``load_bundle``,
        ``GhsomDetector.configure`` and the CLI all come through here.
        ``remote_workers`` gives a :class:`~repro.serving.remote.RemoteBackend`
        (one worker per address), ``shards`` alone a
        :class:`~repro.serving.backends.SerialBackend`, and an unsharded
        config ``None``.
        """
        if self.remote_workers is not None:
            from repro.serving.remote import RemoteBackend

            return RemoteBackend(self.remote_workers)
        if self.shards:
            from repro.serving.backends import SerialBackend

            return SerialBackend()
        return None

    @cached_property
    def _provenance(self) -> Dict[str, Any]:
        remote = self.remote_workers.split(",") if self.remote_workers else []
        backend, workers = ("remote", len(remote)) if remote else ("serial", 1)
        sharded = bool(self.shards)
        return {
            "engine": kernels.host_engine(),
            "sharded": sharded,
            "n_shards": self.shards,
            "backend": backend if sharded else None,
            "workers": workers if sharded else None,
            "remote_workers": remote,
            "verify": self.verify,
        }

    def provenance(self, *, usable_cores: bool = False) -> Dict[str, object]:
        """How this host serves under this config (JSON-compatible).

        The one provenance dict: ``DetectionResult.stats.plan``, the CLI
        banners, ``inspect`` and the gateway handshake all show it.  The
        engine is the host's (:func:`repro.core.kernels.host_engine`), the
        backend follows from the addresses and ``workers`` is the address
        count (1 for serial shards).  It is built once per config and
        copied per call; ``usable_cores=True`` adds the host's usable core
        count (the ``inspect`` and handshake view).
        """
        summary = dict(self._provenance)
        summary["remote_workers"] = list(self._provenance["remote_workers"])
        if usable_cores:
            summary["usable_cores"] = usable_workers()
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
    results back into input order).  ``plan`` carries
    :meth:`ServingConfig.provenance` so a consumer can tell *how* the batch
    executed, not just how long it took.
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
