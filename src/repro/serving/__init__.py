"""Sharded serving on the compiled flat arrays.

A fitted GHSOM is naturally partitionable: after the root-level BMU step a
sample's whole descent happens inside the subtree hanging off its root unit,
so the subtrees are independent **shards**.  This package turns that property
into a serving subsystem:

* :mod:`repro.serving.planner` — discovers the root subtrees of a
  :class:`~repro.core.compiled.CompiledGhsom` (adjacent contiguous slices of
  the flat arrays) and cuts them into ``K`` contiguous, balanced shards;
* :mod:`repro.serving.shards` — materialises each shard as one slice of
  every array (codebook, local topology, leaf-table segment, per-leaf
  scoring tables, global-leaf-row remap) that can score its sub-batches
  without the rest of the tree;
* :mod:`repro.serving.backends` — the shard-executor seam and the serial
  backend, which runs the shards in the calling thread;
* :mod:`repro.serving.router` — :class:`ShardedGhsom`, which runs the root
  distance + argmin once, dispatches each sub-batch to its shard, and merges
  results back into input order;
* :mod:`repro.serving.transport` / :mod:`repro.serving.remote` — the
  distributed tier: a framed TCP protocol with multiplexed per-worker
  connections, :class:`RemoteBackend` (ships shard tasks to workers on other
  hosts, provisioning each worker by reference when it holds the same
  sidecar and by value otherwise, with local failover) and :class:`ShardWorkerServer` (the ``repro-ids shard-worker``
  process);
* :mod:`repro.serving.gateway` — the async front door:
  :class:`DetectionGateway` (an asyncio TCP server that serves concurrent
  ``detect`` requests as single
  :meth:`~repro.core.detector.GhsomDetector.detect` calls, each batch being
  whatever queued while the previous one ran — the ``repro-ids serve``
  process) and :class:`GatewayClient` (a multiplexed
  client whose answers are byte-identical to calling ``detect`` directly);
* :mod:`repro.serving.config` — the serving configuration:
  :class:`ServingConfig` (one flat, frozen, versioned, JSON-round-trippable
  value — ``shards``, ``remote_workers``, ``verify`` — embedded in v2+
  artifacts; :meth:`ServingConfig.build_backend` is the only constructor of
  a live backend, and :meth:`ServingConfig.provenance` the one record of how
  this host serves, with the host's engine) and :class:`ServingStats`
  (per-batch stage timings on ``DetectionResult.stats``).

The merged output is **byte-identical** to the unsharded engine: the
router replicates the root step of :meth:`CompiledGhsom.assign_arrays`
exactly, and shards descend via the same
:func:`~repro.core.compiled.frontier_descent` loop the unsharded engine uses
(see ``tests/test_serving_sharded.py`` for the property tests enforcing it).
"""

from repro.serving.backends import SerialBackend, ShardBackend
from repro.serving.config import (
    CONFIG_VERSION,
    ServingConfig,
    ServingStats,
    effective_config,
    usable_workers,
)
from repro.serving.gateway import DetectionGateway, GatewayClient, GatewayResult
from repro.serving.planner import (
    RootSubtree,
    ShardPlan,
    plan_shards,
    subtrees_from_compiled,
)
from repro.serving.remote import RemoteBackend, ShardWorkerServer
from repro.serving.router import ShardedGhsom
from repro.serving.shards import SubtreeShard, build_shards
from repro.serving.transport import (
    PROTOCOL_VERSION,
    TransportError,
    WorkerConnection,
    parse_address,
)

__all__ = [
    "ServingConfig",
    "ServingStats",
    "effective_config",
    "usable_workers",
    "CONFIG_VERSION",
    "ShardBackend",
    "SerialBackend",
    "RemoteBackend",
    "ShardWorkerServer",
    "DetectionGateway",
    "GatewayClient",
    "GatewayResult",
    "WorkerConnection",
    "TransportError",
    "PROTOCOL_VERSION",
    "parse_address",
    "RootSubtree",
    "ShardPlan",
    "plan_shards",
    "subtrees_from_compiled",
    "SubtreeShard",
    "build_shards",
    "ShardedGhsom",
]
