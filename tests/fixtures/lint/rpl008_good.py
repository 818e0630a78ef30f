"""RPL008 good: pooling goes through ServingPlan.build_backend (sizing + lifecycle policy)."""

from repro.serving import ServingConfig, ShardingSpec


def run_all(shards, tasks):
    config = ServingConfig(sharding=ShardingSpec(shards=4, backend="thread", workers=4))
    backend = config.resolve().build_backend()
    try:
        return backend.run(shards, tasks)
    finally:
        backend.close()
