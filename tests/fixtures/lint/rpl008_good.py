"""RPL008 good: blocking work goes to the event loop's default executor."""

import asyncio

from repro.serving import ServingConfig, ShardingSpec


async def run_all(shards, tasks):
    backend = ServingConfig(sharding=ShardingSpec(shards=4)).resolve().build_backend()
    try:
        return await asyncio.get_running_loop().run_in_executor(
            None, backend.run, shards, tasks
        )
    finally:
        backend.close()
