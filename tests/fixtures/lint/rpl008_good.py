"""RPL008 good: blocking work goes to the event loop's default executor."""

import asyncio

from repro.serving import ServingConfig


async def run_all(shards, tasks):
    backend = ServingConfig(shards=4).build_backend()
    try:
        return await asyncio.get_running_loop().run_in_executor(
            None, backend.run, shards, tasks
        )
    finally:
        backend.close()
