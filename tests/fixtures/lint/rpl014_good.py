"""RPL014 good: executor callables hand results back thread-safely."""

import asyncio


class Bridge:
    def __init__(self, loop):
        self._done = asyncio.Event()
        self._loop = loop

    def kick(self):
        self._loop.run_in_executor(None, self._work)

    def _work(self):
        self._loop.call_soon_threadsafe(self._done.set)
