"""RPL006 good: the native kernel reached through the repro.core.kernels seam."""

from repro.core import kernels


def run(shard, matrix, entries):
    if not kernels.fused_available():
        return shard.assign_arrays(matrix)
    return kernels.fused_descent(shard, matrix, entries)
