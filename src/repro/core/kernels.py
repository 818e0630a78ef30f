"""Fused distance+argmin descent kernel and the host's compute engine.

The numpy engine in :func:`repro.core.compiled.frontier_descent` materialises a
full ``(pending, units)`` squared-distance matrix per node per level (one BLAS
GEMM plus four elementwise passes) and then argmins it in a second memory
pass.  For the shallow-wide trees this library serves, most of that time is
memory traffic over temporaries, not arithmetic.

The *fused* engine here performs the whole descent in one pass: per sample,
distance accumulation and the running argmin stay in registers — no ``(n, u)``
temporary, no second argmin pass, no per-level Python loop.  It is a small
C kernel compiled on first use with the system C compiler and loaded through
:mod:`ctypes`.  The codebook is repacked once per model into a
lane-transposed layout (units across SIMD lanes, padded to the vector width)
so the hot loop is a register-tiled run of 8-samples x lane-chunk fused
multiply-adds with a vectorised running argmin.  Measured ~2-4x over the
numpy engine single-core.  A :class:`FusedPlan` binds each model once: the
repacked codebook and the topology stay alive in the plan and cross into C as
plain addresses, so a call builds no pointer object for them.

The same library carries :func:`ewma_update`, the recurrence of the streaming
score EWMA (:meth:`repro.streaming.window.EwmaEstimator.update_many` calls it
on fused hosts).  It is built without FMA contraction and runs under the
caller's floating-point mode, so it is bit-identical to the Python loop that
folds the EWMA elsewhere.

The kernel is *optional*.  It is built once per host for ``x86-64-v4``
(the AVX-512 level: built for AVX2, the same kernel is about 2x slower than
numpy) and cached under ``<tempdir>/repro-kernels-<uid>``, a mode-0700
directory that is used only while it belongs to the current user and is not
group- or world-writable; a cache miss compiles to a temporary name there and
renames it into place.  When that directory cannot be trusted, the kernel is
built in a fresh private directory that is removed once the library is
loaded.  When the build fails (no compiler, a non-x86 toolchain, a platform
whose ``np.intp`` is not 64-bit) or the CPU does not report ``avx512f``,
:func:`fused_available` is false, :func:`fused_build_error` says why, and the
host runs the numpy engine: no warnings, no hard dependency.

Which engine runs is a fact about the host, decided once per process by
:func:`host_engine`: ``"fused"`` where the kernel loaded, ``"numpy"``
elsewhere.  The fused engine is preferred because it is both faster and
*batch-invariant*: a sample's score does not depend on which other rows
share its batch, so chunked, one-row, sharded and whole-batch scoring agree
bit for bit.  The numpy engine is not (BLAS blocks the distance product
differently per batch size, ~1e-13 relative); it stays the reference the
fused engine is tested against.  Leaf assignments match exactly on
non-degenerate data and distances agree within :data:`FUSED_DISTANCE_RTOL`.
Both engines compute in float64, the one serving precision, and both report
the Euclidean distance at the landing unit: the square root of the clamped
expanded squared distance the argmin picked.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
import weakref
from dataclasses import dataclass
from typing import Any, Iterator, Optional, Tuple

import numpy as np

from repro._typing import AnyArray
from repro.exceptions import ConfigurationError

#: Relative distance tolerance of the fused engine against the numpy engine.
#: Measured drift is ~1e-13; the documented gates leave headroom for other
#: BLAS builds.  Leaf assignments are required to match exactly (ties broken
#: identically: both engines pick the lowest unit index among minimal
#: distances).
FUSED_DISTANCE_RTOL = 1e-9

_lock = threading.Lock()


# --------------------------------------------------------------------------- #
# the host's engine
# --------------------------------------------------------------------------- #
def host_engine() -> str:
    """The engine this process scores with: ``"fused"`` or ``"numpy"``.

    ``"fused"`` when the kernel loaded and the CPU reports AVX-512F (see
    :func:`fused_available`), ``"numpy"`` otherwise.  The probe runs once per
    process, so every caller sees the same answer.
    """
    return "fused" if fused_available() else "numpy"


def fused_available() -> bool:
    """Whether the fused C kernel loaded and the CPU reports AVX-512F.

    The probe runs once per process, on the first call; the build runs once
    per cache directory.
    """
    return _cc_library()[0] is not None


def fused_build_error() -> str:
    """Why the fused C kernel is unavailable here (``""`` when it loaded)."""
    return _cc_library()[1]


# --------------------------------------------------------------------------- #
# lane-transposed kernel plans
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FusedPlan:
    """One model's codebook repacked for the fused kernel, bound once.

    ``tcodebook`` holds, per node, the node's codebook transposed to
    ``(d, padded_units)`` with the unit axis padded to the SIMD lane count and
    flattened; ``tnorms`` carries ``|w|^2`` in the same lane layout with the
    padding set to a huge value so padded lanes never win the argmin.  The
    plan also holds the owner's topology as C-contiguous int64 arrays, and
    ``addresses`` holds the addresses of all eight model-constant arrays in
    the kernel's argument order: the plan keeps them alive, so a descent
    passes them as plain integers instead of building a pointer object per
    array per call.  Built once per compiled model (or shard) and cached on
    the owning object by weak reference — repacking touches every codebook
    page once, the per-batch hot path never copies it again.
    """

    tcodebook: AnyArray  # flat, lane-transposed per-node blocks
    toffsets: AnyArray  # (n_nodes,) start of each node's block in tcodebook
    tnorm_offsets: AnyArray  # (n_nodes,) start of each node's lane-norm run
    punits: AnyArray  # (n_nodes,) padded unit count per node
    tnorms: AnyArray  # lane-layout |w|^2 with huge padding
    node_offsets: AnyArray  # (n_nodes + 1,) int64, the owner's topology
    child_of_unit: AnyArray  # (units,) int64
    leaf_of_unit: AnyArray  # (units,) int64
    addresses: Tuple[int, ...]  # the eight arrays above, in argument order
    n_features: int

    @property
    def n_nodes(self) -> int:
        return int(self.node_offsets.shape[0]) - 1


_plan_cache: "weakref.WeakKeyDictionary[Any, FusedPlan]" = weakref.WeakKeyDictionary()

#: Units per lane chunk: one 512-bit vector of doubles.  Narrower ISAs simply
#: split the lane group across two or four hardware vectors.
_LANES = 8


def fused_plan(owner: Any) -> FusedPlan:
    """The (cached) lane-transposed plan for a compiled model or shard.

    ``owner`` is anything exposing the flat-array hierarchy contract:
    ``codebook``, ``node_offsets`` and ``unit_norms`` attributes
    (:class:`~repro.core.compiled.CompiledGhsom` and
    :class:`~repro.serving.shards.SubtreeShard` both do).
    """
    try:
        plan = _plan_cache.get(owner)
    except TypeError:  # owner not weakref-able: build uncached
        plan = None
    if plan is not None:
        return plan
    codebook = np.asarray(owner.codebook)
    node_offsets = np.ascontiguousarray(owner.node_offsets, dtype=np.int64)
    unit_norms = np.asarray(owner.unit_norms)
    n_nodes = node_offsets.shape[0] - 1
    d = codebook.shape[1] if codebook.ndim == 2 else 0
    counts = node_offsets[1:] - node_offsets[:-1]
    punits = ((counts + _LANES - 1) // _LANES) * _LANES
    tnorm_offsets = np.zeros(n_nodes, dtype=np.int64)
    np.cumsum(punits[:-1], out=tnorm_offsets[1:])
    toffsets = tnorm_offsets * d
    total = int(punits.sum())
    tcodebook = _aligned(total * d, 0.0)
    tnorms = _aligned(total, 1e300)
    for node in range(n_nodes):
        start, stop = int(node_offsets[node]), int(node_offsets[node + 1])
        cnt = stop - start
        pu = int(punits[node])
        # Chunk-major lane layout: (pu // _LANES, d, _LANES) — each lane chunk
        # stores its d feature rows contiguously with units in the lanes, so
        # the kernel streams one chunk linearly per dot-product pass.
        padded = np.zeros((pu, d))
        padded[:cnt] = codebook[start:stop]
        block = tcodebook[int(toffsets[node]) : int(toffsets[node]) + d * pu]
        block.reshape(pu // _LANES, d, _LANES)[:] = (
            padded.reshape(pu // _LANES, _LANES, d).transpose(0, 2, 1)
        )
        norm_start = int(tnorm_offsets[node])
        tnorms[norm_start : norm_start + cnt] = unit_norms[start:stop]
    arrays = (
        tcodebook,
        toffsets,
        tnorm_offsets,
        punits.astype(np.int64, copy=False),
        tnorms,
        node_offsets,
        np.ascontiguousarray(owner.child_of_unit, dtype=np.int64),
        np.ascontiguousarray(owner.leaf_of_unit, dtype=np.int64),
    )
    plan = FusedPlan(*arrays, addresses=tuple(map(_address, arrays)), n_features=d)
    try:
        _plan_cache[owner] = plan
    except TypeError:
        pass
    return plan


def _aligned(size: int, fill: float) -> AnyArray:
    """``size`` float64 values set to ``fill``, starting on a 64-byte boundary.

    The kernel loads the lane codebook and lane norms one 64-byte vector at
    a time; numpy's allocator aligns to 16 bytes, and a vector load that
    straddles two cache lines made the whole descent about 1.3x slower.
    """
    buffer = np.empty(size + _LANES)
    start = -_address(buffer) % 64 // buffer.itemsize
    aligned = buffer[start : start + size]
    aligned.fill(fill)
    return aligned


# --------------------------------------------------------------------------- #
# the fused descent entry point
# --------------------------------------------------------------------------- #
def fused_descent(
    owner: Any,
    matrix: AnyArray,
    entry_nodes: Optional[AnyArray] = None,
) -> Tuple[AnyArray, AnyArray]:
    """Run the fused kernel over ``matrix`` (already validated, float64).

    Drop-in for :func:`repro.core.compiled.frontier_descent` output-wise:
    returns ``(leaf_index, distances)``.  ``owner`` supplies the flat arrays
    (and caches the kernel plan); ``entry_nodes`` holds each row's start
    node, and ``None`` starts every row at the root.  Callers check
    :func:`host_engine` first — without the kernel this raises.
    """
    if matrix.dtype != np.float64 or not matrix.flags["C_CONTIGUOUS"]:
        raise ConfigurationError(
            f"fused kernel unavailable for dtype={matrix.dtype}; "
            "it takes a C-contiguous float64 matrix"
        )
    lib = _library()
    plan = fused_plan(owner)
    n, d = matrix.shape
    # Every array whose address the kernel reads is bound to a name here,
    # so it outlives the call.
    entries = None if entry_nodes is None else np.ascontiguousarray(entry_nodes, dtype=np.int64)
    if d != plan.n_features or (entries is not None and entries.shape != (n,)):
        raise ConfigurationError(
            f"the fused kernel got {d} features and entry nodes of shape "
            f"{None if entries is None else entries.shape} for {n} rows of a "
            f"{plan.n_features}-feature model"
        )
    # |x|^2 per sample: the same row-wise einsum the numpy engine runs.
    snorms = np.einsum("ij,ij->i", matrix, matrix)
    leaf_index = np.empty(n, dtype=np.int64)
    distances = np.empty(n)
    scratch = np.empty(3 * n + plan.n_nodes + 1, dtype=np.int64)
    lib.fused_descent(
        _address(matrix), n, d, *plan.addresses,
        None if entries is None else _address(entries),
        _address(snorms), plan.n_nodes,
        _address(leaf_index), _address(distances), _address(scratch),
    )
    return leaf_index.astype(np.intp, copy=False), distances


def ewma_update(
    values: AnyArray, alpha: float, mean: float, variance: float
) -> Tuple[int, float, float]:
    """Fold ``values`` in order into an EWMA's ``(mean, variance)`` natively.

    The recurrence of :meth:`repro.streaming.window.EwmaEstimator.update_many`
    (whose Python loop is the oracle) in the same order of operations, built
    without FMA contraction and run under the caller's floating-point mode, so
    the result is bit-identical to the loop, subnormals and infinities
    included.  It stops before the first NaN value and returns how many
    values it folded with the new ``(mean, variance)``; the caller folds the
    rest.  Callers check :func:`host_engine` first — without the kernel this
    raises.
    """
    lib = _library()
    batch = np.ascontiguousarray(values, dtype=np.float64)
    if batch.ndim != 1:
        raise ConfigurationError(f"the EWMA folds a 1-D batch, got shape {batch.shape}")
    state = (ctypes.c_double * 2)(mean, variance)
    folded: int = lib.ewma_update(_address(batch), batch.shape[0], alpha, state)
    return folded, state[0], state[1]


def _address(array: AnyArray) -> int:
    """Where ``array``'s data starts; the caller keeps ``array`` alive."""
    address: int = array.__array_interface__["data"][0]
    return address


# --------------------------------------------------------------------------- #
# the kernel: compiled C via the system toolchain + ctypes
# --------------------------------------------------------------------------- #
#: The compiled-C kernel.  The vector comparison result type matches the
#: element width, so the index vector is int64x8 for the double lanes.  The
#: driver is level-synchronous: pending samples are counting-sorted by node
#: each level (stable, so rows stay ascending within a node), then each
#: node's run is processed in 8-sample register tiles; the remainder path
#: accumulates in the same per-lane order as the tile path, so results do not
#: depend on how a batch splits into tiles.
_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>
#include <string.h>

/* The CPU probe, asked before any kernel code runs.  It is built for the
   x86-64 baseline, so it executes no AVX-512 instruction on a CPU without
   them; the rest of the library is built for x86-64-v4. */
__attribute__((target("arch=x86-64")))
int64_t cpu_has_avx512f(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
}

/* A denormal operand costs every FMA touching it a microcode assist.  The
   kernel runs with flush-to-zero + denormals-are-zero during the descent
   (restoring the caller's MXCSR on exit): the induced drift is far inside
   the documented fused-engine tolerance. */
static inline uint32_t csr_get(void) { return __builtin_ia32_stmxcsr(); }
static inline void csr_set(uint32_t v) { __builtin_ia32_ldmxcsr(v); }
#define CSR_FTZ_DAZ 0x8040u

typedef double vec __attribute__((vector_size(64), aligned(8)));
typedef int64_t vidx __attribute__((vector_size(64), aligned(8)));
#define LANES 8
#define STILE 8

static inline vec vload(const double *p) {
    vec v; __builtin_memcpy(&v, p, sizeof v); return v;
}

/* running vector argmin update: strict less-than keeps the first minimum */
static inline void vargmin(
    vec d2, vidx idx, vec *best, vidx *besti)
{
    const vidx lt = d2 < *best;
    *best = (vec)(((vidx)d2 & lt) | ((vidx)*best & ~lt));
    *besti = (idx & lt) | (*besti & ~lt);
}

/* horizontal: global first-minimum = lowest stored index among lanes at the
   global minimum (each lane's stored index is already that lane's first) */
static inline void hargmin(
    vec best, vidx besti, double *out_best, int64_t *out_idx)
{
    double m = best[0];
    for (int u = 1; u < LANES; ++u) if (best[u] < m) m = best[u];
    int64_t bi = INT64_MAX;
    for (int u = 0; u < LANES; ++u)
        if (best[u] == m && besti[u] < bi) bi = besti[u];
    *out_best = m;
    *out_idx = bi;
}

static inline vidx lane_ramp(void) {
    vidx r;
    for (int u = 0; u < LANES; ++u) r[u] = u;
    return r;
}

/* one 8-sample tile against one node's lane-transposed codebook */
static void tile_node(
    const double *restrict x, const int64_t *restrict rows, int64_t d,
    const double *restrict wt, const double *restrict wn,
    const double *restrict snorms, int64_t pu,
    double *restrict best, int64_t *restrict bestu)
{
    vec bv[STILE];
    vidx iv[STILE];
    const vidx zi = {0};
    for (int s = 0; s < STILE; ++s) {
        for (int u = 0; u < LANES; ++u) bv[s][u] = INFINITY;
        iv[s] = zi;
    }
    const vidx ramp = lane_ramp();
    const double *x0 = x + rows[0] * d, *x1 = x + rows[1] * d;
    const double *x2 = x + rows[2] * d, *x3 = x + rows[3] * d;
    const double *x4 = x + rows[4] * d, *x5 = x + rows[5] * d;
    const double *x6 = x + rows[6] * d, *x7 = x + rows[7] * d;
    for (int64_t c = 0; c < pu; c += LANES) {
        const double *wc = wt + c * d;
        vec a0 = {0}, a1 = {0}, a2 = {0}, a3 = {0};
        vec a4 = {0}, a5 = {0}, a6 = {0}, a7 = {0};
        for (int64_t j = 0; j < d; ++j) {
            const vec w = vload(wc + j * LANES);
            a0 += x0[j] * w; a1 += x1[j] * w; a2 += x2[j] * w; a3 += x3[j] * w;
            a4 += x4[j] * w; a5 += x5[j] * w; a6 += x6[j] * w; a7 += x7[j] * w;
        }
        vec accs[STILE] = {a0, a1, a2, a3, a4, a5, a6, a7};
        const vec wnv = vload(wn + c);
        const vec zero = {0};
        const vidx idx = ramp + (int64_t)c;
        for (int s = 0; s < STILE; ++s) {
            vec d2 = accs[s] * (double)-2.0 + snorms[s] + wnv;
            const vidx pos = d2 > zero;     /* clamp |x-w|^2 at 0, like numpy */
            d2 = (vec)((vidx)d2 & pos);
            vargmin(d2, idx, &bv[s], &iv[s]);
        }
    }
    for (int s = 0; s < STILE; ++s)
        hargmin(bv[s], iv[s], &best[s], &bestu[s]);
}

/* one sample, same per-lane accumulation order as the tile path */
static void one_node(
    const double *restrict xi, int64_t d,
    const double *restrict wt, const double *restrict wn,
    double snorm, int64_t pu,
    double *restrict best, int64_t *restrict bestu)
{
    vec bv;
    vidx iv = {0};
    for (int u = 0; u < LANES; ++u) bv[u] = INFINITY;
    const vidx ramp = lane_ramp();
    for (int64_t c = 0; c < pu; c += LANES) {
        const double *wc = wt + c * d;
        vec acc = {0};
        for (int64_t j = 0; j < d; ++j)
            acc += xi[j] * vload(wc + j * LANES);
        vec d2 = acc * (double)-2.0 + snorm + vload(wn + c);
        const vec zero = {0};
        const vidx pos = d2 > zero;
        d2 = (vec)((vidx)d2 & pos);
        vargmin(d2, ramp + (int64_t)c, &bv, &iv);
    }
    hargmin(bv, iv, best, bestu);
}

void fused_descent(
    const double *restrict x, int64_t n, int64_t d,
    const double *restrict tcodebook,
    const int64_t *restrict toffsets,
    const int64_t *restrict tnorm_offsets,
    const int64_t *restrict punits,
    const double *restrict tnorms,
    const int64_t *restrict node_offsets,
    const int64_t *restrict child_of_unit,
    const int64_t *restrict leaf_of_unit,
    const int64_t *restrict entry_nodes /* NULL: every row at the root */,
    const double *restrict snorms,
    int64_t n_nodes,
    int64_t *restrict leaf_index, double *restrict distances,
    int64_t *restrict scratch /* 3*n + n_nodes + 1 */)
{
    int64_t *pending = scratch;
    int64_t *pnode = scratch + n;
    int64_t *grouped = scratch + 2 * n;
    int64_t *counts = scratch + 3 * n;
    int64_t npend = n;
    const uint32_t saved_csr = csr_get();
    csr_set(saved_csr | CSR_FTZ_DAZ);
    for (int64_t i = 0; i < n; ++i) {
        pending[i] = i;
        pnode[i] = entry_nodes ? entry_nodes[i] : 0;   /* NULL: all at the root */
    }

    while (npend > 0) {
        /* stable counting sort of pending rows by node */
        memset(counts, 0, (size_t)(n_nodes + 1) * sizeof(int64_t));
        for (int64_t i = 0; i < npend; ++i) counts[pnode[i] + 1]++;
        for (int64_t k = 0; k < n_nodes; ++k) counts[k + 1] += counts[k];
        for (int64_t i = 0; i < npend; ++i) grouped[counts[pnode[i]]++] = pending[i];
        /* counts[k] is now the end of node k's run */
        int64_t out = 0;
        int64_t run_start = 0;
        for (int64_t node = 0; node < n_nodes; ++node) {
            const int64_t run_stop = counts[node];
            if (run_stop == run_start) continue;
            const int64_t pu = punits[node];
            const double *wt = tcodebook + toffsets[node];
            const double *wn = tnorms + tnorm_offsets[node];
            const int64_t ustart = node_offsets[node];
            int64_t i = run_start;
            for (; i + STILE <= run_stop; i += STILE) {
                const int64_t *rows = grouped + i;
                double best[STILE];
                int64_t bestu[STILE];
                double sn[STILE];
                for (int s = 0; s < STILE; ++s) sn[s] = snorms[rows[s]];
                tile_node(x, rows, d, wt, wn, sn, pu, best, bestu);
                for (int s = 0; s < STILE; ++s) {
                    const int64_t gu = ustart + bestu[s];
                    const int64_t child = child_of_unit[gu];
                    const int64_t row = rows[s];
                    if (child >= 0) {
                        pending[out] = row; pnode[out] = child; ++out;
                    } else {
                        leaf_index[row] = leaf_of_unit[gu];
                        distances[row] = sqrt(best[s]);
                    }
                }
            }
            for (; i < run_stop; ++i) {
                const int64_t row = grouped[i];
                double best;
                int64_t bestu;
                one_node(
                    x + row * d, d, wt, wn, snorms[row], pu, &best, &bestu);
                const int64_t gu = ustart + bestu;
                const int64_t child = child_of_unit[gu];
                if (child >= 0) {
                    pending[out] = row; pnode[out] = child; ++out;
                } else {
                    leaf_index[row] = leaf_of_unit[gu];
                    distances[row] = sqrt(best);
                }
            }
            run_start = run_stop;
        }
        npend = out;
    }
    csr_set(saved_csr);
}

/* The EWMA recurrence of EwmaEstimator.update_many, value by value in the
   Python loop's order of operations.  Contracting a multiply-add into one
   FMA rounds once instead of twice, so contraction is off under both
   compilers the builder may pick (gcc would otherwise emit vfmadd here),
   and the caller's MXCSR stays as it is (no FTZ/DAZ): subnormals and
   infinities come out as Python computes them, bit for bit.  It stops
   before the first NaN value and returns how many values it folded: which
   of two NaN operands an addition passes on depends on how the compiler
   ordered them, so NaN inputs are left to the Python loop.  state is
   {mean, variance} in and out; the mean is already initialised. */
#if defined(__clang__)
#define NO_FP_CONTRACT
#else
#define NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#endif
NO_FP_CONTRACT
int64_t ewma_update(
    const double *restrict values, int64_t n, double alpha, double *restrict state)
{
#if defined(__clang__)
#pragma clang fp contract(off)
#endif
    const double decay = 1.0 - alpha;
    double mean = state[0];
    double variance = state[1];
    int64_t i = 0;
    for (; i < n && !isnan(values[i]); ++i) {
        const double delta = values[i] - mean;
        mean = mean + alpha * delta;
        variance = decay * (variance + alpha * delta * delta);
    }
    state[0] = mean;
    state[1] = variance;
    return i;
}
"""


#: The one build.  Naming the ISA level (x86-64-v4: AVX-512F/BW/CD/DQ/VL)
#: instead of ``native`` makes a cached library mean the same code on every
#: AVX-512 host; elsewhere the kernel is slower than numpy, so it is not used.
_CFLAGS = ("-O3", "-march=x86-64-v4", "-mprefer-vector-width=512", "-shared", "-fPIC")

#: The build's outcome, once probed: the loaded library (or ``None``) and
#: why the kernel is unavailable (``""`` when it loaded).
_cc_build: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


def _cc_library() -> Tuple[Optional[ctypes.CDLL], str]:
    """Load the C kernel (building it on a cache miss) once per process.

    Returns the library, or ``None`` with the reason it is unavailable.
    """
    global _cc_build
    if _cc_build is None:
        with _lock:
            if _cc_build is None:
                _cc_build = _build_cc_library()
    return _cc_build


def _compiler_candidates() -> Iterator[str]:
    override = os.environ.get("CC")
    if override:
        yield override
    yield from ("cc", "gcc", "clang")


def _cache_key(source: str, compiler_version: str, flags: Tuple[str, ...]) -> str:
    """Content address of a build: SHA-256 of the source, compiler and flags."""
    digest = hashlib.sha256()
    for part in (source, compiler_version, *flags):
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _private_cache_dir() -> Optional[str]:
    """This user's kernel cache directory, or ``None`` if it cannot be trusted.

    The directory is ``<tempdir>/repro-kernels-<uid>``, created with mode
    0700.  A directory owned by another user, or writable by the group or
    the world, could hold a library someone else planted: it is not used.
    """
    uid = os.getuid()
    path = os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")
    try:
        os.mkdir(path, 0o700)
    except FileExistsError:
        pass
    except OSError:
        return None
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode) or info.st_uid != uid or info.st_mode & 0o022:
        return None
    return path


def _compiler_version(compiler: str, build_dir: str) -> str:
    """``compiler --version`` (a path), remembered in ``build_dir`` per binary.

    Starting the compiler costs about as much as the rest of a warm load, so
    its output is kept next to the libraries under the binary's resolved
    path, size and mtime: an upgraded or re-pointed compiler is a new entry.
    """
    binary = os.path.realpath(compiler)
    info = os.stat(binary)
    identity = f"{binary}\0{info.st_size}\0{info.st_mtime_ns}".encode()
    memo = os.path.join(build_dir, f"compiler-{hashlib.sha256(identity).hexdigest()}.txt")
    try:
        with open(memo) as stream:
            return stream.read()
    except FileNotFoundError:
        pass
    version = subprocess.run(
        [compiler, "--version"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=60,
    ).stdout.decode(errors="replace")
    fd, tmp_path = tempfile.mkstemp(prefix="compiler-", suffix=".tmp", dir=build_dir)
    with os.fdopen(fd, "w") as stream:
        stream.write(version)
    os.replace(tmp_path, memo)
    return version


def _compile(compiler: str, build_dir: str, lib_path: str) -> str:
    """Build the kernel into ``lib_path``; returns the error (``""`` on success).

    The compiler writes a temporary name in ``build_dir`` that is then renamed
    into place, so a concurrent process never loads a half-written library.
    """
    fd, src_path = tempfile.mkstemp(prefix="kernels-", suffix=".c", dir=build_dir)
    tmp_lib = src_path[: -len(".c")] + ".tmp"
    try:
        with os.fdopen(fd, "w") as stream:
            stream.write(_C_SOURCE)
        result = subprocess.run(
            [compiler, *_CFLAGS, src_path, "-o", tmp_lib, "-lm"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=180,
        )
        if result.returncode != 0:
            return f"{compiler} failed: {result.stderr.decode(errors='replace')[:500]}"
        os.replace(tmp_lib, lib_path)
        return ""
    finally:
        for leftover in (src_path, tmp_lib):
            if os.path.exists(leftover):
                os.remove(leftover)


def _cpu_has_avx512f(lib: ctypes.CDLL) -> bool:
    """The library's CPU probe, built for the x86-64 baseline.

    It runs no AVX-512 instruction, so asking is safe on any x86-64 CPU.
    """
    return bool(lib.cpu_has_avx512f())


def _build_cc_library() -> Tuple[Optional[ctypes.CDLL], str]:
    if np.dtype(np.intp).itemsize != 8:
        return None, "np.intp is not 64-bit (the kernel exchanges indices as int64)"
    compiler = next(filter(None, map(shutil.which, _compiler_candidates())), None)
    if compiler is None:
        return None, "no C compiler on PATH (cc/gcc/clang)"
    try:
        cache_dir = _private_cache_dir()
        if cache_dir is not None:
            return _load_cc_library(compiler, cache_dir)
        # No trusted cache: build privately, and keep nothing once loaded
        # (the loaded library stays mapped after its file is removed).
        with tempfile.TemporaryDirectory(
            prefix="repro-kernels-", ignore_cleanup_errors=True
        ) as build_dir:
            return _load_cc_library(compiler, build_dir)
    except Exception as exc:  # noqa: BLE001 - any failure just disables the kernel
        return None, f"{type(exc).__name__}: {exc}"


def _load_cc_library(compiler: str, build_dir: str) -> Tuple[Optional[ctypes.CDLL], str]:
    """Load the kernel from ``build_dir``, compiling it there on a miss."""
    key = _cache_key(_C_SOURCE, _compiler_version(compiler, build_dir), _CFLAGS)
    lib_path = os.path.join(build_dir, f"kernels-{key}.so")
    if not os.path.exists(lib_path):
        error = _compile(compiler, build_dir, lib_path)
        if error:
            return None, error
    lib = ctypes.CDLL(lib_path)
    lib.cpu_has_avx512f.argtypes = []
    lib.cpu_has_avx512f.restype = ctypes.c_int64
    if not _cpu_has_avx512f(lib):
        return None, "the CPU does not report avx512f (the kernel is built for x86-64-v4)"
    # Addresses cross as plain integers (c_void_p): building a pointer
    # object per array would cost more than a one-row descent.
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.fused_descent.argtypes = [
        ptr, i64, i64, *[ptr] * 8, ptr, ptr, i64, ptr, ptr, ptr,
    ]
    lib.fused_descent.restype = None
    lib.ewma_update.argtypes = [ptr, i64, ctypes.c_double, ptr]
    lib.ewma_update.restype = ctypes.c_int64
    return lib, ""


def _library() -> ctypes.CDLL:
    lib = _cc_library()[0]
    if lib is None:  # callers check host_engine() first; defensive belt
        raise ConfigurationError("the compiled-C fused kernel is unavailable")
    return lib


def _reset_for_tests() -> None:
    """Forget probe results and plan caches (test isolation hook)."""
    global _cc_build
    with _lock:
        _cc_build = None
        _plan_cache.clear()
