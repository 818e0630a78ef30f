"""Binary array I/O for model artifacts: atomic ``.npz`` writes + mmap reads.

The v3 artifact format (:mod:`repro.core.serialization`) stores its compiled
arrays in an ``.npz``-style sidecar next to the JSON metadata file.  This
module owns the three mechanics that make the sidecar useful:

* :func:`atomic_write` — the shared temp-file + fsync + ``os.replace``
  discipline used for *every* artifact file (JSON and binary alike), so a
  crash mid-write can never leave a truncated file under the target name;
* :func:`write_npz_atomic` — an uncompressed ``.npz`` writer built on
  :func:`atomic_write` that also returns the byte count and SHA-256 of the
  finished file (recorded as the integrity header in the owning JSON);
* :func:`mmap_npz` — a memory-mapping ``.npz`` reader.  ``np.load(...,
  mmap_mode="r")`` silently ignores ``mmap_mode`` for zip files and reads
  every member eagerly, so this reader walks the zip directory itself
  (O(members), no array data touched), locates each member's ``.npy`` data
  and hands back read-only :class:`numpy.memmap` views into the *one* shared
  file mapping.  Cold load cost is therefore O(metadata); array pages fault
  in on first use.

:func:`memmap_region` finds the file region behind a memory-mapped array,
and :func:`map_region` maps such a region again after checking its
descriptor.  They are the two ends of by-reference shard provisioning: a
remote shard worker maps the regions of its own copy of a v3 sidecar
instead of receiving the array bytes.
"""

from __future__ import annotations

import hashlib
import io
import math
import mmap as _mmap
import os
import struct
import tempfile
import zipfile
from pathlib import Path
from typing import IO, Any, Callable, Dict, Optional, Tuple, TypeGuard, Union

import numpy as np

from repro._typing import AnyArray
from repro.exceptions import SerializationError

PathLike = Union[str, Path]

#: Local-file-header magic of a zip member (PKZIP spec section 4.3.7).
_ZIP_LOCAL_MAGIC = b"PK\x03\x04"
#: Fixed size of a zip local file header, before the variable name/extra.
_ZIP_LOCAL_HEADER_SIZE = 30

#: ``.npy`` header readers by format version (3.0 headers — non-latin field
#: names — never occur for our fixed array names; unknown versions fall back
#: to an eager read of that member).
_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}

#: Alignment (bytes) of every member's array data within the sidecar file,
#: matching numpy's own ``ARRAY_ALIGN``.  Mapped pages are page-aligned, so
#: file alignment is pointer alignment — and BLAS kernels produce *bitwise
#: different* GEMM results for buffers misaligned below the element size
#: (observed on OpenBLAS), which would silently break the byte-identity
#: contract of v3 artifacts.  Writers pad; the reader refuses to map
#: sub-element-aligned data (falling back to an eager copy).
_DATA_ALIGN = 64

#: Extra-field tag carrying the alignment padding (TLV form keeps the zip
#: well-formed for ordinary readers; the id is from the private-use range).
_PAD_EXTRA_ID = 0x7061


# --------------------------------------------------------------------------- #
# atomic writes (shared by JSON and binary artifact files)
# --------------------------------------------------------------------------- #
def atomic_write(path: PathLike, write: Callable[[IO[Any]], None], *, binary: bool = False) -> None:
    """Write a file via a same-directory temp file + fsync + rename.

    ``write`` receives the open temp-file stream and must write the complete
    payload to it.  ``os.replace`` is atomic on POSIX and Windows for
    same-filesystem moves, so readers only ever observe the old file or the
    complete new one — never a truncated artifact from a crash mid-write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        # mkstemp creates 0600 files; widen so the artifact stays readable by
        # the same set of users as before (train as one user, serve as
        # another).  An existing target keeps its mode; new files get the
        # conventional 0644.  (Probing the umask via os.umask() would mutate
        # process-global state and race with other threads.)
        try:
            mode = path.stat().st_mode & 0o777
        except FileNotFoundError:
            mode = 0o644
        os.chmod(tmp_name, mode)
        # mkstemp opens the descriptor O_RDWR, so binary writers get a
        # readable handle back (write_npz_atomic re-reads to hash the bytes).
        with os.fdopen(handle, "r+b" if binary else "w") as stream:
            write(stream)
            # Flush user- and OS-level buffers before the rename: without the
            # fsync, a system crash shortly after os.replace can persist the
            # rename but not the data on some filesystems, leaving exactly
            # the truncated artifact this function promises to prevent.
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_npz_atomic(arrays: Dict[str, AnyArray], path: PathLike) -> Dict[str, object]:
    """Write ``arrays`` as an uncompressed ``.npz`` file, atomically.

    Members are stored uncompressed (``ZIP_STORED``) so :func:`mmap_npz` can
    map them directly; pickled (object-dtype) arrays are rejected.  Returns
    the integrity header of the finished file: ``{"bytes": ..., "sha256":
    ..., "crc32": {member: ...}}`` — computed from the temp file before the
    rename, so the header describes exactly the bytes that land under
    ``path``.  The per-member CRC-32s give readers a content check that is
    free at open time (they live in the zip directory, which the reader
    parses anyway), catching a same-size sidecar that does not belong to
    the JSON header without hashing the whole file.
    """
    digest: Dict[str, object] = {}

    def write(stream: IO[Any]) -> None:
        crc32: Dict[str, int] = {}
        with zipfile.ZipFile(stream, "w", zipfile.ZIP_STORED) as archive:
            for name, array in arrays.items():
                array = np.ascontiguousarray(array)
                if array.dtype.hasobject:
                    raise SerializationError(
                        f"array {name!r} has object dtype and cannot be stored "
                        "in a binary sidecar"
                    )
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, array, allow_pickle=False)
                payload = buffer.getvalue()
                buffer.seek(0)
                version = np.lib.format.read_magic(buffer)
                header_reader = _NPY_HEADER_READERS.get(version)
                npy_header_size = 0
                if header_reader is not None:
                    header_reader(buffer)
                    npy_header_size = buffer.tell()
                member_name = f"{name}.npy"
                # ZipInfo defaults (epoch timestamp) keep artifact bytes fully
                # deterministic: same arrays in, same sidecar bytes (and
                # sha256) out — which is what lets golden fixtures pin them.
                info = zipfile.ZipInfo(member_name)
                info.compress_type = zipfile.ZIP_STORED
                info.external_attr = 0o644 << 16
                if npy_header_size:
                    data_start = (
                        stream.tell()
                        + _ZIP_LOCAL_HEADER_SIZE
                        + len(member_name.encode("utf-8"))
                        + npy_header_size
                    )
                    padding = (-data_start) % _DATA_ALIGN
                    if 0 < padding < 4:  # a TLV extra field needs 4 header bytes
                        padding += _DATA_ALIGN
                    if padding:
                        info.extra = struct.pack(
                            "<HH", _PAD_EXTRA_ID, padding - 4
                        ) + bytes(padding - 4)
                archive.writestr(info, payload)
                crc32[name] = int(archive.getinfo(member_name).CRC)
        stream.flush()
        stream.seek(0)
        checksum = hashlib.sha256()
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            checksum.update(chunk)
        digest["bytes"] = stream.tell()
        digest["sha256"] = checksum.hexdigest()
        digest["crc32"] = crc32

    atomic_write(path, write, binary=True)
    return digest


def sha256_of_file(path: PathLike) -> str:
    """SHA-256 hex digest of a file's contents (streamed, constant memory)."""
    checksum = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            checksum.update(chunk)
    return checksum.hexdigest()


# --------------------------------------------------------------------------- #
# mmap-backed reads
# --------------------------------------------------------------------------- #
def _member_data_offset(stream: IO[bytes], info: zipfile.ZipInfo) -> int:
    """File offset of a stored zip member's raw data.

    The local file header repeats the name and may carry a *different* extra
    field than the central directory entry, so the offset must be computed
    from the local header itself, not from ``ZipInfo`` lengths.
    """
    stream.seek(info.header_offset)
    header = stream.read(_ZIP_LOCAL_HEADER_SIZE)
    if len(header) != _ZIP_LOCAL_HEADER_SIZE or header[:4] != _ZIP_LOCAL_MAGIC:
        raise SerializationError(
            f"sidecar member {info.filename!r} has a corrupt local zip header"
        )
    name_length = int.from_bytes(header[26:28], "little")
    extra_length = int.from_bytes(header[28:30], "little")
    return info.header_offset + _ZIP_LOCAL_HEADER_SIZE + name_length + extra_length


def mmap_npz(path: PathLike) -> Dict[str, AnyArray]:
    """Load an uncompressed ``.npz`` as read-only memory-mapped arrays.

    Only the zip directory and the (tiny) per-member ``.npy`` headers are
    read eagerly.  The file is mapped exactly **once** (one ``mmap`` call
    for the whole sidecar, not one per member) and every returned array is a
    :class:`numpy.memmap` view into that single mapping, so array pages are
    faulted in on first access and consumers holding any number of member
    arrays or slices share the same physical pages.  Members this reader
    cannot map (compressed, Fortran-ordered, unaligned, or an unknown
    ``.npy`` header version) fall back to an eager in-memory read — the
    result is always a complete ``{name: array}`` mapping.
    """
    path = Path(path)
    arrays: Dict[str, AnyArray] = {}
    whole: Optional[AnyArray] = None
    try:
        with zipfile.ZipFile(path) as archive, open(path, "rb") as stream:
            for info in archive.infolist():
                name = info.filename
                if not name.endswith(".npy"):
                    raise SerializationError(
                        f"unexpected member {name!r} in binary sidecar {path}"
                    )
                key = name[: -len(".npy")]
                if info.compress_type != zipfile.ZIP_STORED:
                    arrays[key] = _eager_member(archive, name)
                    continue
                offset = _member_data_offset(stream, info)
                stream.seek(offset)
                version = np.lib.format.read_magic(stream)
                reader = _NPY_HEADER_READERS.get(version)
                if reader is None:
                    arrays[key] = _eager_member(archive, name)
                    continue
                shape, fortran_order, dtype = reader(stream)
                if fortran_order or dtype.hasobject:
                    arrays[key] = _eager_member(archive, name)
                    continue
                data_offset = stream.tell()
                n_items = int(np.prod(shape))
                if n_items == 0:
                    # A zero-length window carries no data to share anyway.
                    arrays[key] = np.empty(shape, dtype=dtype)
                    continue
                if data_offset % max(dtype.itemsize, 1):
                    # Sub-element-aligned data (a sidecar not written by
                    # write_npz_atomic): mapping it would hand BLAS a
                    # misaligned buffer, whose GEMM results differ bitwise
                    # from aligned ones.  Copy instead of silently breaking
                    # the byte-identity contract.
                    arrays[key] = _eager_member(archive, name)
                    continue
                if whole is None:
                    whole = np.memmap(path, dtype=np.uint8, mode="r")
                data = whole[data_offset : data_offset + n_items * dtype.itemsize]
                # view + reshape keep the np.memmap subclass (and with it the
                # by-reference pickling of downstream slices).
                arrays[key] = data.view(dtype).reshape(shape)
    except zipfile.BadZipFile as exc:
        raise SerializationError(f"binary sidecar {path} is not a valid npz file: {exc}") from exc
    return arrays


def _eager_member(archive: zipfile.ZipFile, name: str) -> AnyArray:
    with archive.open(name) as member:
        return np.lib.format.read_array(member, allow_pickle=False)


def npz_member_crcs(path: PathLike) -> Dict[str, int]:
    """Per-member CRC-32s straight from the zip directory.

    Costs one directory parse and touches no array data, so callers can
    check sidecar content against a stored header on *every* load — cheap
    enough to catch a same-size sidecar swap without hashing the file.
    """
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive:
            return {
                info.filename[: -len(".npy")]: int(info.CRC)
                for info in archive.infolist()
                if info.filename.endswith(".npy")
            }
    except zipfile.BadZipFile as exc:
        raise SerializationError(f"binary sidecar {path} is not a valid npz file: {exc}") from exc


def npz_member_offsets(path: PathLike) -> Dict[str, int]:
    """Absolute file offset of each member's raw data (zip-directory parse).

    Same cost class as :func:`npz_member_crcs`.  Used to pin the member
    *layout* of a sidecar, not just its content: two files with identical
    members in a different order share every CRC-32 and possibly the total
    size, yet any byte-offset taken against one maps garbage in the other.
    """
    path = Path(path)
    try:
        with zipfile.ZipFile(path) as archive, open(path, "rb") as stream:
            return {
                info.filename[: -len(".npy")]: _member_data_offset(stream, info)
                for info in archive.infolist()
                if info.filename.endswith(".npy")
            }
    except zipfile.BadZipFile as exc:
        raise SerializationError(f"binary sidecar {path} is not a valid npz file: {exc}") from exc


def sidecar_fingerprint(path: PathLike) -> Dict[str, object]:
    """Cheap content + layout fingerprint of a binary sidecar.

    Size and per-member CRC-32s are the same checks
    :func:`repro.core.serialization.open_sidecar` runs on every load (one
    ``stat`` plus the zip-directory parse); the per-member data offsets
    additionally pin the file *layout*.  The distributed-serving coordinator
    sends this with a by-reference shard provisioning request and the remote
    worker compares it against its *own* copy of the sidecar before mapping
    any region — the region descriptors on the wire are absolute byte
    offsets, which are only meaningful if the worker's members sit at the
    same offsets with the same bytes (a re-packed zip with reordered members
    can preserve size and every CRC while moving the data).
    """
    path = Path(path)
    return {
        "bytes": int(path.stat().st_size),
        "crc32": npz_member_crcs(path),
        "offsets": npz_member_offsets(path),
    }


def fingerprints_match(expected: Dict[str, object], local: Dict[str, object]) -> bool:
    """Whether two sidecar fingerprints describe byte-identical files.

    The single comparison rule for every fingerprint check (coordinator
    choosing by-reference provisioning, worker validating its artifact copy
    at startup and per provision request): sizes equal, per-member CRC-32s
    equal, and — when both sides carry them — member data offsets equal.
    Offsets are optional because v3 artifact *headers* predate them (content
    checks only); both ends of the provisioning exchange compute
    :func:`sidecar_fingerprint` directly, so layout is always pinned where
    region offsets actually cross the wire.  Values are normalised through
    ``int`` because one side may have crossed JSON.
    """

    def normalised(payload: Dict[str, object], key: str) -> Optional[Dict[str, int]]:
        table = payload.get(key)
        if table is None:
            return None
        if not isinstance(table, dict):
            raise TypeError(f"fingerprint field {key!r} is not a mapping")
        return {str(name): _as_int(value) for name, value in table.items()}

    try:
        if _as_int(expected.get("bytes", -1)) != _as_int(local.get("bytes", -2)):
            return False
        if normalised(expected, "crc32") != normalised(local, "crc32"):
            return False
        expected_offsets = normalised(expected, "offsets")
        local_offsets = normalised(local, "offsets")
        if expected_offsets is not None and local_offsets is not None:
            return expected_offsets == local_offsets
        return True
    except (TypeError, ValueError):
        return False


def _as_int(value: object) -> int:
    """``int()`` for values that may have crossed JSON (raises on non-numbers)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str, np.integer)):
        raise TypeError(f"expected an integer-like value, got {value!r}")
    return int(value)


def load_npz(path: PathLike) -> Dict[str, AnyArray]:
    """Eagerly load every array of an ``.npz`` file into memory."""
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as payload:
            return {name: payload[name] for name in payload.files}
    except (zipfile.BadZipFile, ValueError, OSError) as exc:
        raise SerializationError(f"could not read binary sidecar {path}: {exc}") from exc


# --------------------------------------------------------------------------- #
# array regions: by-reference shard provisioning
# --------------------------------------------------------------------------- #
#: dtype kinds a region descriptor may map: bool, signed and unsigned
#: integers, floats.  An object dtype would read raw file bytes as pointers.
_MAPPABLE_KINDS = "biuf"


def memmap_region(array: AnyArray) -> Optional[Tuple[str, int]]:
    """``(path, file offset)`` of a C-contiguous view into a memory map.

    Returns ``None`` for anything that is not a contiguous window of an
    :class:`numpy.memmap` (plain in-memory arrays, strided views).  Works for
    arbitrary slices: numpy propagates the *root* mapping's ``offset``
    attribute to views unchanged, so the view's own file position is
    recovered from pointer arithmetic against the underlying ``mmap`` buffer
    (which always starts at the allocation-granularity-aligned offset below
    the root's).
    """
    if not isinstance(array, np.memmap) or not array.flags["C_CONTIGUOUS"]:
        return None
    buffer: object = array.base
    while isinstance(buffer, np.ndarray):
        buffer = buffer.base
    if not isinstance(buffer, _mmap.mmap):
        return None
    root_offset = int(array.offset)
    buffer_file_offset = root_offset - root_offset % _mmap.ALLOCATIONGRANULARITY
    buffer_address = np.frombuffer(buffer, dtype=np.uint8).__array_interface__["data"][0]
    array_address = array.__array_interface__["data"][0]
    return str(array.filename), buffer_file_offset + (array_address - buffer_address)


def map_region(
    path: PathLike, *, dtype: object, shape: object, offset: object, file_bytes: object
) -> AnyArray:
    """Map one array region of a file read-only, after checking the descriptor.

    The receiving end of :func:`memmap_region`: a shard worker maps the
    regions a coordinator names in its own copy of the sidecar.  The
    descriptor comes from a peer, so nothing is mapped unless the dtype is
    numeric (kind ``b``, ``i``, ``u`` or ``f``), the shape is non-negative
    integers, the offset is a non-negative integer and the region ends
    inside the file.  The file must also still be ``file_bytes`` long:
    artifacts are replaced atomically, never mutated in place, so another
    size means the descriptor was taken against another file.  Every refusal
    is a :class:`~repro.exceptions.SerializationError`.
    """

    def refused(problem: str) -> SerializationError:
        return SerializationError(f"refusing to map a region of {path}: {problem}")

    try:
        array_dtype = np.dtype(dtype) if isinstance(dtype, str) else None
    except TypeError:
        array_dtype = None
    if array_dtype is None or array_dtype.kind not in _MAPPABLE_KINDS:
        raise refused(f"dtype {dtype!r} is not a numeric array dtype")
    if not isinstance(shape, tuple) or not all(map(_is_count, shape)):
        raise refused(f"shape {shape!r} is not a tuple of non-negative integers")
    if not _is_count(offset) or not _is_count(file_bytes):
        raise refused(f"offset {offset!r} and file size {file_bytes!r} must be counts")
    dims = tuple(int(n) for n in shape)
    try:
        size = os.stat(path).st_size
        if size != file_bytes:
            raise SerializationError(
                f"memory-mapped artifact {path} changed on disk (size {size}, "
                f"the region was taken against {file_bytes} bytes): the "
                "artifact was replaced; reload it instead of mapping stale regions"
            )
        end = int(offset) + math.prod(dims) * array_dtype.itemsize
        if end > size:
            raise refused(f"the region ends at byte {end}, past the end of the file ({size})")
        return np.memmap(path, dtype=array_dtype, mode="r", offset=int(offset), shape=dims)
    except (OSError, ValueError) as exc:
        raise SerializationError(
            f"could not map artifact region {path} (offset {offset}): {exc}"
        ) from exc


def _is_count(value: object) -> TypeGuard[int]:
    """Whether ``value`` is a non-negative integer (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0
