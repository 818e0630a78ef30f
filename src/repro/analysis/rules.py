"""The ``repro-lint`` rule set (codes ``RPL001`` … ``RPL008``).

Every rule guards one invariant that the test-suite folklore and module
docstrings previously carried as prose.  Each rule class documents *which*
invariant it enforces, *where* it applies (rules are path scoped — code that
is the documented implementation of an invariant is exempt from the rule
that guards its callers), and *what* a legitimate exception looks like
(those sites carry inline ``# repro-lint: disable=RPLxxx`` suppressions with
a justification).

The registry is :data:`RULES`; ``repro-lint --list-rules`` renders it so new
rules are discoverable without reading this file.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.analysis.callgraph import Project

__all__ = ["Rule", "RULES", "rules_by_code"]

#: dtype spellings that denote index/mask arrays.  Converting *those* in the
#: hot path is bookkeeping, not a data-matrix copy, so RPL003 permits them.
_INDEX_DTYPES = frozenset(
    {
        "intp",
        "int8",
        "int16",
        "int32",
        "int64",
        "uint8",
        "uint16",
        "uint32",
        "uint64",
        "bool_",
        "int",
        "bool",
    }
)

#: Function names that form the descent/scoring hot path for RPL003.
_HOT_FUNCTIONS = frozenset(
    {
        "assign_arrays",
        "assign_validated",
        "assign_entries",
        "frontier_descent",
        "descend",
        "decision_scores",
    }
)


def _repro_rel(path: str) -> Optional[str]:
    """Path relative to the ``repro`` package root, or ``None`` if outside it."""
    marker = "src/repro/"
    index = path.find(marker)
    if index >= 0:
        return path[index + len(marker) :]
    if path.startswith("repro/"):
        return path[len("repro/") :]
    return None


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted-name rendering of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = _dotted(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""


def _is_index_dtype(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _INDEX_DTYPES
    if isinstance(node, ast.Attribute):
        return node.attr in _INDEX_DTYPES
    return False


class Rule:
    """Base class: a stable code, a path scope and an AST check."""

    code: str = ""
    name: str = ""
    #: Flow-aware rules set this; the engine still calls every rule through
    #: :meth:`check_project`, but the flag documents (and lets tools decide)
    #: which rules actually consume the shared project.
    requires_project: bool = False

    def applies_to(self, path: str) -> bool:
        raise NotImplementedError

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(
        self, project: "Project", tree: ast.Module, path: str
    ) -> Iterator[Finding]:
        """Project-aware entry point; syntactic rules ignore the project."""
        return self.check(tree, path)

    def summary(self) -> str:
        """First line of the rule docstring (used by ``--list-rules``)."""
        doc = (self.__doc__ or "").strip()
        return doc.splitlines()[0] if doc else self.name

    def _finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=self.code,
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class AtomicArtifactWrites(Rule):
    """Artifact/JSON writes must go through the atomic writers.

    ``write_json_atomic`` / ``write_npz_atomic`` (temp file + fsync +
    ``os.replace``) are the only crash-safe way to publish a model or
    results artifact; a raw ``json.dump`` / ``np.savez`` /
    ``write_text(json.dumps(...))`` can leave a truncated file that a later
    ``load_detector`` half-parses.  The writers themselves live in
    ``repro.core.serialization`` and ``repro.utils.mmapio``, which are
    exempt.
    """

    code = "RPL001"
    name = "atomic-artifact-writes"

    _EXEMPT = ("core/serialization.py", "utils/mmapio.py")

    def applies_to(self, path: str) -> bool:
        rel = _repro_rel(path)
        return rel is not None and rel not in self._EXEMPT

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _dotted(node.func)
            if callee in ("json.dump", "np.savez", "np.savez_compressed", "numpy.savez",
                          "numpy.savez_compressed"):
                yield self._finding(
                    path,
                    node,
                    f"raw {callee}() is not crash safe; route the write through "
                    "write_json_atomic()/write_npz_atomic()",
                )
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "write_text":
                for arg in node.args:
                    for inner in ast.walk(arg):
                        if isinstance(inner, ast.Call) and _dotted(inner.func) in (
                            "json.dumps",
                        ):
                            yield self._finding(
                                path,
                                node,
                                "write_text(json.dumps(...)) is not crash safe; use "
                                "write_json_atomic() or atomic_write()",
                            )
                            break


class PickleTrustBoundary(Rule):
    """``pickle`` deserialization is confined to ``serving/transport.py``.

    ``recv_frame`` is the one documented trust boundary where pickled bytes
    enter the process (framed, size-capped, from peers the operator
    configured).  A ``pickle.load(s)`` anywhere else silently widens that
    boundary to arbitrary files or sockets.
    """

    code = "RPL002"
    name = "pickle-trust-boundary"

    _LOADERS = frozenset({"load", "loads", "Unpickler"})

    def applies_to(self, path: str) -> bool:
        rel = _repro_rel(path)
        return rel is not None and rel != "serving/transport.py"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _dotted(node.func)
                if callee in {f"pickle.{name}" for name in self._LOADERS}:
                    yield self._finding(
                        path,
                        node,
                        f"{callee}() outside serving/transport.py widens the pickle "
                        "trust boundary; deserialize via the framed transport only",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
                bad = sorted(
                    alias.name for alias in node.names if alias.name in self._LOADERS
                )
                if bad:
                    yield self._finding(
                        path,
                        node,
                        f"importing {', '.join(bad)} from pickle outside "
                        "serving/transport.py widens the pickle trust boundary",
                    )


class HotPathDtypeConversion(Rule):
    """No float dtype conversions inside the descent/scoring hot path.

    The convert-once contract: input matrices are converted exactly once, at
    the ``check_array_2d`` ingest boundary; after that the hot path
    (``assign_arrays`` / ``assign_validated`` / ``assign_entries`` /
    ``frontier_descent``) must operate on the arrays as-is, because an
    ``astype``/``asarray(dtype=...)`` there silently copies the whole batch
    every call.  Index/mask dtype conversions (``intp``/``int64``/…) are
    bookkeeping and stay legal.
    """

    code = "RPL003"
    name = "hot-path-dtype-conversion"

    _MODULES = ("core/compiled.py", "serving/router.py", "serving/shards.py")
    _FACTORIES = ("np.asarray", "np.ascontiguousarray", "np.array", "numpy.asarray",
                  "numpy.ascontiguousarray", "numpy.array")

    def applies_to(self, path: str) -> bool:
        rel = _repro_rel(path)
        return rel in self._MODULES

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if outer.name not in _HOT_FUNCTIONS:
                continue
            for node in ast.walk(outer):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
                    target = node.args[0] if node.args else None
                    if target is not None and _is_index_dtype(target):
                        continue
                    yield self._finding(
                        path,
                        node,
                        f".astype() inside {outer.name}() re-copies the batch every "
                        "call; convert once at the check_array_2d ingest boundary",
                    )
                    continue
                if _dotted(node.func) in self._FACTORIES:
                    dtype_kw = next(
                        (kw for kw in node.keywords if kw.arg == "dtype"), None
                    )
                    if dtype_kw is not None and not _is_index_dtype(dtype_kw.value):
                        yield self._finding(
                            path,
                            node,
                            f"{_dotted(node.func)}(dtype=...) inside {outer.name}() "
                            "re-copies the batch every call; convert once at the "
                            "check_array_2d ingest boundary",
                        )


class SendLockDiscipline(Rule):
    """Socket sends in the transport tier happen under the send lock.

    The framed protocol multiplexes one socket across threads, so two
    interleaved writes corrupt the stream for good.  Discipline: raw
    ``sock.sendall``/``sock.send`` only inside ``send_frame`` (the framing
    helper), and every ``send_frame(...)`` call lexically inside a
    ``with <...lock...>:`` block.  Single-threaded setup paths (handshakes,
    before any reader thread exists) carry inline suppressions.
    """

    code = "RPL004"
    name = "send-lock-discipline"

    _MODULES = ("serving/transport.py", "serving/remote.py")

    def applies_to(self, path: str) -> bool:
        rel = _repro_rel(path)
        return rel in self._MODULES

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.function_stack: List[str] = []
                self.lock_depth = 0

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self._visit_function(node)

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self._visit_function(node)

            def _visit_function(self, node: ast.AST) -> None:
                self.function_stack.append(getattr(node, "name", "<anon>"))
                saved = self.lock_depth
                self.lock_depth = 0  # a nested def runs on its own thread/time
                self.generic_visit(node)
                self.lock_depth = saved
                self.function_stack.pop()

            def visit_With(self, node: ast.With) -> None:
                locked = any(
                    "lock" in _dotted(item.context_expr).lower()
                    or (
                        isinstance(item.context_expr, ast.Call)
                        and "lock" in _dotted(item.context_expr.func).lower()
                    )
                    for item in node.items
                )
                if locked:
                    self.lock_depth += 1
                self.generic_visit(node)
                if locked:
                    self.lock_depth -= 1

            def visit_Call(self, node: ast.Call) -> None:
                in_send_frame = "send_frame" in self.function_stack
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("send", "sendall")
                    and not in_send_frame
                ):
                    findings.append(
                        rule._finding(
                            path,
                            node,
                            f"raw socket .{node.func.attr}() outside send_frame() "
                            "bypasses the framing + send-lock discipline",
                        )
                    )
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id == "send_frame"
                    and self.lock_depth == 0
                ):
                    findings.append(
                        rule._finding(
                            path,
                            node,
                            "send_frame() outside a `with <send lock>:` block can "
                            "interleave frames from concurrent threads",
                        )
                    )
                self.generic_visit(node)

        Visitor().visit(tree)
        yield from findings


class FrozenDataclassSetattr(Rule):
    """``object.__setattr__`` on frozen dataclasses only in ``__post_init__``.

    The serving configuration layer is immutable by contract
    (hashable, safely shared across threads and pickled to workers).  The
    one sanctioned mutation window is ``__post_init__`` normalisation;
    anywhere else, ``object.__setattr__`` is a hole punched through
    ``frozen=True``.
    """

    code = "RPL005"
    name = "frozen-dataclass-setattr"

    def applies_to(self, path: str) -> bool:
        return _repro_rel(path) is not None

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        findings: List[Finding] = []
        rule = self

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.function_stack: List[str] = []

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self.function_stack.append(node.name)
                self.generic_visit(node)
                self.function_stack.pop()

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self.function_stack.append(node.name)
                self.generic_visit(node)
                self.function_stack.pop()

            def visit_Call(self, node: ast.Call) -> None:
                if (
                    _dotted(node.func) == "object.__setattr__"
                    and "__post_init__" not in self.function_stack
                ):
                    findings.append(
                        rule._finding(
                            path,
                            node,
                            "object.__setattr__ outside __post_init__ defeats "
                            "frozen=True; construct a new instance instead",
                        )
                    )
                self.generic_visit(node)

        Visitor().visit(tree)
        yield from findings


class KernelProviderSeam(Rule):
    """The fused kernel is reached only through ``repro.core.kernels``.

    The fused kernel is a C library compiled on first use and loaded
    through :mod:`ctypes`: an optional accelerator behind one seam,
    ``kernels.host_engine`` / ``kernels.fused_descent`` /
    ``kernels.ewma_update``.  Importing
    ``ctypes`` anywhere else loads native code around that seam, coupling
    callers to a library that may not exist in the deployment and skipping
    the probe/degrade policy.
    """

    code = "RPL006"
    name = "kernel-provider-seam"

    def applies_to(self, path: str) -> bool:
        rel = _repro_rel(path)
        return rel is not None and rel != "core/kernels.py"

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "ctypes":
                    yield self._finding(
                        path,
                        node,
                        f"import of {name}: native kernel libraries are loaded "
                        "through the repro.core.kernels seam only",
                    )


class ServingExceptionWrap(Rule):
    """Broad handlers in ``serving/`` re-raise or wrap into the error surface.

    The serving stack promises callers one error surface: failures arrive as
    :class:`ReproError` subclasses (``ServingError``/``TransportError``)
    naming the backend, shard and batch.  An ``except Exception`` that
    neither re-raises nor mentions an error-surface class swallows pool and
    transport internals.  Reply paths (the server core's, where failures
    become error frames the client re-raises, and the gateway's batch path)
    carry inline suppressions.
    """

    code = "RPL007"
    name = "serving-exception-wrap"

    def applies_to(self, path: str) -> bool:
        rel = _repro_rel(path)
        return rel is not None and rel.startswith("serving/")

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        return isinstance(handler.type, ast.Name) and handler.type.id in (
            "Exception",
            "BaseException",
        )

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler) or not self._is_broad(node):
                continue
            ok = False
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Raise):
                        ok = True
                    elif isinstance(inner, ast.Name) and inner.id.endswith("Error"):
                        ok = True
                    elif isinstance(inner, ast.Attribute) and inner.attr.endswith("Error"):
                        ok = True
                    if ok:
                        break
                if ok:
                    break
            if not ok:
                yield self._finding(
                    path,
                    node,
                    "broad except in serving/ must re-raise or wrap the failure "
                    "in ServingError/TransportError (one error surface)",
                )


class PoolConfinement(Rule):
    """No thread or process pool is constructed anywhere in ``src/repro``.

    Local shards run serially and remote shards run on shard workers, so the
    package owns no pool: blocking work that has to leave a coroutine goes
    to the event loop's default executor (``loop.run_in_executor(None,
    ...)``).  A pool built here would need its own sizing, shutdown,
    broken-pool handling and ``ServingError`` wrapping of worker failures,
    none of which the package has.
    """

    code = "RPL008"
    name = "pool-confinement"

    _POOLS = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor", "Pool", "ThreadPool"})

    def applies_to(self, path: str) -> bool:
        return _repro_rel(path) is not None

    def check(self, tree: ast.Module, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = ""
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name in self._POOLS:
                yield self._finding(
                    path,
                    node,
                    f"{name}() in src/repro: the package constructs no "
                    "thread or process pool; hand blocking work to the event "
                    "loop's default executor (run_in_executor(None, ...))",
                )


# The flow-aware concurrency family (RPL009+) lives in its own module but
# registers here so every consumer sees one registry.  The import sits at the
# bottom on purpose: ``concurrency`` imports :class:`Rule` from this module,
# which is already defined by the time this line runs (the package
# ``__init__`` imports ``rules`` before ``concurrency`` is reachable).
from repro.analysis.concurrency import CONCURRENCY_RULES  # noqa: E402

RULES: Tuple[Rule, ...] = (
    AtomicArtifactWrites(),
    PickleTrustBoundary(),
    HotPathDtypeConversion(),
    SendLockDiscipline(),
    FrozenDataclassSetattr(),
    KernelProviderSeam(),
    ServingExceptionWrap(),
    PoolConfinement(),
    *CONCURRENCY_RULES,
)


def rules_by_code() -> dict[str, Rule]:
    """Stable code → rule mapping (the programmatic registry surface)."""
    return {rule.code: rule for rule in RULES}
