"""Project-wide call graph with execution-context propagation.

The serving stack is a thread+asyncio hybrid, and its failure modes are
*transitive*: a coroutine that calls a helper that calls ``time.sleep``
stalls the event loop just as surely as a direct call — but a per-node AST
rule only sees the helper call.  :class:`Project` closes that gap: it
indexes every function in the linted file set, resolves call edges between
them, and propagates three execution contexts along those edges:

* **coroutine** — seeded by every ``async def``; everything it (sync-)calls
  runs on the event-loop thread inside a coroutine;
* **thread** — seeded by ``threading.Thread(target=...)`` targets (reader
  threads, server loops); their sync callees run off the loop;
* **executor** — seeded by ``pool.submit(fn, ...)`` and
  ``loop.run_in_executor(executor, fn, ...)`` callables.

Context transfer points (``Thread(target=)``, ``submit``,
``run_in_executor``) deliberately do **not** propagate the caller's context
— handing a blocking function to an executor is the sanctioned fix, not a
violation.

Edge resolution is conservative by construction: an edge exists only when
the callee is unambiguous — a nested/same-module function, a ``self.``/
``cls.`` method of the enclosing class (bases included), or a project-unique
name.  A name defined twice (``close``, ``run``, ``detect`` …) resolves to
nothing rather than to everything, so the flow rules over-warn only behind
explicit registries, never through wild aliasing.

On top of the same index sit the lock facts the concurrency rules need:
which ``self.<attr>`` names hold asyncio primitives vs. ``threading`` locks
(from ``__init__`` assignments, dataclass fields and annotations), which
functions acquire which locks, and the project-wide lock-order graph with
its cycles (RPL011).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.cfg import FunctionNode, scoped_children

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "LockEdge",
    "ModuleInfo",
    "Project",
    "dotted_name",
]

#: ``threading`` constructors that produce ``with``-able locks.
_THREADING_LOCKS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Dotted-call prefixes that are definitely not project functions; resolving
#: their terminal attribute against the project index would be noise.
_EXTERNAL_PREFIXES = (
    "asyncio.",
    "threading.",
    "socket.",
    "time.",
    "os.",
    "np.",
    "numpy.",
    "json.",
    "pickle.",
    "struct.",
    "ast.",
)

#: Calls that block the calling thread.  ``RPL009`` flags these when they
#: are reachable from a coroutine.  Method names are matched on any
#: receiver (``sock.recv``, ``future.result``); bare names cover the
#: project's own sync framing helpers (and their paper-text aliases
#: ``read_frame``/``write_frame``) even when the call does not resolve.
_BLOCKING_DOTTED = frozenset({"time.sleep", "socket.create_connection"})
_BLOCKING_METHODS = frozenset({"accept", "recv", "recv_into", "result", "sendall", "sendto"})
_BLOCKING_NAMES = frozenset({"read_frame", "recv_frame", "send_frame", "write_frame"})


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain ("" otherwise)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        prefix = dotted_name(node.value)
        return f"{prefix}.{node.attr}" if prefix else node.attr
    return ""


def _terminal_name(node: ast.AST) -> str:
    """The last path component of a call target (``a.b.c`` → ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


@dataclass
class FunctionInfo:
    """One ``def``/``async def`` anywhere in the project (methods, nested)."""

    qualname: str
    name: str
    path: str
    node: FunctionNode
    class_name: Optional[str] = None
    parent: Optional["FunctionInfo"] = None
    is_async: bool = False
    nested: Dict[str, "FunctionInfo"] = field(default_factory=dict)

    @property
    def display(self) -> str:
        """Human name for witness chains: ``Class.method`` or ``function``."""
        if self.class_name is not None and self.parent is None:
            return f"{self.class_name}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One class: its methods plus the attribute typing facts rules need."""

    name: str
    path: str
    node: ast.ClassDef
    bases: Tuple[str, ...]
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Attributes assigned/annotated with asyncio primitives
    #: (``self._queue = asyncio.Queue()``, ``x: asyncio.Event``, …).
    asyncio_attrs: Set[str] = field(default_factory=set)
    #: Attribute → ``"threading"`` | ``"asyncio"`` for known lock objects.
    lock_attrs: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One linted file: its tree plus the indexed functions and classes."""

    path: str
    tree: ast.Module
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    all_functions: List[FunctionInfo] = field(default_factory=list)


@dataclass(frozen=True)
class LockEdge:
    """One observed acquisition order: ``source`` held while taking ``target``."""

    source: str
    target: str
    path: str
    line: int
    col: int
    #: How the inner acquisition happens: "nested with" or "call to f()".
    via: str


class Project:
    """The indexed file set all flow-aware rules share (see module docstring).

    Construction only builds the cheap per-module index; call edges,
    execution contexts, blocking closures and the lock graph are computed
    lazily and memoized, so a purely syntactic lint pays nothing for them.
    """

    def __init__(self, modules: Mapping[str, ast.Module]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self._functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self._classes_by_name: Dict[str, List[ClassInfo]] = {}
        for path, tree in modules.items():
            self._index_module(path, tree)
        self._edges: Dict[str, List[Tuple[ast.Call, FunctionInfo]]] = {}
        self._blocking: Dict[str, Optional[Tuple[Tuple[str, ...], str]]] = {}
        self._acquired: Dict[str, Set[str]] = {}
        self._contexts: Optional[Dict[str, Dict[str, Tuple[str, ...]]]] = None
        self._cycle_edges: Optional[List[LockEdge]] = None

    # ------------------------------------------------------------------ #
    # indexing
    # ------------------------------------------------------------------ #
    def _index_module(self, path: str, tree: ast.Module) -> None:
        module = ModuleInfo(path=path, tree=tree)
        self.modules[path] = module
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, stmt, None, None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt)

    def _index_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        info = ClassInfo(
            name=node.name,
            path=module.path,
            node=node,
            bases=tuple(
                _terminal_name(base) for base in node.bases if _terminal_name(base)
            ),
        )
        module.classes[node.name] = info
        self._classes_by_name.setdefault(node.name, []).append(info)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(module, stmt, info, None)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                self._classify_attr(info, stmt.target.id, stmt.annotation, stmt.value)
        # `self.<attr> = ...` assignments anywhere in the class's methods
        # (constructors mostly, but re-assignments elsewhere count too).
        for method in list(info.methods.values()):
            for sub in ast.walk(method.node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self._classify_attr(info, target.attr, None, sub.value)
                elif isinstance(sub, ast.AnnAssign):
                    target = sub.target
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self._classify_attr(info, target.attr, sub.annotation, sub.value)

    def _classify_attr(
        self,
        info: ClassInfo,
        attr: str,
        annotation: Optional[ast.expr],
        value: Optional[ast.expr],
    ) -> None:
        """Record what kind of object ``self.<attr>`` holds, if provable."""
        constructor = ""
        if isinstance(value, ast.Call):
            constructor = dotted_name(value.func)
            if constructor in ("field", "dataclasses.field"):
                factory = next(
                    (kw.value for kw in value.keywords if kw.arg == "default_factory"),
                    None,
                )
                constructor = dotted_name(factory) if factory is not None else ""
        annotated = ""
        if annotation is not None:
            try:
                annotated = ast.unparse(annotation)
            except ValueError:  # pragma: no cover - malformed annotation
                annotated = ""
        if constructor.startswith("asyncio.") or "asyncio." in annotated:
            info.asyncio_attrs.add(attr)
            if constructor == "asyncio.Lock" or "asyncio.Lock" in annotated:
                info.lock_attrs[attr] = "asyncio"
            return
        if (
            constructor.startswith("threading.")
            and constructor.split(".")[-1] in _THREADING_LOCKS
        ):
            info.lock_attrs[attr] = "threading"

    def _index_function(
        self,
        module: ModuleInfo,
        node: FunctionNode,
        cls: Optional[ClassInfo],
        parent: Optional[FunctionInfo],
    ) -> None:
        if parent is not None:
            qualname = f"{parent.qualname}.<locals>.{node.name}"
            class_name = parent.class_name
        elif cls is not None:
            qualname = f"{module.path}::{cls.name}.{node.name}"
            class_name = cls.name
        else:
            qualname = f"{module.path}::{node.name}"
            class_name = None
        info = FunctionInfo(
            qualname=qualname,
            name=node.name,
            path=module.path,
            node=node,
            class_name=class_name,
            parent=parent,
            is_async=isinstance(node, ast.AsyncFunctionDef),
        )
        module.all_functions.append(info)
        self._functions_by_name.setdefault(node.name, []).append(info)
        if parent is not None:
            parent.nested[node.name] = info
        elif cls is not None:
            cls.methods[node.name] = info
        else:
            module.functions[node.name] = info
        for child in self._direct_nested_defs(node):
            self._index_function(module, child, None, info)

    @staticmethod
    def _direct_nested_defs(node: FunctionNode) -> Iterator[FunctionNode]:
        for child in scoped_children(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        if fn.class_name is None:
            return None
        return self._resolve_class(fn.path, fn.class_name)

    def _resolve_class(self, path: str, name: str) -> Optional[ClassInfo]:
        module = self.modules.get(path)
        if module is not None and name in module.classes:
            return module.classes[name]
        candidates = self._classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def _mro(self, info: ClassInfo) -> List[ClassInfo]:
        """The class plus every project-resolvable base, breadth-first."""
        order: List[ClassInfo] = []
        seen: Set[str] = set()
        queue: deque[ClassInfo] = deque([info])
        while queue:
            current = queue.popleft()
            key = f"{current.path}::{current.name}"
            if key in seen:
                continue
            seen.add(key)
            order.append(current)
            for base in current.bases:
                resolved = self._resolve_class(current.path, base)
                if resolved is not None:
                    queue.append(resolved)
        return order

    def _lookup_method(self, fn: FunctionInfo, name: str) -> Optional[FunctionInfo]:
        cls = self.class_of(fn)
        if cls is None:
            return None
        for candidate in self._mro(cls):
            if name in candidate.methods:
                return candidate.methods[name]
        return None

    def asyncio_attrs_of(self, fn: FunctionInfo) -> Set[str]:
        """Asyncio-primitive attribute names visible on ``self`` inside ``fn``."""
        cls = self.class_of(fn)
        if cls is None:
            return set()
        names: Set[str] = set()
        for candidate in self._mro(cls):
            names |= candidate.asyncio_attrs
        return names

    def resolve_callable(
        self, expr: ast.AST, caller: FunctionInfo
    ) -> Optional[FunctionInfo]:
        """Resolve a call target / callable reference, or ``None`` if ambiguous."""
        if isinstance(expr, ast.Name):
            scope: Optional[FunctionInfo] = caller
            while scope is not None:
                if expr.id in scope.nested:
                    return scope.nested[expr.id]
                scope = scope.parent
            module = self.modules.get(caller.path)
            if module is not None and expr.id in module.functions:
                return module.functions[expr.id]
            candidates = self._functions_by_name.get(expr.id, [])
            return candidates[0] if len(candidates) == 1 else None
        if isinstance(expr, ast.Attribute):
            receiver = expr.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in ("self", "cls")
                and caller.class_name is not None
            ):
                return self._lookup_method(caller, expr.attr)
            full = dotted_name(expr)
            if full.startswith(_EXTERNAL_PREFIXES):
                return None
            candidates = self._functions_by_name.get(expr.attr, [])
            return candidates[0] if len(candidates) == 1 else None
        return None

    # ------------------------------------------------------------------ #
    # calls, edges, transfers
    # ------------------------------------------------------------------ #
    @staticmethod
    def calls_in(fn: FunctionInfo) -> List[ast.Call]:
        """Every call in ``fn``'s own scope, in source order."""
        calls = [
            node for node in scoped_children(fn.node) if isinstance(node, ast.Call)
        ]
        calls.sort(key=lambda call: (call.lineno, call.col_offset))
        return calls

    @staticmethod
    def awaited_calls_in(fn: FunctionInfo) -> Set[int]:
        """``id()`` of every Call that is the direct operand of an ``await``."""
        return {
            id(node.value)
            for node in scoped_children(fn.node)
            if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
        }

    def call_edges(self, fn: FunctionInfo) -> List[Tuple[ast.Call, FunctionInfo]]:
        """Resolved ``(call site, callee)`` pairs for ``fn``, memoized."""
        cached = self._edges.get(fn.qualname)
        if cached is not None:
            return cached
        edges: List[Tuple[ast.Call, FunctionInfo]] = []
        for call in self.calls_in(fn):
            callee = self.resolve_callable(call.func, fn)
            if callee is not None and callee.qualname != fn.qualname:
                edges.append((call, callee))
        self._edges[fn.qualname] = edges
        return edges

    def transfer_targets(self, fn: FunctionInfo) -> List[Tuple[str, FunctionInfo]]:
        """Context-transfer seeds created inside ``fn``.

        Returns ``(kind, target)`` pairs where ``kind`` is ``"thread"``
        (``threading.Thread(target=...)``) or ``"executor"``
        (``pool.submit(fn, ...)`` / ``loop.run_in_executor(exec, fn, ...)``).
        """
        transfers: List[Tuple[str, FunctionInfo]] = []
        for call in self.calls_in(fn):
            name = dotted_name(call.func)
            target: Optional[ast.AST] = None
            kind = ""
            if name == "Thread" or name.endswith("threading.Thread") or name == "threading.Thread":
                keyword = next(
                    (kw.value for kw in call.keywords if kw.arg == "target"), None
                )
                target, kind = keyword, "thread"
            elif isinstance(call.func, ast.Attribute) and call.func.attr == "submit":
                if call.args:
                    target, kind = call.args[0], "executor"
            elif (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "run_in_executor"
                and len(call.args) >= 2
            ):
                target, kind = call.args[1], "executor"
            if target is None:
                continue
            resolved = self.resolve_callable(target, fn)
            if resolved is not None:
                transfers.append((kind, resolved))
        return transfers

    # ------------------------------------------------------------------ #
    # execution contexts
    # ------------------------------------------------------------------ #
    def contexts(self) -> Dict[str, Dict[str, Tuple[str, ...]]]:
        """``{"coroutine"|"thread"|"executor": {qualname: witness chain}}``.

        A witness chain is the display-name path from the seed to the
        function (``("DetectionGateway._detect", "_admit")`` …); it
        goes straight into finding messages so a reader can follow *why*
        the analyzer believes the function runs in that context.
        """
        if self._contexts is not None:
            return self._contexts
        coroutine_seeds: List[FunctionInfo] = []
        thread_seeds: List[FunctionInfo] = []
        executor_seeds: List[FunctionInfo] = []
        for module in self.modules.values():
            for fn in module.all_functions:
                if fn.is_async:
                    coroutine_seeds.append(fn)
                for kind, target in self.transfer_targets(fn):
                    if kind == "thread":
                        thread_seeds.append(target)
                    else:
                        executor_seeds.append(target)
        self._contexts = {
            "coroutine": self._propagate(coroutine_seeds),
            "thread": self._propagate(thread_seeds),
            "executor": self._propagate(executor_seeds),
        }
        return self._contexts

    def _propagate(
        self, seeds: Sequence[FunctionInfo]
    ) -> Dict[str, Tuple[str, ...]]:
        """BFS a context from ``seeds`` through sync call edges only.

        ``async def`` callees are never entered (calling one just builds a
        coroutine object; if it runs, it is a coroutine seed of its own),
        and transfer edges are not followed (handing work to a thread or an
        executor is a context *boundary*, not propagation).
        """
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: deque[FunctionInfo] = deque()
        for seed in seeds:
            if seed.qualname not in chains:
                chains[seed.qualname] = (seed.display,)
                queue.append(seed)
        while queue:
            fn = queue.popleft()
            for _, callee in self.call_edges(fn):
                if callee.is_async or callee.qualname in chains:
                    continue
                chains[callee.qualname] = chains[fn.qualname] + (callee.display,)
                queue.append(callee)
        return chains

    # ------------------------------------------------------------------ #
    # blocking-call closure (RPL009)
    # ------------------------------------------------------------------ #
    def blocking_calls(self, fn: FunctionInfo) -> List[Tuple[ast.Call, str]]:
        """Direct blocking calls inside ``fn`` (awaited calls are exempt)."""
        awaited = self.awaited_calls_in(fn)
        sites: List[Tuple[ast.Call, str]] = []
        for call in self.calls_in(fn):
            if id(call) in awaited:
                continue
            name = dotted_name(call.func)
            terminal = _terminal_name(call.func)
            if name in _BLOCKING_DOTTED:
                sites.append((call, f"{name}()"))
            elif terminal in _BLOCKING_NAMES:
                sites.append((call, f"{terminal}()"))
            elif isinstance(call.func, ast.Attribute) and terminal in _BLOCKING_METHODS:
                sites.append((call, f".{terminal}()"))
        return sites

    def blocking_chain(
        self, fn: FunctionInfo
    ) -> Optional[Tuple[Tuple[str, ...], str]]:
        """``(call chain, blocking description)`` if ``fn`` can block, else ``None``.

        The chain starts at ``fn`` and follows resolved sync call edges down
        to the first function with a direct blocking call — the witness the
        RPL009 message prints.  Memoized; cycles terminate via the
        in-progress ``None`` sentinel.
        """
        if fn.qualname in self._blocking:
            return self._blocking[fn.qualname]
        self._blocking[fn.qualname] = None  # cycle guard
        result: Optional[Tuple[Tuple[str, ...], str]] = None
        sites = self.blocking_calls(fn)
        if sites:
            result = ((fn.display,), sites[0][1])
        else:
            for _, callee in self.call_edges(fn):
                if callee.is_async:
                    continue
                nested = self.blocking_chain(callee)
                if nested is not None:
                    result = ((fn.display,) + nested[0], nested[1])
                    break
        self._blocking[fn.qualname] = result
        return result

    # ------------------------------------------------------------------ #
    # lock identities and the lock-order graph (RPL010 / RPL011)
    # ------------------------------------------------------------------ #
    def threading_lock_id(
        self, expr: ast.AST, fn: FunctionInfo
    ) -> Optional[str]:
        """Stable identity of a *threading* lock expression, else ``None``.

        ``self.<attr>`` locks are class-qualified (the same lock object in
        every method); bare names are qualified by the outermost enclosing
        function (closures share their parent's locals); known asyncio locks
        are excluded.  Unknown attributes fall back to a name heuristic
        ("lock"/"mutex"), biased towards ``threading`` because that is the
        dangerous reading for every rule built on top.
        """
        name = dotted_name(expr)
        if not name:
            return None
        lockish = "lock" in name.lower() or "mutex" in name.lower()
        if name.startswith("self.") and name.count(".") == 1:
            attr = name.split(".", 1)[1]
            cls = self.class_of(fn)
            if cls is not None:
                for candidate in self._mro(cls):
                    kind = candidate.lock_attrs.get(attr)
                    if kind == "threading":
                        return f"{candidate.name}.{attr}"
                    if kind == "asyncio":
                        return None
                if attr in self.asyncio_attrs_of(fn):
                    return None
            if lockish:
                owner = fn.class_name or fn.qualname
                return f"{owner}.{attr}"
            return None
        if isinstance(expr, ast.Name) and lockish:
            root = fn
            while root.parent is not None:
                root = root.parent
            return f"{root.display}:{name}"
        return None

    def acquired_closure(self, fn: FunctionInfo) -> Set[str]:
        """Every threading lock ``fn`` may acquire, transitively."""
        cached = self._acquired.get(fn.qualname)
        if cached is not None:
            return cached
        self._acquired[fn.qualname] = set()  # cycle guard
        acquired, _, _ = self._lock_structure(fn)
        result = set(acquired)
        for _, callee in self.call_edges(fn):
            result |= self.acquired_closure(callee)
        self._acquired[fn.qualname] = result
        return result

    def _lock_structure(
        self, fn: FunctionInfo
    ) -> Tuple[
        Set[str],
        List[Tuple[str, str, ast.AST]],
        List[Tuple[Tuple[str, ...], ast.Call]],
    ]:
        """Lock facts of one function body.

        Returns ``(acquired, nested edges, calls-under-lock)`` where nested
        edges are lexical ``with A: with B:`` pairs and calls-under-lock
        records each call with the stack of locks held around it.
        """
        acquired: Set[str] = set()
        edges: List[Tuple[str, str, ast.AST]] = []
        calls_under: List[Tuple[Tuple[str, ...], ast.Call]] = []
        held: List[str] = []

        def visit(node: ast.AST) -> None:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
            ):
                return
            if isinstance(node, ast.With):
                taken: List[str] = []
                for item in node.items:
                    lock = self.threading_lock_id(item.context_expr, fn)
                    if lock is None:
                        continue
                    acquired.add(lock)
                    for outer in held:
                        edges.append((outer, lock, node))
                    taken.append(lock)
                held.extend(taken)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                if taken:
                    del held[-len(taken):]
                return
            if isinstance(node, ast.Call) and held:
                calls_under.append((tuple(held), node))
            for child in ast.iter_child_nodes(node):
                visit(child)

        for stmt in fn.node.body:
            visit(stmt)
        return acquired, edges, calls_under

    def lock_edges(self) -> List[LockEdge]:
        """Every acquisition-order edge in the project, lexical + via calls."""
        edges: List[LockEdge] = []
        for module in self.modules.values():
            for fn in module.all_functions:
                _, lexical, calls_under = self._lock_structure(fn)
                for source, target, node in lexical:
                    edges.append(
                        LockEdge(
                            source=source,
                            target=target,
                            path=fn.path,
                            line=getattr(node, "lineno", 1),
                            col=getattr(node, "col_offset", 0),
                            via="nested with",
                        )
                    )
                for held, call in calls_under:
                    callee = self.resolve_callable(call.func, fn)
                    if callee is None:
                        continue
                    for target in sorted(self.acquired_closure(callee)):
                        for source in held:
                            if source == target:
                                continue
                            edges.append(
                                LockEdge(
                                    source=source,
                                    target=target,
                                    path=fn.path,
                                    line=call.lineno,
                                    col=call.col_offset,
                                    via=f"call to {callee.display}()",
                                )
                            )
        return edges

    def lock_cycle_edges(self) -> List[LockEdge]:
        """The subset of :meth:`lock_edges` that participates in a cycle."""
        if self._cycle_edges is not None:
            return self._cycle_edges
        edges = self.lock_edges()
        adjacency: Dict[str, Set[str]] = {}
        for edge in edges:
            adjacency.setdefault(edge.source, set()).add(edge.target)
        cyclic: List[LockEdge] = []
        for edge in edges:
            if edge.source == edge.target or self._reachable(
                edge.target, edge.source, adjacency
            ):
                cyclic.append(edge)
        self._cycle_edges = cyclic
        return cyclic

    @staticmethod
    def _reachable(
        start: str, goal: str, adjacency: Mapping[str, Set[str]]
    ) -> bool:
        seen: Set[str] = set()
        queue: deque[str] = deque([start])
        while queue:
            current = queue.popleft()
            if current == goal:
                return True
            if current in seen:
                continue
            seen.add(current)
            queue.extend(adjacency.get(current, ()))
        return False
