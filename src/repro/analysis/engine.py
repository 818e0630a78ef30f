"""Core of ``repro-lint``: findings, suppressions and the file walker.

The linter is deliberately small: one :func:`ast.parse` per file, one
independent walk per rule (see :mod:`repro.analysis.rules`), and a
tokenize-based suppression scanner.  Rules are *path scoped* — each rule
declares which repo-relative paths it guards (``applies_to``), so the same
source text can be legal in one module and a violation in another (e.g.
``pickle.loads`` inside the transport trust boundary vs. anywhere else).

Since PR 10 the engine is also *flow aware*: :func:`lint_sources` parses the
whole file set first and hands every rule one shared
:class:`~repro.analysis.callgraph.Project`, so the concurrency rules
(RPL009+) can follow call chains across modules.  Purely syntactic rules
ignore the project and behave exactly as before.

Suppression syntax
------------------
A violation is silenced by a ``# repro-lint: disable=RPLxxx`` comment either
on the flagged line itself or on a comment-only line directly above it::

    # repro-lint: disable=RPL004 -- handshake runs before any reader thread
    send_frame(sock, hello)

Several codes may be listed, comma separated.  Suppressions are expected to
carry an inline justification after the code list; the linter does not parse
the prose, but review does.  A suppression that no longer silences any
finding is itself reported (code ``RPL000``) when
``report_unused_suppressions`` is on — stale suppressions hide future
regressions at exactly the sites someone once judged dangerous.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.analysis.rules import Rule

__all__ = [
    "Finding",
    "LintError",
    "Suppression",
    "UNUSED_SUPPRESSION_CODE",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "scan_suppressions",
    "suppressed_codes_by_line",
]

#: Pseudo-code used for stale-suppression findings.  No rule owns it; it is
#: reserved so ``--select`` validation and docs can name it.
UNUSED_SUPPRESSION_CODE = "RPL000"

#: Directories whose contents are never linted by the directory walker.
#: ``tests/fixtures/lint`` holds the deliberately-bad rule fixtures; linting
#: them through the walker would make the repo self-check unsatisfiable (the
#: per-rule tests lint them explicitly through :func:`lint_source` instead).
SKIPPED_DIR_PARTS: Tuple[Tuple[str, ...], ...] = (
    ("fixtures", "lint"),
    ("__pycache__",),
    (".git",),
)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9,\s]+)")


class LintError(Exception):
    """Raised when a file cannot be linted at all (unreadable / syntax error)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    code: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """Human-readable one-liner in the ``path:line:col: CODE message`` shape."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (stable keys, machine consumable)."""
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """One ``disable=`` code: where it was written, which line it silences."""

    code: str
    #: The code line whose findings this suppression silences.
    target_line: int
    #: The line the comment physically sits on (== ``target_line`` for
    #: inline suppressions, the comment-only line above otherwise).
    comment_line: int


def normalized_path(path: str) -> str:
    """Repo-relative POSIX form of ``path`` used for rule scoping."""
    return Path(path).as_posix().lstrip("./")


def scan_suppressions(source: str) -> List[Suppression]:
    """Every suppression in ``source``, resolved to the line it silences.

    The scan is tokenize-based: only genuine ``COMMENT`` tokens count, so a
    docstring *describing* the suppression syntax (this module has one) can
    never create a phantom suppression.  A comment on a code line applies to
    that line; a comment-only line applies to the next code line, and chains
    of comment-only lines accumulate onto the first code line below them.
    """
    comment_lines: Dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comment_lines[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    suppressions: List[Suppression] = []
    #: code → comment line, for comment-only suppressions awaiting their
    #: target code line.
    pending: Dict[str, int] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        codes: Set[str] = set()
        comment = comment_lines.get(lineno)
        if comment is not None:
            match = _SUPPRESS_RE.search(comment)
            if match is not None:
                codes = {
                    code.strip() for code in match.group(1).split(",") if code.strip()
                }
        if text.strip().startswith("#"):
            for code in codes:
                pending.setdefault(code, lineno)
            continue
        for code in codes:
            suppressions.append(
                Suppression(code=code, target_line=lineno, comment_line=lineno)
            )
        for code, comment_line in pending.items():
            if code not in codes:
                suppressions.append(
                    Suppression(
                        code=code, target_line=lineno, comment_line=comment_line
                    )
                )
        pending = {}
    return suppressions


def suppressed_codes_by_line(source: str) -> Dict[int, Set[str]]:
    """Map line number → codes suppressed on that line."""
    suppressed: Dict[int, Set[str]] = {}
    for suppression in scan_suppressions(source):
        suppressed.setdefault(suppression.target_line, set()).add(suppression.code)
    return suppressed


def lint_sources(
    sources: Mapping[str, str],
    *,
    rules: Optional[Sequence["Rule"]] = None,
    report_unused_suppressions: bool = False,
) -> List[Finding]:
    """Lint a set of sources together, sharing one call-graph project.

    ``sources`` maps (repo-relative) paths to source text.  All files are
    parsed up front and indexed into a single
    :class:`~repro.analysis.callgraph.Project`, so flow-aware rules see
    cross-module call chains.  With ``report_unused_suppressions``, every
    ``disable=`` comment that silenced nothing (for a code an active rule
    owns) yields an :data:`UNUSED_SUPPRESSION_CODE` finding at the comment.
    """
    from repro.analysis.callgraph import Project
    from repro.analysis.rules import RULES

    active: Sequence["Rule"] = RULES if rules is None else tuple(rules)
    trees: Dict[str, ast.Module] = {}
    texts: Dict[str, str] = {}
    for path, source in sources.items():
        rel = normalized_path(path)
        try:
            trees[rel] = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            raise LintError(f"{rel}: could not parse: {exc}") from exc
        texts[rel] = source
    project = Project(trees)
    active_codes = {rule.code for rule in active}
    findings: List[Finding] = []
    for rel, tree in trees.items():
        suppressions = scan_suppressions(texts[rel])
        suppressed: Dict[int, Set[str]] = {}
        for suppression in suppressions:
            suppressed.setdefault(suppression.target_line, set()).add(suppression.code)
        used: Set[Tuple[int, str]] = set()
        for rule in active:
            if not rule.applies_to(rel):
                continue
            for finding in rule.check_project(project, tree, rel):
                if rule.code in suppressed.get(finding.line, set()):
                    used.add((finding.line, rule.code))
                    continue
                findings.append(finding)
        if report_unused_suppressions:
            for suppression in suppressions:
                if suppression.code not in active_codes:
                    continue
                if (suppression.target_line, suppression.code) in used:
                    continue
                findings.append(
                    Finding(
                        code=UNUSED_SUPPRESSION_CODE,
                        path=rel,
                        line=suppression.comment_line,
                        col=0,
                        message=(
                            f"suppression disable={suppression.code} no longer "
                            "silences any finding; delete it (stale suppressions "
                            "hide future regressions)"
                        ),
                    )
                )
    findings.sort(key=lambda item: (item.path, item.line, item.col, item.code))
    return findings


def lint_source(
    source: str,
    path: str,
    *,
    rules: Optional[Sequence["Rule"]] = None,
    report_unused_suppressions: bool = False,
) -> List[Finding]:
    """Lint one source text as if it lived at repo-relative ``path``.

    The fixture tests lean on the ``path`` parameter: the same snippet can be
    checked both inside and outside a rule's scope without touching disk.
    """
    return lint_sources(
        {path: source},
        rules=rules,
        report_unused_suppressions=report_unused_suppressions,
    )


def _is_skipped(path: Path) -> bool:
    parts = path.parts
    for needle in SKIPPED_DIR_PARTS:
        span = len(needle)
        for start in range(len(parts) - span + 1):
            if parts[start : start + span] == needle:
                return True
    return False


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` (files pass through as-is)."""
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if not _is_skipped(root):
                yield root
            continue
        if not root.exists():
            raise LintError(f"no such file or directory: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            if not _is_skipped(candidate):
                yield candidate


def lint_paths(
    paths: Iterable[str],
    *,
    rules: Optional[Sequence["Rule"]] = None,
    report_unused_suppressions: bool = False,
) -> List[Finding]:
    """Lint every Python file under ``paths`` and return the merged findings."""
    sources: Dict[str, str] = {}
    for file_path in iter_python_files(paths):
        try:
            sources[str(file_path)] = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"{file_path}: could not read: {exc}") from exc
    return lint_sources(
        sources,
        rules=rules,
        report_unused_suppressions=report_unused_suppressions,
    )
