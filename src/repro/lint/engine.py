"""The lint engine: file walking, rule dispatch, pragma suppression.

One :func:`lint_paths` call walks the requested files (directories expand to
their ``*.py`` contents in **sorted** order — the engine obeys its own REP002
rule), parses each file once, runs every in-scope rule over the shared
:class:`FileContext`, and filters the findings through the file's
suppression pragmas.  Unparsable files and malformed pragmas become findings
themselves (under :data:`~repro.lint.pragmas.MALFORMED_PRAGMA_ID`) instead of
being skipped: a lint pass that silently ignores what it cannot read is a
lint pass that can be silently defeated.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.pragmas import MALFORMED_PRAGMA_ID, Pragma, parse_pragmas


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a file position.

    Ordered by ``(path, line, column, rule_id)`` so reports are deterministic
    regardless of rule execution order.
    """

    path: str
    line: int
    column: int
    rule_id: str
    message: str

    def render(self) -> str:
        """The one-line text form: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule_id} {self.message}"

    def to_dict(self) -> dict:
        """The JSON-output form of this finding."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "message": self.message,
        }


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    checked_files: int = 0
    suppressed: int = 0

    def render_text(self) -> str:
        """Human-readable report: one finding per line plus a summary."""
        lines = [finding.render() for finding in self.findings]
        noun = "file" if self.checked_files == 1 else "files"
        summary = (
            f"{len(self.findings)} finding(s) in {self.checked_files} {noun}"
            + (f" ({self.suppressed} suppressed by pragma)" if self.suppressed else "")
        )
        lines.append(summary)
        return "\n".join(lines)

    def render_json(self) -> str:
        """Machine-readable report (stable key order) for CI artifacts."""
        payload = {
            "findings": [finding.to_dict() for finding in self.findings],
            "checked_files": self.checked_files,
            "suppressed": self.suppressed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


class _ImportMap(ast.NodeVisitor):
    """Map local names to the fully qualified names their imports bind.

    ``import numpy as np`` binds ``np -> numpy``; ``from numpy.random import
    default_rng`` binds ``default_rng -> numpy.random.default_rng``.  Rules
    resolve attribute chains against this map so aliasing cannot hide a
    flagged call (``import numpy.random as nr; nr.rand()`` still resolves to
    ``numpy.random.rand``).
    """

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.names[local] = alias.name if alias.asname else alias.name.split(".")[0]
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never bind the stdlib/numpy names rules track
        for alias in node.names:
            local = alias.asname or alias.name
            self.names[local] = f"{node.module}.{alias.name}"
        self.generic_visit(node)


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    imports: Dict[str, str]
    parents: Dict[ast.AST, ast.AST]

    def resolve(self, node: ast.expr) -> Optional[str]:
        """The dotted import-qualified name ``node`` refers to, or ``None``.

        Resolves ``Name`` and ``Attribute`` chains whose root is an imported
        name: with ``import numpy as np``, ``np.random.rand`` resolves to
        ``"numpy.random.rand"``.  Chains rooted in anything else (locals,
        ``self`` attributes, call results) resolve to ``None`` — rules only
        make claims about names they can trace to an import.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        qualified_root = self.imports.get(current.id)
        if qualified_root is None:
            return None
        return ".".join([qualified_root, *reversed(parts)])

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (``None`` for the module root)."""
        return self.parents.get(node)


def _build_parent_map(tree: ast.Module) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def make_file_context(path: Path, source: str, display_path: Optional[str] = None) -> FileContext:
    """Parse ``source`` into the shared per-file rule context."""
    tree = ast.parse(source)
    imports = _ImportMap()
    imports.visit(tree)
    return FileContext(
        path=Path(path),
        display_path=display_path or str(path),
        source=source,
        tree=tree,
        imports=imports.names,
        parents=_build_parent_map(tree),
    )


def iter_python_files(paths: Sequence) -> List[Path]:
    """Expand ``paths`` to the sorted list of ``*.py`` files they cover.

    Directories recurse; explicit files are taken as-is (even without a
    ``.py`` suffix, so scripts can be linted by name).  Sorted, deduplicated
    output keeps reports byte-stable across filesystems.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    unique: List[Path] = []
    for path in sorted(files):
        if path not in unique[-1:]:
            unique.append(path)
    return unique


def lint_source(
    source: str,
    *,
    path: Path = Path("<string>"),
    display_path: Optional[str] = None,
    rules: Optional[Sequence] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint one in-memory source string (the fixture/property-test seam)."""
    report = LintReport(checked_files=1)
    _lint_one(source, Path(path), display_path or str(path), rules, config, report)
    report.findings.sort()
    return report


def lint_paths(
    paths: Sequence,
    *,
    rules: Optional[Sequence] = None,
    config: Optional[LintConfig] = None,
) -> LintReport:
    """Lint every python file under ``paths`` and return the merged report."""
    report = LintReport()
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf8")
        except OSError as error:
            report.findings.append(
                Finding(
                    path=str(path),
                    line=1,
                    column=1,
                    rule_id=MALFORMED_PRAGMA_ID,
                    message=f"cannot read file: {error}",
                )
            )
            continue
        report.checked_files += 1
        _lint_one(source, path, str(path), rules, config, report)
    report.findings.sort()
    return report


def _lint_one(
    source: str,
    path: Path,
    display_path: str,
    rules: Optional[Sequence],
    config: Optional[LintConfig],
    report: LintReport,
) -> None:
    if rules is None:
        from repro.lint.rules import RULES

        rules = RULES
    if config is None:
        config = LintConfig()
    try:
        context = make_file_context(path, source, display_path)
    except SyntaxError as error:
        report.findings.append(
            Finding(
                path=display_path,
                line=error.lineno or 1,
                column=(error.offset or 1),
                rule_id=MALFORMED_PRAGMA_ID,
                message=f"file does not parse: {error.msg}",
            )
        )
        return
    pragmas, malformed = parse_pragmas(source)
    for bad in malformed:
        report.findings.append(
            Finding(
                path=display_path,
                line=bad.line,
                column=1,
                rule_id=MALFORMED_PRAGMA_ID,
                message=bad.problem,
            )
        )
    for rule in rules:
        if not config.rule_applies(rule.id, path):
            continue
        for finding in rule.check(context):
            pragma: Optional[Pragma] = pragmas.get(finding.line)
            if pragma is not None and pragma.suppresses(finding.rule_id):
                report.suppressed += 1
                continue
            report.findings.append(finding)


__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "make_file_context",
]
