"""File discovery, lint orchestration, and output formatting.

``lint_paths`` is the programmatic equivalent of ``repro lint``: it
expands files/directories, lints every ``.py`` file once, and returns a
:class:`LintReport` whose ``exit_code`` is suitable for CI (0 clean, 1
findings; usage errors raise :class:`~repro.lint.rules.LintUsageError`,
which the CLI maps to exit code 2).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.lint import asyncrules  # noqa: F401  (registers ASY001-ASY006)
from repro.lint import domain  # noqa: F401  (registers REP001-REP007)
from repro.lint.driver import FileLintResult, lint_source
from repro.lint.findings import Finding
from repro.lint.rules import (
    LintUsageError,
    code_enabled,
    code_family,
    selected_rules,
)

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro_cache"})

#: Version tag of the JSON finding payload shared by ``repro lint
#: --json`` and the runtime sanitizer, so CI artifacts from both tools
#: are diffable with the same machinery.
FINDINGS_SCHEMA = "repro-findings/1"


def findings_payload(
    findings: Sequence[Finding], tool: str
) -> Dict[str, object]:
    """The schema-stable core shared by lint and sanitizer output."""
    by_code: Dict[str, int] = {}
    by_family: Dict[str, int] = {}
    for finding in findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
        family = code_family(finding.code)
        by_family[family] = by_family.get(family, 0) + 1
    return {
        "schema": FINDINGS_SCHEMA,
        "tool": tool,
        "findings": [f.to_dict() for f in sorted(findings)],
        "counts_by_code": {c: by_code[c] for c in sorted(by_code)},
        "counts_by_family": {f: by_family[f] for f in sorted(by_family)},
        "clean": not findings,
    }


@dataclass
class LintReport:
    """Outcome of one lint invocation."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    noqa_suppressed: int = 0
    elapsed_s: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_dict(self) -> Dict[str, object]:
        payload = findings_payload(self.findings, tool="lint")
        payload.update({
            "files_scanned": self.files_scanned,
            "suppressed": {"noqa": self.noqa_suppressed},
            "elapsed_s": round(self.elapsed_s, 3),
        })
        return payload


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    if not paths:
        raise LintUsageError("no paths given")
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise LintUsageError("no such file or directory: %s" % path)
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique = []
    for name in sorted(files):
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return unique


def lint_text(
    text: str,
    path: str,
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
) -> FileLintResult:
    """Lint one source string under a virtual path (testing seam)."""
    result = lint_source(text, path, selected_rules(select, ignore))
    result.findings = [
        f for f in result.findings if code_enabled(f.code, select, ignore)
    ]
    return result


def lint_paths(
    paths: Sequence[str],
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
) -> LintReport:
    """Lint files/directories and return the aggregate report."""
    start = time.perf_counter()
    report = LintReport()
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise LintUsageError("cannot read %s: %s" % (filename, exc))
        result = lint_text(text, filename, select=select, ignore=ignore)
        findings.extend(result.findings)
        report.noqa_suppressed += result.noqa_suppressed
        report.files_scanned += 1
    report.findings = sorted(findings)
    report.elapsed_s = time.perf_counter() - start
    return report


def format_human(report: LintReport) -> str:
    """Render findings plus a one-line summary, pyflakes-style."""
    lines = [finding.format() for finding in report.findings]
    if report.findings:
        families: Dict[str, int] = {}
        for finding in report.findings:
            family = code_family(finding.code)
            families[family] = families.get(family, 0) + 1
        lines.append(
            "findings by family: "
            + ", ".join(
                "%s %d" % (family, families[family])
                for family in sorted(families)
            )
        )
    suffix = (
        " (%d noqa suppressed)" % report.noqa_suppressed
        if report.noqa_suppressed else ""
    )
    lines.append(
        "checked %d file%s in %.2fs: %s%s"
        % (
            report.files_scanned,
            "" if report.files_scanned == 1 else "s",
            report.elapsed_s,
            "clean"
            if not report.findings
            else "%d finding%s" % (
                len(report.findings),
                "" if len(report.findings) == 1 else "s",
            ),
            suffix,
        )
    )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
