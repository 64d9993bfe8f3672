"""Finding records produced by the determinism linter.

A :class:`Finding` is one rule violation anchored to a source location.
Findings sort by (path, line, col, code) so output is stable regardless
of rule execution order, and they serialize to plain dicts for the
``--json`` output mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    Attributes:
        path: the file, normalized to forward slashes.
        line: 1-based source line of the offending node.
        col: 0-based column of the offending node.
        code: the rule code, e.g. ``"REP001"``.
        message: human-readable explanation of the violation.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """Render ``path:line:col: CODE message`` (1-based column)."""
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col + 1, self.code, self.message
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
