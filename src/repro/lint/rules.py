"""Rule framework: base class, registry, and code selection.

A rule is a class with ``visit_<NodeType>`` methods, mirroring how real
lint frameworks (pyflakes checkers, ruff plugins) structure their
checks.  Rules never traverse the tree themselves: the driver parses
each file once, walks the AST once, and dispatches every node to every
interested rule, so adding a rule never adds a parse or a traversal.

Rules register themselves with the :func:`register` decorator; the
registry maps codes (``REP001``, ``ASY001``...) to rule classes and
backs the CLI's ``--select`` / ``--ignore`` flags and ``--list-rules``
output.  Codes group into *families* by their three-letter prefix:
``REP`` is the determinism contract, ``ASY`` the async-safety contract,
and ``SAN`` the runtime sanitizer's reserved range.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, List, Optional, Type

#: Framework-level codes that are emitted by the driver itself rather
#: than by a registered rule, but participate in select/ignore.
PARSE_ERROR_CODE = "REP000"
BAD_NOQA_CODE = "REP008"

FRAMEWORK_CODES: Dict[str, str] = {
    PARSE_ERROR_CODE: "file could not be parsed as Python",
    BAD_NOQA_CODE: (
        "a '# repro: noqa[...]' suppression is missing its justification"
    ),
}

_CODE_RE = re.compile(r"^[A-Z]{3}\d{3}$")


def code_family(code: str) -> str:
    """Three-letter family prefix of a rule code (``REP001`` -> ``REP``)."""
    return code[:3]


class LintUsageError(Exception):
    """A bad invocation: unknown code, missing or unreadable path.

    Maps to exit code 2, distinct from exit code 1 (findings present).
    """


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes below and implement one or more
    ``visit_<NodeType>(self, node, ctx)`` methods, where ``<NodeType>``
    is an :mod:`ast` class name (``Call``, ``Compare``, ...) and ``ctx``
    is the per-file :class:`~repro.lint.driver.LintContext`.  Report
    violations with ``ctx.report(node, self.code, message)``.

    Rules are instantiated once per linted file, so per-file caches may
    live on ``self``.
    """

    code: str = ""
    name: str = ""
    summary: str = ""


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(
            "rule code must match a three-letter family plus three "
            "digits (REPnnn, ASYnnn, ...), got %r" % cls.code
        )
    if cls.code in FRAMEWORK_CODES:
        raise ValueError("code %s is reserved for the framework" % cls.code)
    if cls.code in _REGISTRY:
        raise ValueError("duplicate rule code %s" % cls.code)
    if not cls.name or not cls.summary:
        raise ValueError("rule %s needs a name and a summary" % cls.code)
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    """Registered rules, keyed and ordered by code."""
    return {code: _REGISTRY[code] for code in sorted(_REGISTRY)}


def known_codes() -> FrozenSet[str]:
    """Every selectable code: registered rules plus framework codes."""
    return frozenset(_REGISTRY) | frozenset(FRAMEWORK_CODES)


def parse_code_list(text: Optional[str], flag: str) -> Optional[FrozenSet[str]]:
    """Parse a ``--select`` / ``--ignore`` comma list, validating codes.

    A bare three-letter family prefix selects every known code in that
    family: ``--select ASY`` is shorthand for ``ASY001,...,ASY006``.
    """
    if text is None:
        return None
    tokens = frozenset(c.strip().upper() for c in text.split(",") if c.strip())
    if not tokens:
        raise LintUsageError("%s needs at least one code" % flag)
    codes = set()
    for token in tokens:
        if re.fullmatch(r"[A-Z]{3}", token):
            family = frozenset(
                c for c in known_codes() if code_family(c) == token
            )
            if not family:
                raise LintUsageError(
                    "unknown rule family for %s: %s" % (flag, token)
                )
            codes |= family
        else:
            codes.add(token)
    codes = frozenset(codes)
    unknown = sorted(codes - known_codes())
    if unknown:
        raise LintUsageError(
            "unknown code%s for %s: %s (known: %s)"
            % ("" if len(unknown) == 1 else "s", flag, ", ".join(unknown),
               ", ".join(sorted(known_codes())))
        )
    return codes


def selected_rules(
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
) -> List[Type[Rule]]:
    """Rule classes active under a select/ignore pair."""
    active = []
    for code, cls in all_rules().items():
        if select is not None and code not in select:
            continue
        if ignore is not None and code in ignore:
            continue
        active.append(cls)
    return active


def code_enabled(
    code: str,
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
) -> bool:
    """Is a (possibly framework-level) code active under select/ignore?"""
    if select is not None and code not in select:
        return False
    if ignore is not None and code in ignore:
        return False
    return True
