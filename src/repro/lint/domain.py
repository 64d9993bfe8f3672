"""Domain rules REP001-REP007: the simulation determinism contract.

Every rule encodes one invariant the reproduction's results rest on:

- REP001: all randomness derives from a job's ``master_seed`` through
  named :class:`~repro.sim.rng.RandomStreams` streams — never the
  process-global ``random`` module or numpy's legacy global RNG.
- REP002: simulation code reads simulated time from the engine clock,
  never the wall clock.  Absolute wall-clock timestamps (``time.time``,
  ``datetime.now``) are banned everywhere because they leak
  nondeterminism into artifacts (sweep logs, reports); relative
  timers (``perf_counter`` &c.) are additionally banned inside the
  sim-facing packages.
- REP003: iterating a set produces a hash-order sequence (randomized
  per process for strings via ``PYTHONHASHSEED``), so result-producing
  sim code must wrap set-typed iterables in ``sorted(...)``.  CPython
  dict views are insertion-ordered and therefore allowed.
- REP004: exact float ``==`` / ``!=`` is brittle across refactors and
  platforms; use ``math.isclose`` or an explicit tolerance.  Exact
  sentinel checks (``x == 0.0`` guarding a division) stay legal via a
  justified ``# repro: noqa[REP004]``.
- REP005: mutable default arguments alias state across calls — and
  across *runs* within one process, breaking run independence.
- REP006: ``object.__setattr__`` on frozen spec dataclasses outside
  ``__post_init__`` mutates objects whose content hash may already be
  part of the orchestrator's cache key.
- REP007: bare / overbroad ``except`` in the engine and channel hot
  paths can swallow the very errors the determinism tests exist to
  surface.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional, Set

from repro.lint.driver import SIM_PACKAGES, LintContext
from repro.lint.rules import Rule, register

_SET_ANNOTATION_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet",
})


@register
class GlobalRngRule(Rule):
    """REP001: randomness outside the named-stream discipline."""

    code = "REP001"
    name = "global-rng"
    summary = (
        "randomness must come from named RandomStreams streams "
        "(sim/rng.py), not the process-global random module or "
        "numpy's legacy global RNG"
    )

    #: numpy.random attributes that hit the legacy global RandomState or
    #: construct one.  The modern explicit API (default_rng, Generator,
    #: PCG64, SeedSequence, ...) is allowed.
    NUMPY_LEGACY = frozenset({
        "RandomState", "seed", "get_state", "set_state", "bytes",
        "random", "rand", "randn", "randint", "random_integers",
        "random_sample", "ranf", "sample", "choice", "shuffle",
        "permutation", "uniform", "normal", "standard_normal",
        "exponential", "poisson", "binomial", "negative_binomial",
        "beta", "gamma", "standard_gamma", "lognormal", "geometric",
        "triangular", "vonmises", "weibull", "pareto", "rayleigh",
        "laplace", "logistic", "gumbel", "wald", "zipf", "power",
        "multinomial", "multivariate_normal", "dirichlet", "chisquare",
        "noncentral_chisquare", "f", "noncentral_f", "standard_cauchy",
        "standard_exponential", "standard_t", "hypergeometric",
        "logseries",
    })

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if ctx.is_module("sim", "rng.py"):
            return  # the one module allowed to construct streams
        resolved = ctx.resolve_name(node.func)
        if resolved is None:
            return
        if resolved.startswith("random."):
            ctx.report(node, self.code, (
                "%s draws from the process-global random module; derive "
                "randomness from a named RandomStreams stream instead "
                "(a deliberately seeded instance needs a justified noqa)"
                % resolved
            ))
        elif resolved.startswith("numpy.random."):
            leaf = resolved[len("numpy.random."):]
            if leaf in self.NUMPY_LEGACY:
                ctx.report(node, self.code, (
                    "%s uses numpy's legacy global RNG API; use the "
                    "generator returned by RandomStreams.get(...) "
                    "(or numpy.random.default_rng with an explicit seed)"
                    % resolved
                ))


@register
class WallClockRule(Rule):
    """REP002: wall-clock reads where simulated time is required."""

    code = "REP002"
    name = "wall-clock"
    summary = (
        "sim-facing code must read simulated time from the engine, "
        "never the wall clock; absolute timestamps are banned everywhere"
    )

    #: Absolute timestamps: nondeterministic in any artifact, anywhere.
    ABSOLUTE = frozenset({
        "time.time", "time.time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })
    #: Relative/process timers: legitimate for orchestration wall-time
    #: accounting, but meaningless (and nondeterministic) in sim code.
    RELATIVE = frozenset({
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
    })

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        resolved = ctx.resolve_name(node.func)
        if resolved is None:
            return
        if resolved in self.ABSOLUTE:
            ctx.report(node, self.code, (
                "%s reads the wall clock; results and artifacts must be "
                "reproducible from the master seed alone (wall-clock "
                "metadata needs a justified noqa)" % resolved
            ))
        elif resolved in self.RELATIVE and ctx.in_packages(SIM_PACKAGES):
            ctx.report(node, self.code, (
                "%s reads host time inside a sim-facing package; use the "
                "engine's simulated clock" % resolved
            ))


@register
class UnsortedSetIterationRule(Rule):
    """REP003: hash-ordered iteration reaching simulation results."""

    code = "REP003"
    name = "unsorted-set-iteration"
    summary = (
        "sim code must not iterate set-typed expressions without "
        "sorted(...): set order is hash order, randomized for strings"
    )

    #: Consumers whose result does not depend on element order, so a
    #: set argument is fine.  ``sum`` is deliberately absent: float
    #: addition is not associative, so even ``sum`` over a set is
    #: order-sensitive at the bit level.
    ORDER_INSENSITIVE = frozenset({
        "sorted", "set", "frozenset", "min", "max", "any", "all", "len",
    })
    SET_METHODS = frozenset({
        "union", "intersection", "difference", "symmetric_difference",
        "copy",
    })
    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    def __init__(self) -> None:
        self._scope_names: Dict[ast.AST, Set[str]] = {}
        self._class_attrs: Dict[ast.ClassDef, Set[str]] = {}

    # -- visitors -----------------------------------------------------

    def visit_For(self, node: ast.For, ctx: LintContext) -> None:
        self._check_iter(node.iter, ctx)

    def visit_ListComp(self, node: ast.ListComp, ctx: LintContext) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, ctx)

    def visit_DictComp(self, node: ast.DictComp, ctx: LintContext) -> None:
        for gen in node.generators:
            self._check_iter(gen.iter, ctx)

    def visit_GeneratorExp(
        self, node: ast.GeneratorExp, ctx: LintContext
    ) -> None:
        parent = ctx.parent(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            func = parent.func
            if (
                isinstance(func, ast.Name)
                and func.id in self.ORDER_INSENSITIVE
            ):
                return
        for gen in node.generators:
            self._check_iter(gen.iter, ctx)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        # list(s) / tuple(s) materialize hash order; ''.join(s) too.
        func = node.func
        ordered = (
            isinstance(func, ast.Name) and func.id in ("list", "tuple")
        ) or (isinstance(func, ast.Attribute) and func.attr == "join")
        if ordered and len(node.args) == 1:
            self._check_iter(node.args[0], ctx)

    # -- helpers ------------------------------------------------------

    def _check_iter(self, expr: ast.AST, ctx: LintContext) -> None:
        if not ctx.in_packages(SIM_PACKAGES):
            return
        if self._is_set_expr(expr, ctx):
            ctx.report(expr, self.code, (
                "iteration order over a set is nondeterministic; wrap "
                "the iterable in sorted(...) before it can influence "
                "results"
            ))

    def _is_set_expr(self, expr: ast.AST, ctx: LintContext) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in (
                "set", "frozenset"
            ):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.SET_METHODS
            ):
                return self._is_set_expr(func.value, ctx)
            return False
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, self._SET_OPS
        ):
            return (
                self._is_set_expr(expr.left, ctx)
                or self._is_set_expr(expr.right, ctx)
            )
        if isinstance(expr, ast.Name):
            scope = ctx.enclosing_function(expr) or ctx.tree
            return expr.id in self._set_names(scope, ctx)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ) and expr.value.id == "self":
            cls = ctx.enclosing_class(expr)
            return cls is not None and expr.attr in self._self_attrs(cls)
        return False

    def _set_names(self, scope: ast.AST, ctx: LintContext) -> Set[str]:
        """Names bound to set-typed values within one function scope.

        Two-pass fixpoint: the first pass catches names assigned
        syntactic set expressions or annotated as sets, the second pass
        catches names derived from those.  A name ever assigned a value
        we cannot prove set-typed is dropped (no-false-positive bias).
        """
        cached = self._scope_names.get(scope)
        if cached is not None:
            return cached

        assigns: Dict[str, list] = {}
        annotated: Set[str] = set()
        for sub in self._walk_scope(scope):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        assigns.setdefault(target.id, []).append(sub.value)
            elif isinstance(sub, ast.AnnAssign):
                if isinstance(sub.target, ast.Name) and _is_set_annotation(
                    sub.annotation
                ):
                    annotated.add(sub.target.id)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            every = (
                list(getattr(args, "posonlyargs", []))
                + list(args.args) + list(args.kwonlyargs)
            )
            for arg in every:
                if arg.annotation is not None and _is_set_annotation(
                    arg.annotation
                ):
                    annotated.add(arg.arg)

        names: Set[str] = set(annotated)
        for _ in range(2):
            self._scope_names[scope] = names  # visible to _is_set_expr
            resolved: Set[str] = set(annotated)
            for name, values in assigns.items():
                if name in annotated:
                    continue
                if all(self._is_set_expr(v, ctx) for v in values):
                    resolved.add(name)
            if resolved == names:
                break
            names = resolved
        self._scope_names[scope] = names
        return names

    def _self_attrs(self, cls: ast.ClassDef) -> Set[str]:
        """``self.<attr>`` names annotated as sets anywhere in a class."""
        cached = self._class_attrs.get(cls)
        if cached is not None:
            return cached
        attrs: Set[str] = set()
        for sub in ast.walk(cls):
            if isinstance(sub, ast.AnnAssign) and _is_set_annotation(
                sub.annotation
            ):
                target = sub.target
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
                elif isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id == "self":
                    attrs.add(target.attr)
        self._class_attrs[cls] = attrs
        return attrs

    @staticmethod
    def _walk_scope(scope: ast.AST):
        """Walk a scope without descending into nested scopes."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (
                ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef,
            )):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _is_set_annotation(ann: Optional[ast.AST]) -> bool:
    if ann is None:
        return False
    if isinstance(ann, ast.Name):
        return ann.id in _SET_ANNOTATION_NAMES
    if isinstance(ann, ast.Attribute):
        return ann.attr in _SET_ANNOTATION_NAMES
    if isinstance(ann, ast.Subscript):
        return _is_set_annotation(ann.value)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        head = ann.value.split("[")[0].strip()
        return head.split(".")[-1] in _SET_ANNOTATION_NAMES
    return False


@register
class FloatEqualityRule(Rule):
    """REP004: exact equality on floats."""

    code = "REP004"
    name = "float-equality"
    summary = (
        "float == / != comparisons are brittle; use math.isclose or an "
        "explicit tolerance (exact sentinel checks need a justified noqa)"
    )

    def visit_Compare(self, node: ast.Compare, ctx: LintContext) -> None:
        if not ctx.in_repro_package():
            return  # tests may assert exact fixture values
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if _is_floatish(left) or _is_floatish(right):
                ctx.report(node, self.code, (
                    "exact float comparison; use math.isclose or an "
                    "explicit tolerance"
                ))
                return  # one finding per comparison chain


def _is_floatish(expr: ast.AST) -> bool:
    if isinstance(expr, ast.Constant):
        return isinstance(expr.value, float)
    if isinstance(expr, ast.UnaryOp) and isinstance(
        expr.op, (ast.USub, ast.UAdd)
    ):
        return _is_floatish(expr.operand)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id == "float"
    return False


@register
class MutableDefaultRule(Rule):
    """REP005: mutable default arguments."""

    code = "REP005"
    name = "mutable-default"
    summary = (
        "mutable default arguments alias state across calls and runs; "
        "default to None (or a frozen value) and construct inside"
    )

    MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray",
        "defaultdict", "deque", "Counter", "OrderedDict",
    })
    _LITERALS = (
        ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
        ast.SetComp,
    )

    def visit_FunctionDef(
        self, node: ast.FunctionDef, ctx: LintContext
    ) -> None:
        self._check(node, ctx)

    def visit_AsyncFunctionDef(
        self, node: ast.AsyncFunctionDef, ctx: LintContext
    ) -> None:
        self._check(node, ctx)

    def visit_Lambda(self, node: ast.Lambda, ctx: LintContext) -> None:
        self._check(node, ctx)

    def _check(self, node: ast.AST, ctx: LintContext) -> None:
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(default, self.code, (
                    "mutable default argument is shared across calls; "
                    "use None and construct a fresh value in the body"
                ))

    def _is_mutable(self, expr: ast.AST) -> bool:
        if isinstance(expr, self._LITERALS):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            return name in self.MUTABLE_CALLS
        return False


@register
class FrozenSetattrRule(Rule):
    """REP006: mutating frozen specs outside ``__post_init__``."""

    code = "REP006"
    name = "frozen-setattr"
    summary = (
        "object.__setattr__ on frozen spec dataclasses is only legal "
        "inside __post_init__, before the object's hash can be observed"
    )

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if not ctx.in_repro_package():
            return
        if ctx.resolve_name(node.func) != "object.__setattr__":
            return
        function = ctx.enclosing_function(node)
        name = getattr(function, "name", None)
        if name != "__post_init__":
            ctx.report(node, self.code, (
                "object.__setattr__ outside __post_init__ mutates a "
                "frozen spec after its content hash may have been taken"
            ))


@register
class OverbroadExceptRule(Rule):
    """REP007: blanket exception handlers in sim/net hot paths."""

    code = "REP007"
    name = "overbroad-except"
    summary = (
        "bare or Exception-wide handlers in the engine and channel hot "
        "paths can swallow determinism bugs; catch specific exceptions"
    )

    HOT_PACKAGES = frozenset({"sim", "net"})
    BROAD = frozenset({"Exception", "BaseException"})

    def visit_ExceptHandler(
        self, node: ast.ExceptHandler, ctx: LintContext
    ) -> None:
        if not ctx.in_packages(self.HOT_PACKAGES):
            return
        if node.type is None:
            ctx.report(node, self.code, (
                "bare except in a sim/net hot path hides failures; "
                "catch the specific exception"
            ))
            return
        exc_types = (
            list(node.type.elts)
            if isinstance(node.type, ast.Tuple)
            else [node.type]
        )
        for exc in exc_types:
            resolved = ctx.resolve_name(exc)
            if resolved in self.BROAD:
                ctx.report(node, self.code, (
                    "except %s in a sim/net hot path hides failures; "
                    "catch the specific exception" % resolved
                ))
                return
