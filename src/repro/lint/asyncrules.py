"""Async-safety rules ASY001-ASY006: the serve concurrency contract.

The asyncio service layer (``repro.serve``, ``repro.obs``) rests on
invariants the determinism family (REP001-REP008) never looks at:

- ASY001: a coroutine must never block the event loop.  A stray
  ``time.sleep``, synchronous file/socket I/O, or subprocess call inside
  an ``async def`` stalls *every* shard worker sharing the loop and
  silently destroys the tail latencies BENCH_serve.json tracks.
  Deliberate offload points hand the callable to a worker thread
  (``await asyncio.to_thread(fn, ...)`` — legal because ``fn`` is
  passed by reference, never called on the loop) or carry a justified
  ``# repro: noqa[ASY001]``.
- ASY002: a spawned task or coroutine whose result is neither awaited,
  gathered, nor retained loses its exceptions: asyncio only keeps a
  weak reference to tasks, so a dropped ``create_task`` handle can be
  garbage-collected mid-flight and its traceback evaporates.
- ASY003: ``await`` while holding a synchronous ``threading`` lock
  parks the coroutine with the lock held; any other thread (or, after
  a reentrant call, the loop itself) that wants the lock deadlocks.
- ASY004: module-global mutable state written from function scope in
  the serve/obs packages bypasses the asyncio-queue shard boundary
  that makes concurrent workers safe; shared state must ride the queue
  or live on the owning object.
- ASY005: host timers (``time.monotonic`` &c.) called in ``repro.serve``
  break replay determinism and hide latency from the injectable clocks;
  serve code takes a ``clock`` parameter instead (holding a *reference*
  like ``clock or time.monotonic`` as the production default is the
  carve-out, and ``repro.obs`` owns real-time measurement outright).
- ASY006: loop-ambient APIs (``asyncio.get_event_loop`` &c.) are
  deprecated and bind code to a magic global loop; use
  ``asyncio.get_running_loop`` inside coroutines and ``asyncio.run``
  at the edges.

See DESIGN.md, "Concurrency contract for repro.serve".
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.driver import LintContext
from repro.lint.rules import Rule, register

#: repro subpackages whose code runs inside the service event loop.
ASYNC_PACKAGES = frozenset({"serve", "obs"})

#: Resolved call origins that block the calling thread.  Inside an
#: ``async def`` that thread is the event loop.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.system", "os.popen", "os.wait", "os.waitpid",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname", "socket.gethostbyaddr",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put", "requests.delete",
    "requests.head", "requests.patch", "requests.request",
    "requests.Session",
})

#: Builtins that block (file open, terminal read).
BLOCKING_BUILTINS = frozenset({"open", "input"})

#: repro-internal helpers known to hit the disk (trace exports, cache
#: writers).  Calling one from a coroutine blocks the loop exactly like
#: stdlib file I/O; offload with ``asyncio.to_thread``.
BLOCKING_INTERNAL = frozenset({
    "repro.telemetry.export.write_jsonl",
    "repro.telemetry.export.write_perfetto_json",
})

#: Deliberate always-on-the-loop escape hatch: resolved origins here are
#: exempt from ASY001 everywhere.  Deliberately empty — one-off offload
#: decisions belong next to the call site as a justified
#: ``# repro: noqa[ASY001] reason``, where review can see them; add an
#: origin here only when an idiom is repo-wide.
ASY001_ALLOWLIST: frozenset = frozenset()


def _blocking_origin(node: ast.Call, ctx: LintContext) -> Optional[str]:
    """The blocking origin a call resolves to, or None if harmless."""
    resolved = ctx.resolve_name(node.func)
    if resolved is None:
        return None
    if resolved in ASY001_ALLOWLIST:
        return None
    if resolved in BLOCKING_CALLS or resolved in BLOCKING_INTERNAL:
        return resolved
    if resolved in BLOCKING_BUILTINS:
        return resolved
    return None


@register
class BlockingCallInCoroutineRule(Rule):
    """ASY001: blocking call on the event loop."""

    code = "ASY001"
    name = "blocking-in-coroutine"
    summary = (
        "blocking calls (time.sleep, sync file/socket I/O, subprocess) "
        "inside async def stall every task on the loop; offload with "
        "asyncio.to_thread or justify with a noqa"
    )

    def __init__(self) -> None:
        # name of a module-level *sync* function -> (origin, lineno) of
        # the first blocking call in its body, for one-hop propagation.
        self._sync_blockers: Dict[str, Tuple[str, int]] = {}

    def visit_Module(self, node: ast.Module, ctx: LintContext) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.FunctionDef):
                continue
            parent = ctx.parent(sub)
            if not isinstance(parent, ast.Module):
                continue
            for inner in _walk_function_body(sub):
                if isinstance(inner, ast.Call):
                    origin = _blocking_origin(inner, ctx)
                    if origin is not None:
                        self._sync_blockers[sub.name] = (
                            origin, inner.lineno
                        )
                        break

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        function = ctx.enclosing_function(node)
        if not isinstance(function, ast.AsyncFunctionDef):
            return
        origin = _blocking_origin(node, ctx)
        if origin is not None:
            ctx.report(node, self.code, (
                "%s blocks the event loop inside 'async def %s'; offload "
                "with 'await asyncio.to_thread(...)' or justify the "
                "stall with a noqa" % (origin, function.name)
            ))
            return
        # One-hop propagation: calling a same-file sync helper that
        # itself blocks (the helper's own body is not in async scope,
        # so the direct check above cannot see it).
        func = node.func
        if isinstance(func, ast.Name) and func.id in self._sync_blockers:
            origin, lineno = self._sync_blockers[func.id]
            ctx.report(node, self.code, (
                "%s() blocks the event loop inside 'async def %s' (it "
                "calls %s at line %d); offload with "
                "'await asyncio.to_thread(%s, ...)'"
                % (func.id, function.name, origin, lineno, func.id)
            ))


@register
class DroppedAwaitableRule(Rule):
    """ASY002: coroutine/task result dropped on the floor."""

    code = "ASY002"
    name = "dropped-awaitable"
    summary = (
        "a coroutine or task whose result is neither awaited, gathered, "
        "nor retained loses its exceptions (asyncio holds tasks weakly); "
        "keep the handle or await it"
    )

    TASK_SPAWNERS = frozenset({
        "asyncio.create_task", "asyncio.ensure_future",
    })
    SPAWNER_ATTRS = frozenset({"create_task", "ensure_future"})
    AWAITABLE_FACTORIES = frozenset({
        "asyncio.gather", "asyncio.wait", "asyncio.wait_for",
        "asyncio.shield", "asyncio.sleep", "asyncio.to_thread",
        "asyncio.open_connection", "asyncio.start_server",
    })

    def __init__(self) -> None:
        self._module_coros: Set[str] = set()
        self._class_coros: Dict[ast.ClassDef, Set[str]] = {}

    def visit_Module(self, node: ast.Module, ctx: LintContext) -> None:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.AsyncFunctionDef):
                continue
            parent = ctx.parent(sub)
            if isinstance(parent, ast.Module):
                self._module_coros.add(sub.name)
            elif isinstance(parent, ast.ClassDef):
                self._class_coros.setdefault(parent, set()).add(sub.name)

    def visit_Expr(self, node: ast.Expr, ctx: LintContext) -> None:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        func = call.func
        resolved = ctx.resolve_name(func)
        if resolved in self.TASK_SPAWNERS or (
            resolved not in self.TASK_SPAWNERS
            and isinstance(func, ast.Attribute)
            and func.attr in self.SPAWNER_ATTRS
        ):
            ctx.report(call, self.code, (
                "task handle from %s is dropped; asyncio keeps tasks "
                "weakly, so the task can be garbage-collected mid-flight "
                "and its exception lost — retain the handle and await or "
                "supervise it" % (resolved or func.attr)
            ))
            return
        if resolved in self.AWAITABLE_FACTORIES:
            ctx.report(call, self.code, (
                "%s(...) result is never awaited; the awaitable is "
                "discarded before it runs" % resolved
            ))
            return
        # A bare statement-position call of a same-file coroutine
        # function: the coroutine object is created and dropped, and
        # its body never executes.
        name: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in self._module_coros:
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            cls = ctx.enclosing_class(node)
            if cls is not None and func.attr in self._class_coros.get(
                cls, set()
            ):
                name = func.attr
        if name is not None:
            ctx.report(call, self.code, (
                "coroutine %s(...) is never awaited; the call creates a "
                "coroutine object and drops it without running the body"
                % name
            ))


@register
class AwaitUnderSyncLockRule(Rule):
    """ASY003: await while holding a synchronous lock."""

    code = "ASY003"
    name = "await-under-sync-lock"
    summary = (
        "awaiting while holding a sync threading lock parks the "
        "coroutine with the lock held and invites deadlock; use "
        "asyncio.Lock with 'async with'"
    )

    THREAD_LOCKS = frozenset({
        "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Semaphore", "threading.BoundedSemaphore",
    })
    LOCKISH_NAMES = frozenset({"lock", "mutex"})

    def visit_With(self, node: ast.With, ctx: LintContext) -> None:
        if not isinstance(
            ctx.enclosing_function(node), ast.AsyncFunctionDef
        ):
            return
        held = None
        for item in node.items:
            held = self._lockish(item.context_expr, ctx)
            if held is not None:
                break
        if held is None:
            return
        for sub in _walk_statements(node.body):
            if isinstance(sub, ast.Await):
                ctx.report(sub, self.code, (
                    "await while holding sync lock %s; the lock stays "
                    "held across the suspension — use asyncio.Lock with "
                    "'async with' instead" % held
                ))
                return

    def _lockish(
        self, expr: ast.AST, ctx: LintContext
    ) -> Optional[str]:
        if isinstance(expr, ast.Call):
            resolved = ctx.resolve_name(expr.func)
            if resolved in self.THREAD_LOCKS:
                return resolved + "()"
            return None
        resolved = ctx.resolve_name(expr)
        if resolved is None:
            return None
        leaf = resolved.split(".")[-1].lstrip("_").lower()
        if leaf in self.LOCKISH_NAMES:
            return resolved
        return None


@register
class SharedMutableStateRule(Rule):
    """ASY004: module-global mutable state crossing the shard boundary."""

    code = "ASY004"
    name = "shared-mutable-state"
    summary = (
        "module-global mutable state written from function scope in "
        "serve/obs bypasses the asyncio-queue shard boundary; route "
        "shared state through the queue or the owning object"
    )

    MUTABLE_CALLS = frozenset({
        "list", "dict", "set", "bytearray",
        "defaultdict", "deque", "Counter", "OrderedDict",
    })
    _MUTABLE_LITERALS = (
        ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
        ast.SetComp,
    )
    MUTATORS = frozenset({
        "append", "extend", "add", "update", "insert", "pop", "popitem",
        "remove", "discard", "clear", "setdefault", "appendleft",
        "extendleft",
    })

    def visit_Module(self, node: ast.Module, ctx: LintContext) -> None:
        if not ctx.in_packages(ASYNC_PACKAGES):
            return
        shared = self._module_mutables(node)
        for sub in ast.walk(node):
            if not isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for stmt in ast.walk(sub):
                if isinstance(stmt, ast.Global):
                    ctx.report(stmt, self.code, (
                        "'global %s' rebinds module state from function "
                        "scope; shard workers run concurrently — pass "
                        "state through the shard queue or keep it on the "
                        "owning object" % ", ".join(stmt.names)
                    ))
                elif isinstance(stmt, ast.Call):
                    func = stmt.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr in self.MUTATORS
                        and isinstance(func.value, ast.Name)
                        and func.value.id in shared
                    ):
                        ctx.report(stmt, self.code, (
                            "mutates module-global %r from function "
                            "scope; shared state must ride the shard "
                            "queue boundary" % func.value.id
                        ))
                elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
                    targets = (
                        stmt.targets
                        if isinstance(stmt, ast.Assign)
                        else [stmt.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in shared
                        ):
                            ctx.report(stmt, self.code, (
                                "stores into module-global %r from "
                                "function scope; shared state must ride "
                                "the shard queue boundary"
                                % target.value.id
                            ))

    def _module_mutables(self, module: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for stmt in module.body:
            value = None
            targets: List[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                value, targets = stmt.value, list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                value, targets = stmt.value, [stmt.target]
            if value is None or not self._is_mutable(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def _is_mutable(self, expr: ast.AST) -> bool:
        if isinstance(expr, self._MUTABLE_LITERALS):
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
class ServeWallClockRule(Rule):
    """ASY005: host timers called in the serve tree."""

    code = "ASY005"
    name = "serve-wall-clock"
    summary = (
        "repro.serve reads time through injected clocks only (replay "
        "and chaos gates step them deterministically); host timer "
        "*calls* are banned there while repro.obs owns real-time "
        "measurement"
    )

    #: Same relative-timer set REP002 bans inside SIM_PACKAGES; ASY005
    #: tightens the package scoping to the serve tree.  Absolute
    #: timestamps are already banned everywhere by REP002.
    RELATIVE = frozenset({
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "time.localtime", "time.gmtime", "time.ctime", "time.asctime",
    })

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if not ctx.in_packages(frozenset({"serve"})):
            return
        resolved = ctx.resolve_name(node.func)
        if resolved in self.RELATIVE:
            ctx.report(node, self.code, (
                "%s called in repro.serve; read time through the "
                "injected clock (holding the function as a default "
                "reference, 'clock or time.monotonic', stays legal)"
                % resolved
            ))


@register
class LoopAmbientApiRule(Rule):
    """ASY006: deprecated loop-ambient asyncio APIs."""

    code = "ASY006"
    name = "loop-ambient-api"
    summary = (
        "asyncio.get_event_loop and friends bind code to a deprecated "
        "ambient loop; use asyncio.get_running_loop inside coroutines "
        "and asyncio.run at the edges"
    )

    BANNED = frozenset({
        "asyncio.get_event_loop", "asyncio.events.get_event_loop",
        "asyncio.get_child_watcher", "asyncio.set_child_watcher",
        "asyncio.coroutine",
    })

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        resolved = ctx.resolve_name(node.func)
        if resolved in self.BANNED:
            ctx.report(node, self.code, (
                "%s is a deprecated loop-ambient API; use "
                "asyncio.get_running_loop() inside coroutines and "
                "asyncio.run(...) at the entry points" % resolved
            ))


def _walk_function_body(function: ast.AST):
    """Walk a function body without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
        )):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _walk_statements(body):
    """Walk a statement list without descending into nested scopes."""
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
        )):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))
