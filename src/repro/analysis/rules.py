"""The repro-verify rule catalog: one machine-checked rule per ROADMAP invariant.

Every rule below enforces a documented operational invariant of the serving
stack (see the invariant-catalog table in ROADMAP.md for the prose each rule
is compiled from).  The rules are deliberately *repo-shaped*: they know the
names of this codebase's locks, logs and caches, because a generic linter
cannot know that ``_log`` must precede ``insert_many`` inside the attribute
lock, or that a replica's incarnation must be read before its view is fetched.

Rules are written as AST pattern checks over a :class:`~repro.analysis.engine.SourceModule`
and registered with the :func:`rule` decorator; ``python -m repro.analysis``
runs the whole registry and exits non-zero on violations.  False positives
are expected to be rare but not impossible -- that is what the justified
suppression comments are for.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from .engine import SourceModule

__all__ = ["Rule", "all_rules", "get_rule", "rule"]

Finding = tuple[int, str]
CheckFn = Callable[[SourceModule], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered rule: id, summary, path filter, check function."""

    rule_id: str
    title: str
    description: str
    paths: tuple[str, ...]
    check: CheckFn


_REGISTRY: dict[str, Rule] = {}


def rule(
    rule_id: str, title: str, *, paths: tuple[str, ...] = (), description: str = ""
) -> Callable[[CheckFn], CheckFn]:
    """Register a check function under ``rule_id``.

    ``paths`` are substring filters against the module's POSIX path; an empty
    tuple applies the rule everywhere.
    """

    def decorate(check: CheckFn) -> CheckFn:
        if rule_id in _REGISTRY:
            raise ValueError(f"duplicate rule id {rule_id!r}")
        _REGISTRY[rule_id] = Rule(
            rule_id=rule_id,
            title=title,
            description=description or title,
            paths=paths,
            check=check,
        )
        return check

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, in id order."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    return _REGISTRY[rule_id]


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def _call_name(node: ast.Call) -> str | None:
    """The called name: ``f(...)`` -> ``f``, ``a.b.f(...)`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_name(node: ast.expr) -> str | None:
    """The base variable of an attribute chain: ``a.b.c`` -> ``a``."""
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _identifiers(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr inside ``node``."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def _is_lock_like(expr: ast.expr) -> bool:
    """True when the expression mentions an identifier containing 'lock'."""
    return any("lock" in name.lower() for name in _identifiers(expr))


def _is_attribute_lock(expr: ast.expr) -> bool:
    """An attribute lock: ``<obj>.lock`` where ``<obj>`` is not ``self``.

    The store keeps one reentrant lock per attribute (``attribute.lock``)
    and the ingest pipeline one per buffer (``buffer.lock``); both follow
    the ``<entry>.lock`` naming convention this predicate keys on.
    """
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "lock"
        and _receiver_name(expr) != "self"
    )


def _is_registry_lock(expr: ast.expr) -> bool:
    """The store-level registry lock: ``self._registry_lock`` (any receiver)."""
    return any(name == "_registry_lock" for name in _identifiers(expr))


def _with_items(node: ast.With | ast.AsyncWith) -> list[ast.expr]:
    return [item.context_expr for item in node.items]


def _calls(node: ast.AST) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def _enclosing_withs(
    module: SourceModule, node: ast.AST
) -> Iterator[ast.With | ast.AsyncWith]:
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            yield ancestor


# ----------------------------------------------------------------------
# REP001 -- lock ordering
# ----------------------------------------------------------------------
@rule(
    "REP001",
    "lock order: registry lock before attribute locks; all-locks loops sorted",
    paths=("repro/service/", "repro/cluster/"),
    description=(
        "The store's deadlock-freedom rests on one global order: the registry "
        "lock is always acquired BEFORE any per-attribute lock, and code that "
        "acquires many attribute locks (compaction's stop-the-world section) "
        "must take them in sorted name order.  Acquiring the registry lock "
        "while holding an attribute lock, or looping over attribute locks "
        "without a sorted() iteration, inverts that order."
    ),
)
def check_lock_order(module: SourceModule) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        items = _with_items(node)
        attr_positions = [i for i, e in enumerate(items) if _is_attribute_lock(e)]
        registry_positions = [i for i, e in enumerate(items) if _is_registry_lock(e)]
        # (a) one with-statement acquiring both: registry must come first.
        if attr_positions and registry_positions and min(attr_positions) < min(
            registry_positions
        ):
            yield (
                node.lineno,
                "registry lock acquired after an attribute lock in the same "
                "with statement; the global order is registry -> attribute",
            )
        # (b) registry acquisition nested inside a held attribute lock.
        if registry_positions:
            for ancestor in _enclosing_withs(module, node):
                if any(_is_attribute_lock(e) for e in _with_items(ancestor)):
                    yield (
                        node.lineno,
                        "registry lock acquired while holding an attribute "
                        "lock (inverts the registry -> attribute order; a "
                        "concurrent compact() would deadlock)",
                    )
                    break
    # (c) all-locks accumulation loops must iterate sorted names.
    for func in module.functions():
        enter_calls = [
            call
            for call in _calls(func)
            if _call_name(call) == "enter_context"
            and call.args
            and _is_attribute_lock(call.args[0])
        ]
        if not enter_calls:
            continue
        in_loop = [
            call
            for call in enter_calls
            if any(
                isinstance(a, (ast.For, ast.While)) for a in module.ancestors(call)
            )
        ]
        if not in_loop:
            continue
        has_sorted = any(
            isinstance(call.func, ast.Name) and call.func.id == "sorted"
            for call in _calls(func)
        )
        if not has_sorted:
            yield (
                in_loop[0].lineno,
                f"{func.name} accumulates attribute locks in a loop without a "
                "sorted(...) iteration; unordered all-locks acquisition can "
                "deadlock against a concurrent all-locks taker",
            )


# ----------------------------------------------------------------------
# REP002 -- log before apply, inside the ordering lock
# ----------------------------------------------------------------------
_REP002_MUTATOR_CALLS = {"insert_many", "delete_many"}


def _rep002_apply_nodes(with_node: ast.AST) -> Iterator[ast.AST]:
    """Mutation ('apply') nodes inside one with-block: the histogram batch
    calls, registry installs/removals and histogram replacement."""
    for node in ast.walk(with_node):
        if isinstance(node, ast.Call) and _call_name(node) in _REP002_MUTATOR_CALLS:
            yield node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) and target.attr == "histogram":
                    yield node
                elif isinstance(target, ast.Subscript) and any(
                    name == "_attributes" for name in _identifiers(target.value)
                ):
                    yield node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and any(
                    name == "_attributes" for name in _identifiers(target.value)
                ):
                    yield node


@rule(
    "REP002",
    "WAL records are logged before the mutation, inside the ordering lock",
    paths=("repro/service/store.py",),
    description=(
        "Replay determinism requires per-attribute log order == apply order, "
        "which holds only because every mutation logs BEFORE applying, inside "
        "the same critical section that orders the apply (attribute lock for "
        "insert/delete/restore, registry lock for create/drop).  A _log call "
        "outside a lock, or one that follows the mutation it records, breaks "
        "bit-identical recovery."
    ),
)
def check_log_before_apply(module: SourceModule) -> Iterator[Finding]:
    for func in module.functions():
        log_calls = [
            call
            for call in _calls(func)
            if _call_name(call) == "_log"
            or (
                _call_name(call) == "append"
                and isinstance(call.func, ast.Attribute)
                and "_wal" in set(_identifiers(call.func.value))
            )
        ]
        for log_call in log_calls:
            lock_with: ast.With | ast.AsyncWith | None = None
            for ancestor in _enclosing_withs(module, log_call):
                if any(_is_lock_like(e) for e in _with_items(ancestor)):
                    lock_with = ancestor
                    break
            if lock_with is None:
                yield (
                    log_call.lineno,
                    "WAL record logged outside any lock-holding with block; "
                    "log order would no longer equal apply order",
                )
                continue
            for apply_node in _rep002_apply_nodes(lock_with):
                if apply_node.lineno < log_call.lineno:
                    yield (
                        log_call.lineno,
                        "mutation applied before its WAL record was logged "
                        f"(apply at line {apply_node.lineno}); write-ahead "
                        "means log FIRST, inside the same critical section",
                    )
                    break


# ----------------------------------------------------------------------
# REP003 -- template-bypassing state mutation must invalidate the view
# ----------------------------------------------------------------------
_REP003_STATE_ATTRS = {"_array", "_loading"}
_REP003_TEMPLATE_HOOKS = {"_insert", "_delete", "_delete_many"}


@rule(
    "REP003",
    "direct histogram-state replacement must call _invalidate_view()",
    paths=("repro/",),
    description=(
        "Reads are served from a cached SegmentView derived from the live "
        "BucketArray; the DynamicHistogram insert/delete templates drop the "
        "cache automatically, but any mutation entry point that bypasses the "
        "templates (bootstrap from a read path, direct state restoration in "
        "persistence.py) must call _invalidate_view() itself or readers keep "
        "estimating against the pre-mutation arrays."
    ),
)
def check_view_invalidation(module: SourceModule) -> Iterator[Finding]:
    for func in module.functions():
        if func.name in _REP003_TEMPLATE_HOOKS or func.name == "__init__":
            continue
        replacements: list[tuple[int, str]] = []
        for node in ast.walk(func):
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _REP003_STATE_ATTRS
                ):
                    receiver = _receiver_name(target) or "self"
                    replacements.append((node.lineno, receiver))
        if not replacements:
            continue
        invalidated = {
            _receiver_name(call.func) or "self"
            for call in _calls(func)
            if isinstance(call.func, ast.Attribute)
            and call.func.attr == "_invalidate_view"
        }
        for line, receiver in replacements:
            if receiver not in invalidated:
                yield (
                    line,
                    f"{func.name} replaces histogram state "
                    f"({receiver}._array/_loading) without calling "
                    f"{receiver}._invalidate_view(); a cached SegmentView "
                    "would keep serving the old arrays",
                )


# ----------------------------------------------------------------------
# REP004 -- no builtin hash() in placement code
# ----------------------------------------------------------------------
@rule(
    "REP004",
    "cluster placement must never use the salted builtin hash()",
    paths=("repro/cluster/",),
    description=(
        "Placement must be identical across Python processes and restarts; "
        "the builtin hash() is salted per process (PYTHONHASHSEED) and would "
        "route the same attribute to different shards on different "
        "coordinators.  Use repro.cluster.router.stable_hash (SHA-1 based)."
    ),
)
def check_no_builtin_hash(module: SourceModule) -> Iterator[Finding]:
    for call in _calls(module.tree):
        if isinstance(call.func, ast.Name) and call.func.id == "hash":
            yield (
                call.lineno,
                "builtin hash() is process-salted; placement code must use "
                "stable_hash() so every coordinator routes identically",
            )


# ----------------------------------------------------------------------
# REP005 -- incarnation read before a published fetch
# ----------------------------------------------------------------------
def _names_op(call: ast.Call, op: str) -> bool:
    """True when ``call`` passes ``op`` as a string: an ``(op, args)`` leg."""
    return any(isinstance(arg, ast.Constant) and arg.value == op for arg in call.args)


@rule(
    "REP005",
    "a published fetch reads the replica incarnation BEFORE it is sent",
    paths=("repro/cluster/coordinator.py",),
    description=(
        "The coordinator tags a fetched view with the incarnation token it "
        "read BEFORE sending the `published` leg (and holds it only when the "
        "reply names that token): if the worker is respawned while the fetch "
        "is in flight, the supervisor's new token retires the view.  A token "
        "read after the reply could tag a dead worker's view with the new "
        "token, and it would answer estimates for ever."
    ),
)
def check_incarnation_before_published(module: SourceModule) -> Iterator[Finding]:
    for func in module.functions():
        fetch_lines = [call.lineno for call in _calls(func) if _names_op(call, "published")]
        if not fetch_lines:
            continue
        token_lines = [
            node.lineno
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and node.attr == "incarnation"
        ]
        if not token_lines or min(token_lines) > min(fetch_lines):
            yield (
                min(fetch_lines),
                f"{func.name} sends a published leg before reading the replica "
                "incarnation; a fetch racing a respawn would be held under the "
                "new worker's token",
            )


# ----------------------------------------------------------------------
# REP006 -- never hold a SegmentView across a mutation
# ----------------------------------------------------------------------
_REP006_MUTATORS = {
    "insert",
    "delete",
    "insert_many",
    "delete_many",
    "splice",
    "splice_pair_phis",
    "restore",
}


@rule(
    "REP006",
    "a segment_view() result must not be used across a mutation",
    paths=("repro/",),
    description=(
        "SegmentViews may share memory with the live BucketArray, so a view "
        "is only valid until the histogram's next mutation; re-fetch via "
        "segment_view() after any write instead of holding the old reference."
    ),
)
def check_view_not_held_across_mutation(module: SourceModule) -> Iterator[Finding]:
    for func in module.functions():
        view_assigns: dict[str, int] = {}
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(node.value, ast.Call)
                and _call_name(node.value) == "segment_view"
            ):
                view_assigns.setdefault(target.id, node.lineno)
        if not view_assigns:
            continue
        mutation_lines = [
            call.lineno for call in _calls(func) if _call_name(call) in _REP006_MUTATORS
        ]
        if not mutation_lines:
            continue
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in view_assigns
            ):
                assigned = view_assigns[node.id]
                if any(assigned < m < node.lineno for m in mutation_lines):
                    yield (
                        node.lineno,
                        f"view {node.id!r} (from segment_view() at line "
                        f"{assigned}) is used after a mutation; views may "
                        "alias the live arrays -- re-fetch after writes",
                    )
                    break


# ----------------------------------------------------------------------
# REP008 -- compaction never triggers under an attribute lock
# ----------------------------------------------------------------------
@rule(
    "REP008",
    "compaction must not be triggered while holding a lock",
    paths=("repro/",),
    description=(
        "compact() is stop-the-world: it takes the registry lock plus every "
        "attribute lock.  Calling it (or _maybe_compact) from inside a "
        "mutation's critical section deadlocks against a concurrent mutation "
        "holding another attribute's lock; the trigger belongs after the "
        "locks are released."
    ),
)
def check_compaction_outside_locks(module: SourceModule) -> Iterator[Finding]:
    for call in _calls(module.tree):
        if _call_name(call) not in {"_maybe_compact", "compact"}:
            continue
        for ancestor in _enclosing_withs(module, call):
            if any(_is_lock_like(e) for e in _with_items(ancestor)):
                yield (
                    call.lineno,
                    f"{_call_name(call)}() called while holding a lock "
                    f"(with statement at line {ancestor.lineno}); compaction "
                    "acquires every attribute lock and would deadlock",
                )
                break


# ----------------------------------------------------------------------
# REP009 -- observability locks are leaves
# ----------------------------------------------------------------------
#: Call names that block on the OS: files, sockets, timers.  ``print`` and the
#: logging methods are included because the slow-request sink must run outside
#: any obs lock (the sink is I/O by design -- just never under a lock).
_REP009_BLOCKING_CALLS = {
    "open",
    "fsync",
    "fdatasync",
    "connect",
    "sendall",
    "send",
    "recv",
    "accept",
    "sleep",
    "urlopen",
    "getresponse",
    "print",
    "info",
    "warning",
    "error",
    "exception",
}

#: Store/WAL/pipeline lock spellings that must never appear in obs/ code:
#: the store registry lock plus the ``<entry>.lock`` per-attribute/buffer
#: convention (``_is_attribute_lock``).
def _rep009_is_foreign_lock(expr: ast.expr) -> bool:
    return _is_registry_lock(expr) or _is_attribute_lock(expr)


@rule(
    "REP009",
    "obs locks are leaves: no nested locks, no blocking I/O while held",
    paths=("repro/obs/",),
    description=(
        "Instrumentation is called from inside store, WAL and buffer critical "
        "sections, so the whole obs package must sit at the BOTTOM of the "
        "lock order: a metric/trace/sampler lock never guards another lock "
        "acquisition, a blocking call (file/socket/sleep/log emission), or a "
        "store-side lock.  Any of those would let a cheap counter update "
        "deadlock or stall the data path that called it."
    ),
)
def check_obs_locks_are_leaves(module: SourceModule) -> Iterator[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        items = _with_items(node)
        # (a) obs code must never touch a store-side lock at all.
        for expr in items:
            if _rep009_is_foreign_lock(expr):
                yield (
                    node.lineno,
                    "obs code acquires a store-side lock; metric-update paths "
                    "must stay below every data-path lock in the order",
                )
        if not any(_is_lock_like(e) for e in _with_items(node)):
            continue
        for inner in ast.walk(node):
            # (b) no lock is acquired while an obs lock is held.
            if (
                isinstance(inner, (ast.With, ast.AsyncWith))
                and inner is not node
                and any(_is_lock_like(e) for e in _with_items(inner))
            ):
                yield (
                    inner.lineno,
                    f"lock acquired at line {inner.lineno} while holding the "
                    f"obs lock taken at line {node.lineno}; obs locks are "
                    "leaves -- hoist the nested acquisition out",
                )
            if (
                isinstance(inner, ast.Call)
                and _call_name(inner) == "acquire"
                and not (
                    isinstance(inner.func, ast.Attribute)
                    and inner.func.value in _with_items(node)
                )
            ):
                yield (
                    inner.lineno,
                    f"explicit .acquire() at line {inner.lineno} while "
                    f"holding the obs lock taken at line {node.lineno}; obs "
                    "locks are leaves",
                )
            # (c) no blocking I/O while an obs lock is held.
            if (
                isinstance(inner, ast.Call)
                and _call_name(inner) in _REP009_BLOCKING_CALLS
            ):
                yield (
                    inner.lineno,
                    f"{_call_name(inner)}() called while holding the obs "
                    f"lock taken at line {node.lineno}; metric updates and "
                    "scrapes must never block on I/O -- move the call after "
                    "the lock is released",
                )


# ----------------------------------------------------------------------
# REP010 -- the store's read path is lock-free (RCU publication)
# ----------------------------------------------------------------------
#: The store's public estimate/read entry points.
_REP010_READ_FUNCS = {
    "estimate_range",
    "estimate_equal",
    "cdf",
    "total_count",
    "generation",
    "published",
    "query",
}


@rule(
    "REP010",
    "store reads are lock-free; snapshot publication is ONE reference store",
    paths=("repro/service/store.py",),
    description=(
        "The serving read path is RCU-style: writers publish an immutable "
        "(generation, snapshot) pair under the single `published` reference, "
        "and the public estimate/read entry points serve from that reference "
        "without ever acquiring a per-attribute lock.  Two ways to regress: "
        "(a) a read entry point takes an attribute lock again (reads then "
        "serialise against sustained ingest -- the very contention this "
        "design removes), or (b) publication stops being a single reference "
        "store (mutating fields of an already-published object, or spelling "
        "the publication across several `published_*` attributes), which "
        "lets readers observe a torn generation/snapshot pair."
    ),
)
def check_lock_free_read_path(module: SourceModule) -> Iterator[Finding]:
    # (a) public read entry points never acquire a per-attribute lock.
    for func in module.functions():
        if func.name not in _REP010_READ_FUNCS:
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)) and any(
                _is_attribute_lock(e) for e in _with_items(node)
            ):
                yield (
                    node.lineno,
                    f"{func.name} acquires a per-attribute lock; estimate "
                    "reads must serve from the published snapshot reference",
                )
        for call in _calls(func):
            if (
                _call_name(call) == "acquire"
                and isinstance(call.func, ast.Attribute)
                and _is_attribute_lock(call.func.value)
            ):
                yield (
                    call.lineno,
                    f"{func.name} explicitly acquires a per-attribute lock; "
                    "estimate reads must stay lock-free",
                )
    # (b) publication is a single reference store.
    for node in ast.walk(module.tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            if (
                isinstance(target.value, ast.Attribute)
                and target.value.attr == "published"
            ):
                yield (
                    node.lineno,
                    "assignment into a field of an already-published snapshot "
                    f"({target.value.attr}.{target.attr}); concurrent readers "
                    "would see a torn pair -- build a fresh immutable object "
                    "and store it under the single `published` reference",
                )
            elif target.attr.startswith("published") and target.attr != "published":
                yield (
                    node.lineno,
                    f"publication spelled across multiple attributes "
                    f"({target.attr}); readers can observe one updated and "
                    "one stale -- publish ONE reference holding both the "
                    "generation and the snapshot",
                )


# ----------------------------------------------------------------------
# REP011 -- a transport never retries a non-idempotent request post-wire
# ----------------------------------------------------------------------
#: Calls that hand a request to the wire: the binary transport's frame
#: send/receive and the HTTP client's ``request`` / ``getresponse``.
_REP011_SEND_CALLS = {"send", "sendall", "receive", "request", "getresponse"}


@rule(
    "REP011",
    "transport retries after a request reached the wire are only legal for "
    "idempotent requests",
    paths=(
        "repro/service/client.py",
        "repro/cluster/server.py",
        "repro/cluster/transport.py",
        "repro/cluster/supervisor.py",
    ),
    description=(
        "Once a request (an HTTP request or a binary frame) was handed to "
        "the socket its fate is unknown: the server may have applied a write "
        "before the connection died, and a blind retry double-applies it.  "
        "A send/receive failure may therefore only re-enter the retry loop "
        "when the request is idempotent (an HTTP GET, an op in "
        "IDEMPOTENT_OPS); everything else must raise -- on the binary "
        "transport it surfaces as ShardUnavailableError.  Connect-phase "
        "failures stay freely retriable.  A retry is a `continue` back into "
        "the loop, or a handler that re-sends itself (calls request, "
        "getresponse, send, sendall or receive), inside a loop or not: the "
        "classic stale keep-alive bug re-sends a write on a fresh connection "
        "from the except clause.  The guard is spelled as a name containing "
        "`idempotent` next to a `raise`.  A scatter that sends its lost "
        "requests again in a later round decides with a test of the retry "
        "budget (a comparison against `<client>.retries`); that test must "
        "name idempotency too (a name containing `idempotent`, such as "
        "`IDEMPOTENT_OPS`).  The supervisor inherits the same discipline: it "
        "restarts processes, it never replays requests on their behalf."
    ),
)
def check_no_post_wire_retry(module: SourceModule) -> Iterator[Finding]:
    in_loop = {
        id(node)
        for loop in ast.walk(module.tree)
        if isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop)
    }
    for try_node in ast.walk(module.tree):
        if not isinstance(try_node, ast.Try):
            continue
        sent = any(
            _call_name(call) in _REP011_SEND_CALLS
            for stmt in try_node.body
            for call in _calls(stmt)
        )
        if not sent:
            continue
        for handler in try_node.handlers:
            continues = id(try_node) in in_loop and any(
                isinstance(n, ast.Continue) for n in ast.walk(handler)
            )
            resends = any(
                _call_name(call) in _REP011_SEND_CALLS for call in _calls(handler)
            )
            if not (continues or resends):
                continue
            guarded = any(
                isinstance(n, ast.Raise) for n in ast.walk(handler)
            ) and any(
                isinstance(n, ast.Name) and "idempotent" in n.id
                for n in ast.walk(handler)
            )
            if not guarded:
                yield (
                    handler.lineno,
                    "retry after the request reached the wire without an "
                    "idempotency guard (raise unless the request is "
                    "idempotent); a replayed write double-applies",
                )
    # A later round's re-send: a condition that tests a retry budget.
    for node in ast.walk(module.tree):
        if not isinstance(node, (ast.If, ast.IfExp, ast.While)):
            continue
        budget = any(
            isinstance(n, ast.Compare)
            and any(isinstance(x, ast.Attribute) and x.attr == "retries" for x in ast.walk(n))
            for n in ast.walk(node.test)
        )
        idempotency = any(
            isinstance(n, ast.Name) and "idempotent" in n.id.lower()
            for n in ast.walk(node.test)
        )
        if budget and not idempotency:
            yield (
                node.lineno,
                "a retry budget tested without an idempotency test: a lost "
                "write sent again in a later round double-applies",
            )
