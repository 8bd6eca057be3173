"""The built-in ``repro-lint`` rule set: the repo's contracts, as code.

Each rule codifies an invariant that docs/ARCHITECTURE.md states in
prose and a runtime property test checks dynamically (each rule's
``backing_test`` names it).  The lint pass makes the same contract fail
*statically* — at ``path:line`` — before a single simulation runs.

Scope prefixes are posix paths relative to the lint root (the repo
root in CI), so fixture tests exercise rules by laying out a miniature
``src/repro/...`` tree in a temp directory.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from .engine import FileContext, rule
from .reporter import Finding

#: The directories whose code executes inside (or feeds) the simulation
#: kernel — where any nondeterminism source breaks bit-identity.
KERNEL_SCOPES = (
    "src/repro/engine/",
    "src/repro/beeping/",
    "src/repro/congest/",
    "src/repro/core/",
    "src/repro/sweeps/",
)

#: Modules allowed to touch raw generator construction: the two rng
#: primitives everything else is required to go through.
RNG_MODULES = ("src/repro/rng.py", "src/repro/rng_philox.py")


def _call_origin(context: FileContext, node: ast.Call) -> "str | None":
    """Resolved dotted name of a call's callee (``None`` if local)."""
    return context.imports.resolve(node.func)


@rule(
    "RNG-001",
    "all randomness derives from repro.rng; no global/unseeded generators",
    backing_test="tests/test_rng.py::test_derive_rng_reproducible",
    scopes=("src/",),
    excludes=RNG_MODULES,
)
def check_unseeded_randomness(context: FileContext) -> Iterator[Finding]:
    """Flag module-level numpy/stdlib randomness and argless ``default_rng``.

    Every random stream must come from ``repro.rng.derive_rng(seed,
    *context)`` (SHA-256-keyed Philox) so runs are reproducible across
    processes and backends.  ``np.random.<dist>()`` draws
    from the hidden global state, ``random.*`` from the interpreter-wide
    Mersenne twister, and ``default_rng()`` without a seed from the OS —
    all three make results depend on call order or the host.
    """
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        origin = _call_origin(context, node)
        if origin is None:
            continue
        if origin == "numpy.random.default_rng":
            if not node.args and not node.keywords:
                yield context.finding(
                    "RNG-001",
                    node,
                    "argless default_rng() seeds from the OS; "
                    "use repro.rng.derive_rng(seed, ...)",
                )
            continue
        if origin.startswith("numpy.random."):
            leaf = origin.rsplit(".", 1)[1]
            if leaf[:1].islower():  # functions draw from global state;
                # capitalised names (Generator, Philox) are constructors
                yield context.finding(
                    "RNG-001",
                    node,
                    f"global numpy randomness {origin}(); "
                    "use repro.rng.derive_rng(seed, ...)",
                )
            continue
        if origin == "random" or origin.startswith("random."):
            yield context.finding(
                "RNG-001",
                node,
                f"stdlib randomness {origin}(); "
                "use repro.rng.derive_rng(seed, ...)",
            )


#: Callables whose results vary run-to-run (wall clock, OS entropy).
_NONDETERMINISTIC_CALLS = {
    "time.time": "wall-clock time.time()",
    "time.time_ns": "wall-clock time.time_ns()",
    "datetime.datetime.now": "wall-clock datetime.now()",
    "datetime.datetime.utcnow": "wall-clock datetime.utcnow()",
    "datetime.datetime.today": "wall-clock datetime.today()",
    "datetime.date.today": "wall-clock date.today()",
    "os.urandom": "OS entropy os.urandom()",
    "uuid.uuid1": "host/clock-derived uuid.uuid1()",
    "uuid.uuid3": "uuid.uuid3()",
    "uuid.uuid4": "OS-entropy uuid.uuid4()",
    "uuid.uuid5": "uuid.uuid5()",
}


@rule(
    "RNG-002",
    "no wall-clock/entropy/hash() nondeterminism inside kernel code",
    backing_test="tests/integration/test_scenario_determinism.py",
    scopes=KERNEL_SCOPES,
)
def check_nondeterminism_sources(context: FileContext) -> Iterator[Finding]:
    """Flag nondeterminism sources in the simulation kernel directories.

    Results produced under ``engine/``, ``beeping/``, ``congest/``,
    ``core/`` and ``sweeps/`` must be a pure function of ``(seed,
    inputs)``.  Wall-clock reads, OS entropy, uuids and the
    salt-randomised builtin ``hash()`` all leak host state into that
    function.  Benchmarks and the service layer (event timestamps, job
    ids) are deliberately outside this scope; ``time.perf_counter`` /
    ``time.monotonic`` stay allowed everywhere — elapsed-time metadata
    never feeds a simulated number.
    """
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            yield context.finding(
                "RNG-002",
                node,
                "builtin hash() is salted per interpreter; "
                "use repro.rng.derive_seed",
            )
            continue
        origin = _call_origin(context, node)
        if origin in _NONDETERMINISTIC_CALLS:
            yield context.finding(
                "RNG-002",
                node,
                f"{_NONDETERMINISTIC_CALLS[origin]} in kernel code; "
                "results must be a pure function of (seed, inputs)",
            )


def _is_set_expression(node: ast.AST) -> bool:
    """Whether ``node`` is syntactically a set (literal, comp, or call)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


@rule(
    "DET-001",
    "no iteration over unordered sets in kernel modules",
    backing_test="tests/engine/test_backends.py (bit-identity property)",
    scopes=KERNEL_SCOPES + ("src/repro/algorithms/", "src/repro/graphs/"),
)
def check_set_iteration(context: FileContext) -> Iterator[Finding]:
    """Flag iteration directly over set expressions in kernel modules.

    Set iteration order depends on element hashes — stable for ints
    within a run, but an invitation for str-keyed sets (salted) and a
    trap whenever the construction order differs across processes or
    backends.  Kernel code must iterate ``sorted(...)`` collections.
    Dicts are exempt:
    insertion order is a language guarantee and part of the
    deterministic program state.
    """

    def flag(iterable: ast.AST) -> "Iterator[Finding]":
        if _is_set_expression(iterable):
            yield context.finding(
                "DET-001",
                iterable,
                "iteration over an unordered set; wrap in sorted(...) "
                "to pin a deterministic order",
            )

    for node in ast.walk(context.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                yield from flag(generator.iter)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple", "enumerate") and node.args:
                yield from flag(node.args[0])


class _SpawnVisitor(ast.NodeVisitor):
    """Tracks function scopes to recognise locally-defined callables."""

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.findings: "list[Finding]" = []
        self._scopes: "list[set[str]]" = []

    def _enter_function(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        """Record the def's name in its enclosing function scope, recurse."""
        if self._scopes:
            self._scopes[-1].add(node.name)
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:  # noqa: D102
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:  # noqa: D102
        self._enter_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        """``f = lambda: ...`` binds an unpicklable name in this scope."""
        if self._scopes and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].add(target.id)
        self.generic_visit(node)

    def _is_unpicklable(self, node: ast.AST) -> "str | None":
        """Why ``node`` cannot cross a spawn boundary (``None`` if it can)."""
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name) and any(
            node.id in scope for scope in self._scopes
        ):
            return f"locally-defined {node.id!r}"
        return None

    def visit_Call(self, node: ast.Call) -> None:
        """Check spawn-transport calls for unpicklable callables."""
        candidates: "list[tuple[ast.AST, str]]" = []
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "submit",
            "send",
        ):
            if node.args:
                candidates.append((node.args[0], f".{node.func.attr}()"))
        callee = node.func
        callee_name = (
            callee.attr if isinstance(callee, ast.Attribute) else
            callee.id if isinstance(callee, ast.Name) else ""
        )
        if callee_name == "Process":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    candidates.append((keyword.value, "Process(target=...)"))
        for value, transport in candidates:
            reason = self._is_unpicklable(value)
            if reason is not None:
                self.findings.append(
                    self.context.finding(
                        "SPAWN-001",
                        value,
                        f"{reason} passed to {transport} cannot be pickled "
                        "by the spawn start method; use a module-level "
                        "function",
                    )
                )
        self.generic_visit(node)


@rule(
    "SPAWN-001",
    "only module-level callables cross process-spawn boundaries",
    backing_test="tests/experiments/test_api.py::TestRunMany::test_parallel_matches_serial",
    scopes=("src/",),
)
def check_spawn_picklability(context: FileContext) -> Iterator[Finding]:
    """Flag lambdas/local defs handed to process pools, Process, or pipes.

    Every worker process in this repo starts with the ``spawn`` method
    (see ``repro.engine.mp``), which pickles the target callable and
    every argument.  Lambdas and functions defined inside another
    function are not picklable, so they fail only at runtime — and only
    on platforms where fork did not mask the bug.  This rule makes the
    contract fail at lint time instead.
    """
    visitor = _SpawnVisitor(context)
    visitor.visit(context.tree)
    return iter(visitor.findings)


#: Absolute module prefixes the noise/scenario layer must never import.
_WINDOW_FORBIDDEN_MODULES = (
    "repro.engine",
    "repro.beeping.batch",
    "repro.core.round_simulator",
)

#: Identifier shapes that smuggle execution-strategy state into noise.
_WINDOW_FORBIDDEN_IDENT = re.compile(
    r"Backend|BatchedSession|^Shard|^shard_|_shard\b"
)


@rule(
    "WINDOW-001",
    "noise.py is firewalled from backend/batch/shard symbols",
    backing_test="tests/beeping/test_scenarios.py (window contract)",
    scopes=("src/repro/beeping/noise.py",),
)
def check_window_firewall(context: FileContext) -> Iterator[Finding]:
    """Enforce the PR-8 window contract as an import/name firewall.

    Noise flips for round ``t`` must be a pure function of ``(seed, t,
    n)`` — never of which backend runs, how rounds are batched, or how
    many shards split the nodes.  The simplest static form of that
    guarantee: ``beeping/noise.py`` cannot even *name* the execution
    layers.  Any import of ``repro.engine``/``repro.beeping.batch`` or
    reference to backend/batch/shard identifiers is a violation.
    """
    for node in ast.walk(context.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if any(
                    alias.name == prefix or alias.name.startswith(prefix + ".")
                    for prefix in _WINDOW_FORBIDDEN_MODULES
                ):
                    yield context.finding(
                        "WINDOW-001",
                        node,
                        f"import of {alias.name!r} breaches the noise-layer "
                        "firewall (window contract)",
                    )
        elif isinstance(node, ast.ImportFrom):
            base = context.imports._resolve_from(
                node, context.module.split(".")[:-1] if context.module else []
            )
            for alias in node.names:
                full = f"{base}.{alias.name}" if base else alias.name
                if any(
                    full == prefix
                    or full.startswith(prefix + ".")
                    or (base or "").startswith(prefix)
                    for prefix in _WINDOW_FORBIDDEN_MODULES
                ):
                    yield context.finding(
                        "WINDOW-001",
                        node,
                        f"import of {full!r} breaches the noise-layer "
                        "firewall (window contract)",
                    )
        elif isinstance(node, ast.Name):
            if _WINDOW_FORBIDDEN_IDENT.search(node.id):
                yield context.finding(
                    "WINDOW-001",
                    node,
                    f"reference to execution-layer symbol {node.id!r} in the "
                    "noise layer (window contract)",
                )
        elif isinstance(node, ast.Attribute):
            if _WINDOW_FORBIDDEN_IDENT.search(node.attr):
                yield context.finding(
                    "WINDOW-001",
                    node,
                    f"reference to execution-layer attribute {node.attr!r} "
                    "in the noise layer (window contract)",
                )


@rule(
    "LOCK-001",
    "locks are held via with-statements, never bare acquire()",
    backing_test="tests/service/test_jobs.py (concurrent submissions)",
    scopes=("src/repro/service/",),
)
def check_lock_discipline(context: FileContext) -> Iterator[Finding]:
    """Flag explicit ``.acquire()`` calls in the service layer.

    A bare ``lock.acquire()`` that is not paired with ``release()`` in a
    ``finally`` deadlocks the single-flight dedupe table the first time
    the guarded block raises.  The service therefore holds every
    ``threading.Lock`` / ``Condition`` through a ``with`` statement,
    which the AST shows unambiguously; any explicit ``.acquire()`` call
    is a finding.
    """
    for node in ast.walk(context.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"
        ):
            yield context.finding(
                "LOCK-001",
                node,
                "explicit .acquire() call; hold the lock with "
                "`with lock:` so it releases on every exit path",
            )
