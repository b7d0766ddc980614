"""First-class rule set encoding the repository's architectural invariants.

Five families, generated from the tables in :mod:`repro.lintkit.contracts`:

``layering``
    ``layering-import-dag`` — the sanctioned import DAG between layers;
    ``layering-plan-kernels`` — engines reach compiled kernels through the
    plan IR only; ``layering-discovery-walkers`` — the core reaches
    structure discovery through probe plans, never the raw walkers;
    ``layering-correspondence-store`` — only ``repro.mapping`` touches a
    mapping's correspondence store.
``determinism``
    ``determinism-global-rng`` — no hidden-global-state randomness;
    ``determinism-unseeded-rng`` — rng factories take explicit seeds;
    ``determinism-wallclock`` — no wall-clock reads in kernel/sweep/
    discovery code paths.
``process``
    ``process-closure`` — no lambdas/local functions at executor
    submission sites; ``process-boundary`` — worker entries are
    module-level functions and inline-constructed wire payloads are
    registered in the picklable-boundary allowlist.
``knob``
    ``knob-env-read`` — ``os.environ`` only inside the validated resolver
    modules; everything else goes through
    :func:`repro.constants.read_env`.
``numeric``
    ``numeric-float-equality`` — no ``==``/``!=`` against float literals;
    ``numeric-mutable-default`` — no mutable default arguments.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence

from . import contracts
from .engine import ParsedModule
from .model import Finding, Rule

__all__ = ["all_rules", "rules_by_id"]


def _attribute_chain(node: ast.AST) -> List[str]:
    """``a.b.c`` -> ["a", "b", "c"]; empty list for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _in_scope(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------


class ImportDagRule:
    """Top-level imports must follow the sanctioned layer DAG."""

    rule_id = "layering-import-dag"
    family = "layering"
    description = (
        "cross-layer imports must follow the sanctioned DAG declared in "
        "repro.lintkit.contracts (deferred cycle-breakers allowlisted)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        source_layer = contracts.layer_of(module.module)
        if not source_layer:
            return
        allowed = contracts.IMPORT_DAG[source_layer]
        for record in module.imports:
            targets = [record.base]
            # `from repro.pdms import discovery` imports the submodule —
            # classify by the most specific declared prefix.
            for name in record.names:
                candidate = f"{record.base}.{name}"
                if contracts.layer_of(candidate) != contracts.layer_of(
                    record.base
                ):
                    targets.append(candidate)
            for target in targets:
                if not target.startswith("repro"):
                    continue
                target_layer = contracts.layer_of(target)
                if not target_layer or target_layer == source_layer:
                    continue
                if module.is_package and target.startswith(
                    module.module + "."
                ):
                    continue  # package __init__ re-exporting its subtree
                if target_layer in allowed:
                    continue
                if (
                    record.deferred
                    and (source_layer, target_layer)
                    in contracts.DEFERRED_EDGES
                ):
                    continue
                yield module.finding(
                    self.rule_id,
                    record.lineno,
                    f"layer {source_layer!r} must not import "
                    f"{target!r} (layer {target_layer!r}); sanctioned "
                    f"dependencies: "
                    f"{sorted(allowed) if allowed else 'none'}",
                )


class PlanKernelRule:
    """Engines import kernels from the plan IR, not the compiled module."""

    rule_id = "layering-plan-kernels"
    family = "layering"
    description = (
        "engine-layer modules must import compiled kernels via "
        "repro.factorgraph.plan, never repro.factorgraph.compiled"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if not _in_scope(module.module, contracts.ENGINE_LAYER_PREFIXES):
            return
        implementation = contracts.KERNEL_IMPLEMENTATION_MODULE
        for record in module.imports:
            if record.is_from:
                if not record.base.endswith("factorgraph.compiled"):
                    continue
                for name in record.names:
                    if name in contracts.KERNEL_NAMES or name == "*":
                        yield module.finding(
                            self.rule_id,
                            record.lineno,
                            f"imports kernel {name!r} from "
                            f"{implementation}; use "
                            f"{contracts.KERNEL_SURFACE_MODULE} instead",
                        )
            elif "factorgraph.compiled" in record.base:
                yield module.finding(
                    self.rule_id,
                    record.lineno,
                    f"imports module {record.base!r}; engines lower "
                    f"through {contracts.KERNEL_SURFACE_MODULE}",
                )


class DiscoveryWalkerRule:
    """The core reaches discovery through probe plans, not raw walkers."""

    rule_id = "layering-discovery-walkers"
    family = "layering"
    description = (
        "engine-layer modules must not import enumeration walkers from "
        "repro.pdms.probing; discovery flows through repro.pdms.discovery "
        "plans"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if not _in_scope(module.module, contracts.ENGINE_LAYER_PREFIXES):
            return
        for record in module.imports:
            if not record.is_from or not record.base.endswith("pdms.probing"):
                continue
            for name in record.names:
                if name in contracts.WALKER_NAMES or name == "*":
                    yield module.finding(
                        self.rule_id,
                        record.lineno,
                        f"imports walker {name!r} from "
                        f"{contracts.WALKER_MODULE}; lower the probe onto "
                        f"a repro.pdms.discovery plan instead",
                    )


class CorrespondenceStoreRule:
    """Only the mapping package touches a mapping's correspondence store."""

    rule_id = "layering-correspondence-store"
    family = "layering"
    description = (
        "modules outside repro.mapping must not touch a mapping's "
        "correspondence store; edit correspondences through "
        "PDMSNetwork.change_correspondences, which bumps the version"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if _in_scope(module.module, (contracts.CORRESPONDENCE_STORE_OWNER,)):
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == contracts.CORRESPONDENCE_STORE_ATTR
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"touches the correspondence store "
                    f"{contracts.CORRESPONDENCE_STORE_ATTR!r} outside "
                    f"{contracts.CORRESPONDENCE_STORE_OWNER}; swap in a new "
                    f"mapping with PDMSNetwork.change_correspondences",
                )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class GlobalRngRule:
    """No hidden-global-state randomness anywhere in the package."""

    rule_id = "determinism-global-rng"
    family = "determinism"
    description = (
        "module-level random.* / numpy.random.* global-state calls are "
        "banned; rngs flow from seeded Random/Generator arguments"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for record in module.imports:
            if not record.is_from:
                continue
            if record.base == "random":
                for name in record.names:
                    if name in contracts.GLOBAL_RANDOM_FUNCS:
                        yield module.finding(
                            self.rule_id,
                            record.lineno,
                            f"imports global-state {name!r} from random; "
                            f"pass a seeded random.Random instead",
                        )
            elif record.base in ("numpy.random", "np.random"):
                for name in record.names:
                    if name not in contracts.ALLOWED_NUMPY_RANDOM:
                        yield module.finding(
                            self.rule_id,
                            record.lineno,
                            f"imports global-state {name!r} from "
                            f"numpy.random; use a seeded "
                            f"numpy.random.Generator",
                        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if len(chain) == 2 and chain[0] == "random":
                if chain[1] in contracts.GLOBAL_RANDOM_FUNCS:
                    yield module.finding(
                        self.rule_id,
                        node,
                        f"call to random.{chain[1]} drives the hidden "
                        f"global rng; use a seeded random.Random stream",
                    )
            elif (
                len(chain) == 3
                and chain[0] in ("np", "numpy")
                and chain[1] == "random"
                and chain[2] not in contracts.ALLOWED_NUMPY_RANDOM
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"call to {chain[0]}.random.{chain[2]} drives numpy's "
                    f"hidden global rng; use a seeded "
                    f"numpy.random.Generator",
                )


class UnseededRngRule:
    """Rng factories must receive an explicit seed argument."""

    rule_id = "determinism-unseeded-rng"
    family = "determinism"
    description = (
        "random.Random()/default_rng()/RandomState() without a seed bind "
        "to OS entropy and break replay; seed explicitly (DEFAULT_SEED)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if node.args or node.keywords:
                continue
            chain = _attribute_chain(node.func)
            if not chain or chain[-1] not in contracts.RNG_FACTORIES:
                continue
            rendered = ".".join(chain)
            yield module.finding(
                self.rule_id,
                node,
                f"{rendered}() without a seed is unreproducible; pass an "
                f"explicit seed (repro.constants.DEFAULT_SEED by default)",
            )


class WallclockRule:
    """No wall-clock reads inside the deterministic code paths."""

    rule_id = "determinism-wallclock"
    family = "determinism"
    description = (
        "time.time()/datetime.now() are banned in kernel/sweep/discovery "
        "modules; durations use monotonic/perf_counter, timestamps stay "
        "out of the numerics"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if not _in_scope(module.module, contracts.DETERMINISM_SCOPE):
            return
        for record in module.imports:
            if record.is_from and record.base == "time":
                for name in record.names:
                    if name in ("time", "time_ns"):
                        yield module.finding(
                            self.rule_id,
                            record.lineno,
                            f"imports wall-clock time.{name} into a "
                            f"deterministic code path",
                        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attribute_chain(node.func)
            if len(chain) < 2:
                continue
            head, tail = chain[-2], chain[-1]
            if head == "time" and tail in ("time", "time_ns"):
                yield module.finding(
                    self.rule_id,
                    node,
                    "wall-clock time.%s() in a deterministic code path; "
                    "use time.monotonic()/perf_counter() for durations"
                    % tail,
                )
            elif head in ("datetime", "date") and tail in (
                "now",
                "utcnow",
                "today",
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"wall-clock {head}.{tail}() in a deterministic code "
                    f"path; timestamps belong to the reporting layer",
                )


# ---------------------------------------------------------------------------
# process safety
# ---------------------------------------------------------------------------


def _submitted_callable(node: ast.Call):
    """The callable argument of a submission/constructor call, if any."""
    func_chain = _attribute_chain(node.func)
    terminal = func_chain[-1] if func_chain else ""
    if terminal in contracts.EXECUTOR_SUBMISSION_ATTRS and isinstance(
        node.func, ast.Attribute
    ):
        return node.args[0] if node.args else None, terminal
    if terminal in contracts.PROCESS_CONSTRUCTORS:
        for keyword in node.keywords:
            if keyword.arg in ("target", "initializer", "func"):
                return keyword.value, terminal
    return None, None


def _is_process_site(terminal: str) -> bool:
    return (
        terminal in contracts.PROCESS_SUBMISSION_ATTRS
        or terminal in contracts.PROCESS_CONSTRUCTORS
    )


class ClosureSubmissionRule:
    """No lambdas or local functions at executor submission sites."""

    rule_id = "process-closure"
    family = "process"
    description = (
        "lambdas/local functions must not be shipped to multiprocessing "
        "or executor submission sites; submit module-level functions"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target, terminal = _submitted_callable(node)
            if target is None:
                continue
            if isinstance(target, ast.Lambda):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"lambda passed to {terminal}(); executors take "
                    f"module-level functions only",
                )
            elif (
                isinstance(target, ast.Name)
                and target.id in module.local_function_names
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"local function {target.id!r} passed to "
                    f"{terminal}(); closures do not survive the process "
                    f"boundary — hoist it to module level",
                )


class PicklableBoundaryRule:
    """Process fan-outs ship registered, module-level-addressable types."""

    rule_id = "process-boundary"
    family = "process"
    description = (
        "worker entries must be module-level functions and inline-"
        "constructed wire payloads must be registered in the "
        "picklable-boundary allowlist (contracts.PICKLABLE_BOUNDARY)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target, terminal = _submitted_callable(node)
            if terminal is None or not _is_process_site(terminal):
                continue
            if target is not None and not isinstance(
                target, (ast.Name, ast.Lambda)
            ):
                chain = _attribute_chain(target)
                if chain and chain[0] in ("self", "cls"):
                    yield module.finding(
                        self.rule_id,
                        node,
                        f"bound method {'.'.join(chain)} shipped through "
                        f"{terminal}(); process workers take module-level "
                        f"functions (the instance would cross the pickle "
                        f"boundary whole)",
                    )
            for finding in self._check_payloads(module, node, terminal):
                yield finding

    def _check_payloads(
        self, module: ParsedModule, node: ast.Call, terminal: str
    ) -> Iterator[Finding]:
        payloads: List[ast.AST] = list(node.args[1:])
        for keyword in node.keywords:
            if keyword.arg in ("args", "initargs", "iterable"):
                payloads.append(keyword.value)
        stack = payloads
        while stack:
            expr = stack.pop()
            if isinstance(expr, (ast.Tuple, ast.List)):
                stack.extend(expr.elts)
                continue
            if isinstance(expr, ast.Call):
                chain = _attribute_chain(expr.func)
                name = chain[-1] if chain else ""
                if (
                    name
                    and name[0].isupper()
                    and name not in contracts.PICKLABLE_BOUNDARY
                ):
                    yield module.finding(
                        self.rule_id,
                        expr,
                        f"{name!r} constructed inline at a {terminal}() "
                        f"fan-out but not registered in the picklable-"
                        f"boundary allowlist "
                        f"(repro.lintkit.contracts.PICKLABLE_BOUNDARY)",
                    )


# ---------------------------------------------------------------------------
# knob hygiene
# ---------------------------------------------------------------------------


class EnvReadRule:
    """``os.environ`` stays behind the validated resolver modules."""

    rule_id = "knob-env-read"
    family = "knob"
    description = (
        "os.environ/os.getenv outside repro.constants is banned; read "
        "knobs through repro.constants.read_env so every knob is declared "
        "and validated once"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        if module.module in contracts.KNOB_RESOLVER_MODULES:
            return
        for record in module.imports:
            if record.is_from and record.base == "os":
                for name in record.names:
                    if name in ("environ", "getenv", "putenv"):
                        yield module.finding(
                            self.rule_id,
                            record.lineno,
                            f"imports os.{name}; environment knobs are "
                            f"read through repro.constants.read_env",
                        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            chain = _attribute_chain(node)
            # Match only the innermost attribute (`os.environ`), so
            # `os.environ.get(...)` yields one finding, not two.
            if len(chain) == 2 and chain[0] == "os" and chain[1] in (
                "environ",
                "getenv",
                "putenv",
            ):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"direct os.{chain[1]} access bypasses the validated "
                    f"knob resolvers; use repro.constants.read_env "
                    f"(declared knobs only)",
                )


# ---------------------------------------------------------------------------
# numeric correctness
# ---------------------------------------------------------------------------


class FloatEqualityRule:
    """No equality comparisons against float literals."""

    rule_id = "numeric-float-equality"
    family = "numeric"
    description = (
        "== / != against a float literal is almost always a rounding bug; "
        "compare with a tolerance (deliberate exact-zero checks carry an "
        "inline suppression)"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            ):
                continue
            for side in [node.left, *node.comparators]:
                if isinstance(side, ast.Constant) and isinstance(
                    side.value, float
                ):
                    yield module.finding(
                        self.rule_id,
                        node,
                        f"equality comparison against float literal "
                        f"{side.value!r}; use a tolerance "
                        f"(math.isclose / abs(a-b) < eps)",
                    )
                    break


class MutableDefaultRule:
    """No mutable default arguments."""

    rule_id = "numeric-mutable-default"
    family = "numeric"
    description = (
        "list/dict/set default arguments are shared across calls; default "
        "to None and build inside the function"
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default, (ast.List, ast.Dict, ast.Set, ast.SetComp,
                              ast.ListComp, ast.DictComp)
                ) or (
                    isinstance(default, ast.Call)
                    and isinstance(default.func, ast.Name)
                    and default.func.id in ("list", "dict", "set")
                )
                if mutable:
                    yield module.finding(
                        self.rule_id,
                        default,
                        "mutable default argument is shared across calls; "
                        "use None and construct per call",
                    )


def all_rules() -> List[Rule]:
    """Fresh instances of every rule, in reporting order."""
    return [
        ImportDagRule(),
        PlanKernelRule(),
        DiscoveryWalkerRule(),
        CorrespondenceStoreRule(),
        GlobalRngRule(),
        UnseededRngRule(),
        WallclockRule(),
        ClosureSubmissionRule(),
        PicklableBoundaryRule(),
        EnvReadRule(),
        FloatEqualityRule(),
        MutableDefaultRule(),
    ]


def rules_by_id() -> Dict[str, Rule]:
    return {rule.rule_id: rule for rule in all_rules()}
