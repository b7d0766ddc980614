"""The repository's architectural contracts, stated once as data.

Every invariant the :mod:`repro.lintkit` rules enforce is declared in this
module — the layering DAG, the plan-IR kernel surface, the discovery-walker
ban, the correspondence-store owner, the rng-stream contract's banned
global entry points, the picklable-boundary allowlist of process
submission sites, and the registry of validated environment knobs.  ``ARCHITECTURE.md`` at the repository root is
the prose rendering of the same contracts (a doc-sync test asserts it names
every layer, boundary type and knob declared here); the rules in
:mod:`repro.lintkit.rules` are generated from these tables, so changing a
contract means editing exactly one data structure and its prose twin.

Layer model
-----------
A module's *layer* is the most specific prefix of its dotted name found in
:data:`LAYER_PREFIXES`.  Top-level imports between layers must follow
:data:`IMPORT_DAG` (a layer may always import itself); package
``__init__`` modules may additionally re-export their own subtree; and a
small set of *deferred* (function-scope) edges — the sanctioned lazy
imports that break bootstrap cycles — is allowlisted in
:data:`DEFERRED_EDGES`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Tuple

from ..constants import KNOWN_ENV_KNOBS

__all__ = [
    "RULESET_VERSION",
    "LAYER_PREFIXES",
    "API_LAYER",
    "IMPORT_DAG",
    "DEFERRED_EDGES",
    "KERNEL_SURFACE_MODULE",
    "KERNEL_IMPLEMENTATION_MODULE",
    "KERNEL_NAMES",
    "WALKER_MODULE",
    "WALKER_NAMES",
    "ENGINE_LAYER_PREFIXES",
    "CORRESPONDENCE_STORE_ATTR",
    "CORRESPONDENCE_STORE_OWNER",
    "DETERMINISM_SCOPE",
    "GLOBAL_RANDOM_FUNCS",
    "ALLOWED_NUMPY_RANDOM",
    "RNG_FACTORIES",
    "PROCESS_SUBMISSION_ATTRS",
    "EXECUTOR_SUBMISSION_ATTRS",
    "PROCESS_CONSTRUCTORS",
    "PICKLABLE_BOUNDARY",
    "KNOB_RESOLVER_MODULES",
    "KNOWN_ENV_KNOBS",
    "layer_of",
]

#: Version of the rule set, stamped into every ``--json`` report and into
#: the ``lintkit_version`` field of the ``BENCH_*.json`` provenance records.
#: Bump it whenever a contract table or a rule's semantics change.
RULESET_VERSION = "1.8.0"


# ---------------------------------------------------------------------------
# layering — the sanctioned import DAG
# ---------------------------------------------------------------------------

#: Layer assignment: dotted-module prefix -> layer name.  The most specific
#: matching prefix wins, which is how ``repro.pdms.discovery`` and the
#: multi-node ``repro.pdms.gossip`` harness (which drives the core assessors
#: over event-sourced replicas) escape the ``repro.pdms`` topology layer
#: they physically live in.
LAYER_PREFIXES: Mapping[str, str] = {
    "repro.exceptions": "foundation",
    "repro.constants": "foundation",
    "repro.schema": "schema",
    "repro.mapping": "mapping",
    "repro.pdms": "pdms",
    "repro.pdms.discovery": "discovery",
    "repro.pdms.gossip": "gossip",
    "repro.factorgraph": "factorgraph",
    "repro.core": "core",
    "repro.generators": "generators",
    "repro.alignment": "alignment",
    "repro.evaluation": "evaluation",
    "repro.cli": "cli",
    "repro.lintkit": "lintkit",
}

#: Layer of the top-level ``repro`` package ``__init__`` — the public API
#: aggregator, allowed to import everything.
API_LAYER = "api"

#: The sanctioned DAG: layer -> layers it may import from at module top
#: level (importing your own layer is always allowed).  Read an entry as
#: "<layer> is built on <allowed layers>".
IMPORT_DAG: Mapping[str, FrozenSet[str]] = {
    "foundation": frozenset(),
    "schema": frozenset({"foundation"}),
    "mapping": frozenset({"foundation", "schema"}),
    "pdms": frozenset({"foundation", "schema", "mapping"}),
    "discovery": frozenset({"foundation", "schema", "mapping", "pdms"}),
    "factorgraph": frozenset({"foundation"}),
    "core": frozenset(
        {"foundation", "schema", "mapping", "pdms", "discovery", "factorgraph"}
    ),
    "gossip": frozenset(
        {
            "foundation",
            "schema",
            "mapping",
            "pdms",
            "discovery",
            "factorgraph",
            "core",
        }
    ),
    "generators": frozenset(
        {"foundation", "schema", "mapping", "pdms", "core"}
    ),
    "alignment": frozenset({"foundation", "schema", "mapping", "pdms"}),
    "evaluation": frozenset(
        {
            "foundation",
            "schema",
            "mapping",
            "pdms",
            "discovery",
            "factorgraph",
            "core",
            "gossip",
            "generators",
            "alignment",
        }
    ),
    "cli": frozenset(
        {
            "foundation",
            "schema",
            "mapping",
            "pdms",
            "discovery",
            "factorgraph",
            "core",
            "gossip",
            "generators",
            "alignment",
            "evaluation",
        }
    ),
    "lintkit": frozenset({"foundation"}),
    API_LAYER: frozenset(
        {
            "foundation",
            "schema",
            "mapping",
            "pdms",
            "discovery",
            "factorgraph",
            "core",
            "gossip",
            "generators",
            "alignment",
            "evaluation",
            "cli",
            "lintkit",
        }
    ),
}

#: Function-scope imports sanctioned *against* the DAG — the lazy edges
#: that break bootstrap cycles.  ``(from_layer, to_layer)`` pairs:
#: ``PDMSNetwork.snapshot`` (``repro.pdms.network``) reaches the discovery
#: layer's ``TopologySnapshot`` lazily to hand out its shared snapshot.
#: The walkers of ``repro.pdms.probing`` take a snapshot as an argument
#: and import nothing from the discovery layer.
DEFERRED_EDGES: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("pdms", "discovery"),
    }
)


def layer_of(module: str) -> str:
    """Map a dotted module name to its layer (most specific prefix wins).

    The bare ``repro`` package (its ``__init__``) is the :data:`API_LAYER`;
    modules outside every declared prefix map to ``None``-like '' and are
    exempt from the DAG (the fixture corpora rely on declared prefixes)."""
    if module == "repro":
        return API_LAYER
    best = ""
    best_layer = ""
    for prefix, layer in LAYER_PREFIXES.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > len(best):
                best = prefix
                best_layer = layer
    return best_layer


# ---------------------------------------------------------------------------
# layering — the plan-IR kernel surface and the discovery-walker ban
# ---------------------------------------------------------------------------

#: The sanctioned kernel re-export surface engines must import from.
KERNEL_SURFACE_MODULE = "repro.factorgraph.plan"

#: The kernel implementation module engines must *not* import from.
KERNEL_IMPLEMENTATION_MODULE = "repro.factorgraph.compiled"

#: Kernel functions and batch classes that live in
#: ``repro.factorgraph.compiled`` but are re-exported by the plan IR.
#: Engine-layer modules must import them from the plan surface only.
KERNEL_NAMES: FrozenSet[str] = frozenset(
    {
        "segment_products",
        "segment_exclusive_products",
        "normalize_rows",
        "StackedFactorBatch",
        "StackedCountFactorBatch",
        "MAX_COMPILED_ARITY",
    }
)

#: The structure-enumeration module whose walkers are off-limits to the
#: engine layer — discovery flows through the walks of the network's
#: ``repro.pdms.discovery.TopologySnapshot``.
WALKER_MODULE = "repro.pdms.probing"

#: Enumeration walkers of ``repro.pdms.probing``.  Structure types
#: (``MappingCycle``, ``ParallelPaths``) and ``validate_ttl`` remain fair
#: game; it is the *enumeration* that must flow through the snapshot's
#: walks, which are walked once per origin and version and carried.
WALKER_NAMES: FrozenSet[str] = frozenset(
    {
        "find_cycles_through",
        "find_parallel_paths_from",
    }
)

#: Module prefixes the kernel-surface and walker bans apply to.
ENGINE_LAYER_PREFIXES: Tuple[str, ...] = ("repro.core",)

#: A mapping's private correspondence store.  The structure cache and the
#: per-origin blocks memoise evidence per topology version and walk, which
#: is exact only while correspondences change through the versioned
#: ``PDMSNetwork.change_correspondences``: no module outside
#: :data:`CORRESPONDENCE_STORE_OWNER` may touch the store.
CORRESPONDENCE_STORE_ATTR = "_by_source"

#: The package that owns the correspondence store (``Mapping`` itself and
#: the construction-time corruption tools).
CORRESPONDENCE_STORE_OWNER = "repro.mapping"


# ---------------------------------------------------------------------------
# determinism — the rng-stream contract and the wall-clock ban
# ---------------------------------------------------------------------------

#: Module prefixes forming the deterministic kernel/sweep/discovery code
#: paths: everything here must be bit-reproducible from explicit seeds, so
#: wall-clock reads are banned outright (monotonic/perf_counter duration
#: measurements remain fine — they never feed the numerics).
DETERMINISM_SCOPE: Tuple[str, ...] = (
    "repro.factorgraph",
    "repro.core",
    "repro.pdms",
)

#: Module-level functions of :mod:`random` that mutate the interpreter's
#: hidden global Mersenne state.  Banned everywhere in the package: every
#: rng must flow from a seeded ``random.Random``/``numpy`` ``Generator``
#: (or ``DEFAULT_SEED``) argument — the rng-stream contract.
GLOBAL_RANDOM_FUNCS: FrozenSet[str] = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "seed",
        "getrandbits",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "betavariate",
        "triangular",
        "randbytes",
    }
)

#: The only attributes of ``numpy.random`` that may be called: explicit
#: generator/bit-generator constructors.  Everything else
#: (``np.random.rand``, ``np.random.seed``, ...) drives numpy's hidden
#: global state and is banned.
ALLOWED_NUMPY_RANDOM: FrozenSet[str] = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Rng factory callables that must always receive an explicit seed
#: argument — a zero-argument call silently binds to entropy from the OS
#: and breaks replay.
RNG_FACTORIES: FrozenSet[str] = frozenset(
    {"Random", "default_rng", "RandomState"}
)


# ---------------------------------------------------------------------------
# process safety — submission sites and the picklable boundary
# ---------------------------------------------------------------------------

#: Method names that ship a callable to a *process* pool.  The callable
#: must be a module-level function (bound methods and closures do not
#: survive the pickle boundary the way the shard protocol requires).
PROCESS_SUBMISSION_ATTRS: FrozenSet[str] = frozenset(
    {
        "apply",
        "apply_async",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)

#: Method names that ship a callable to *any* executor (thread or process).
#: Lambdas and local functions are banned at these sites too — thread
#: submissions stay debuggable and swappable for the process executors.
EXECUTOR_SUBMISSION_ATTRS: FrozenSet[str] = frozenset(
    {"submit"} | PROCESS_SUBMISSION_ATTRS
)

#: Constructor names that spawn workers; their ``target=``/``initializer=``
#: callables cross the process boundary.
PROCESS_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"Process", "Pool", "ProcessPoolExecutor"}
)

#: Repository-defined types sanctioned to cross a process boundary —
#: immutable and explicitly picklable, like ``TopologySnapshot``.  A repo
#: class constructed inline at a process submission site must be
#: registered here.  The topology
#: event records, the vector clock, the journal entry and the clock digest
#: are the wire vocabulary of the gossip substrate (:mod:`repro.pdms.events` /
#: :mod:`repro.pdms.clock`): frozen dataclasses a future socket runtime
#: ships between peer processes.
PICKLABLE_BOUNDARY: FrozenSet[str] = frozenset(
    {
        "TopologySnapshot",
        "PeerAdded",
        "PeerRemoved",
        "MappingAdded",
        "MappingRemoved",
        "CorrespondenceChanged",
        "VectorClock",
        "JournalEntry",
        "ClockDigest",
    }
)


# ---------------------------------------------------------------------------
# knob hygiene — the validated environment-variable gate
# ---------------------------------------------------------------------------

#: The only modules allowed to touch ``os.environ`` — everything else
#: reads knobs through :func:`repro.constants.read_env`, which validates
#: the variable name against :data:`KNOWN_ENV_KNOBS` so every knob is
#: declared, documented and strictly parsed in exactly one place.
KNOB_RESOLVER_MODULES: FrozenSet[str] = frozenset({"repro.constants"})


def _validate_contracts() -> None:
    # Every layer named in the DAG must be assignable, and vice versa.
    assigned = set(LAYER_PREFIXES.values()) | {API_LAYER}
    declared = set(IMPORT_DAG)
    if assigned != declared:
        raise AssertionError(
            f"layer tables out of sync: prefixes assign {sorted(assigned)}, "
            f"DAG declares {sorted(declared)}"
        )
    for source, target in DEFERRED_EDGES:
        if source not in declared or target not in declared:
            raise AssertionError(
                f"deferred edge ({source!r}, {target!r}) names an "
                f"undeclared layer"
            )
    # The DAG must actually be acyclic.
    seen: Dict[str, int] = {}

    def visit(layer: str) -> None:
        state = seen.get(layer, 0)
        if state == 1:
            raise AssertionError(f"IMPORT_DAG has a cycle through {layer!r}")
        if state == 2:
            return
        seen[layer] = 1
        for dep in IMPORT_DAG[layer]:
            visit(dep)
        seen[layer] = 2

    for layer in IMPORT_DAG:
        visit(layer)


_validate_contracts()
