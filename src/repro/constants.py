"""Shared numerical defaults of the iterative inference engines.

Historically the centralised :class:`~repro.factorgraph.sum_product.SumProduct`
engine and the decentralised :class:`~repro.core.embedded.EmbeddedMessagePassing`
engine grew slightly different defaults (tolerances of ``1e-6`` vs ``1e-4``,
and a hidden ``random.Random(0)`` fallback vs an unseeded transport).  Both
engines approximate the *same* fixed points, so inconsistent stopping rules
made cross-engine comparisons noisy.  This module is the single source of
truth for those knobs; every engine imports its defaults from here.

Seeding behaviour
-----------------
Randomness only enters the algorithms through message loss
(``send_probability < 1``).  When no explicit ``rng``/``seed`` is supplied,
every engine falls back to a deterministic source seeded with
:data:`DEFAULT_SEED` so that repeated runs are reproducible by default.
Pass an explicit seed (as the fault-tolerance experiments do, one per
repetition) to obtain independent lossy runs.
"""

from __future__ import annotations

import os

__all__ = [
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "DEFAULT_DAMPING",
    "DEFAULT_SEND_PROBABILITY",
    "DEFAULT_SEED",
    "DEFAULT_TTL",
    "DEFAULT_BACKEND",
    "BACKEND_LOOPS",
    "BACKEND_VECTORIZED",
    "MAX_COMPILED_ARITY",
    "COUNT_KERNEL_MIN_ARITY",
    "PROBE_EXECUTOR_SERIAL",
    "PROBE_EXECUTOR_PROCESS",
    "PROBE_EXECUTOR_RESILIENT",
    "DEFAULT_PROBE_EXECUTOR",
    "DEFAULT_PROBE_WORKERS",
    "PROBE_EXECUTOR_ENV",
    "PROBE_WORKERS_ENV",
    "FAULT_PLAN_ENV",
    "SHARD_TIMEOUT_ENV",
    "DEFAULT_SHARD_TIMEOUT",
    "DEFAULT_SHARD_ATTEMPTS",
    "DEFAULT_RETRY_BACKOFF",
    "DEFAULT_RETRY_JITTER",
    "DEFAULT_HANG_SECONDS",
    "DEFAULT_DELAY_SECONDS",
    "KNOWN_ENV_KNOBS",
    "read_env",
]

#: Hard cap on synchronous rounds, shared by the centralised and embedded runs.
DEFAULT_MAX_ITERATIONS: int = 50

#: Convergence threshold on the largest message / posterior change per round.
DEFAULT_TOLERANCE: float = 1e-6

#: Convex-combination weight of the *old* factor→variable message (0 = off).
DEFAULT_DAMPING: float = 0.0

#: Probability that a directed message is transmitted in a round.
DEFAULT_SEND_PROBABILITY: float = 1.0

#: Seed of the fallback random source used when none is supplied.
DEFAULT_SEED: int = 0

#: Default Time-To-Live (maximum number of mapping hops) of the probe phase
#: discovering cycles and parallel paths (§3.2.1).  Shared by the probing
#: entry points of :mod:`repro.pdms.probing`, both structure caches of
#: :mod:`repro.core.analysis` and the quality assessor, so every layer
#: bounds the exponential enumeration identically unless told otherwise.
DEFAULT_TTL: int = 6

#: Largest factor arity the *dense* einsum kernels compile — one lowercase
#: subscript letter per slot (``a``–``y``; ``z`` and ``A`` are reserved for
#: the batch/stack axes), so exactly 25.  Historically the docstrings said
#: "26 letters" while the checks said "arity > 25"; this constant is now the
#: single source of truth (``repro.factorgraph.compiled`` asserts its
#: alphabet matches).  Count-symmetric factors (the paper's feedback CPTs)
#: are not bound by it: they compile through the count-space kernels at any
#: arity.
MAX_COMPILED_ARITY: int = 25

#: Crossover arity between the dense einsum kernels and the count-space
#: kernels for count-symmetric feedback factors.  Below it the dense
#: ``(2,)**arity`` tables win (one einsum per sweep, tiny tables); from it
#: on the count-space kernels run the same sum–product sweep in O(arity²)
#: time and O(arity) table memory per structure, removing the exponential
#: cliff for long cycles and parallel paths.
COUNT_KERNEL_MIN_ARITY: int = 10

#: Reference edge-by-edge Python implementation.
BACKEND_LOOPS: str = "loops"

#: Compiled, batched numpy implementation (see repro.factorgraph.compiled).
BACKEND_VECTORIZED: str = "vectorized"

#: Backend used by :class:`~repro.factorgraph.sum_product.SumProduct` when
#: none is requested.  The vectorized backend matches the loop reference to
#: floating-point accuracy and falls back to the loops automatically on
#: graphs it cannot compile (mixed variable cardinalities).
DEFAULT_BACKEND: str = BACKEND_VECTORIZED

#: Environment variable naming the default discovery executor.
PROBE_EXECUTOR_ENV: str = "REPRO_PROBE_EXECUTOR"

#: Environment variable sizing the discovery worker pool.
PROBE_WORKERS_ENV: str = "REPRO_PROBE_WORKERS"

#: Environment variable selecting a seeded chaos fault plan (see
#: :mod:`repro.reliability`) for every fan-out of the process.
FAULT_PLAN_ENV: str = "REPRO_FAULT_PLAN"

#: Environment variable overriding the per-shard discovery timeout.
SHARD_TIMEOUT_ENV: str = "REPRO_SHARD_TIMEOUT"

#: Every environment knob the package reads.  :func:`read_env` — the one
#: sanctioned gate to ``os.environ`` outside this module (enforced by the
#: ``knob-env-read`` rule of :mod:`repro.lintkit`) — refuses names missing
#: from this registry, so a new knob cannot ship without being declared,
#: documented and validated here first.
KNOWN_ENV_KNOBS = frozenset(
    {
        PROBE_EXECUTOR_ENV,
        PROBE_WORKERS_ENV,
        FAULT_PLAN_ENV,
        SHARD_TIMEOUT_ENV,
    }
)


def read_env(name: str) -> str:
    """Read a *declared* environment knob, stripped; ``''`` when unset.

    The single sanctioned environment gate of the package: every module
    except this one resolves its knobs through here (the lintkit
    ``knob-env-read`` rule bans direct ``os.environ`` access), and the
    name must be registered in :data:`KNOWN_ENV_KNOBS` — PR 8's strict
    named-variable validation pattern applied at the read itself.
    """
    if name not in KNOWN_ENV_KNOBS:
        raise ValueError(
            f"undeclared environment knob {name!r}; register it in "
            f"repro.constants.KNOWN_ENV_KNOBS (known: "
            f"{', '.join(sorted(KNOWN_ENV_KNOBS))})"
        )
    return os.environ.get(name, "").strip()

#: In-process discovery executor of the probe-plan IR
#: (:mod:`repro.pdms.discovery`) — result-identical to the historical
#: recursive walkers, discovery order included.
PROBE_EXECUTOR_SERIAL: str = "serial"

#: Origin-sharded discovery executor fanning a probe plan's work units out
#: to a ``multiprocessing`` pool and merging the streamed results
#: canonically, so the structure sets match :data:`PROBE_EXECUTOR_SERIAL`
#: exactly regardless of worker scheduling.
PROBE_EXECUTOR_PROCESS: str = "process"

#: Chaos-hardened discovery executor
#: (:class:`~repro.reliability.ResilientDiscoveryExecutor`): the process
#: fan-out wrapped with per-shard timeouts, checksummed wire payloads,
#: bounded retry with seeded backoff jitter, and per-shard serial fallback
#: — structure sets stay canonically identical to ``serial`` no matter
#: which faults fire.  Selected automatically whenever a fault plan is
#: configured for a process fan-out.
PROBE_EXECUTOR_RESILIENT: str = "resilient"

#: Discovery executor used when none is requested, overridable via the
#: ``REPRO_PROBE_EXECUTOR`` environment variable so whole test/benchmark
#: runs can be switched without touching call sites (CI exercises the
#: process executor this way).
DEFAULT_PROBE_EXECUTOR: str = os.environ.get(
    PROBE_EXECUTOR_ENV, PROBE_EXECUTOR_SERIAL
)


def _probe_workers_from_env() -> "int | None":
    # Lenient on purpose: a malformed REPRO_PROBE_WORKERS must not abort
    # module import.  resolve_probe_workers re-reads the variable at
    # resolution time and raises the descriptive error there.
    raw = os.environ.get(PROBE_WORKERS_ENV, "").strip()
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        return None
    return workers if workers > 0 else None


#: Worker count of the process-pool discovery executor when none is passed
#: explicitly: the ``REPRO_PROBE_WORKERS`` environment variable (unset, empty
#: or ``<= 0`` meaning "decide at runtime"), else ``None`` — resolved to the
#: machine's CPU count by :func:`repro.pdms.discovery.resolve_probe_workers`,
#: which also diagnoses malformed values with a clear error.
DEFAULT_PROBE_WORKERS: "int | None" = _probe_workers_from_env()


def _shard_timeout_from_env() -> "float | None":
    # Same leniency contract as _probe_workers_from_env: malformed values
    # are diagnosed by repro.pdms.discovery.resolve_shard_timeout, not at
    # import time.
    raw = os.environ.get(SHARD_TIMEOUT_ENV, "").strip()
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        return None
    return timeout if timeout > 0 else None


#: Per-shard deadline (seconds) of the process-pool discovery fan-out when
#: none is passed explicitly: the ``REPRO_SHARD_TIMEOUT`` environment
#: variable, else 120 s — generous enough that it never fires on healthy
#: probes (the 1024-peer full probe completes in well under a minute), but
#: a wedged worker now raises a descriptive
#: :class:`~repro.exceptions.DiscoveryTimeoutError` instead of blocking the
#: parent forever.  ``None`` disables the deadline.
DEFAULT_SHARD_TIMEOUT: "float | None" = _shard_timeout_from_env() or 120.0

#: Attempts per shard (first run + retries) before the resilient discovery
#: executor quarantines the shard and falls back to in-parent serial
#: execution of its work units.
DEFAULT_SHARD_ATTEMPTS: int = 3

#: Base of the exponential retry backoff (seconds): attempt ``n`` waits
#: ``DEFAULT_RETRY_BACKOFF * 2**n`` plus seeded jitter before resubmitting.
DEFAULT_RETRY_BACKOFF: float = 0.05

#: Upper bound of the uniform, fault-plan-seeded jitter added to each
#: retry backoff so colliding retries de-synchronise deterministically.
DEFAULT_RETRY_JITTER: float = 0.05

#: How long an injected ``hang`` fault sleeps inside a worker.  Must exceed
#: the shard timeout in use, so the parent observes a genuine deadline
#: expiry; chaos runs shorten both together.
DEFAULT_HANG_SECONDS: float = 30.0

#: How long an injected ``delay`` fault sleeps — long enough to reorder
#: shard completions, short enough never to trip a sane shard timeout.
DEFAULT_DELAY_SECONDS: float = 0.05
