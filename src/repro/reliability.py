"""Deterministic fault injection and the resilient discovery fan-out.

The paper's system is decentralised by design — peers crash, messages get
lost, feedback lies — but a reproduction's *runtime* must also survive the
mundane failures of its own fan-out: a discovery worker that dies, hangs
or straggles, or a wire payload corrupted in flight.  This module is the
resilience substrate of the process-pool discovery executor of
:mod:`repro.pdms.discovery`:

* :class:`FaultPlan` — a picklable, rng-seeded schedule of injectable
  faults (worker **crash**, **hang**, **delay**\\ ed return, **corrupt**\\ ed
  wire payload) keyed by ``(shard, attempt)``.  Plans are built
  programmatically, generated from a seed (:meth:`FaultPlan.seeded`), or
  parsed from a spec string (:meth:`FaultPlan.parse` — the format of the
  ``REPRO_FAULT_PLAN`` environment variable and the ``--fault-plan`` CLI
  flag), so a chaos run is exactly reproducible from one string.
* :class:`FaultInjector` — the worker-side trigger.  Discovery workers
  receive it through the same pool-initializer hook that ships the probe
  plan (:func:`repro.pdms.discovery._install_worker_plan`).
* :class:`ResilientDiscoveryExecutor` — the process fan-out wrapped with
  per-shard timeouts, bounded retry with exponential backoff and seeded
  jitter, wire-payload integrity checks (corrupted shard results are
  detected by checksum and re-executed, never merged), quarantine of
  repeatedly failing shards and graceful per-shard fallback to in-parent
  serial execution — so the merged structure set stays canonically
  identical to a fault-free serial run no matter which faults fire.
* :class:`ReliabilityStatistics` — the faults/retries/fallbacks/timeouts
  accounting threaded through the structure caches, the quality assessor
  and every ``BENCH_*.json`` report.

Determinism contract: faults are keyed on ``(shard, attempt)``, shards are
a deterministic function of the probe plan, attempts count up from zero —
so the same plan, seed and executor configuration replay byte-identical
chaos, and the recovered results are byte-identical to a run with no chaos
at all.
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .constants import (
    DEFAULT_DELAY_SECONDS,
    DEFAULT_HANG_SECONDS,
    DEFAULT_RETRY_BACKOFF,
    DEFAULT_RETRY_JITTER,
    DEFAULT_SHARD_ATTEMPTS,
    FAULT_PLAN_ENV,
    read_env,
    PROBE_EXECUTOR_RESILIENT,
)
from .exceptions import InjectedFaultError, PDMSError
from .pdms.discovery import (
    ProbeOutcome,
    ProbePlan,
    ProbeRun,
    ProcessPoolDiscoveryExecutor,
    _execute_shard_task,
    _install_worker_plan,
    _rehydrate_outcome,
    _POLL_INTERVAL_SECONDS,
    execute_work_unit,
    payload_checksum,
)


def _run_shard_attempt(conn, plan, fault_plan, shard, attempt, indices) -> None:
    """Entry point of one single-attempt worker process.

    Installs the plan (and injector) through the same
    :func:`~repro.pdms.discovery._install_worker_plan` hook the pool
    executor uses, runs the shard, and ships ``("ok", fired, wired,
    checksum)`` — or ``("error", repr)`` — back through the pipe.  One
    process per attempt keeps failure domains honest: a crash kills only
    this attempt, and the parent can ``terminate()`` a hang without
    poisoning a shared pool slot.
    """
    try:
        _install_worker_plan(plan, fault_plan)
        _, _, fired, wired, checksum = _execute_shard_task(
            (shard, attempt, indices)
        )
        conn.send(("ok", fired, wired, checksum))
    except BaseException as error:  # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("error", repr(error)))
        except (OSError, ValueError):  # pragma: no cover - parent vanished
            pass
    finally:
        conn.close()

__all__ = [
    "FAULT_CRASH",
    "FAULT_HANG",
    "FAULT_DELAY",
    "FAULT_CORRUPT",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultInjector",
    "ReliabilityStatistics",
    "ResilientDiscoveryExecutor",
    "corrupt_payload",
    "fault_plan_or_env",
]


#: The worker raises: the attempt dies with an exception.
FAULT_CRASH = "crash"

#: The worker sleeps past the shard deadline: the attempt is presumed
#: wedged and times out in the parent.
FAULT_HANG = "hang"

#: The worker sleeps briefly and then succeeds: completion order scrambles
#: without the attempt failing.
FAULT_DELAY = "delay"

#: The worker mangles its wire payload after checksumming: the parent's
#: integrity check rejects the result.
FAULT_CORRUPT = "corrupt"

FAULT_KINDS = (FAULT_CRASH, FAULT_HANG, FAULT_DELAY, FAULT_CORRUPT)


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable schedule of faults keyed by (shard, attempt).

    ``faults`` maps ``(shard, attempt)`` to a fault kind; everything a
    worker needs to fire its share of the chaos — the schedule and the
    hang/delay durations — pickles with the plan, so the injector behaves
    identically under fork and spawn start methods.  A fault scheduled at
    attempt 0 always fires (every shard runs attempt 0); faults at higher
    attempts only fire if earlier attempts failed, which makes
    retry-success the deterministic default: schedule at attempt 0 only and
    the first retry is guaranteed clean.
    """

    faults: Dict[Tuple[int, int], str] = field(default_factory=dict)
    seed: int = 0
    hang_seconds: float = DEFAULT_HANG_SECONDS
    delay_seconds: float = DEFAULT_DELAY_SECONDS
    #: The spec string this plan was generated/parsed from (reports stamp
    #: it so a chaos run is reproducible from the BENCH json alone).
    spec_string: str = ""

    def __post_init__(self) -> None:
        for key, kind in self.faults.items():
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} at {key}; expected one of "
                    f"{', '.join(FAULT_KINDS)}"
                )

    def fault_for(self, shard: int, attempt: int) -> Optional[str]:
        """The fault scheduled for this (shard, attempt), or ``None``."""
        return self.faults.get((shard, attempt))

    def scheduled(
        self, shard_count: Optional[int] = None
    ) -> Dict[Tuple[int, int], str]:
        """The schedule, optionally restricted to shards below ``shard_count``
        (the faults that can actually fire in a run with that many shards)."""
        if shard_count is None:
            return dict(self.faults)
        return {
            (shard, attempt): kind
            for (shard, attempt), kind in self.faults.items()
            if shard < shard_count
        }

    def faulted_shard_fraction(self, shard_count: int) -> float:
        """Fraction of a run's shards with at least one scheduled fault."""
        if shard_count <= 0:
            return 0.0
        hit = {shard for shard, _ in self.scheduled(shard_count)}
        return len(hit) / shard_count

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float = 0.25,
        kinds: Tuple[str, ...] = (FAULT_CRASH, FAULT_HANG),
        shards: int = 16,
        attempts: int = 1,
        hang_seconds: float = DEFAULT_HANG_SECONDS,
        delay_seconds: float = DEFAULT_DELAY_SECONDS,
    ) -> "FaultPlan":
        """Generate a schedule from one rng seed: every (shard, attempt)
        below the bounds faults with probability ``rate``, drawing the kind
        uniformly from ``kinds``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate!r}")
        if shards < 1 or attempts < 1:
            raise ValueError(
                f"fault plan bounds must be >= 1, got shards={shards!r} "
                f"attempts={attempts!r}"
            )
        kinds = tuple(kinds)
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; expected one of "
                    f"{', '.join(FAULT_KINDS)}"
                )
        if rate > 0.0 and not kinds:
            raise ValueError("a non-zero fault rate needs at least one kind")
        rng = random.Random(seed)
        faults: Dict[Tuple[int, int], str] = {}
        for shard in range(shards):
            for attempt in range(attempts):
                if rng.random() < rate:
                    faults[(shard, attempt)] = kinds[rng.randrange(len(kinds))]
        spec = (
            f"seed={seed}:rate={rate}:kinds={','.join(kinds)}:"
            f"shards={shards}:attempts={attempts}:"
            f"hang={hang_seconds}:delay={delay_seconds}"
        )
        return cls(
            faults=faults,
            seed=seed,
            hang_seconds=hang_seconds,
            delay_seconds=delay_seconds,
            spec_string=spec,
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string (the ``REPRO_FAULT_PLAN`` / ``--fault-plan``
        format) into a plan.

        Colon-separated ``key=value`` segments; recognised keys:

        ``seed`` (int), ``rate`` (float in [0,1]), ``kinds``
        (comma-separated fault kinds), ``shards`` (int), ``attempts``
        (int), ``hang`` / ``delay`` (seconds), and ``at`` — explicit
        comma-separated ``shard.attempt.kind`` entries layered on top of
        (or instead of) the seeded schedule.  Example::

            seed=11:rate=0.3:kinds=crash,hang:shards=16:hang=5
            at=0.0.crash,2.0.hang,2.1.hang:hang=2
        """
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError(
                f"fault plan spec must be a non-empty string, got {spec!r}"
            )
        params: Dict[str, str] = {}
        for segment in spec.strip().split(":"):
            if not segment:
                continue
            key, separator, value = segment.partition("=")
            if not separator or not key:
                raise ValueError(
                    f"malformed fault plan segment {segment!r} in {spec!r}; "
                    f"expected key=value segments separated by ':'"
                )
            params[key.strip()] = value.strip()
        known = {"seed", "rate", "kinds", "shards", "attempts", "hang", "delay", "at"}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ValueError(
                f"unknown fault plan key(s) {', '.join(unknown)} in "
                f"{spec!r}; expected {', '.join(sorted(known))}"
            )

        def number(key: str, cast, default):
            if key not in params:
                return default
            try:
                return cast(params[key])
            except ValueError:
                raise ValueError(
                    f"fault plan key {key}= must be a number, got "
                    f"{params[key]!r}"
                ) from None

        seed = number("seed", int, 0)
        rate = number("rate", float, 0.0)
        shards = number("shards", int, 16)
        attempts = number("attempts", int, 1)
        hang_seconds = number("hang", float, DEFAULT_HANG_SECONDS)
        delay_seconds = number("delay", float, DEFAULT_DELAY_SECONDS)
        kinds = tuple(
            kind.strip()
            for kind in params.get("kinds", ",".join((FAULT_CRASH, FAULT_HANG))).split(",")
            if kind.strip()
        )
        plan = cls.seeded(
            seed,
            rate=rate,
            kinds=kinds,
            shards=shards,
            attempts=attempts,
            hang_seconds=hang_seconds,
            delay_seconds=delay_seconds,
        )
        faults = dict(plan.faults)
        for entry in params.get("at", "").split(","):
            entry = entry.strip()
            if not entry:
                continue
            pieces = entry.split(".")
            if len(pieces) != 3:
                raise ValueError(
                    f"malformed at= entry {entry!r} in {spec!r}; expected "
                    f"shard.attempt.kind"
                )
            try:
                shard, attempt = int(pieces[0]), int(pieces[1])
            except ValueError:
                raise ValueError(
                    f"malformed at= entry {entry!r} in {spec!r}; shard and "
                    f"attempt must be integers"
                ) from None
            faults[(shard, attempt)] = pieces[2]
        return cls(
            faults=faults,
            seed=seed,
            hang_seconds=hang_seconds,
            delay_seconds=delay_seconds,
            spec_string=spec.strip(),
        )

    def spec(self) -> str:
        """A spec string reproducing this plan (round-trips through
        :meth:`parse` for parsed/seeded plans; hand-built plans render as
        explicit ``at=`` entries)."""
        if self.spec_string:
            return self.spec_string
        entries = ",".join(
            f"{shard}.{attempt}.{kind}"
            for (shard, attempt), kind in sorted(self.faults.items())
        )
        rendered = f"seed={self.seed}:hang={self.hang_seconds}:delay={self.delay_seconds}"
        return f"{rendered}:at={entries}" if entries else rendered

    def __len__(self) -> int:
        return len(self.faults)


def fault_plan_or_env(value: object = None) -> Optional[FaultPlan]:
    """Resolve a ``fault_plan=`` argument: a plan passes through, a string
    parses, and ``None`` consults the ``REPRO_FAULT_PLAN`` environment
    variable (returning ``None`` when chaos is not configured).  Errors
    name the source of the bad spec."""
    if value is None:
        raw = read_env(FAULT_PLAN_ENV)
        if not raw:
            return None
        try:
            return FaultPlan.parse(raw)
        except ValueError as error:
            raise ValueError(f"{FAULT_PLAN_ENV}: {error}") from None
    if isinstance(value, FaultPlan):
        return value
    if isinstance(value, str):
        return FaultPlan.parse(value)
    raise ValueError(
        f"fault plan must be a FaultPlan, a spec string or None, got "
        f"{value!r}"
    )


# ---------------------------------------------------------------------------
# the worker-side trigger
# ---------------------------------------------------------------------------


class FaultInjector:
    """Fires a :class:`FaultPlan`'s scheduled faults at execution sites.

    Process workers call :meth:`fire` at the top of each shard attempt,
    consulting the deterministic ``(shard, attempt)`` schedule.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = fault_plan_or_env(plan)
        if self.plan is None:
            raise ValueError("FaultInjector needs a FaultPlan, got None")

    def fire(self, shard: int, attempt: int) -> Optional[str]:
        """Fire the fault scheduled for this process-pool shard attempt.

        ``crash`` raises, ``hang`` and ``delay`` sleep (the hang long
        enough to trip any sane shard deadline), ``corrupt`` is returned to
        the caller — the payload can only be mangled *after* the shard ran
        and checksummed its authentic result."""
        kind = self.plan.fault_for(shard, attempt)
        if kind == FAULT_CRASH:
            raise InjectedFaultError(
                f"injected crash in probe shard {shard}, attempt {attempt}"
            )
        if kind == FAULT_HANG:
            time.sleep(self.plan.hang_seconds)
        elif kind == FAULT_DELAY:
            time.sleep(self.plan.delay_seconds)
        return kind


def corrupt_payload(wired):
    """Deterministically mangle a shard's wire payload (chaos only).

    Renames the first mapping name it finds — the kind of corruption that
    would silently poison the merge if it slipped past the checksum — and
    falls back to appending a bogus outcome tuple for shards that
    discovered nothing."""
    mangled: List[Tuple] = []
    corrupted = False
    for index, wire_cycles, wire_pairs in wired:
        if not corrupted and wire_cycles:
            origin, names = wire_cycles[0]
            bad = ((origin, ("__corrupted__",) + tuple(names[1:])),)
            wire_cycles = bad + tuple(wire_cycles[1:])
            corrupted = True
        elif not corrupted and wire_pairs:
            source, target, first, second = wire_pairs[0]
            bad = ((source, target, ("__corrupted__",) + tuple(first[1:]), second),)
            wire_pairs = bad + tuple(wire_pairs[1:])
            corrupted = True
        mangled.append((index, wire_cycles, wire_pairs))
    if not corrupted:
        mangled.append((-1, (), ()))
    return mangled


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------


@dataclass
class ReliabilityStatistics:
    """Fault and recovery accounting of one (or many merged) fan-out runs.

    The ``injected_*`` counters attribute observed failures to the
    configured :class:`FaultPlan` — in a pure chaos run they equal the
    observation counters exactly (every worker error is an injected crash,
    every timeout an injected hang, every checksum mismatch an injected
    corruption); in production the injected counters stay zero and the
    observation counters record real trouble.
    """

    injected_crashes: int = 0
    injected_hangs: int = 0
    injected_delays: int = 0
    injected_corruptions: int = 0
    #: Shard attempts that raised out of the worker (injected or real).
    worker_errors: int = 0
    #: Shard attempts abandoned at their per-shard deadline.
    timeouts: int = 0
    #: Shard payloads rejected by the wire checksum (never merged).
    corrupted_payloads: int = 0
    #: Re-submissions of a failed shard attempt.
    retries: int = 0
    #: Shards whose retry budget was exhausted.
    quarantined_shards: int = 0
    #: Shards (or whole plans) degraded to in-parent serial execution.
    serial_fallbacks: int = 0

    @property
    def faults_injected(self) -> int:
        return (
            self.injected_crashes
            + self.injected_hangs
            + self.injected_delays
            + self.injected_corruptions
        )

    @property
    def faults_observed(self) -> int:
        return self.worker_errors + self.timeouts + self.corrupted_payloads

    def merge(self, other: "ReliabilityStatistics") -> "ReliabilityStatistics":
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, int]:
        record = {name: getattr(self, name) for name in self.__dataclass_fields__}
        record["faults_injected"] = self.faults_injected
        record["faults_observed"] = self.faults_observed
        return record

    def __bool__(self) -> bool:
        return any(getattr(self, name) for name in self.__dataclass_fields__)


# ---------------------------------------------------------------------------
# the resilient discovery executor
# ---------------------------------------------------------------------------


class ResilientDiscoveryExecutor(ProcessPoolDiscoveryExecutor):
    """The process fan-out hardened into at-least-once, verified delivery.

    Same origin sharding, same worker-side walkers, same canonical merge as
    :class:`~repro.pdms.discovery.ProcessPoolDiscoveryExecutor` — but a
    shard attempt that crashes, times out or fails its payload checksum is
    retried with exponential backoff and seeded jitter, up to
    ``max_attempts`` per shard; a shard that exhausts its budget is
    quarantined and its work units are executed serially in the parent
    (always fault-free: the injector lives in the workers).  Outcomes are
    keyed by work-unit index whichever path produced them, so the merged
    structure set is bit-identical to a fault-free serial run no matter
    which faults fire.

    Unlike the base executor's shared pool, attempts run one process each,
    scheduled onto ``workers`` slots by the parent: the per-shard deadline
    starts when the attempt's process actually starts (a healthy shard
    queued behind a wedged one is never charged for the queueing), and a
    hang is ``terminate()``\\ d at its deadline, freeing the slot
    immediately instead of wedging it for the hang's duration.

    Accounting lands in :attr:`last_run_statistics` (per run) and
    :attr:`statistics` (cumulative); the structure caches collect the
    per-run statistics into their
    :class:`~repro.core.analysis.StructureCacheStatistics`.
    """

    name = PROBE_EXECUTOR_RESILIENT

    def __init__(
        self,
        workers: Optional[int] = None,
        min_units: int = 4,
        shard_timeout: object = None,
        fault_plan: object = None,
        max_attempts: int = DEFAULT_SHARD_ATTEMPTS,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        retry_jitter: float = DEFAULT_RETRY_JITTER,
    ) -> None:
        super().__init__(
            workers=workers,
            min_units=min_units,
            shard_timeout=shard_timeout,
            fault_plan=fault_plan_or_env(fault_plan),
        )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff < 0 or retry_jitter < 0:
            raise ValueError(
                f"retry backoff and jitter must be >= 0, got "
                f"{retry_backoff!r} / {retry_jitter!r}"
            )
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.retry_jitter = retry_jitter
        #: Accounting of the most recent :meth:`run`.
        self.last_run_statistics = ReliabilityStatistics()
        #: Accounting accumulated across this executor's lifetime.
        self.statistics = ReliabilityStatistics()

    def _attribute_failure(
        self, stats: ReliabilityStatistics, shard: int, attempt: int
    ) -> None:
        """Charge a failed attempt to the fault plan when chaos scheduled it."""
        kind = self.fault_plan.fault_for(shard, attempt) if self.fault_plan else None
        if kind == FAULT_CRASH:
            stats.injected_crashes += 1
        elif kind == FAULT_HANG:
            stats.injected_hangs += 1
        elif kind == FAULT_CORRUPT:
            stats.injected_corruptions += 1

    def run(self, plan: ProbePlan) -> ProbeRun:
        stats = ReliabilityStatistics()
        self.last_run_statistics = stats
        if self.workers < 2 or len(plan.work_units) < self.min_units:
            # Nothing fans out, so nothing to harden (or to inject into).
            run = self._serial.run(plan)
            return ProbeRun(
                plan=plan, outcomes=run.outcomes, sharded=False, workers=1
            )
        shards = self._shards(plan)
        outcomes: List[Optional[ProbeOutcome]] = [None] * len(plan.work_units)
        # Seeded by the fault plan so chaos replays — including the retry
        # jitter — are deterministic end to end.
        jitter_rng = random.Random(self.fault_plan.seed if self.fault_plan else 0)
        context = multiprocessing.get_context()
        slots = min(self.workers, len(shards))

        def run_shard_serially(shard: int) -> None:
            for index in shards[shard]:
                outcomes[index] = execute_work_unit(plan, index)

        #: (shard, attempt) pairs ready to start when a slot frees up.
        ready: List[Tuple[int, int]] = [(shard, 0) for shard in range(len(shards))]
        #: (resume_at, shard, attempt) — retries waiting out their backoff.
        waiting: List[Tuple[float, int, int]] = []
        #: shard -> (process, pipe, attempt, deadline); at most ``slots`` big.
        running: Dict[int, Tuple[object, object, int, float]] = {}

        def start(shard: int, attempt: int) -> None:
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_run_shard_attempt,
                args=(
                    sender,
                    plan,
                    self.fault_plan,
                    shard,
                    attempt,
                    tuple(shards[shard]),
                ),
                daemon=True,
            )
            try:
                process.start()
            except OSError:
                # Cannot fork (fd/memory pressure): degrade this shard to
                # the in-parent serial walkers rather than fail the probe.
                receiver.close()
                sender.close()
                stats.serial_fallbacks += 1
                run_shard_serially(shard)
                return
            sender.close()
            running[shard] = (
                process,
                receiver,
                attempt,
                time.monotonic() + self.shard_timeout,
            )

        def reap(shard: int, terminate: bool = False) -> None:
            process, receiver, _, _ = running.pop(shard)
            if terminate:
                process.terminate()  # type: ignore[attr-defined]
            process.join()  # type: ignore[attr-defined]
            receiver.close()  # type: ignore[attr-defined]

        def handle_failure(shard: int, attempt: int) -> None:
            self._attribute_failure(stats, shard, attempt)
            if attempt + 1 >= self.max_attempts:
                stats.quarantined_shards += 1
                stats.serial_fallbacks += 1
                run_shard_serially(shard)
                return
            stats.retries += 1
            backoff = self.retry_backoff * (2 ** attempt)
            backoff += jitter_rng.random() * self.retry_jitter
            waiting.append((time.monotonic() + backoff, shard, attempt + 1))

        while ready or waiting or running:
            progressed = False
            now = time.monotonic()
            due = [entry for entry in waiting if entry[0] <= now]
            if due:
                waiting = [entry for entry in waiting if entry[0] > now]
                ready.extend((shard, attempt) for _, shard, attempt in due)
            while ready and len(running) < slots:
                shard, attempt = ready.pop(0)
                start(shard, attempt)
                progressed = True
            for shard in list(running):
                process, receiver, attempt, deadline = running[shard]
                if receiver.poll():  # type: ignore[attr-defined]
                    try:
                        message = receiver.recv()  # type: ignore[attr-defined]
                    except EOFError:
                        message = ("error", "worker closed the pipe")
                    reap(shard)
                    progressed = True
                    if message[0] != "ok":
                        stats.worker_errors += 1
                        handle_failure(shard, attempt)
                        continue
                    _, fired, wired, checksum = message
                    if fired == FAULT_DELAY:
                        stats.injected_delays += 1
                    if payload_checksum(wired) != checksum:
                        stats.corrupted_payloads += 1
                        handle_failure(shard, attempt)
                        continue
                    for wire in wired:
                        outcome = _rehydrate_outcome(plan.snapshot, wire)
                        outcomes[outcome.index] = outcome
                elif not process.is_alive():  # type: ignore[attr-defined]
                    # Died without a message: a hard crash (signal, exit).
                    reap(shard)
                    progressed = True
                    stats.worker_errors += 1
                    handle_failure(shard, attempt)
                elif now > deadline:
                    # Presumed wedged: kill the attempt, freeing its slot
                    # immediately, and let retry / serial fallback recover.
                    reap(shard, terminate=True)
                    progressed = True
                    stats.timeouts += 1
                    handle_failure(shard, attempt)
            if (ready or waiting or running) and not progressed:
                time.sleep(_POLL_INTERVAL_SECONDS)
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:  # pragma: no cover - defensive: a shard vanished
            raise PDMSError(f"probe work units {missing!r} returned no outcome")
        self.statistics.merge(stats)
        return ProbeRun(
            plan=plan,
            outcomes=tuple(outcomes),  # type: ignore[arg-type]
            sharded=True,
            workers=min(self.workers, len(shards)),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        chaos = f", fault_plan={self.fault_plan.spec()!r}" if self.fault_plan else ""
        return (
            f"ResilientDiscoveryExecutor(workers={self.workers}, "
            f"max_attempts={self.max_attempts}{chaos})"
        )
