"""Unit tests for the chaos / resilience layer (:mod:`repro.reliability`).

The contract under test: a seeded :class:`FaultPlan` is a picklable,
deterministic schedule; the :class:`ResilientDiscoveryExecutor` survives
crashes, hangs and corrupted payloads with merged structures (and the
posteriors downstream of them) *bit-identical* to a fault-free serial run,
while its :class:`ReliabilityStatistics` count exactly the injected faults;
exhausted retry budgets quarantine only the failed shards; the strict base
executor fails fast with descriptive errors instead; and every env knob
(``REPRO_PROBE_WORKERS`` / ``REPRO_PROBE_EXECUTOR`` /
``REPRO_SHARD_TIMEOUT`` / ``REPRO_FAULT_PLAN``) rejects garbage with an
error naming the variable.
"""

import pickle

import pytest

from repro.core.analysis import NetworkStructureCache, NeighborhoodStructureCache
from repro.exceptions import (
    DiscoveryTimeoutError,
    InjectedFaultError,
    PDMSError,
)
from repro.generators.topologies import scale_free_network
from repro.pdms.discovery import (
    ProcessPoolDiscoveryExecutor,
    SerialDiscoveryExecutor,
    plan_full_probe,
    resolve_discovery_executor,
    resolve_probe_workers,
    resolve_shard_timeout,
)
from repro.reliability import (
    FAULT_CORRUPT,
    FAULT_CRASH,
    FAULT_DELAY,
    FAULT_HANG,
    FaultInjector,
    FaultPlan,
    ResilientDiscoveryExecutor,
    fault_plan_or_env,
)

TTL = 3

WORKERS = 2

#: 2 workers × 4 shards per worker — every plan below schedules within it.
SHARDS = WORKERS * ResilientDiscoveryExecutor.SHARDS_PER_WORKER

#: Short deadline so each injected hang costs well under a second.
SHARD_TIMEOUT = 0.4

#: Hangs sleep comfortably past the deadline so the expiry always fires.
HANG_SECONDS = 2.0


@pytest.fixture(scope="module")
def network():
    return scale_free_network(16, seed=7)


@pytest.fixture(scope="module")
def full_plan(network):
    return plan_full_probe(network, ttl=TTL, include_parallel_paths=True)


@pytest.fixture(scope="module")
def serial_merged(full_plan):
    return SerialDiscoveryExecutor().run(full_plan).merged()


@pytest.fixture(scope="module")
def serial_network_structures(network):
    cache = NetworkStructureCache(network, ttl=TTL, probe_executor="serial")
    return cache.structures()


@pytest.fixture(scope="module")
def serial_neighborhoods(network):
    cache = NeighborhoodStructureCache(network, ttl=TTL, probe_executor="serial")
    cache.warm(network.peer_names)
    return {origin: cache.structures_for(origin) for origin in network.peer_names}


def seeded_plan(seed, kind):
    return FaultPlan.seeded(
        seed=seed,
        rate=0.4,
        kinds=(kind,),
        shards=SHARDS,
        hang_seconds=HANG_SECONDS,
    )


class TestFaultPlan:
    def test_seeded_is_deterministic_and_attempt_zero_only(self):
        first = seeded_plan(11, FAULT_CRASH)
        second = seeded_plan(11, FAULT_CRASH)
        assert first.faults == second.faults
        assert first.faults, "seed 11 at rate 0.4 should schedule faults"
        assert all(attempt == 0 for _, attempt in first.faults)

    def test_spec_round_trips_through_parse(self):
        plan = FaultPlan.seeded(
            seed=5, rate=0.4, kinds=(FAULT_CRASH, FAULT_CORRUPT), shards=SHARDS
        )
        assert FaultPlan.parse(plan.spec()) == plan
        # Hand-built plans render as explicit at= entries and round-trip too.
        explicit = FaultPlan(faults={(0, 0): FAULT_CRASH, (3, 1): FAULT_HANG})
        reparsed = FaultPlan.parse(explicit.spec())
        assert reparsed.faults == explicit.faults

    def test_parse_explicit_entries(self):
        plan = FaultPlan.parse("at=0.0.crash,3.1.hang:hang=0.5")
        assert plan.fault_for(0, 0) == FAULT_CRASH
        assert plan.fault_for(3, 1) == FAULT_HANG
        assert plan.fault_for(1, 0) is None
        assert plan.hang_seconds == 0.5

    def test_scheduled_respects_shard_count(self):
        plan = FaultPlan.parse("at=0.0.crash,12.0.crash")
        assert plan.scheduled(8) == {(0, 0): FAULT_CRASH}
        assert plan.faulted_shard_fraction(8) == 1 / 8

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="non-empty string"):
            FaultPlan.parse("   ")
        with pytest.raises(ValueError, match="malformed fault plan segment"):
            FaultPlan.parse("rate")
        with pytest.raises(ValueError, match="unknown fault plan key"):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ValueError, match="must be a number"):
            FaultPlan.parse("rate=banana")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("rate=0.5:kinds=meteor")
        with pytest.raises(ValueError, match="malformed at= entry"):
            FaultPlan.parse("at=0.crash")
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("at=0.0.meteor")

    def test_plan_pickles(self):
        plan = seeded_plan(11, FAULT_HANG)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_fault_plan_or_env_passthrough_and_rejection(self):
        plan = seeded_plan(1, FAULT_CRASH)
        assert fault_plan_or_env(plan) is plan
        assert fault_plan_or_env("at=0.0.crash").fault_for(0, 0) == FAULT_CRASH
        with pytest.raises(ValueError, match="FaultPlan, a spec string or None"):
            fault_plan_or_env(42)


class TestFaultInjector:
    def test_crash_raises_and_clean_shards_pass(self):
        injector = FaultInjector(FaultPlan.parse("at=0.0.crash:delay=0"))
        with pytest.raises(InjectedFaultError, match="shard 0, attempt 0"):
            injector.fire(0, 0)
        assert injector.fire(0, 1) is None
        assert injector.fire(1, 0) is None

    def test_corrupt_is_returned_not_raised_in_processes(self):
        injector = FaultInjector(FaultPlan.parse("at=2.0.corrupt"))
        assert injector.fire(2, 0) == FAULT_CORRUPT


class TestChaosParityMatrix:
    """3 seeds × every fault kind × both structure caches: structures and
    downstream posteriors bit-identical to the fault-free serial run, with
    the statistics counting exactly the injected faults."""

    @pytest.mark.parametrize("seed", (1, 2, 3))
    @pytest.mark.parametrize("kind", (FAULT_CRASH, FAULT_HANG, FAULT_CORRUPT))
    def test_both_caches_bit_identical_under_chaos(
        self, network, serial_network_structures, serial_neighborhoods, seed, kind
    ):
        plan = seeded_plan(seed, kind)
        scheduled = plan.scheduled(SHARDS)
        assert scheduled, f"seed {seed} scheduled no {kind} faults"
        expected = len(scheduled)

        def check_stats(stats):
            assert stats.faults_injected == expected
            assert stats.faults_observed == expected
            assert stats.retries == expected
            assert stats.worker_errors == (expected if kind == FAULT_CRASH else 0)
            assert stats.timeouts == (expected if kind == FAULT_HANG else 0)
            assert stats.corrupted_payloads == (
                expected if kind == FAULT_CORRUPT else 0
            )
            assert stats.quarantined_shards == 0
            assert stats.serial_fallbacks == 0

        chaos_network_cache = NetworkStructureCache(
            network,
            ttl=TTL,
            probe_executor="process",
            probe_workers=WORKERS,
            shard_timeout=SHARD_TIMEOUT,
            fault_plan=plan,
        )
        assert isinstance(
            chaos_network_cache.probe_executor, ResilientDiscoveryExecutor
        )
        assert chaos_network_cache.structures() == serial_network_structures
        check_stats(chaos_network_cache.statistics.reliability)

        chaos_neighborhood_cache = NeighborhoodStructureCache(
            network,
            ttl=TTL,
            probe_executor="process",
            probe_workers=WORKERS,
            shard_timeout=SHARD_TIMEOUT,
            fault_plan=plan,
        )
        chaos_neighborhood_cache.warm(network.peer_names)
        for origin in network.peer_names:
            assert (
                chaos_neighborhood_cache.structures_for(origin)
                == serial_neighborhoods[origin]
            ), f"neighborhood structures diverged for origin {origin!r}"
        check_stats(chaos_neighborhood_cache.statistics.reliability)

    def test_delay_faults_cost_no_retries(self, full_plan, serial_merged):
        plan = FaultPlan.parse("at=0.0.delay,3.0.delay:delay=0.01")
        executor = ResilientDiscoveryExecutor(
            workers=WORKERS, shard_timeout=SHARD_TIMEOUT, fault_plan=plan
        )
        assert executor.run(full_plan).merged() == serial_merged
        stats = executor.last_run_statistics
        assert stats.injected_delays == 2
        assert stats.faults_injected == 2
        assert stats.retries == 0
        # A delay is not a failure: nothing is observed as broken.
        assert stats.faults_observed == 0


class TestRetryBudget:
    def test_exhausted_budget_falls_back_serially_for_failed_shards_only(
        self, full_plan, serial_merged
    ):
        # Shard 0 crashes on every attempt the default budget allows (3);
        # shard 5 crashes once and recovers on its first retry.
        plan = FaultPlan.parse("at=0.0.crash,0.1.crash,0.2.crash,5.0.crash")
        executor = ResilientDiscoveryExecutor(
            workers=WORKERS, shard_timeout=SHARD_TIMEOUT, fault_plan=plan
        )
        assert executor.run(full_plan).merged() == serial_merged
        stats = executor.last_run_statistics
        assert stats.injected_crashes == 4
        assert stats.worker_errors == 4
        # Shard 0: attempts 0/1 are retries, attempt 2 exhausts the budget.
        assert stats.retries == 3
        assert stats.quarantined_shards == 1
        assert stats.serial_fallbacks == 1, (
            "only the quarantined shard may be re-run serially"
        )

    def test_cumulative_statistics_accumulate_across_runs(self, full_plan):
        plan = FaultPlan.parse("at=1.0.crash")
        executor = ResilientDiscoveryExecutor(
            workers=WORKERS, shard_timeout=SHARD_TIMEOUT, fault_plan=plan
        )
        executor.run(full_plan)
        executor.run(full_plan)
        assert executor.last_run_statistics.injected_crashes == 1
        assert executor.statistics.injected_crashes == 2


class TestStrictBaseExecutor:
    def test_hang_raises_discovery_timeout(self, full_plan):
        executor = ProcessPoolDiscoveryExecutor(
            workers=WORKERS,
            shard_timeout=0.3,
            fault_plan=FaultPlan.parse("at=0.0.hang:hang=5"),
        )
        with pytest.raises(DiscoveryTimeoutError, match="probe shard 0"):
            executor.run(full_plan)

    def test_corrupt_payload_raises_before_merge(self, full_plan):
        executor = ProcessPoolDiscoveryExecutor(
            workers=WORKERS,
            fault_plan=FaultPlan.parse("at=1.0.corrupt"),
        )
        with pytest.raises(PDMSError, match="corrupted wire payload"):
            executor.run(full_plan)


class TestEnvKnobs:
    def test_probe_workers_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_WORKERS", "banana")
        with pytest.raises(ValueError, match="REPRO_PROBE_WORKERS"):
            resolve_probe_workers()

    def test_probe_workers_env_nonpositive_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_WORKERS", "0")
        assert resolve_probe_workers() >= 1

    def test_probe_executor_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROBE_EXECUTOR", "bogus")
        with pytest.raises(ValueError, match="REPRO_PROBE_EXECUTOR"):
            resolve_discovery_executor()

    def test_shard_timeout_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "soon")
        with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT"):
            resolve_shard_timeout()
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "-2")
        with pytest.raises(ValueError, match="REPRO_SHARD_TIMEOUT"):
            resolve_shard_timeout()

    def test_fault_plan_env_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "rate=banana")
        with pytest.raises(ValueError, match="REPRO_FAULT_PLAN"):
            fault_plan_or_env(None)

    def test_fault_plan_env_upgrades_process_to_resilient(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "at=0.0.crash")
        executor = resolve_discovery_executor("process", workers=2)
        assert isinstance(executor, ResilientDiscoveryExecutor)
        assert executor.fault_plan is not None

    def test_explicit_fault_plan_upgrades_process_to_resilient(self):
        executor = resolve_discovery_executor(
            "process", workers=2, fault_plan="at=0.0.crash"
        )
        assert isinstance(executor, ResilientDiscoveryExecutor)

    def test_resilient_spec_resolves_without_a_plan(self):
        executor = resolve_discovery_executor("resilient", workers=2)
        assert isinstance(executor, ResilientDiscoveryExecutor)
        assert executor.fault_plan is None
