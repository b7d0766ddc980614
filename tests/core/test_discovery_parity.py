"""Discovery-frontier contract tests for the core layer.

Four guarantees land here, mirroring ``test_plan_ir.py`` one layer up:

1. The walker-ban layering invariant: the core must reach structure
   discovery through the probe-plan frontier of
   :mod:`repro.pdms.discovery` — never by importing the enumeration
   walkers (``find_cycles_through``, ``find_all_parallel_paths``, ...)
   from :mod:`repro.pdms.probing` directly.  Structure types
   (``MappingCycle``, ``ParallelPaths``) and ``validate_ttl`` remain fair
   game; it is the *enumeration* that must flow through plans.  The ban is
   stated once in :mod:`repro.lintkit.contracts` (``WALKER_NAMES``) and
   enforced by the ``layering-discovery-walkers`` rule; this test asserts
   ``repro-lint`` reports zero findings for it.
2. The live x fresh parity matrix: both structure caches, kept live
   through a mutation-log incremental refresh, must hand back canonically
   identical structure sets to a cache probing the mutated network from
   scratch.  A network shares one snapshot and its walks per version, so
   the fresh side probes a replay of the network's event log (or, where
   the log is truncated, a private snapshot) — never the live side's
   snapshot.
3. Incremental refresh is O(delta): one mapping removed and re-added at
   1024 peers runs exactly one work unit per cache, never a full probe.
4. One walk per origin per topology version and ttl, across both caches.
"""

import pathlib
from dataclasses import replace

import pytest

import repro
from repro.core.analysis import NeighborhoodStructureCache, NetworkStructureCache
from repro.generators.scenarios import generate_scenario
from repro.generators.topologies import scale_free_network
from repro.lintkit import run_lint, rules_by_id
from repro.pdms import discovery
from repro.pdms.discovery import TopologySnapshot, plan_full_probe, run_plan
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.probing import find_cycles_through

SEEDS = (1, 2, 3)

PEERS = 10


def _canon(structures):
    return {s.canonical_key() for s in structures}


def _churn(network):
    """One incremental-refresh-friendly mutation pair: drop a mapping,
    then graft it back (both land in the mutation log — no full probe)."""
    name = sorted(network.mapping_names)[0]
    mapping = network.mapping(name)
    network.remove_mapping(name)
    network.add_mapping(mapping, bidirectional=False)


def _replayed(network):
    """A from-scratch twin of ``network``: its complete event log replayed
    into a new network, which lowers its own snapshot."""
    assert not network.log_truncated
    return PDMSNetwork.from_events(
        network.event_log(), name=network.name, directed=network.directed
    )


class TestFreshSideReplay:
    def test_replay_reproduces_a_churned_network(self):
        network = scale_free_network(16, seed=4)
        _churn(network)
        peer = network.peers[3]
        incident = [
            m for m in network.mappings if peer.name in (m.source, m.target)
        ]
        network.remove_peer(peer.name)
        network.add_peer(Peer(peer.name, peer.schema))
        for mapping in incident:
            network.add_mapping(mapping, bidirectional=False)
        _churn(network)

        replayed = _replayed(network)
        assert replayed.peer_names == network.peer_names
        assert replayed.mapping_names == network.mapping_names
        assert replayed.version == network.version
        for name in network.peer_names:
            assert [m.name for m in replayed.peer(name).outgoing_mappings] == [
                m.name for m in network.peer(name).outgoing_mappings
            ]
        assert replayed.snapshot() is not network.snapshot()


class TestCoreUsesTheDiscoveryFrontier:
    def test_no_core_module_imports_walkers_from_probing(self):
        package_dir = pathlib.Path(repro.__file__).parent
        rule = rules_by_id()["layering-discovery-walkers"]
        findings, _ = run_lint([package_dir], rules=[rule])
        offenders = [
            finding.render()
            for finding in findings
            if not finding.suppressed
        ]
        assert not offenders, (
            "core modules must discover structures via repro.pdms.discovery "
            "plans, not the repro.pdms.probing walkers:\n" + "\n".join(offenders)
        )


@pytest.mark.parametrize("ttl", [4, 6])
@pytest.mark.parametrize("seed", SEEDS)
class TestNetworkCacheParity:
    def test_live_cache_matches_fresh_probe(self, seed, ttl):
        network = scale_free_network(PEERS, seed=seed)
        live = NetworkStructureCache(network, ttl=ttl)
        live.structures()
        assert live.statistics.work_units == len(network.peer_names) * 2

        _churn(network)
        cycles, paths = live.structures()
        assert live.statistics.partial_refreshes == 1
        assert live.statistics.probes == 1
        fresh = NetworkStructureCache(_replayed(network), ttl=ttl)
        f_cycles, f_paths = fresh.structures()
        assert _canon(cycles) == _canon(f_cycles)
        assert _canon(paths) == _canon(f_paths)


@pytest.mark.parametrize("ttl", [4, 6])
@pytest.mark.parametrize("seed", SEEDS)
class TestNeighborhoodCacheParity:
    def test_live_cache_matches_fresh_probe(self, seed, ttl):
        network = scale_free_network(PEERS, seed=seed)
        live = NeighborhoodStructureCache(network, ttl=ttl)
        lazy = NeighborhoodStructureCache(network, ttl=ttl)
        origins = list(network.peer_names)[:4]

        # warm() lowers all pending origins onto ONE plan but must keep the
        # per-origin accounting of individual structures_for calls.
        live.warm(origins)
        assert live.statistics.probes == len(origins)
        assert live.statistics.work_units == len(origins)
        for origin in origins:
            w_cycles, w_paths = live.structures_for(origin)
            l_cycles, l_paths = lazy.structures_for(origin)
            assert _canon(w_cycles) == _canon(l_cycles), origin
            assert _canon(w_paths) == _canon(l_paths), origin
        assert live.statistics.probes == len(origins)
        assert lazy.statistics.probes == len(origins)
        assert live.statistics.misses == lazy.statistics.misses

        _churn(network)
        fresh = NeighborhoodStructureCache(_replayed(network), ttl=ttl)
        for origin in origins:
            cycles, paths = live.structures_for(origin)
            f_cycles, f_paths = fresh.structures_for(origin)
            assert _canon(cycles) == _canon(f_cycles), origin
            assert _canon(paths) == _canon(f_paths), origin
        assert live.statistics.partial_refreshes == len(origins)
        assert live.statistics.probes == len(origins)


class TestIncrementalRefreshIsODelta:
    def test_one_mapping_churn_at_1024_peers(self):
        network = generate_scenario(
            "scale-free", 1024, attribute_count=10, error_rate=0.15
        ).network
        peers = network.peer_names
        global_cache = NetworkStructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        local_cache = NeighborhoodStructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        global_cache.structures()
        local_cache.warm(peers)
        global_before = replace(global_cache.statistics)
        local_before = replace(local_cache.statistics)

        _churn(network)
        cycles, _ = global_cache.structures()
        local_cache.warm(peers)

        g, l = global_cache.statistics, local_cache.statistics
        assert g.work_units == global_before.work_units + 1
        assert g.probes == global_before.probes
        assert g.partial_refreshes == global_before.partial_refreshes + 1
        # The 1024-peer log is truncated, so the fresh side is a private
        # snapshot's full probe rather than a replay.
        fresh, _ = run_plan(
            plan_full_probe(
                TopologySnapshot.of(network), ttl=3, include_parallel_paths=False
            )
        ).merged()
        assert _canon(cycles) == _canon(fresh)
        # One delta plan, shared by every origin replaying the same entry.
        assert l.work_units == local_before.work_units + 1
        assert l.probes == local_before.probes
        assert l.partial_refreshes == local_before.partial_refreshes + len(peers)


class TestOneWalkPerOriginPerVersion:
    def test_both_caches_share_each_origins_walk(self, monkeypatch):
        walks = []

        def spy(snapshot, origin, ttl):
            walks.append((snapshot.version, origin, ttl))
            return find_cycles_through(snapshot, origin, ttl)

        monkeypatch.setattr(discovery, "find_cycles_through", spy)
        network = scale_free_network(64, seed=5)
        global_cache = NetworkStructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        local_cache = NeighborhoodStructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        global_cache.structures()
        local_cache.warm(network.peer_names)
        assert sorted(origin for _, origin, _ in walks) == sorted(network.peer_names)
        # Work units still count plan work, not walks.
        assert global_cache.statistics.work_units == 64
        assert local_cache.statistics.work_units == 64

        walks.clear()
        _churn(network)
        global_cache.structures()
        local_cache.warm(network.peer_names)
        assert len(walks) == 1
        assert global_cache.statistics.work_units == 65
        assert local_cache.statistics.work_units == 65
