"""Discovery-frontier contract tests for the core layer.

Five guarantees land here, mirroring ``test_plan_ir.py`` one layer up:

1. The walker-ban layering invariant: the core must reach structure
   discovery through the probe-plan frontier of
   :mod:`repro.pdms.discovery` — never by importing the enumeration
   walkers (``find_cycles_through``, ``find_parallel_paths_from``)
   from :mod:`repro.pdms.probing` directly.  Structure types
   (``MappingCycle``, ``ParallelPaths``) and ``validate_ttl`` remain fair
   game; it is the *enumeration* that must flow through plans.  The ban is
   stated once in :mod:`repro.lintkit.contracts` (``WALKER_NAMES``) and
   enforced by the ``layering-discovery-walkers`` rule; this test asserts
   ``repro-lint`` reports zero findings for it.
2. The live x fresh parity matrix: both views of the structure cache, kept
   live across a mutation, must hand back canonically identical structure
   sets to a cache probing the mutated network from scratch.  A network
   shares one snapshot and its walks per version, so the fresh side probes
   a replay of the network's event log (or, where the log is truncated, a
   private snapshot) — never the live side's snapshot.
3. Carried walks are exact: after any event sequence, every origin's walks
   on the network's snapshot — inherited or re-walked — equal a cold
   private snapshot's, in order and orientation, and so do the cache's
   global lists.
4. A change re-walks only the origins it touches: one mapping removed and
   re-added at 1024 peers walks exactly the origins on a cycle through it.
5. One walk per origin per topology version and ttl, across both views.
"""

import pathlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.analysis import StructureCache
from repro.generators.scenarios import generate_scenario
from repro.generators.topologies import scale_free_network
from repro.lintkit import run_lint, rules_by_id
from repro.mapping.mapping import Mapping
from repro.pdms import discovery
from repro.pdms.discovery import TopologySnapshot, plan_full_probe, run_plan
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.probing import find_cycles_through
from repro.schema.schema import Schema

SEEDS = (1, 2, 3)

PEERS = 10


def _canon(structures):
    return {s.canonical_key() for s in structures}


def _churn(network):
    """One mapping-level mutation pair: drop a mapping, then add it back
    (it moves to the end of its source's out-edges)."""
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
        live = StructureCache(network, ttl=ttl)
        live.structures()
        assert live.statistics.work_units == len(network.peer_names) * 2

        _churn(network)
        cycles, paths = live.structures()
        assert live.statistics.partial_refreshes == 1
        assert live.statistics.probes == 1
        fresh = StructureCache(_replayed(network), ttl=ttl)
        f_cycles, f_paths = fresh.structures()
        assert _canon(cycles) == _canon(f_cycles)
        assert _canon(paths) == _canon(f_paths)


@pytest.mark.parametrize("ttl", [4, 6])
@pytest.mark.parametrize("seed", SEEDS)
class TestNeighborhoodCacheParity:
    def test_live_cache_matches_fresh_probe(self, seed, ttl):
        network = scale_free_network(PEERS, seed=seed)
        live = StructureCache(network, ttl=ttl)
        lazy = StructureCache(network, ttl=ttl)
        origins = list(network.peer_names)[:4]

        # warm() lowers all pending origins onto ONE plan but must keep the
        # per-origin accounting of individual structures_for calls.  Each
        # origin is walked twice (cycles, parallel paths), once for both
        # caches: the lazy one reads the same snapshot.
        live.warm(origins)
        assert live.statistics.probes == len(origins)
        assert live.statistics.work_units == 2 * len(origins)
        for origin in origins:
            w_cycles, w_paths = live.structures_for(origin)
            l_cycles, l_paths = lazy.structures_for(origin)
            assert _canon(w_cycles) == _canon(l_cycles), origin
            assert _canon(w_paths) == _canon(l_paths), origin
        assert live.statistics.probes == len(origins)
        assert lazy.statistics.probes == len(origins)
        assert lazy.statistics.work_units == 0
        assert live.statistics.misses == lazy.statistics.misses

        _churn(network)
        fresh = StructureCache(_replayed(network), ttl=ttl)
        for origin in origins:
            cycles, paths = live.structures_for(origin)
            f_cycles, f_paths = fresh.structures_for(origin)
            assert _canon(cycles) == _canon(f_cycles), origin
            assert _canon(paths) == _canon(f_paths), origin
        assert live.statistics.partial_refreshes == len(origins)
        assert live.statistics.probes == len(origins)


def _touched(snapshot, name, ttl):
    """Origins on a cycle of ``snapshot`` through mapping ``name``, plus
    its source: the walks a removal and re-addition of ``name`` reruns."""
    source = snapshot.mapping(name).source
    origins = {source}
    for cycle in snapshot.cycles_through(source, ttl):
        if name in cycle.mapping_names:
            origins.update(mapping.source for mapping in cycle.mappings)
    return origins


class TestIncrementalRefreshIsODelta:
    def test_one_mapping_churn_at_1024_peers(self):
        network = generate_scenario(
            "scale-free", 1024, attribute_count=10, error_rate=0.15
        ).network
        peers = network.peer_names
        global_cache = StructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        local_cache = StructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        global_cache.structures()
        local_cache.warm(peers)
        global_before = replace(global_cache.statistics)
        local_before = replace(local_cache.statistics)
        name = sorted(network.mapping_names)[0]
        touched = _touched(TopologySnapshot.of(network), name, 3)
        assert 1 < len(touched) < len(peers) // 10

        _churn(network)
        cycles, _ = global_cache.structures()
        local_cache.warm(peers)

        g, l = global_cache.statistics, local_cache.statistics
        # The global read walks exactly the touched origins again.
        assert g.work_units == global_before.work_units + len(touched)
        assert g.probes == global_before.probes
        assert g.partial_refreshes == global_before.partial_refreshes + 1
        # The 1024-peer log is truncated, so the fresh side is a private
        # snapshot's full probe rather than a replay.
        fresh, _ = run_plan(
            plan_full_probe(
                TopologySnapshot.of(network), ttl=3, include_parallel_paths=False
            )
        ).merged()
        assert cycles == fresh
        # The local view reads the walks the global read left behind.
        assert l.work_units == local_before.work_units
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
        global_cache = StructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        local_cache = StructureCache(
            network, ttl=3, include_parallel_paths=False
        )
        global_cache.structures()
        local_cache.warm(network.peer_names)
        assert sorted(origin for _, origin, _ in walks) == sorted(network.peer_names)
        # Work units count the walks each cache's reads ran.
        assert global_cache.statistics.work_units == 64
        assert local_cache.statistics.work_units == 0

        name = sorted(network.mapping_names)[0]
        touched = _touched(TopologySnapshot.of(network), name, 3)
        walks.clear()
        _churn(network)
        global_cache.structures()
        local_cache.warm(network.peer_names)
        assert sorted(origin for _, origin, _ in walks) == sorted(touched)
        assert global_cache.statistics.work_units == 64 + len(touched)
        assert local_cache.statistics.work_units == 0


# -- carried walks against cold walks ---------------------------------------------


def _mapping(source, target, label):
    return Mapping.from_pairs(source, target, {"Creator": "Creator"}, label=label)


def _peer(name):
    return Peer(name, Schema(name, ["Creator"]))


#: One script step: ``(operation, i, j, check)``; ``check`` reads and
#: compares every walk after the step (unchecked steps leave the next
#: snapshot to inherit across several versions at once, and ``peek``
#: builds a snapshot without reading its cycles, so the next one inherits
#: walks its predecessor never checked against the added mappings).
STEPS = st.tuples(
    st.sampled_from(
        [
            "add",
            "remove",
            "readd",
            "change",
            "rejoin",
            "join",
            "peek",
            "invalidate",
            "flood",
        ]
    ),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.booleans(),
)

SCRIPTS = st.tuples(
    st.integers(min_value=3, max_value=6),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=12,
    ),
    st.integers(min_value=2, max_value=5),
    st.booleans(),
    st.lists(STEPS, min_size=1, max_size=10),
)


def _run_script(script):
    """Apply ``script``; after every checked step compare every origin's
    walks and the cache's global lists with a cold private snapshot.
    Returns how many walks the checks read without walking them."""
    peer_count, edges, ttl, include, steps = script
    network = PDMSNetwork("carry", directed=True)
    for index in range(peer_count):
        network.add_peer(_peer(f"p{index}"))
    labels = iter(range(10**6))

    def add(i, j):
        peers = network.peer_names
        source, target = peers[i % len(peers)], peers[j % len(peers)]
        if source != target:
            network.add_mapping(_mapping(source, target, str(next(labels))))

    for i, j in edges:
        add(i, j)
    cache = StructureCache(network, ttl=ttl, include_parallel_paths=include)
    local = StructureCache(network, ttl=ttl, include_parallel_paths=include)
    carried = 0
    checked = None
    for operation, i, j, check in steps:
        names = network.mapping_names
        peers = network.peer_names
        if operation == "add":
            add(i, j)
        elif operation == "remove" and names:
            network.remove_mapping(names[i % len(names)])
        elif operation == "readd" and names:
            network.add_mapping(network.remove_mapping(names[i % len(names)]))
        elif operation == "change" and names:
            # Same name and correspondences, new object: a carried walk
            # holding the replaced one no longer equals a cold walk.
            mapping = network.mapping(names[i % len(names)])
            network.change_correspondences(
                mapping.with_correspondence(mapping.correspondences[0])
            )
        elif operation == "rejoin":
            name = peers[i % len(peers)]
            incident = [
                m for m in network.mappings if name in (m.source, m.target)
            ]
            network.add_peer(network.remove_peer(name))
            for mapping in incident[: j % (len(incident) + 1)]:
                network.add_mapping(mapping)
        elif operation == "join":
            network.add_peer(_peer(f"q{next(labels)}"))
        elif operation == "peek":
            network.snapshot()
        elif operation == "invalidate":
            network.invalidate_snapshot()
        elif operation == "flood":
            # Push the previous version out of the bounded log.
            for _ in range(PDMSNetwork.MUTATION_LOG_LIMIT // 2 + 1):
                network.remove_peer(network.add_peer(_peer("flood")).name)
        if not (check or operation in ("invalidate", "flood")):
            continue
        snapshot = network.snapshot()
        if operation in ("invalidate", "flood"):
            assert snapshot.inherited == frozenset()
        cold = TopologySnapshot.of(network)
        walked = snapshot.walks
        for origin in network.peer_names:
            assert snapshot.cycles_through(origin, ttl) == cold.cycles_through(
                origin, ttl
            ), (origin, operation)
            if include:
                assert snapshot.parallel_paths_from(
                    origin, ttl
                ) == cold.parallel_paths_from(origin, ttl), (origin, operation)
        if snapshot is not checked:
            reads = len(network.peer_names) * (2 if include else 1)
            carried += reads - (snapshot.walks - walked)
            checked = snapshot
        expected = run_plan(
            plan_full_probe(
                TopologySnapshot.of(network), ttl=ttl, include_parallel_paths=include
            )
        ).merged()
        assert cache.structures() == expected
        local.warm(network.peer_names)
        for origin in network.peer_names:
            assert local.structures_for(origin) == (
                cold.cycles_through(origin, ttl),
                cold.parallel_paths_from(origin, ttl) if include else (),
            )
    return carried


class TestCarriedWalks:
    def test_carried_walks_equal_cold_walks(self):
        carried = []

        @given(SCRIPTS)
        @settings(max_examples=150, deadline=None)
        def check(script):
            carried.append(_run_script(script))

        check()
        # Not vacuous: the scripts did inherit walks.
        assert sum(carried) > 0

    def test_an_unread_snapshot_passes_its_additions_on(self):
        network = PDMSNetwork("chain", directed=True)
        for name in ("a", "b", "c", "d"):
            network.add_peer(_peer(name))
        network.add_mapping(_mapping("a", "b", ""))
        network.add_mapping(_mapping("b", "c", ""))
        for origin in network.peer_names:
            assert network.snapshot().cycles_through(origin, 3) == ()
        network.add_mapping(_mapping("c", "a", ""))
        network.snapshot()  # built, never read: c->a is still pending
        network.add_mapping(_mapping("b", "d", ""))
        snapshot = network.snapshot()
        assert snapshot.inherited == frozenset("abcd")
        cold = TopologySnapshot.of(network)
        for origin in network.peer_names:
            assert snapshot.cycles_through(origin, 3) == cold.cycles_through(
                origin, 3
            )
        assert len(snapshot.cycles_through("a", 3)) == 1

    def test_invalidate_gives_a_cold_snapshot(self):
        network = scale_free_network(16, seed=3)
        network.snapshot().cycles_through(network.peer_names[0], 4)
        _churn(network)
        assert network.snapshot().inherited
        _churn(network)
        network.invalidate_snapshot()
        assert network.snapshot().inherited == frozenset()

    def test_a_truncated_log_gives_a_cold_snapshot(self):
        network = scale_free_network(16, seed=3)
        network.snapshot().cycles_through(network.peer_names[0], 4)
        for _ in range(PDMSNetwork.MUTATION_LOG_LIMIT // 2):
            _churn(network)
        # Exactly MUTATION_LOG_LIMIT events since the last snapshot: the
        # log still reaches back to it.
        assert network.snapshot().inherited
        network.snapshot().cycles_through(network.peer_names[0], 4)
        previous = network.version
        for _ in range(PDMSNetwork.MUTATION_LOG_LIMIT // 2 + 1):
            _churn(network)
        assert network.events_since(previous) is None
        assert network.snapshot().inherited == frozenset()
