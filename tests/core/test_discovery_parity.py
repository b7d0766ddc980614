"""Discovery contract tests for the core layer.

Six guarantees land here, mirroring ``test_plan_ir.py`` one layer up:

1. The walker-ban layering invariant: the core must reach structure
   discovery through the walks of the network's
   :class:`~repro.pdms.discovery.TopologySnapshot` — never by importing
   the enumeration walkers (``find_cycles_through``,
   ``find_parallel_paths_from``) from :mod:`repro.pdms.probing` directly.
   Structure types (``MappingCycle``, ``ParallelPaths``) and
   ``validate_ttl`` remain fair game; it is the *enumeration* that must
   flow through the snapshot.  The ban is stated once in
   :mod:`repro.lintkit.contracts` (``WALKER_NAMES``) and enforced by the
   ``layering-discovery-walkers`` rule; this test asserts ``repro-lint``
   reports zero findings for it.
2. The live x fresh parity matrix: both views of the structure cache, kept
   live across a mutation, must hand back the same structure lists, in
   the same order, as a cache probing the mutated network from scratch.
   A network shares one snapshot and its walks per version, so the fresh
   side probes a cold copy of the network (``cold_copy``) — never the live
   side's snapshot.
3. Carried walks are exact: after any change sequence, every origin's walks
   on the network's snapshot — inherited or re-walked — equal a cold
   private snapshot's, in order and orientation, and so do the cache's
   global lists.
4. The global lists are listed by ownership: on carried walks too, they
   hold the very objects, in the very order, that the canonical-key merge
   of every origin's walks keeps (the oracle of
   ``tests/pdms/walker_reference.py``), at 1024 peers through churned
   epochs.
5. A change re-walks only the origins it touches: one mapping removed and
   re-added at 1024 peers walks exactly the origins on a cycle through it,
   and so does a burst of more mutations than a 256-entry log would hold.
6. One walk per origin per topology version and ttl, across both views.
"""

import pathlib
import random
import runpy
from dataclasses import replace

import pytest
from cold_copy import cold_copy
from hypothesis import given, settings, strategies as st

import repro
from repro.core.analysis import StructureCache
from repro.generators.scenarios import generate_scenario
from repro.generators.topologies import scale_free_network
from repro.lintkit import run_lint, rules_by_id
from repro.mapping.mapping import Mapping
from repro.pdms import discovery
from repro.pdms.discovery import TopologySnapshot
from repro.pdms.network import PDMSNetwork
from repro.pdms.peer import Peer
from repro.pdms.probing import find_cycles_through
from repro.schema.schema import Schema

#: The discovery oracles, kept with the reference walker in ``tests/pdms``.
ORACLES = runpy.run_path(
    str(pathlib.Path(__file__).parents[1] / "pdms" / "walker_reference.py")
)
assert_owned = ORACLES["assert_owned"]
canonical_merge = ORACLES["canonical_merge"]

SEEDS = (1, 2, 3)

PEERS = 10


def _canon(structures):
    return [s.mapping_names for s in structures]


def _churn(network):
    """One mapping-level mutation pair: drop a mapping, then add it back
    (it moves to the end of its source's out-edges)."""
    name = sorted(network.mapping_names)[0]
    mapping = network.mapping(name)
    network.remove_mapping(name)
    network.add_mapping(mapping, bidirectional=False)


#: Join/leave pairs of one flood: 258 mutations between two snapshots, more
#: than a 256-entry mutation log would hold.
FLOOD_PAIRS = 129


class TestFreshSide:
    def test_a_cold_copy_reproduces_a_churned_network(self):
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

        copy = cold_copy(network)
        assert copy.peer_names == network.peer_names
        assert copy.mappings == network.mappings
        for name in network.peer_names:
            assert copy.peer(name).outgoing_mappings == (
                network.peer(name).outgoing_mappings
            )
        assert copy.snapshot() is not network.snapshot()


class TestCoreReadsTheSnapshotsWalks:
    def test_no_core_module_imports_walkers_from_probing(self):
        package_dir = pathlib.Path(repro.__file__).parent
        rule = rules_by_id()["layering-discovery-walkers"]
        findings = run_lint([package_dir], rules=[rule])
        offenders = [
            finding.render()
            for finding in findings
            if not finding.suppressed
        ]
        assert not offenders, (
            "core modules must read the walks of the network's "
            "repro.pdms.discovery snapshot, not the repro.pdms.probing "
            "walkers:\n" + "\n".join(offenders)
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
        fresh = StructureCache(cold_copy(network), ttl=ttl)
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

        # warm() reads all pending origins at once but must keep the
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
        fresh = StructureCache(cold_copy(network), ttl=ttl)
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
        fresh, _ = TopologySnapshot.of(network).structures(3, False)
        assert cycles == fresh
        # The local view reads the walks the global read left behind.
        assert l.work_units == local_before.work_units
        assert l.probes == local_before.probes
        assert l.partial_refreshes == local_before.partial_refreshes + len(peers)


class TestOwnershipThroughChurn:
    def test_owned_lists_at_1024_peers_across_churned_epochs(self):
        """Each epoch a peer leaves and rejoins with its mappings (so the
        cycles through it change owner) and 4 mappings churn; the cache's
        global lists, read from carried walks, are the very objects of the
        merge, in its order."""
        network = generate_scenario(
            "scale-free", 1024, attribute_count=10, error_rate=0.15
        ).network
        cache = StructureCache(network, ttl=3, include_parallel_paths=False)
        rng = random.Random(7919)
        for epoch in range(4):
            snapshot = network.snapshot()
            assert bool(snapshot.inherited) == (epoch > 0)
            cycles, paths = cache.structures()
            expected, _ = canonical_merge(
                snapshot, 3, False, cycles_of=TopologySnapshot.cycles_through
            )
            assert len(cycles) == len(expected) and paths == ()
            assert all(a is b for a, b in zip(cycles, expected))
            if epoch == 0:
                assert_owned(snapshot, 3, False)
            victim = rng.choice(network.peer_names)
            incident = [
                m for m in network.mappings if victim in (m.source, m.target)
            ]
            network.add_peer(network.remove_peer(victim))
            for mapping in incident:
                network.add_mapping(mapping, bidirectional=False)
            for name in rng.sample(network.mapping_names, 4):
                network.add_mapping(network.remove_mapping(name), bidirectional=False)
        assert cache.statistics.partial_refreshes == 3


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
            # Every walk read, then a burst that touches no mapping.
            before = network.snapshot()
            for origin in network.peer_names:
                before.cycles_through(origin, ttl)
                if include:
                    before.parallel_paths_from(origin, ttl)
            for _ in range(FLOOD_PAIRS):
                network.remove_peer(network.add_peer(_peer("flood")).name)
        if not (check or operation in ("invalidate", "flood")):
            continue
        snapshot = network.snapshot()
        if operation == "invalidate":
            assert snapshot.inherited == frozenset()
        elif operation == "flood":
            assert snapshot.inherited == frozenset(network.peer_names)
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
        if operation == "flood":
            assert snapshot.walks == walked  # every walk was carried
        if snapshot is not checked:
            reads = len(network.peer_names) * (2 if include else 1)
            carried += reads - (snapshot.walks - walked)
            checked = snapshot
        expected = TopologySnapshot.of(network).structures(ttl, include)
        assert cache.structures() == expected
        assert_owned(snapshot, ttl, include)
        local.warm(network.peer_names)
        for origin in network.peer_names:
            assert local.structures_for(origin) == (
                cold.cycles_through(origin, ttl),
                cold.parallel_paths_from(origin, ttl) if include else (),
            )
    return carried


def _hub_network(spokes):
    """A ring of ten peers, each linked both ways to the next and by a chord
    back from the one after it, plus a hub linked both ways to ``r0`` and
    to each of ``spokes`` leaf peers."""
    network = PDMSNetwork("hub", directed=True)
    ring = [f"r{index}" for index in range(10)]
    leaves = [f"s{index}" for index in range(spokes)]
    for name in [*ring, "hub", *leaves]:
        network.add_peer(_peer(name))
    for index, name in enumerate(ring):
        after, next_after = ring[(index + 1) % 10], ring[(index + 2) % 10]
        network.add_mapping(_mapping(name, after, ""))
        network.add_mapping(_mapping(after, name, ""))
        network.add_mapping(_mapping(next_after, name, "chord"))
    for name in ["r0", *leaves]:
        network.add_mapping(_mapping("hub", name, ""))
        network.add_mapping(_mapping(name, "hub", ""))
    return network


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

    def test_a_long_burst_carries_every_walk_it_leaves_unchanged(self):
        network = scale_free_network(16, seed=3)
        before = network.snapshot()
        walks = {
            origin: before.cycles_through(origin, 4) for origin in network.peer_names
        }
        touched = _touched(before, sorted(network.mapping_names)[0], 4)
        assert len(touched) < len(network.peer_names)
        for _ in range(FLOOD_PAIRS):
            _churn(network)  # the same mapping, removed and added back
        snapshot = network.snapshot()
        assert snapshot.inherited == frozenset(network.peer_names)
        cold = TopologySnapshot.of(network)
        for origin in network.peer_names:
            cycles = snapshot.cycles_through(origin, 4)
            assert cycles == cold.cycles_through(origin, 4), origin
            if origin not in touched:
                assert cycles is walks[origin], origin
        assert snapshot.walks == len(touched)

    def test_a_hub_rejoin_rewalks_only_the_origins_it_touches(self):
        """A hub with 130 incident mappings leaves and rejoins with them
        (262 mutations): the next snapshot walks the hub and the origins on
        a cycle through it, and carries every other origin's walk."""
        network = _hub_network(spokes=64)
        peers = network.peer_names
        before = network.snapshot()
        walks = {origin: before.cycles_through(origin, 3) for origin in peers}
        incident = [m for m in network.mappings if "hub" in (m.source, m.target)]
        assert 2 * len(incident) + 2 > 256
        names = {mapping.name for mapping in incident}
        touched = {"hub"} | {
            origin
            for origin, cycles in walks.items()
            if any(not names.isdisjoint(cycle.mapping_names) for cycle in cycles)
        }
        assert 1 < len(touched) < len(peers)

        network.add_peer(network.remove_peer("hub"))
        for mapping in incident:
            network.add_mapping(mapping)
        snapshot = network.snapshot()
        assert snapshot.inherited == frozenset(peers) - {"hub"}
        cold = TopologySnapshot.of(network)
        for origin in peers:
            cycles = snapshot.cycles_through(origin, 3)
            assert cycles == cold.cycles_through(origin, 3), origin
            if origin not in touched:
                assert cycles is walks[origin], origin
        assert snapshot.walks == len(touched)
