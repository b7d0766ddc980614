"""The three workloads of the end-to-end benchmark.

Every workload runs the deployment path as repeated epochs: apply the
epoch's scripted topology events, refresh the structure caches and the
compiled plan, assess, take each peer's θ decisions, flag, route queries
and fold posteriors back into the priors.  A workload supplies

* ``setup(rec)``: build the inputs and the system and run the first, cold
  pass (timed as one set-up);
* ``schedule(system, rng)``: the epoch inputs, drawn from the run's seed
  before timing starts;
* ``epoch(system, step, rec)``: one epoch, public library calls only, each
  wrapped in the span of its layer;
* ``tally`` / ``counters``: what the epoch did, read outside the timed
  region (counters slated for replacement read as ``None`` once gone);
* ``quality`` and the gates: precision/recall and the correctness checks.

Why these three: ``eon-em`` is the paper's fig-12 network with no churn,
so discovery idles and the sweeps and EM dominate; ``sf1024-churn`` forces
a full re-probe of both structure caches every epoch at 1024 peers, so
discovery is the largest layer; ``gossip32-churn`` is the only one
whose writes arrive through replication.  Parallel-path evidence stays off
where the paper's setting allows it (it multiplies sweep cost ~250x at 32
peers); the gossip workload keeps the settings of
``run_gossip_convergence``.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

from repro.alignment.eon import build_eon_network
from repro.core.quality import MappingQualityAssessor
from repro.evaluation.experiments import gossip_workload_network
from repro.evaluation.metrics import score_detection
from repro.generators.scenarios import generate_scenario
from repro.pdms.events import MappingAdded, MappingRemoved, PeerAdded
from repro.pdms.gossip import GossipHarness, SeededTransport
from repro.pdms.query import Query
from repro.pdms.routing import RoutingPolicy

THETA = 0.5
ROUTING = RoutingPolicy(ttl=3)
#: Epoch inputs drawn per run, cycled; a multiple of every workload's
#: attribute rotation (10 and 4).
SCHEDULE_LENGTH = 80
#: Gossip convergence must finish within this many rounds per phase.
GOSSIP_MAX_ROUNDS = 128

#: θ decisions of ``eon-em`` after the scored epoch.  The EON network and
#: its EM trajectory do not depend on the seed (only the routed queries
#: do), so one digest pins every run.
EON_GOLDEN = {
    "digest": "2c387adefd7cd878",
    "precision": 0.24043715846994534,
    "recall": 0.6111111111111112,
}

Gate = Tuple[str, object, Callable[[object], List[str]]]


# -- shared steps ---------------------------------------------------------------


def _refresh(assessor, origins, rec) -> int:
    """Epoch step 2: work the assess calls would otherwise do lazily."""
    with rec.span("discovery.global"):
        cycles, paths = assessor.structure_cache.structures()
    with rec.span("discovery.local"):
        assessor.neighborhood_cache.warm(origins)
    with rec.span("plan.lower"):
        assessor.assessment_plan()
    return len(cycles) + len(paths)


def _route(assessor, queries, rec):
    with rec.span("route.query"):
        router = assessor.local_router(ROUTING)
        return [router.route(query, origin=query.schema_name) for query in queries]


def _local_rows(assessor) -> Optional[int]:
    counts = getattr(assessor, "last_local_round_edge_counts", None)
    return None if counts is None else sum(counts)


def _total(owners, field) -> Optional[int]:
    values = [getattr(owner, field, None) for owner in owners]
    return None if None in values else sum(values)


def _assessor_counters(assessor) -> Dict[str, Optional[int]]:
    """Cumulative discovery and plan counters, ``None`` where gone."""
    stats = [
        getattr(getattr(assessor, cache, None), "statistics", None)
        for cache in ("structure_cache", "neighborhood_cache")
    ]
    compiles = [
        getattr(assessor, name, None)
        for name in ("plan_compile_count", "local_plan_compile_count")
    ]
    return {
        "discovery.full_probes": _total(stats, "probes"),
        "discovery.partial_refreshes": _total(stats, "partial_refreshes"),
        "discovery.work_units": _total(stats, "work_units"),
        "plan.compiles": None if None in compiles else sum(compiles),
    }


def _judged(network, assessor, attribute) -> int:
    """Mappings ``flagged_mappings`` judges for ``attribute`` (in scope)."""
    unmappable = set(assessor.assessment(attribute).unmappable)
    return sum(
        1
        for mapping in network.mappings
        if mapping.name in unmappable or mapping.maps_attribute(attribute)
    )


def _route_tally(traces) -> Dict[str, int]:
    return {
        "route.hops": sum(len(trace.hops) for trace in traces),
        "route.forwarded": sum(len(trace.forwarded_hops) for trace in traces),
        "route.peers_visited": sum(len(trace.visited_peers) for trace in traces),
    }


def _sweep_tally(assessments) -> Dict[str, int]:
    lanes = [a for a in assessments.values() if a.result is not None]
    return {
        "sweep.iterations": sum(a.iterations for a in lanes),
        "sweep.lanes": len(lanes),
        "sweep.converged": sum(1 for a in lanes if a.converged),
    }


def _scored(flagged_pairs, ground_truth) -> Tuple[float, float]:
    """Precision and recall of θ flags: flagged pairs score as 0.0."""
    metrics = score_detection(
        {pair: 0.0 for pair in flagged_pairs}, ground_truth, THETA
    )
    return metrics.precision, metrics.recall


# -- gate plumbing ---------------------------------------------------------------


def mismatches(observed, expected, tolerance: float, path: str = "") -> List[str]:
    """Paths where two nested dicts differ (floats within ``tolerance``)."""
    if isinstance(observed, dict) and isinstance(expected, dict):
        found: List[str] = []
        for key in sorted(set(observed) | set(expected), key=repr):
            where = f"{path}/{key}"
            if key not in observed or key not in expected:
                found.append(f"{where}: missing")
            else:
                found.extend(
                    mismatches(observed[key], expected[key], tolerance, where)
                )
        return found
    if isinstance(observed, float) and isinstance(expected, float):
        if abs(observed - expected) <= tolerance:
            return []
    elif observed == expected:
        return []
    return [f"{path}: {observed!r} != {expected!r}"]


def flip_one(tree):
    """Copy of ``tree`` with its first probability leaf decided the other
    way at θ, or ``None`` when it holds no probability."""
    if isinstance(tree, float):
        return 1.0 if tree <= THETA else 0.0
    if isinstance(tree, dict):
        for key in sorted(tree, key=repr):
            flipped = flip_one(tree[key])
            if flipped is not None:
                return {**tree, key: flipped}
    return None


def decision_digest(tree) -> str:
    """Digest of the θ decisions in a nested dict of probabilities/flags."""
    digest = hashlib.sha256()

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node, key=repr):
                walk(node[key], path + (key,))
        else:
            decision = node <= THETA if isinstance(node, float) else node
            digest.update(repr((path, decision)).encode())

    walk(tree, ())
    return digest.hexdigest()[:16]


class Workload:
    """Defaults the workloads below share."""

    has_events = True
    #: Rebuild the system every this many epochs (``None``: never).
    session_epochs: Optional[int] = None

    def score_gates(self, system, step, out) -> List[Gate]:
        """Gates on the output of the scored epoch."""
        return []

    def final_gates(self, system, step) -> List[Gate]:
        """Gates on the state after the last epoch."""
        return []


# -- eon-em ---------------------------------------------------------------------


class EonEM(Workload):
    """Fig-12 EON network, one EM round per epoch, no topology events."""

    name = "eon-em"
    has_events = False
    tail_percentile = 75

    def setup(self, rec):
        with rec.span("align.build"):
            scenario = build_eon_network()
        network = scenario.network
        system = SimpleNamespace(
            scenario=scenario,
            network=network,
            assessor=MappingQualityAssessor(
                network, delta=0.1, ttl=3, include_parallel_paths=False
            ),
            attributes=network.attribute_universe(),
            own_attributes=[
                (peer.name, sorted(peer.schema.attribute_names))
                for peer in network.peers
            ],
        )
        _refresh(system.assessor, network.peer_names, rec)
        with rec.span("assess.global"):
            system.assessor.assess_all_attributes()
        self._local_views(system, rec)
        return system

    @staticmethod
    def _local_views(system, rec):
        """Every peer's decision for every attribute of its own schema."""
        assessor = system.assessor
        views: Dict[str, Dict[str, Dict[str, float]]] = {}
        rows: Optional[int] = 0
        with rec.span("assess.local"):
            for peer, attributes in system.own_attributes:
                views[peer] = {}
                for attribute in attributes:
                    views[peer][attribute] = assessor.assess_locals(
                        [peer], attribute
                    )[peer]
                    added = _local_rows(assessor)
                    rows = None if rows is None or added is None else rows + added
        return views, rows

    def schedule(self, system, rng):
        return [
            SimpleNamespace(
                queries=[
                    Query.select_project(peer, [rng.choice(attributes)])
                    for peer, attributes in system.own_attributes
                ]
            )
            for _ in range(SCHEDULE_LENGTH)
        ]

    def epoch(self, system, step, rec):
        assessor = system.assessor
        structures = _refresh(assessor, system.network.peer_names, rec)
        with rec.span("assess.global"):
            assessments = assessor.assess_all_attributes()
        views, rows = self._local_views(system, rec)
        with rec.span("decide.flag"):
            flags = {
                attribute: assessor.flagged_mappings(attribute, THETA)
                for attribute in system.attributes
            }
        traces = _route(assessor, step.queries, rec)
        with rec.span("em.update"):
            updated = assessor.update_priors()
        return SimpleNamespace(
            structures=structures,
            assessments=assessments,
            views=views,
            local_rows=rows,
            flags=flags,
            traces=traces,
            updated=updated,
        )

    def tally(self, system, step, out):
        view_values = sum(
            len(view) for per_peer in out.views.values() for view in per_peer.values()
        )
        judged = sum(
            _judged(system.network, system.assessor, attribute)
            for attribute in out.flags
        )
        routed = _route_tally(out.traces)
        return {
            "topology.events": 0,
            "discovery.structures": out.structures,
            "sweep.local_rows": out.local_rows,
            "decide.decisions": view_values + judged + routed["route.hops"],
            "decide.flagged": sum(len(names) for names in out.flags.values()),
            "em.updates": len(out.updated),
            **_sweep_tally(out.assessments),
            **routed,
        }

    def counters(self, system):
        return _assessor_counters(system.assessor)

    @staticmethod
    def _decisions(out):
        return {
            "flags": {a: list(names) for a, names in out.flags.items()},
            "views": out.views,
        }

    @staticmethod
    def _summary(system, decisions):
        precision, recall = _scored(
            (
                (mapping, attribute)
                for attribute, names in decisions["flags"].items()
                for mapping in names
            ),
            system.scenario.ground_truth,
        )
        return {
            "digest": decision_digest(decisions),
            "precision": precision,
            "recall": recall,
        }

    def quality(self, system, step, out):
        summary = self._summary(system, self._decisions(out))
        return summary["precision"], summary["recall"]

    def score_gates(self, system, step, out) -> List[Gate]:
        return [
            (
                "eon-decisions",
                self._decisions(out),
                lambda observed: mismatches(
                    self._summary(system, observed), EON_GOLDEN, 1e-12
                ),
            )
        ]


# -- sf1024-churn ---------------------------------------------------------------


class ScaleFreeChurn(Workload):
    """1024-peer scale-free network under stationary peer and mapping churn."""

    name = "sf1024-churn"
    tail_percentile = 50

    def setup(self, rec):
        with rec.span("generate.build"):
            scenario = generate_scenario(
                "scale-free", 1024, attribute_count=10, error_rate=0.15
            )
        network = scenario.network
        system = SimpleNamespace(
            scenario=scenario,
            network=network,
            assessor=MappingQualityAssessor(
                network, delta=None, ttl=3, include_parallel_paths=False
            ),
            attributes=network.attribute_universe(),
        )
        _refresh(system.assessor, network.peer_names, rec)
        first = system.attributes[0]
        with rec.span("assess.global"):
            system.assessor.assess_attributes([first])
        with rec.span("assess.local"):
            system.assessor.assess_local_all(first)
        return system

    def schedule(self, system, rng):
        network = system.network
        incident: Dict[str, Dict[str, None]] = defaultdict(dict)
        for mapping in network.mappings:
            incident[mapping.source][mapping.name] = None
            incident[mapping.target][mapping.name] = None
        peers = network.peer_names
        mappings = network.mapping_names
        # One query origin per out-degree quartile: a query's flood (and
        # its decision count) grows with its origin's degree, so uniform
        # origins would make seeds differ by how many hubs they drew.
        by_degree = sorted(peers, key=lambda name: (network.out_degree(name), name))
        quartiles = [
            by_degree[q * len(peers) // 4 : (q + 1) * len(peers) // 4]
            for q in range(4)
        ]
        steps = []
        for index in range(SCHEDULE_LENGTH):
            victim = rng.choice(peers)
            attribute = system.attributes[index % len(system.attributes)]
            steps.append(
                SimpleNamespace(
                    victim=victim,
                    incident=tuple(incident[victim]),
                    churn=tuple(rng.sample(mappings, 4)),
                    attribute=attribute,
                    queries=[
                        Query.select_project(rng.choice(quartile), [attribute])
                        for quartile in quartiles
                    ],
                )
            )
        return steps

    def epoch(self, system, step, rec):
        network, assessor = system.network, system.assessor
        with rec.span("topology.apply"):
            rejoining = [network.mapping(name) for name in step.incident]
            peer = network.remove_peer(step.victim)
            network.add_peer(peer)
            for mapping in rejoining:
                network.add_mapping(mapping, bidirectional=False)
            for name in step.churn:
                network.add_mapping(network.remove_mapping(name), bidirectional=False)
        structures = _refresh(assessor, network.peer_names, rec)
        with rec.span("assess.global"):
            assessments = assessor.assess_attributes([step.attribute])
        with rec.span("assess.local"):
            views = assessor.assess_local_all(step.attribute)
            rows = _local_rows(assessor)
        with rec.span("decide.flag"):
            flagged = assessor.flagged_mappings(step.attribute, THETA)
        traces = _route(assessor, step.queries, rec)
        with rec.span("em.update"):
            updated = assessor.update_priors([step.attribute])
        return SimpleNamespace(
            structures=structures,
            assessments=assessments,
            views=views,
            local_rows=rows,
            flagged=flagged,
            traces=traces,
            updated=updated,
        )

    def tally(self, system, step, out):
        routed = _route_tally(out.traces)
        judged = _judged(system.network, system.assessor, step.attribute)
        return {
            # remove_peer records one MappingRemoved per incident mapping
            # plus PeerRemoved; the rejoin mirrors it; each churned mapping
            # is one removal and one addition.
            "topology.events": 2 * len(step.incident) + 2 + 2 * len(step.churn),
            "discovery.structures": out.structures,
            "sweep.local_rows": out.local_rows,
            "decide.decisions": sum(len(v) for v in out.views.values())
            + judged
            + routed["route.hops"],
            "decide.flagged": len(out.flagged),
            "em.updates": len(out.updated),
            **_sweep_tally(out.assessments),
            **routed,
        }

    def counters(self, system):
        return _assessor_counters(system.assessor)

    def quality(self, system, step, out):
        truth = {
            key: correct
            for key, correct in system.scenario.ground_truth.items()
            if key[1] == step.attribute
        }
        return _scored(((name, step.attribute) for name in out.flagged), truth)

    def final_gates(self, system, step) -> List[Gate]:
        """Incrementally maintained state against a from-scratch assessor
        over the final topology and the same priors."""
        live = system.assessor
        fresh = MappingQualityAssessor(
            system.network,
            priors=live.priors,
            delta=None,
            ttl=3,
            include_parallel_paths=False,
        )

        def state(assessor):
            return {
                "global": {
                    attribute: dict(assessment.posteriors)
                    for attribute, assessment in assessor.assess_attributes(
                        system.attributes
                    ).items()
                },
                "local": assessor.assess_local_all(step.attribute),
            }

        expected = state(fresh)
        return [
            (
                "from-scratch",
                state(live),
                lambda observed: mismatches(observed, expected, 1e-9),
            )
        ]


# -- gossip32-churn -------------------------------------------------------------


class GossipChurn(Workload):
    """32 gossiping replicas; each epoch one mapping is removed and re-added
    at its source node and replicated to convergence.

    The harness is rebuilt every ``session_epochs`` epochs (outside epoch
    time).  Journals grow by two entries an epoch, so epoch cost drifts
    upward within a session; bounding the session keeps the measured
    distribution independent of how many epochs fit into a run.
    """

    name = "gossip32-churn"
    tail_percentile = 90
    session_epochs = 32

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, rec):
        with rec.span("generate.build"):
            template = gossip_workload_network(32)
        harness = GossipHarness.of_names(
            template.peer_names,
            transport=SeededTransport(
                seed=self.seed, drop_probability=0.05, duplicate_probability=0.05
            ),
            fanout=3,
            seed=self.seed,
            ttl=5,
        )
        with rec.span("gossip.converge"):
            for peer in template.peers:
                harness.originate(
                    peer.name, PeerAdded(name=peer.name, schema=peer.schema)
                )
            harness.run_until_converged(GOSSIP_MAX_ROUNDS)
            for mapping in template.mappings:
                harness.originate(mapping.source, MappingAdded(mapping=mapping))
            harness.run_until_converged(GOSSIP_MAX_ROUNDS)
        system = SimpleNamespace(
            template=template,
            harness=harness,
            attributes=sorted(template.peers[0].schema.attribute_names),
            replayed_at={},
        )
        self._replicas(system, system.attributes[0], rec)
        self._replayed(system)
        return system

    @staticmethod
    def _replicas(system, attribute, rec):
        nodes = system.harness.nodes
        with rec.span("replica.rebuild"):
            for node in nodes:
                node.local_network()
                node.assessor()
        with rec.span("replica.assess"):
            return {node.name: node.assess_local(attribute) for node in nodes}

    @staticmethod
    def _replayed(system) -> Optional[int]:
        """Events replayed by the replica rebuilds since the last call: a
        replica is rebuilt from its whole journal whenever it grew."""
        replayed = 0
        for node in system.harness.nodes:
            entries = getattr(getattr(node, "journal", None), "entries", None)
            if entries is None:
                return None
            count = len(entries())
            if system.replayed_at.get(node.name) != count:
                replayed += count
                system.replayed_at[node.name] = count
        return replayed

    def schedule(self, system, rng):
        order = list(system.template.mapping_names)
        rng.shuffle(order)
        return [
            SimpleNamespace(
                mapping=order[index % len(order)],
                attribute=system.attributes[index % len(system.attributes)],
            )
            for index in range(SCHEDULE_LENGTH)
        ]

    def epoch(self, system, step, rec):
        harness = system.harness
        mapping = system.template.mapping(step.mapping)
        with rec.span("topology.apply"):
            harness.originate(mapping.source, MappingRemoved(name=mapping.name))
            harness.originate(mapping.source, MappingAdded(mapping=mapping))
        with rec.span("gossip.converge"):
            rounds = harness.run_until_converged(GOSSIP_MAX_ROUNDS)
        views = self._replicas(system, step.attribute, rec)
        return SimpleNamespace(rounds=rounds, views=views)

    def tally(self, system, step, out):
        # Every replica that grew was rebuilt with a cold assessor, so its
        # counters hold exactly this epoch's discovery and plan work.
        assessors = [node.assessor() for node in system.harness.nodes]
        replicas = [_assessor_counters(assessor) for assessor in assessors]
        rows = [_local_rows(assessor) for assessor in assessors]
        values = [value for view in out.views.values() for value in view.values()]
        return {
            **{
                name: None
                if any(counts[name] is None for counts in replicas)
                else sum(counts[name] for counts in replicas)
                for name in replicas[0]
            },
            "topology.events": 2,
            "gossip.rounds": out.rounds,
            "replica.events_replayed": self._replayed(system),
            "sweep.local_rows": None if None in rows else sum(rows),
            "decide.decisions": len(values),
            "decide.flagged": sum(1 for value in values if value <= THETA),
        }

    def counters(self, system):
        harness = system.harness
        return {
            "gossip.messages": getattr(
                getattr(harness, "transport", None), "sent", None
            ),
            "gossip.deliveries": getattr(harness, "delivered_event_count", None),
            "gossip.buffered": getattr(harness, "deliveries_buffered", None),
        }

    def quality(self, system, step, out):
        truth = {
            (mapping.name, c.source_attribute): c.is_correct is not False
            for mapping in system.template.mappings
            for c in mapping.correspondences
            if c.source_attribute == step.attribute
        }
        flagged = (
            (name, step.attribute)
            for view in out.views.values()
            for name, value in view.items()
            if value <= THETA
        )
        return _scored(flagged, truth)

    def final_gates(self, system, step) -> List[Gate]:
        """Every replica's local view equals the single-process oracle's,
        float for float, for every attribute."""
        harness = system.harness
        expected = {a: harness.oracle_views(a) for a in system.attributes}
        return [
            (
                "replicas-vs-oracle",
                {a: harness.local_views(a) for a in system.attributes},
                lambda observed: mismatches(observed, expected, 0.0),
            )
        ]


WORKLOADS = {
    "eon-em": lambda seed: EonEM(),
    "sf1024-churn": lambda seed: ScaleFreeChurn(),
    "gossip32-churn": GossipChurn,
}
