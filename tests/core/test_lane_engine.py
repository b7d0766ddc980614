"""Contract tests of the lane engine (:mod:`repro.core.batched`).

Lanes are independent: whatever other lanes share the engine, and whatever
slice a lane lands on — its own slice (attribute lanes), a shared
block-diagonal slice (disjoint origin blocks) or a separate one (lanes
sharing a structure or a mapping) — its :class:`EmbeddedResult` equals its
solo run, also after other lanes froze and were compacted out mid-run.  Each lane also
replays the per-message loop reference on its informative evidence.

The fused bucket sweep (:meth:`~repro.factorgraph.plan.BucketPlan.sweep`:
one gather, one ``messages_all`` call, one normalisation and one scatter
per bucket) must reproduce, bit for bit, the per-target sweep built from
each kernel's ``messages_toward``.  For dense buckets that identity rests
on how the installed numpy's einsum orders its sums over differently laid
out operands, so this guard runs wherever the suite runs.
"""

from itertools import permutations
from unittest import mock

from hypothesis import given, settings, strategies as st
from embedded_reference import ReferenceEmbedded, assert_matches_reference

from repro.constants import COUNT_KERNEL_MIN_ARITY
from repro.core.batched import (
    AssessmentLane,
    BatchedEmbeddedMessagePassing,
    compile_assessment_plan,
    lower_feedbacks,
    lower_priors,
)
from repro.core.embedded import EmbeddedOptions, MessageTransport
from repro.core.feedback import Feedback, FeedbackKind, StructureKind
from repro.factorgraph.plan import BucketPlan, normalize_rows

OPTIONS = EmbeddedOptions(max_rounds=60)
KINDS = [FeedbackKind.NEUTRAL, FeedbackKind.POSITIVE, FeedbackKind.NEGATIVE]

#: One block of structures over its own mapping instances: 2–3
#: structures of 2–4 mappings among the 12 mappings of four peers.
block_structures = st.lists(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 3)).map(
            lambda pair: (pair[0], (pair[0] + pair[1]) % 4)
        ),
        min_size=2,
        max_size=4,
        unique=True,
    ),
    min_size=2,
    max_size=3,
)

lane_specs = st.lists(
    st.fixed_dictionaries(
        {
            "block": st.one_of(st.none(), st.integers(0, 1)),
            "part": st.one_of(st.none(), st.integers(0, 2)),
            "kinds": st.lists(st.sampled_from(KINDS), min_size=9, max_size=9),
            "delta": st.sampled_from([0.05, 0.1, 0.3]),
            "priors": st.one_of(
                st.none(),
                st.sampled_from([0.3, 0.7]),
                st.dictionaries(
                    st.integers(0, 3), st.sampled_from([0.2, 0.6, 0.9]), max_size=3
                ),
            ),
            "send_probability": st.sampled_from([1.0, 0.6]),
            "seed": st.integers(0, 50),
        }
    ),
    min_size=2,
    max_size=4,
)


def _plan(blocks):
    structures, ranges = [], []
    for number, block in enumerate(blocks):
        start = len(structures)
        for edges in block:
            names = tuple(f"p{a}->p{b}#b{number}" for a, b in edges)
            structures.append((f"s{len(structures)}", names))
        ranges.append(range(start, len(structures)))
    return compile_assessment_plan(structures), ranges


def _lanes(plan, ranges, specs):
    """Fresh lanes (fresh transports) for ``specs``, each with the
    feedbacks and prior dict it was lowered from."""
    lanes = []
    for number, spec in enumerate(specs):
        if spec["block"] is None:
            indices = None
            covered = range(plan.structure_count)
        else:
            indices = ranges[spec["block"] % len(ranges)]
            if spec.get("part") is not None:
                # One structure of the block: lanes over different parts of
                # one block share mappings but no structure.
                indices = indices[spec["part"] % len(indices) :][:1]
            covered = indices
        feedbacks = tuple(
            Feedback(
                identifier=plan.identifiers[s],
                kind=spec["kinds"][position % len(spec["kinds"])],
                structure=StructureKind.CYCLE,
                mapping_names=plan.structure_mappings[s],
                attribute="a",
            )
            for position, s in enumerate(covered)
        )
        priors = spec["priors"]
        if isinstance(priors, dict):
            priors = {
                name: value
                for name in plan.mapping_names
                for key, value in priors.items()
                if name.startswith(f"p{key}->")
            }
        lane = AssessmentLane(
            key=f"lane{number}",
            codes=lower_feedbacks(plan, feedbacks, indices),
            structure_indices=indices,
            priors=lower_priors(plan, priors) if isinstance(priors, dict) else priors,
            delta=spec["delta"],
            transport=MessageTransport(spec["send_probability"], seed=spec["seed"]),
        )
        lanes.append((lane, feedbacks, priors))
    return lanes


@given(blocks=st.lists(block_structures, min_size=1, max_size=2), specs=lane_specs)
@settings(max_examples=60, deadline=None)
def test_lanes_are_independent_and_match_the_reference(blocks, specs):
    plan, ranges = _plan(blocks)
    together = BatchedEmbeddedMessagePassing(
        plan, [lane for lane, _, _ in _lanes(plan, ranges, specs)], options=OPTIONS
    ).run()
    for lane, feedbacks, priors in _lanes(plan, ranges, specs):
        alone = BatchedEmbeddedMessagePassing(plan, [lane], options=OPTIONS).run()
        assert together[lane.key] == alone[lane.key]

        informative = [f for f in feedbacks if f.is_informative]
        if not informative:
            assert together[lane.key] is None
            continue
        reference = ReferenceEmbedded(
            informative,
            priors=priors,
            delta=lane.delta,
            transport=MessageTransport(
                lane.transport.send_probability,
                seed=specs[int(lane.key[4:])]["seed"],
            ),
            options=OPTIONS,
        ).run()
        assert_matches_reference(together[lane.key], reference)


def test_placement_follows_the_lanes():
    """Whole-plan lanes get a slice each; lanes binding blocks in order
    share one; a lane that does not start after the previous lane's blocks
    opens a new one."""
    plan, ranges = _plan([[[(0, 1), (1, 0)]], [[(2, 3), (3, 2)]]])
    spec = {
        "kinds": [FeedbackKind.NEGATIVE] * 9,
        "delta": 0.1,
        "priors": None,
        "send_probability": 1.0,
        "seed": 0,
    }

    def slices(blocks):
        lanes = _lanes(plan, ranges, [dict(spec, block=b) for b in blocks])
        engine = BatchedEmbeddedMessagePassing(plan, [lane for lane, _, _ in lanes])
        return engine._lane_slice.tolist()

    assert slices([None, None]) == [0, 1]
    assert slices([0, 1]) == [0, 0]
    assert slices([0, 0, 1]) == [0, 1, 1]
    assert slices([0, None, 1]) == [0, 1, 2]


# -- the fused bucket sweep --------------------------------------------------


def _per_target_sweep(bucket, kernel, pool, out):
    """Reference bucket sweep: one gather, ``messages_toward`` call,
    normalisation and scatter per target slot."""
    for target in range(bucket.arity):
        sources = [slot for slot in range(bucket.arity) if slot != target]
        incoming = [None] * bucket.arity
        for slot, ids in zip(sources, bucket.gather_all[target]):
            incoming[slot] = pool[..., ids, :]
        out[..., bucket.scatter_all[target], :] = normalize_rows(
            kernel.messages_toward(target, incoming)
        )


def _expected_recv_rows(plan):
    """The received-cell rows re-derived from the structure list and the
    owners: per structure, each peer holding a replica (in mapping order)
    gets one cell per mapping of the structure it does not own."""
    rows = {}
    for s, names in enumerate(plan.structure_mappings):
        for peer in dict.fromkeys(plan.owners[name] for name in names):
            for name in names:
                if plan.owners[name] != peer:
                    rows[(peer, s, name)] = len(rows)
    return rows


def _expected_bucket_plans(plan, bucket, recv_row):
    """``gather_all`` / ``scatter_all`` re-derived from the plan's edge
    layout and the received-cell rows ``recv_row``: per target, the source
    slots in ascending order."""
    edge_row = {
        pair: row
        for row, pair in enumerate(
            zip(plan.edge_mapping.tolist(), plan.edge_structure.tolist())
        )
    }
    index, owners = plan.mapping_index, plan.owners
    gather, scatter = [], []
    for target in range(bucket.arity):
        per_source = []
        for source in range(bucket.arity):
            if source == target:
                continue
            ids = []
            for s in bucket.feedback_indices.tolist():
                names = plan.structure_mappings[s]
                owner, name = owners[names[target]], names[source]
                if owners[name] == owner:
                    ids.append(edge_row[(index[name], s)])
                else:
                    ids.append(plan.edge_count + recv_row[(owner, s, name)])
            per_source.append(ids)
        gather.append(per_source)
        scatter.append(
            [
                edge_row[(index[plan.structure_mappings[s][target]], s)]
                for s in bucket.feedback_indices.tolist()
            ]
        )
    return gather, scatter


#: The 12 mappings among four peers, and structures over 2–12 of them:
#: short structures land in dense buckets, structures of
#: COUNT_KERNEL_MIN_ARITY or more mappings in count buckets.
_PAIRS = list(permutations(range(4), 2))
sweep_structure = st.tuples(
    st.sampled_from([2, 3, 5, COUNT_KERNEL_MIN_ARITY, 12]),
    st.permutations(range(len(_PAIRS))),
).map(lambda drawn: drawn[1][: drawn[0]])
sweep_lanes = st.lists(
    st.fixed_dictionaries(
        {
            "block": st.one_of(st.none(), st.integers(0, 1)),
            "kinds": st.lists(st.sampled_from(KINDS), min_size=5, max_size=5),
            "delta": st.sampled_from([0.05, 0.1, 0.3]),
            "prior": st.sampled_from([None, 0.3, 0.8]),
            "send_probability": st.sampled_from([1.0, 0.6]),
            "seed": st.integers(0, 50),
        }
    ),
    min_size=1,
    max_size=4,
)
SWEEP_OPTIONS = EmbeddedOptions(max_rounds=40)


@given(
    blocks=st.lists(
        st.lists(sweep_structure, min_size=1, max_size=4), min_size=1, max_size=2
    ),
    specs=sweep_lanes,
)
@settings(max_examples=60, deadline=None)
def test_fused_bucket_sweep_matches_the_per_target_sweep(blocks, specs):
    structures, ranges = [], []
    for number, block in enumerate(blocks):
        start = len(structures)
        for slots in block:
            names = tuple(
                f"p{_PAIRS[m][0]}->p{_PAIRS[m][1]}#b{number}" for m in slots
            )
            structures.append((f"s{len(structures)}", names))
        ranges.append(range(start, len(structures)))
    plan = compile_assessment_plan(structures)
    recv_row = _expected_recv_rows(plan)
    assert plan.recv_count == len(recv_row)
    assert plan.recv_structure.tolist() == [s for _, s, _ in recv_row]
    for bucket in plan.batches:
        gather, scatter = _expected_bucket_plans(plan, bucket, recv_row)
        assert bucket.gather_all.tolist() == gather
        assert bucket.scatter_all.tolist() == scatter

    def lanes():
        built = []
        for number, spec in enumerate(specs):
            if spec["block"] is None:
                indices, covered = None, range(plan.structure_count)
            else:
                covered = indices = ranges[spec["block"] % len(ranges)]
            built.append(
                AssessmentLane(
                    key=f"lane{number}",
                    codes=lower_feedbacks(
                        plan,
                        [
                            Feedback(
                                identifier=plan.identifiers[s],
                                kind=spec["kinds"][position % len(spec["kinds"])],
                                structure=StructureKind.CYCLE,
                                mapping_names=plan.structure_mappings[s],
                                attribute="a",
                            )
                            for position, s in enumerate(covered)
                        ],
                        indices,
                    ),
                    structure_indices=indices,
                    priors=spec["prior"],
                    delta=spec["delta"],
                    transport=MessageTransport(
                        spec["send_probability"], seed=spec["seed"]
                    ),
                )
            )
        return built

    def run():
        engine = BatchedEmbeddedMessagePassing(plan, lanes(), options=SWEEP_OPTIONS)
        rounds = []
        step = engine.run_round

        def recorded_round():
            change = step()
            rounds.append(engine.posteriors())
            return change

        engine.run_round = recorded_round
        return engine.run(), rounds, engine.round_edge_counts

    fused = run()
    with mock.patch.object(BucketPlan, "sweep", _per_target_sweep):
        reference = run()
    # Exact equality: posteriors, iterations, flags, final changes and
    # message counts, the live lanes' posteriors after every round, and
    # the per-round (compacted) row counts.
    assert fused == reference
