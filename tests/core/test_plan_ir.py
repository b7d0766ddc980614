"""Plan-IR contract tests.

Two guarantees land here:

1. The kernel-surface layering invariant: engines must reach the compiled
   kernels (``segment_products``, ``StackedFactorBatch``,
   ``StackedCountFactorBatch``, ...) through
   :mod:`repro.factorgraph.plan` — the sanctioned re-export surface of the
   plan IR — never directly from :mod:`repro.factorgraph.compiled`.  Since PR 9 the invariant is stated
   once in :mod:`repro.lintkit.contracts` and enforced by the
   ``layering-plan-kernels`` rule; this test asserts ``repro-lint``
   reports zero findings for it (the hand-rolled AST walk it replaces
   lives on as the rule implementation).
2. Long-structure parity: the per-message loop reference
   (``embedded_reference.py``) and the lane engine — one lane, attribute
   lanes and per-origin lanes — must agree on posteriors, iteration counts
   and rng-stream replay at dense (3, 8) and count-space (25, 40) arities,
   lossless and lossy.  Random small topologies are
   covered by the differential guard in ``tests/core/test_differential.py``;
   this matrix pins the arities its TTL cannot reach.
3. Block assembly: :func:`~repro.factorgraph.plan.assemble_sweep_plan` of
   disjoint compiled blocks equals :func:`~repro.factorgraph.plan.
   compile_sweep_plan` of their concatenated structures in every field,
   and a lossy lane-engine run over it equals the run over the compiled
   plan.
"""

import pathlib
from dataclasses import fields

import numpy as np
import pytest
from embedded_reference import (
    ReferenceEmbedded,
    assert_matches_reference,
    reference_assessment,
    reference_local_view,
)
from hypothesis import given, settings, strategies as st

import repro
from repro.constants import COUNT_KERNEL_MIN_ARITY
from repro.core.analysis import analyze_network
from repro.core.batched import (
    AssessmentLane,
    BatchedEmbeddedMessagePassing,
    compile_assessment_plan,
)
from repro.core.embedded import EmbeddedMessagePassing, MessageTransport
from repro.core.feedback import Feedback, FeedbackKind, StructureKind
from repro.core.quality import MappingQualityAssessor
from repro.exceptions import FeedbackError
from repro.factorgraph.plan import assemble_sweep_plan
from repro.generators.topologies import cycle_network
from repro.lintkit import run_lint, rules_by_id


class TestEnginesUseThePlanIR:
    def test_no_engine_imports_kernels_from_compiled(self):
        package_dir = pathlib.Path(repro.__file__).parent
        rule = rules_by_id()["layering-plan-kernels"]
        findings = run_lint([package_dir], rules=[rule])
        offenders = [
            finding.render()
            for finding in findings
            if not finding.suppressed
        ]
        assert not offenders, (
            "engines must import kernels via repro.factorgraph.plan, "
            "not repro.factorgraph.compiled:\n" + "\n".join(offenders)
        )


@pytest.mark.parametrize("arity", [3, 8, 25, 40])
class TestLongStructureParity:
    """One ring of ``arity`` mappings — a single feedback of that size —
    run through every engine against the loop reference."""

    def _informative(self, arity):
        network = cycle_network(arity, attribute_count=2, seed=arity)
        attribute = network.attribute_universe()[0]
        evidence = analyze_network(
            network, attribute, ttl=arity, include_parallel_paths=False
        )
        informative = evidence.informative_feedbacks
        assert len(informative) == 1 and informative[0].size == arity
        return network, attribute, informative

    def test_lossless_arrays_match_loop_reference(self, arity):
        _, _, informative = self._informative(arity)
        dicts = ReferenceEmbedded(informative, priors=0.5, delta=0.1).run()
        arrays = EmbeddedMessagePassing(informative, priors=0.5, delta=0.1).run()
        assert arrays.iterations == dicts.iterations
        for name, value in dicts.posteriors.items():
            assert arrays.posteriors[name] == pytest.approx(value, abs=1e-9)

    def test_lossy_arrays_replay_the_same_rng_streams(self, arity):
        _, _, informative = self._informative(arity)

        def run(engine):
            return engine(
                informative,
                priors=0.5,
                delta=0.1,
                transport=MessageTransport(0.8, seed=arity),
            ).run()

        dicts = run(ReferenceEmbedded)
        arrays = run(EmbeddedMessagePassing)
        assert arrays.iterations == dicts.iterations
        assert arrays.messages_attempted == dicts.messages_attempted
        assert arrays.messages_delivered == dicts.messages_delivered
        for name, value in dicts.posteriors.items():
            assert arrays.posteriors[name] == pytest.approx(value, abs=1e-12)

    def test_batched_and_blocked_engines_match_per_call(self, arity):
        """Attribute lanes and per-origin lanes replay the loop reference."""
        network, attribute, _ = self._informative(arity)
        assessor = MappingQualityAssessor(
            network,
            delta=0.1,
            ttl=arity,
            include_parallel_paths=False,
            send_probability=0.7,
            seed=3,
        )
        outcome = assessor.assess_attributes([attribute])[attribute]
        assert_matches_reference(outcome.result, reference_assessment(assessor, attribute))

        views = assessor.assess_local_all(attribute)
        for origin in network.peer_names:
            reference_view = reference_local_view(assessor, origin, attribute)
            assert set(views[origin]) == set(reference_view)
            for name, value in reference_view.items():
                assert views[origin][name] == pytest.approx(value, abs=1e-9)


def _assert_same_fields(assembled, compiled):
    """Every dataclass field equal: arrays in values, dtype and shape,
    mappings in item order, buckets field by field in order."""
    for field in fields(compiled):
        name = field.name
        left, right = getattr(assembled, name), getattr(compiled, name)
        if isinstance(right, np.ndarray):
            assert left.dtype == right.dtype, name
            assert left.shape == right.shape, name
            assert np.array_equal(left, right), name
        elif isinstance(right, dict):
            assert list(left.items()) == list(right.items()), name
        elif name == "batches":
            assert len(left) == len(right)
            for left_bucket, right_bucket in zip(left, right):
                _assert_same_fields(left_bucket, right_bucket)
        else:
            assert left == right, name


#: Mapping names one block draws its structures from, with their owners:
#: ``b<block>p<owner>->b<block>m<index>``, so blocks never share a name.
_POOL = COUNT_KERNEL_MIN_ARITY + 4

_structures = st.lists(
    st.integers(min_value=2, max_value=COUNT_KERNEL_MIN_ARITY + 2).flatmap(
        lambda arity: st.tuples(
            st.lists(
                st.integers(min_value=0, max_value=_POOL - 1),
                min_size=arity,
                max_size=arity,
                unique=True,
            ),
            st.sampled_from(list(FeedbackKind)),
        )
    ),
    max_size=4,
)


@given(
    blocks=st.lists(_structures, max_size=4),
    owners=st.lists(st.integers(min_value=0, max_value=2), min_size=_POOL, max_size=_POOL),
)
@settings(max_examples=60, deadline=None)
def test_assembled_plan_equals_the_compiled_concatenation(blocks, owners):
    """Disjoint blocks — empty ones and a single one included, arities on
    both sides of the count-kernel crossover — assemble into the plan the
    lowering compiles from their concatenated structures, and a lossy
    all-blocks run over either plan gives the same results."""
    signatures, kinds = [], []
    for b, structures in enumerate(blocks):
        block = []
        for s, (indices, kind) in enumerate(structures):
            names = tuple(f"b{b}p{owners[i]}->b{b}m{i}" for i in indices)
            block.append((f"f{s + 1}", names))
            kinds.append(kind)
        signatures.append(block)
    compiled = compile_assessment_plan([pair for block in signatures for pair in block])
    assembled = assemble_sweep_plan([compile_assessment_plan(block) for block in signatures])
    _assert_same_fields(assembled, compiled)

    def run(plan):
        lanes, start = [], 0
        for b, block in enumerate(signatures):
            indices = tuple(range(start, start + len(block)))
            lanes.append(
                AssessmentLane(
                    key=f"b{b}",
                    feedbacks=tuple(
                        Feedback(
                            identifier=identifier,
                            kind=kinds[index],
                            structure=StructureKind.CYCLE,
                            mapping_names=names,
                            attribute="a",
                        )
                        for index, (identifier, names) in zip(indices, block)
                    ),
                    structure_indices=indices,
                    delta=0.1,
                )
            )
            start += len(block)
        engine = BatchedEmbeddedMessagePassing(plan, lanes, send_probability=0.7, seed=5)
        return engine.run(), engine.round_edge_counts

    assert run(assembled) == run(compiled)


def test_assembly_rejects_blocks_that_share_a_mapping():
    first = compile_assessment_plan([("f1", ("p->q", "q->p"))])
    second = compile_assessment_plan([("f1", ("q->p", "p->r", "r->q"))])
    with pytest.raises(FeedbackError, match="'q->p'"):
        assemble_sweep_plan([first, second])
