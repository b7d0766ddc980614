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
"""

import pathlib

import pytest
from embedded_reference import (
    ReferenceEmbedded,
    assert_matches_reference,
    reference_assessment,
    reference_local_view,
)

import repro
from repro.core.analysis import analyze_network
from repro.core.embedded import EmbeddedMessagePassing, MessageTransport
from repro.core.quality import MappingQualityAssessor
from repro.generators.topologies import cycle_network
from repro.lintkit import run_lint, rules_by_id


class TestEnginesUseThePlanIR:
    def test_no_engine_imports_kernels_from_compiled(self):
        package_dir = pathlib.Path(repro.__file__).parent
        rule = rules_by_id()["layering-plan-kernels"]
        findings, _ = run_lint([package_dir], rules=[rule])
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
