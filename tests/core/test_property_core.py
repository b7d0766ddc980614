"""Property-based tests for the core probabilistic model.

These check the analytical shape of the paper's model: the single-cycle
posterior formula, symmetry of mappings inside a cycle, and the monotone
effect of Δ and the prior.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.embedded import EmbeddedMessagePassing, EmbeddedOptions
from repro.core.feedback import variable_name_for
from repro.core.pdms_factor_graph import build_factor_graph
from repro.factorgraph.exact import exact_marginals
from repro.generators.paper import single_cycle_feedback

deltas = st.floats(min_value=0.01, max_value=0.5)
#: Realistic Δ values (Δ ≈ 1/#attributes); with unrealistically large Δ the
#: CPT's "compensated errors" branch can dominate and positive feedback stops
#: being confirmatory, so the monotonicity properties below use this range.
small_deltas = st.floats(min_value=0.01, max_value=0.15)
priors = st.floats(min_value=0.2, max_value=0.8)
cycle_lengths = st.integers(min_value=2, max_value=7)


def closed_form_positive_cycle_posterior(length: int, delta: float) -> float:
    """Analytical posterior for a positive cycle with uniform priors.

    P(m correct | f+) = (1 + Δ(2^{n-1} − n)) / (1 + Δ(2^n − 1 − n)).
    """
    numerator = 1.0 + delta * (2 ** (length - 1) - length)
    denominator = 1.0 + delta * (2 ** length - 1 - length)
    return numerator / denominator


@given(cycle_lengths, deltas)
@settings(max_examples=40, deadline=None)
def test_single_positive_cycle_matches_closed_form(length, delta):
    feedback = single_cycle_feedback(length)
    graph = build_factor_graph([feedback], priors=0.5, delta=delta).graph
    exact = exact_marginals(graph)
    expected = closed_form_positive_cycle_posterior(length, delta)
    for mapping_name in feedback.mapping_names:
        value = float(exact[variable_name_for(mapping_name, "Creator")][0])
        assert value == pytest.approx(expected, abs=1e-6)


@given(cycle_lengths, deltas, priors)
@settings(max_examples=30, deadline=None)
def test_cycle_members_are_symmetric(length, delta, prior):
    """All mappings of a single cycle share the same posterior."""
    feedback = single_cycle_feedback(length)
    engine = EmbeddedMessagePassing(
        [feedback], priors=prior, delta=delta,
        options=EmbeddedOptions(max_rounds=4, tolerance=1e-12),
    )
    posteriors = engine.run().posteriors
    values = list(posteriors.values())
    assert max(values) - min(values) < 1e-9


@given(cycle_lengths, small_deltas)
@settings(max_examples=30, deadline=None)
def test_positive_feedback_never_decreases_belief(length, delta):
    """Positive cycle feedback can only confirm the prior (≥ 0.5)."""
    feedback = single_cycle_feedback(length, kind="+")
    engine = EmbeddedMessagePassing(
        [feedback], priors=0.5, delta=delta,
        options=EmbeddedOptions(max_rounds=4, tolerance=1e-12),
    )
    for value in engine.run().posteriors.values():
        assert value >= 0.5 - 1e-9


@given(cycle_lengths, small_deltas)
@settings(max_examples=30, deadline=None)
def test_negative_feedback_never_increases_belief(length, delta):
    feedback = single_cycle_feedback(length, kind="-")
    engine = EmbeddedMessagePassing(
        [feedback], priors=0.5, delta=delta,
        options=EmbeddedOptions(max_rounds=4, tolerance=1e-12),
    )
    for value in engine.run().posteriors.values():
        assert value <= 0.5 + 1e-9


@given(small_deltas)
@settings(max_examples=20, deadline=None)
def test_longer_cycles_give_weaker_evidence(delta):
    """Figure 10: the posterior from a positive cycle decays towards 0.5 as
    the cycle grows."""
    values = []
    for length in (2, 4, 8, 12):
        feedback = single_cycle_feedback(length)
        engine = EmbeddedMessagePassing(
            [feedback], priors=0.5, delta=delta,
            options=EmbeddedOptions(max_rounds=4, tolerance=1e-12),
        )
        values.append(engine.run().posteriors["p1->p2"])
    # The *strength* of the evidence (distance from the 0.5 prior) decays
    # monotonically with the cycle length, and long cycles end up carrying
    # almost no information (the posterior may legitimately sit a hair below
    # 0.5 for large Δ, see the CPT).
    strengths = [abs(value - 0.5) for value in values]
    # Tolerance of 1e-3: once the posterior is within a fraction of a percent
    # of 0.5 the "strength" may wiggle as it crosses the prior.
    assert all(a >= b - 1e-3 for a, b in zip(strengths, strengths[1:]))
    assert abs(values[-1] - 0.5) < 0.05


@given(priors)
@settings(max_examples=20, deadline=None)
def test_posteriors_are_probabilities(prior):
    from repro.generators.paper import figure4_feedbacks

    engine = EmbeddedMessagePassing(
        figure4_feedbacks(), priors=prior, delta=0.1,
        options=EmbeddedOptions(max_rounds=30),
    )
    for value in engine.run().posteriors.values():
        assert 0.0 <= value <= 1.0
