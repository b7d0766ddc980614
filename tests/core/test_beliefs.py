"""Unit tests for prior belief storage and EM-style updates."""

import pytest

from repro.core.beliefs import MAXIMUM_ENTROPY_PRIOR, PriorBeliefStore
from repro.exceptions import ReproError


class TestDefaults:
    def test_unknown_pair_gets_default_prior(self):
        store = PriorBeliefStore()
        assert store.prior("p1->p2", "Creator") == MAXIMUM_ENTROPY_PRIOR

    def test_custom_default(self):
        store = PriorBeliefStore(default_prior=0.7)
        assert store.prior("p1->p2", "Creator") == 0.7

    def test_invalid_default_rejected(self):
        with pytest.raises(ReproError):
            PriorBeliefStore(default_prior=1.2)


class TestExplicitPriors:
    def test_set_and_get(self):
        store = PriorBeliefStore()
        store.set_prior("p1->p2", "Creator", 0.9)
        assert store.prior("p1->p2", "Creator") == 0.9
        assert store.prior("p1->p2", "Title") == MAXIMUM_ENTROPY_PRIOR

    def test_set_prior_tracks_each_pair(self):
        store = PriorBeliefStore()
        store.set_prior("a->b", "X", 0.8)
        store.set_prior("b->c", "X", 0.6)
        assert store.prior("a->b", "X") == 0.8
        assert store.prior("b->c", "X") == 0.6
        assert len(store) == 2

    def test_invalid_prior_rejected(self):
        store = PriorBeliefStore()
        with pytest.raises(ReproError):
            store.set_prior("a->b", "X", -0.1)


class TestEMUpdates:
    def test_running_average_of_posteriors(self):
        store = PriorBeliefStore()
        store.record_posterior("a->b", "X", 0.6)
        assert store.prior("a->b", "X") == pytest.approx(0.6)
        store.record_posterior("a->b", "X", 0.4)
        assert store.prior("a->b", "X") == pytest.approx(0.5)
        store.record_posterior("a->b", "X", 0.8)
        assert store.prior("a->b", "X") == pytest.approx(0.6)
        assert store.evidence_count("a->b", "X") == 3

    def test_section45_prior_update_shape(self):
        """After one posterior (0.59 / 0.30) plus one neutral observation the
        priors land near the paper's reported 0.55 / 0.40."""
        store = PriorBeliefStore()
        store.record_posterior("p2->p3", "Creator", 0.59)
        store.record_posterior("p2->p3", "Creator", 0.5)
        store.record_posterior("p2->p4", "Creator", 0.30)
        store.record_posterior("p2->p4", "Creator", 0.5)
        assert store.prior("p2->p3", "Creator") == pytest.approx(0.545, abs=0.01)
        assert store.prior("p2->p4", "Creator") == pytest.approx(0.40, abs=0.01)

    def test_pinned_prior_not_moved_by_evidence(self):
        store = PriorBeliefStore()
        store.set_prior("a->b", "X", 1.0, pinned=True)
        store.record_posterior("a->b", "X", 0.1)
        assert store.prior("a->b", "X") == 1.0
        assert store.evidence_count("a->b", "X") == 1

    def test_invalid_posterior_rejected(self):
        store = PriorBeliefStore()
        with pytest.raises(ReproError):
            store.record_posterior("a->b", "X", 1.1)

    def test_snapshot(self):
        store = PriorBeliefStore()
        store.set_prior("a->b", "X", 0.8)
        assert store.snapshot() == {("a->b", "X"): 0.8}
