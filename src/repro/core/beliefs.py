"""Prior beliefs on mapping correctness and their EM-style updates.

Peers keep a prior probability of correctness for every (mapping, attribute)
pair.  The paper (§4.4) initialises unknown priors at 0.5 (maximum entropy),
lets experts pin validated mappings at 1.0, and updates priors as posterior
evidence accumulates with a simple Expectation-Maximization-flavoured
running average:

    P(m = correct) = (1/k) Σ_{i=1..k} P_i(m = correct | F_i)

so the prior slowly converges towards the average of the observed
posteriors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..exceptions import ReproError

__all__ = ["PriorBeliefStore", "BeliefKey", "MAXIMUM_ENTROPY_PRIOR"]

#: Prior used when a peer has no information about a mapping (§4.4).
MAXIMUM_ENTROPY_PRIOR = 0.5

#: Keys are (mapping name, attribute name).
BeliefKey = Tuple[str, str]


@dataclass
class _BeliefState:
    """Internal running state of one prior belief."""

    prior: float
    evidence_sum: float = 0.0
    evidence_count: int = 0
    pinned: bool = False


class PriorBeliefStore:
    """Per-(mapping, attribute) prior beliefs with EM-style updates.

    Parameters
    ----------
    default_prior:
        Prior assigned to unseen (mapping, attribute) pairs.
    """

    def __init__(self, default_prior: float = MAXIMUM_ENTROPY_PRIOR) -> None:
        _validate_probability(default_prior, "default_prior")
        self.default_prior = default_prior
        self._beliefs: Dict[BeliefKey, _BeliefState] = {}
        #: Bumped by every write (:meth:`set_prior`, :meth:`record_posterior`),
        #: so state derived from the priors — the assessor's cached local
        #: views — can tell when it went stale.
        self.version = 0

    # -- reads ------------------------------------------------------------------------

    def prior(self, mapping_name: str, attribute: str) -> float:
        """Current prior P(mapping correct) for ``attribute``."""
        state = self._beliefs.get((mapping_name, attribute))
        if state is None:
            return self.default_prior
        return state.prior

    def evidence_count(self, mapping_name: str, attribute: str) -> int:
        """How many posterior observations have been folded into the prior."""
        state = self._beliefs.get((mapping_name, attribute))
        return 0 if state is None else state.evidence_count

    # -- writes ------------------------------------------------------------------------

    def set_prior(
        self, mapping_name: str, attribute: str, prior: float, pinned: bool = False
    ) -> None:
        """Set a prior explicitly (e.g. expert-validated mapping, §4.4).

        ``pinned=True`` freezes the prior: later posterior evidence is still
        recorded but never changes the prior (the paper's "always treated as
        correct" case when pinned at 1.0).
        """
        _validate_probability(prior, "prior")
        self._beliefs[(mapping_name, attribute)] = _BeliefState(prior=prior, pinned=pinned)
        self.version += 1

    def record_posterior(
        self, mapping_name: str, attribute: str, posterior_correct: float
    ) -> float:
        """Fold a new posterior observation into the prior (EM step, §4.4).

        Returns the updated prior.  The update is the running average of all
        posterior observations so far; the very first observation therefore
        replaces a non-pinned default prior entirely, and subsequent
        observations move it increasingly slowly — the "slow convergence to
        a local maximum likelihood" behaviour the paper describes.
        """
        _validate_probability(posterior_correct, "posterior_correct")
        key = (mapping_name, attribute)
        state = self._beliefs.get(key)
        if state is None:
            state = _BeliefState(prior=self.default_prior)
            self._beliefs[key] = state
        state.evidence_sum += posterior_correct
        state.evidence_count += 1
        if not state.pinned:
            state.prior = state.evidence_sum / state.evidence_count
        self.version += 1
        return state.prior

    # -- misc --------------------------------------------------------------------------

    def snapshot(self) -> Dict[BeliefKey, float]:
        """Copy of all current priors (useful for reports and tests)."""
        return {key: state.prior for key, state in self._beliefs.items()}

    def __len__(self) -> int:
        return len(self._beliefs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PriorBeliefStore(default={self.default_prior}, "
            f"tracked={len(self._beliefs)})"
        )


def _validate_probability(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ReproError(f"{name} must be in [0, 1], got {value}")
