"""Loopy sum–product (belief propagation) over factor graphs.

This is the centralised reference implementation of the algorithm the paper
embeds into the PDMS (§3.1, §4.3).  It supports:

* synchronous ("flooding") iterations — every edge updates both directions
  each round, matching the paper's notion of an iteration;
* optional damping of factor→variable messages, useful on very loopy graphs;
* random message loss — every directed message is *sent* with probability
  ``send_probability`` and otherwise keeps its previous value, which is how
  the fault-tolerance experiment (Figure 11) models unsynchronised peers and
  lost packets;
* per-iteration marginal history, used to plot convergence (Figure 7).

One engine executes the rounds: the edge-by-edge Python loops below, which
evaluate every message with the scalar
:meth:`~repro.factorgraph.factors.Factor.message_to`.  It is the oracle,
not a production path: the paper's §4 equivalence is stated against
centralised loopy BP, and the tests check the compiled lane engine of
:mod:`repro.core.batched` against these loops.

The decentralised, per-peer variant lives in :mod:`repro.core.embedded`; it
produces the same fixed points because it exchanges exactly the same
messages, only with a different ownership of the state.  Both stop under
the same rule: :func:`required_quiet_rounds` consecutive rounds below
tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..constants import (
    DEFAULT_DAMPING,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_SEED,
    DEFAULT_SEND_PROBABILITY,
    DEFAULT_TOLERANCE,
)
from ..exceptions import ConvergenceError, FactorGraphError
from .factors import Factor
from .graph import FactorGraph
from .messages import MessageStore, normalize, unit_message
from .variables import CORRECT

__all__ = [
    "SumProductOptions",
    "SumProductResult",
    "SumProduct",
    "run_sum_product",
    "required_quiet_rounds",
]


def required_quiet_rounds(send_probability: float) -> int:
    """Consecutive sub-tolerance rounds needed to declare convergence.

    Under message loss a single quiet round may simply mean the informative
    messages were dropped, so the count grows inversely with the transport's
    send probability.  Shared by :meth:`SumProduct.run`, the lane engine of
    :mod:`repro.core.batched` and the schedules so every stopping rule
    stays in sync.
    """
    if send_probability >= 1.0:
        return 1
    return max(2, int(round(2.0 / send_probability)))


@dataclass(frozen=True)
class SumProductOptions:
    """Tuning knobs for the loopy sum–product run.

    Parameters
    ----------
    max_iterations:
        Hard cap on the number of synchronous rounds.
    tolerance:
        Convergence threshold on the largest message change between rounds.
    damping:
        Convex-combination weight of the *old* message when updating
        (0 = no damping).
    send_probability:
        Probability that any directed message is actually transmitted in a
        round; untransmitted messages keep their previous value.  1.0
        reproduces classic synchronous BP.
    rng:
        Random source used only when ``send_probability < 1``.  Defaults to
        ``random.Random(DEFAULT_SEED)`` (see :mod:`repro.constants`) so runs
        are reproducible unless an explicit source is given.
    record_history:
        When true, marginals of every variable are recorded after each
        iteration (needed by the convergence experiments).
    strict:
        When true, a :class:`ConvergenceError` is raised if the run does not
        converge within ``max_iterations``.
    """

    max_iterations: int = DEFAULT_MAX_ITERATIONS
    tolerance: float = DEFAULT_TOLERANCE
    damping: float = DEFAULT_DAMPING
    send_probability: float = DEFAULT_SEND_PROBABILITY
    rng: Optional[random.Random] = None
    record_history: bool = False
    strict: bool = False

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise FactorGraphError("max_iterations must be >= 1")
        if not 0.0 <= self.damping < 1.0:
            raise FactorGraphError("damping must be in [0, 1)")
        if not 0.0 < self.send_probability <= 1.0:
            raise FactorGraphError("send_probability must be in (0, 1]")
        if self.tolerance <= 0:
            raise FactorGraphError("tolerance must be positive")


@dataclass
class SumProductResult:
    """Outcome of a sum–product run."""

    marginals: Dict[str, np.ndarray]
    iterations: int
    converged: bool
    final_change: float
    history: List[Dict[str, np.ndarray]] = field(default_factory=list)
    #: Domain of every variable, used to locate the CORRECT state; results
    #: built by :class:`SumProduct` always carry it.
    domains: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def belief(self, variable_name: str) -> np.ndarray:
        """Normalised marginal vector of ``variable_name``."""
        return self.marginals[variable_name]

    def _correct_index(self, variable_name: str) -> int:
        """Index of the CORRECT state in ``variable_name``'s marginal.

        The index is resolved through the variable's recorded domain rather
        than hard-coding 0, and a variable whose domain has no ``correct``
        state raises instead of silently returning an arbitrary component.
        """
        domain = self.domains.get(variable_name)
        if domain is None:
            # Result constructed without domain bookkeeping (e.g. by hand in
            # tests): only the documented binary [P(correct), P(incorrect)]
            # layout is safe to assume.
            if len(self.marginals[variable_name]) == 2:
                return 0
            raise FactorGraphError(
                f"variable {variable_name!r} has no recorded domain and is "
                "not binary; probability_correct is undefined for it"
            )
        if CORRECT not in domain:
            raise FactorGraphError(
                f"variable {variable_name!r} has domain {domain!r} without a "
                f"{CORRECT!r} state; probability_correct is undefined for it"
            )
        return domain.index(CORRECT)

    def probability_correct(self, variable_name: str) -> float:
        """Posterior probability that a correctness variable is correct."""
        return float(
            self.marginals[variable_name][self._correct_index(variable_name)]
        )

    def history_of(self, variable_name: str) -> List[float]:
        """Per-iteration P(correct) trajectory (requires ``record_history``)."""
        index = self._correct_index(variable_name)
        return [float(snapshot[variable_name][index]) for snapshot in self.history]


class SumProduct:
    """Runs loopy belief propagation over a :class:`FactorGraph`.

    The edge-by-edge state (:attr:`messages`) is advanced one synchronous
    round at a time by :meth:`iterate_once`; :meth:`run` iterates it to
    convergence from unit messages.
    """

    def __init__(self, graph: FactorGraph, options: Optional[SumProductOptions] = None) -> None:
        graph.validate()
        self.graph = graph
        self.options = options or SumProductOptions()
        self._rng = self.options.rng or random.Random(DEFAULT_SEED)
        self._edges: List[Tuple[Factor, str]] = [
            (factor, variable.name)
            for factor in graph.factors
            for variable in factor.variables
        ]
        self.messages = self._initial_messages()

    def _initial_messages(self) -> MessageStore:
        return MessageStore.initialized(
            (factor.name, variable.name, variable.cardinality)
            for factor in self.graph.factors
            for variable in factor.variables
        )

    # -- message updates -------------------------------------------------------

    def _variable_to_factor(self, variable_name: str, factor: Factor) -> np.ndarray:
        """µ_{x→f}(x) = Π_{h ∈ n(x)\\{f}} µ_{h→x}(x)."""
        variable = self.graph.variable(variable_name)
        message = np.ones(variable.cardinality)
        for neighbor in self.graph.factors_of(variable_name):
            if neighbor.name == factor.name:
                continue
            message = message * self.messages.factor_to_variable[(neighbor.name, variable_name)]
        return normalize(message)

    def _factor_to_variable(self, factor: Factor, variable_name: str) -> np.ndarray:
        """µ_{f→x}(x) = Σ_{~x} f(X) Π_{y ∈ n(f)\\{x}} µ_{y→f}(y)."""
        incoming = {
            variable.name: self.messages.variable_to_factor[(factor.name, variable.name)]
            for variable in factor.variables
            if variable.name != variable_name
        }
        return normalize(factor.message_to(variable_name, incoming))

    def _should_send(self) -> bool:
        if self.options.send_probability >= 1.0:
            return True
        return self._rng.random() < self.options.send_probability

    def iterate_once(self) -> float:
        """Run one synchronous round; return the largest message change."""
        previous = self.messages.copy()

        # Variable -> factor sweep (computed from the *previous* round's
        # factor->variable messages, i.e. a Jacobi-style update).
        new_v2f: Dict[Tuple[str, str], np.ndarray] = {}
        for factor, variable_name in self._edges:
            key = (factor.name, variable_name)
            if self._should_send():
                new_v2f[key] = self._variable_to_factor(variable_name, factor)
            else:
                new_v2f[key] = previous.variable_to_factor[key]
        self.messages.variable_to_factor = new_v2f

        # Factor -> variable sweep.
        damping = self.options.damping
        new_f2v: Dict[Tuple[str, str], np.ndarray] = {}
        for factor, variable_name in self._edges:
            key = (factor.name, variable_name)
            if self._should_send():
                fresh = self._factor_to_variable(factor, variable_name)
                if damping > 0.0:
                    fresh = normalize(
                        damping * previous.factor_to_variable[key] + (1.0 - damping) * fresh
                    )
                new_f2v[key] = fresh
            else:
                new_f2v[key] = previous.factor_to_variable[key]
        self.messages.factor_to_variable = new_f2v

        return self.messages.max_change_from(previous)

    # -- beliefs ----------------------------------------------------------------

    def marginals(self) -> Dict[str, np.ndarray]:
        """Current belief of every variable (product of incoming messages)."""
        beliefs: Dict[str, np.ndarray] = {}
        for variable in self.graph.variables:
            belief = np.ones(variable.cardinality)
            for factor in self.graph.factors_of(variable.name):
                belief = belief * self.messages.factor_to_variable[(factor.name, variable.name)]
            if self.graph.degree(variable.name) == 0:
                belief = unit_message(variable.cardinality)
            beliefs[variable.name] = normalize(belief)
        return beliefs

    # -- main loop ---------------------------------------------------------------

    def _domains(self) -> Dict[str, Tuple[str, ...]]:
        return {variable.name: variable.domain for variable in self.graph.variables}

    def run(self) -> SumProductResult:
        """Iterate to convergence (or ``max_iterations``) and return beliefs.

        Under message loss a single quiet round is not proof of convergence
        (it may simply mean the informative messages were dropped), so the
        change must stay below tolerance for :func:`required_quiet_rounds`
        consecutive rounds.

        Every call starts from fresh unit messages (the rng stream, by
        contrast, is shared across calls), so repeated reliable runs of one
        engine behave identically.
        """
        self.messages = self._initial_messages()
        history: List[Dict[str, np.ndarray]] = []
        converged = False
        change = float("inf")
        iterations = 0
        quiet_needed = required_quiet_rounds(self.options.send_probability)
        quiet_rounds = 0
        for iterations in range(1, self.options.max_iterations + 1):
            change = self.iterate_once()
            if self.options.record_history:
                history.append(self.marginals())
            quiet_rounds = quiet_rounds + 1 if change < self.options.tolerance else 0
            if quiet_rounds >= quiet_needed:
                converged = True
                break
        if not converged and self.options.strict:
            raise ConvergenceError(
                f"sum-product did not converge within "
                f"{self.options.max_iterations} iterations (last change {change:.3g})"
            )
        return SumProductResult(
            marginals=self.marginals(),
            iterations=iterations,
            converged=converged,
            final_change=change,
            history=history,
            domains=self._domains(),
        )


def run_sum_product(
    graph: FactorGraph,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
    damping: float = DEFAULT_DAMPING,
    send_probability: float = DEFAULT_SEND_PROBABILITY,
    seed: Optional[int] = None,
    record_history: bool = False,
    strict: bool = False,
) -> SumProductResult:
    """Convenience wrapper: build a :class:`SumProduct` engine and run it."""
    options = SumProductOptions(
        max_iterations=max_iterations,
        tolerance=tolerance,
        damping=damping,
        send_probability=send_probability,
        rng=random.Random(seed) if seed is not None else None,
        record_history=record_history,
        strict=strict,
    )
    return SumProduct(graph, options).run()
