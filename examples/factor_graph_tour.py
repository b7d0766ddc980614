#!/usr/bin/env python3
"""A tour of the probabilistic machinery, from feedback to factor graph.

For readers who want to see the model rather than just its verdicts, this
example builds the factor graph of the paper's worked example step by step:

1. the three feedbacks p2 gathers in §4.5 (f1+, f2−, f3−⇒),
2. their conditional probability tables (the Δ-compensation CPT of §3.2.1),
3. the global factor graph of Figure 5, then each peer's local view: the
   cycles and parallel paths its probes find and the posteriors of its own
   mappings (§4.5), and
4. exact inference vs the decentralised loopy estimate.

Run with::

    python examples/factor_graph_tour.py
"""

from repro.core import (
    EmbeddedMessagePassing,
    MappingQualityAssessor,
    build_factor_graph,
    feedback_factor,
    variable_name_for,
)
from repro.factorgraph import exact_marginals
from repro.generators import intro_example_feedbacks, intro_example_network


def main() -> None:
    feedbacks = intro_example_feedbacks()

    print("== 1. feedback gathered by p2 (§4.5) ==")
    for feedback in feedbacks:
        print(f"  {feedback}")

    print("\n== 2. the CPT of feedback f2 (negative cycle, Δ = 0.1) ==")
    factor = feedback_factor(feedbacks[1], delta=0.1)
    for assignment in factor.assignments():
        incorrect = sum(1 for state in assignment.values() if state == "incorrect")
        print(f"  {incorrect} incorrect mapping(s): "
              f"P(f2 observed | assignment) = {factor.value(assignment):.2f}"
              + ("   <- errors compensate with probability Δ" if incorrect >= 2 else ""))
        if incorrect == 3:
            break  # one line per error count is enough

    print("\n== 3a. the global factor graph (Figure 5, right-hand side) ==")
    pfg = build_factor_graph(feedbacks, priors=0.5, delta=0.1)
    graph = pfg.graph
    print(f"  {graph}")
    print(f"  variables : {', '.join(graph.variable_names)}")
    print(f"  factors   : {', '.join(graph.factor_names)}")
    print(f"  cycle-free: {graph.is_tree()}")

    print("\n== 3b. each peer's local view (§4.5) ==")
    network = intro_example_network()
    assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
    for peer_name in network.peer_names:
        cycles, parallel_paths = assessor.neighborhood_cache.structures_for(peer_name)
        posteriors = assessor.assess_local(peer_name, "Creator")
        print(f"  {peer_name}: cycles {[str(c) for c in cycles]}")
        print(f"      parallel paths {[str(p) for p in parallel_paths]}")
        print("      own mappings "
              + ", ".join(f"{name}={value:.2f}" for name, value in posteriors.items()))

    print("\n== 4. exact inference vs decentralised loopy estimate ==")
    exact = exact_marginals(graph)
    embedded = EmbeddedMessagePassing(feedbacks, priors=0.5, delta=0.1).run()
    print(f"  (embedded scheme converged in {embedded.iterations} iterations)")
    print(f"  {'mapping':10s} {'exact':>8s} {'embedded':>10s}")
    for mapping_name in pfg.mapping_names:
        exact_value = float(exact[variable_name_for(mapping_name, 'Creator')][0])
        approx_value = embedded.posteriors[mapping_name]
        print(f"  {mapping_name:10s} {exact_value:8.3f} {approx_value:10.3f}")
    print("\n  -> the paper reports 0.59 for p2->p3 and 0.30 for p2->p4;")
    print("     exact inference reproduces those values, the decentralised")
    print("     loopy estimate lands within a few percent of them.")


if __name__ == "__main__":
    main()
