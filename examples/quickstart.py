#!/usr/bin/env python3
"""Quickstart: detect a faulty schema mapping in a four-peer PDMS.

This script walks through the paper's introductory example end to end:

1. build the four art databases and their six pairwise mappings (one of
   which erroneously maps ``Creator`` onto ``CreatedOn``),
2. let the system gather cycle / parallel-path feedback and run the
   decentralised probabilistic message passing,
3. inspect the resulting posteriors,
4. route the "artists who painted rivers" query with and without the
   quality information and fold the posteriors into the priors, and
5. repair the faulty correspondence with a versioned edit and route the
   query again: the assessor re-assesses on its own.

Run with::

    python examples/quickstart.py
"""

from repro import (
    MappingQualityAssessor,
    Query,
    QueryRouter,
    RoutingPolicy,
    intro_example_network,
    substring_predicate,
)


def main() -> None:
    # 1. The PDMS of the paper's introductory example (Figure 1 / Figure 5).
    network = intro_example_network()
    print(f"network: {network}")
    for mapping in network.mappings:
        flag = " (FAULTY for Creator)" if mapping.name == "p2->p4" else ""
        print(f"  mapping {mapping.name}: {len(mapping)} correspondences{flag}")

    # 2. Assess the quality of every mapping for the attribute 'Creator'.
    assessor = MappingQualityAssessor(network, delta=0.1, ttl=4)
    assessment = assessor.assess_attribute("Creator")
    print(f"\nposterior P(mapping correct) for 'Creator' "
          f"({assessment.iterations} iterations):")
    for mapping_name, posterior in sorted(assessment.posteriors.items()):
        verdict = "ERRONEOUS" if posterior <= 0.5 else "ok"
        print(f"  {mapping_name:10s}  {posterior:.3f}   [{verdict}]")

    # 3. The query of §1.2: artists who created a piece of work about a river.
    query = Query.select_project(
        "p2",
        project=["Creator"],
        where={"Subject": substring_predicate("river")},
        where_descriptions={"Subject": "LIKE '%river%'"},
    )

    # 3a. A standard PDMS floods every mapping — including the faulty one.
    standard = QueryRouter(network, policy=RoutingPolicy(default_threshold=0.0))
    standard_trace = standard.route(query)
    print("\nstandard PDMS routing:")
    print(standard_trace.summary())
    _print_answers(standard_trace)

    # 3b. The quality-aware router blocks mappings below θ = 0.5.
    aware = assessor.router(policy=RoutingPolicy(default_threshold=0.5))
    aware_trace = aware.route(query)
    print("\nquality-aware routing (θ = 0.5):")
    print(aware_trace.summary())
    _print_answers(aware_trace)

    # 4. Fold the posteriors back into the priors (§4.4) for the next round.
    updated = assessor.update_priors(["Creator"])
    print("\nupdated priors after this round of evidence:")
    for (mapping_name, attribute), prior in sorted(updated.items()):
        print(f"  {mapping_name:10s} @ {attribute}: {prior:.3f}")

    # 5. Repair p2->p4's Creator correspondence (§4.4).  The edit swaps in a
    #    corrected copy of the mapping and bumps the network version, so the
    #    assessor re-evaluates the structures through p2->p4 on its own.
    before = assessor.probability("p2->p4", "Creator")
    faulty = network.mapping("p2->p4")
    network.change_correspondences(
        faulty.with_correspondence(
            faulty.correspondence_for("Creator").with_target(
                "Creator", is_correct=True
            )
        )
    )
    after = assessor.probability("p2->p4", "Creator")
    flagged = assessor.flagged_mappings("Creator", theta=0.5)
    print(f"\nafter repairing p2->p4 (network version {network.version}):")
    print(f"  P(p2->p4 correct) for 'Creator': {before:.3f} -> {after:.3f}")
    print(f"  flagged at θ = 0.5: {', '.join(flagged) or 'none'}")
    repaired_trace = aware.route(query)
    print(repaired_trace.summary())
    _print_answers(repaired_trace)


def _print_answers(trace) -> None:
    for answer in trace.answers:
        for record in answer.records:
            creator = record.get("Creator")
            marker = "  <-- false positive" if creator is None or str(creator).isdigit() else ""
            print(f"    answer from {answer.peer_name}: Creator={creator!r}{marker}")


if __name__ == "__main__":
    main()
