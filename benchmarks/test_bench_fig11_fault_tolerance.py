"""E5 — Figure 11: robustness against faulty links (lost messages).

Setting: the example graph, Δ = 0.1, priors at 0.8, f1+, f2−, f3−; every
remote message is transmitted with probability P(send).  Paper claim: the
method always converges, even when 90% of the messages are discarded, and
the number of iterations needed grows (roughly linearly) with the rate of
discarded messages.

Alongside the transport-level experiment this benchmark stresses the
*feedback* itself: a seeded fraction of colluding liar peers flips the sign
of every feedback it originates, and the adversarial experiment records the
rounds until all evidence-covered erroneous mappings drop below θ
(``run_adversarial_feedback``).  Both series land in
``BENCH_fig11_fault_tolerance.json`` so robustness regressions in the
assessment layer stay visible.
"""

from repro.evaluation.experiments import (
    run_adversarial_feedback,
    run_fault_tolerance,
)
from repro.evaluation.reporting import format_comparison, format_table

#: Colluding-liar fractions of the adversarial feedback experiment.
LIAR_FRACTIONS = (0.0, 0.1, 0.25, 0.4)

#: Quarantine threshold: a mapping with posterior ≤ θ counts as flagged.
THETA = 0.5


def run():
    return run_fault_tolerance(
        send_probabilities=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
        repetitions=5,
    )


def run_adversarial():
    return run_adversarial_feedback(
        liar_fractions=LIAR_FRACTIONS,
        peer_count=12,
        attribute_count=3,
        error_rate=0.15,
        priors=0.8,
        theta=THETA,
        max_rounds=40,
        seed=1,
    )


def test_bench_fig11_fault_tolerance(benchmark, report, report_json):
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    adversarial = run_adversarial()

    rows = [
        (p_send, 1.0 - p_send, iterations, converged)
        for p_send, iterations, converged in result.points
    ]
    adversarial_rows = [
        (fraction, f"{rounds:.1f}", f"{quarantined:.2f}", f"{false_q:.1f}")
        for fraction, rounds, quarantined, false_q in adversarial.points
    ]
    baseline_iterations = result.iterations_at(1.0)
    lines = [
        format_comparison("always converges (even at 90% loss)", "yes",
                          "yes" if all(c == 1.0 for _, _, c in result.points) else "NO"),
        format_comparison(
            "iterations grow with the discard rate", "monotone growth",
            "monotone" if all(
                a[1] <= b[1] + 1e-9
                for a, b in zip(sorted(result.points, reverse=True), sorted(result.points, reverse=True)[1:])
            ) else "non-monotone",
        ),
        format_comparison("iterations at P(send)=1.0", "~10", baseline_iterations),
        "",
        format_table(
            ("P(send)", "discard rate", "mean iterations to fixed point", "converged fraction"),
            rows,
            title="Figure 11 — convergence under message loss (priors 0.8, Δ=0.1)",
        ),
        "",
        format_table(
            (
                "liar fraction",
                "rounds to θ-quarantine",
                "quarantined fraction",
                "false quarantines",
            ),
            adversarial_rows,
            title=(
                "Adversarial feedback — colluding liars flip their own "
                f"feedback (θ={THETA}, priors 0.8, Δ=0.1, seeded)"
            ),
        ),
    ]
    report("E5_fig11_fault_tolerance", "\n".join(lines))
    report_json(
        "fig11_fault_tolerance",
        {
            "message_loss_points": [
                {
                    "send_probability": p_send,
                    "mean_iterations": iterations,
                    "converged_fraction": converged,
                }
                for p_send, iterations, converged in result.points
            ],
            "adversarial_theta": adversarial.theta,
            "adversarial_max_rounds": adversarial.max_rounds,
            "adversarial_points": [
                {
                    "liar_fraction": fraction,
                    "rounds_to_quarantine": rounds,
                    "quarantined_fraction": quarantined,
                    "false_quarantines": false_q,
                }
                for fraction, rounds, quarantined, false_q in adversarial.points
            ],
        },
    )

    assert all(converged == 1.0 for _, _, converged in result.points)
    assert result.iterations_at(0.1) > result.iterations_at(0.5) > result.iterations_at(1.0)

    # Honest networks quarantine every erroneous mapping almost instantly
    # and frame essentially nobody; colluding liars can only slow the
    # quarantine down (rounds grow with the liar fraction) and frame
    # healthy links (false quarantines grow), never hide the errors here.
    honest = adversarial.point_at(0.0)
    assert honest[2] == 1.0, "honest run failed to quarantine all errors"
    assert honest[3] <= 1.0, "honest run framed healthy mappings"
    rounds_series = [rounds for _, rounds, _, _ in adversarial.points]
    assert rounds_series == sorted(rounds_series), (
        f"rounds-to-quarantine not monotone in the liar fraction: "
        f"{rounds_series}"
    )
    false_series = [false_q for _, _, _, false_q in adversarial.points]
    assert false_series[-1] > false_series[0], (
        "colluding liars framed no healthy mappings — adversarial model "
        "is not biting"
    )
