"""Shared numerical defaults of the iterative inference engines.

Historically the centralised :class:`~repro.factorgraph.sum_product.SumProduct`
engine and the decentralised :class:`~repro.core.embedded.EmbeddedMessagePassing`
engine grew slightly different defaults (tolerances of ``1e-6`` vs ``1e-4``,
and a hidden ``random.Random(0)`` fallback vs an unseeded transport).  Both
engines approximate the *same* fixed points, so inconsistent stopping rules
made cross-engine comparisons noisy.  This module is the single source of
truth for those knobs; every engine imports its defaults from here.

Seeding behaviour
-----------------
Randomness only enters the algorithms through message loss
(``send_probability < 1``).  When no explicit ``rng``/``seed`` is supplied,
every engine falls back to a deterministic source seeded with
:data:`DEFAULT_SEED` so that repeated runs are reproducible by default.
Pass an explicit seed (as the fault-tolerance experiments do, one per
repetition) to obtain independent lossy runs.
"""

from __future__ import annotations

import os

__all__ = [
    "DEFAULT_MAX_ITERATIONS",
    "DEFAULT_TOLERANCE",
    "DEFAULT_DAMPING",
    "DEFAULT_SEND_PROBABILITY",
    "DEFAULT_SEED",
    "DEFAULT_TTL",
    "MAX_COMPILED_ARITY",
    "COUNT_KERNEL_MIN_ARITY",
    "KNOWN_ENV_KNOBS",
    "read_env",
]

#: Hard cap on synchronous rounds, shared by the centralised and embedded runs.
DEFAULT_MAX_ITERATIONS: int = 50

#: Convergence threshold on the largest message / posterior change per round.
DEFAULT_TOLERANCE: float = 1e-6

#: Convex-combination weight of the *old* factor→variable message (0 = off).
DEFAULT_DAMPING: float = 0.0

#: Probability that a directed message is transmitted in a round.
DEFAULT_SEND_PROBABILITY: float = 1.0

#: Seed of the fallback random source used when none is supplied.
DEFAULT_SEED: int = 0

#: Default Time-To-Live (maximum number of mapping hops) of the probe phase
#: discovering cycles and parallel paths (§3.2.1).  Shared by the probing
#: entry points of :mod:`repro.pdms.probing`, both structure caches of
#: :mod:`repro.core.analysis` and the quality assessor, so every layer
#: bounds the exponential enumeration identically unless told otherwise.
DEFAULT_TTL: int = 6

#: Largest factor arity the *dense* stacked einsum kernel compiles — one
#: lowercase subscript letter per slot (``a``–``y``; ``z`` and ``A`` are
#: reserved for the batch/stack axes), so exactly 25
#: (``repro.factorgraph.compiled`` asserts its alphabet matches).  It also
#: caps the dense view of a :class:`~repro.factorgraph.factors.CountFactor`.
#: Sweep plans never reach it: from :data:`COUNT_KERNEL_MIN_ARITY` on they
#: run the count-space kernels, which have no arity limit.
MAX_COMPILED_ARITY: int = 25

#: Crossover arity between the dense einsum kernels and the count-space
#: kernels for count-symmetric feedback factors.  Below it the dense
#: ``(2,)**arity`` tables win (one einsum per sweep, tiny tables); from it
#: on the count-space kernels run the same sum–product sweep in O(arity²)
#: time and O(arity) table memory per structure, removing the exponential
#: cliff for long cycles and parallel paths.
COUNT_KERNEL_MIN_ARITY: int = 10

#: Every environment knob the package reads; empty, because it reads none.
#: :func:`read_env` — the one sanctioned gate to ``os.environ`` outside this
#: module (enforced by the ``knob-env-read`` rule of :mod:`repro.lintkit`) —
#: refuses names missing from this registry, so a new knob cannot ship
#: without being declared, documented and validated here first.
KNOWN_ENV_KNOBS: frozenset = frozenset()


def read_env(name: str) -> str:
    """Read a *declared* environment knob, stripped; ``''`` when unset.

    The single sanctioned environment gate of the package: every module
    except this one resolves its knobs through here (the lintkit
    ``knob-env-read`` rule bans direct ``os.environ`` access), and the
    name must be registered in :data:`KNOWN_ENV_KNOBS` — PR 8's strict
    named-variable validation pattern applied at the read itself.
    """
    if name not in KNOWN_ENV_KNOBS:
        raise ValueError(
            f"undeclared environment knob {name!r}; register it in "
            f"repro.constants.KNOWN_ENV_KNOBS (known: "
            f"{', '.join(sorted(KNOWN_ENV_KNOBS))})"
        )
    return os.environ.get(name, "").strip()
