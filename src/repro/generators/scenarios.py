"""Full scenario generation: topology + mappings + injected errors + ground truth.

A :class:`Scenario` bundles everything an experiment needs: the PDMS network
(with some correspondences corrupted), and the ground-truth labels of every
(mapping, attribute) pair so that precision / recall can be computed by the
evaluation harness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..exceptions import GenerationError
from ..mapping.corruption import corrupt_mapping_in_place
from ..pdms.network import PDMSNetwork
from .topologies import cycle_network, random_network, scale_free_network

__all__ = ["Scenario", "generate_scenario", "inject_errors"]

_TOPOLOGY_BUILDERS = {
    "cycle": cycle_network,
    "random": random_network,
    "scale-free": scale_free_network,
}


@dataclass
class Scenario:
    """A generated PDMS with known ground truth."""

    network: PDMSNetwork
    ground_truth: Dict[Tuple[str, str], bool]
    error_rate: float
    seed: int
    topology: str

    @property
    def erroneous_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """(mapping name, attribute) pairs that are actually wrong."""
        return tuple(key for key, correct in self.ground_truth.items() if not correct)

    def is_correct(self, mapping_name: str, attribute: str) -> Optional[bool]:
        return self.ground_truth.get((mapping_name, attribute))

    def erroneous_mappings(self, attribute: str) -> Tuple[str, ...]:
        """Mappings whose correspondence for ``attribute`` is wrong."""
        return tuple(
            mapping_name
            for (mapping_name, attr), correct in self.ground_truth.items()
            if attr == attribute and not correct
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Scenario(topology={self.topology!r}, peers={len(self.network)}, "
            f"mappings={len(self.network.mappings)}, "
            f"errors={len(self.erroneous_pairs)})"
        )


def inject_errors(
    network: PDMSNetwork,
    error_rate: float,
    seed: int = 0,
) -> Dict[Tuple[str, str], bool]:
    """Corrupt a fraction of correspondences in-place and return ground truth.

    Every correspondence of every mapping is corrupted independently with
    probability ``error_rate`` (retargeted to a random wrong attribute of
    the target schema).  The corrupted correspondences are swapped into
    the registered ``Mapping`` objects in place, with no version bump —
    callers should therefore inject errors right after building the
    network, before any snapshot or assessor reads it.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise GenerationError(f"error_rate must be in [0, 1], got {error_rate}")
    rng = random.Random(seed)
    ground_truth: Dict[Tuple[str, str], bool] = {}
    for mapping in network.mappings:
        target_schema = network.peer(mapping.target).schema
        corrupt_mapping_in_place(
            mapping, target_schema, error_rate=error_rate, rng=rng
        )
        for correspondence in mapping.correspondences:
            ground_truth[(mapping.name, correspondence.source_attribute)] = (
                correspondence.is_correct is not False
            )
    return ground_truth


def generate_scenario(
    topology: str = "scale-free",
    peer_count: int = 12,
    attribute_count: int = 10,
    error_rate: float = 0.2,
    seed: int = 0,
    **topology_kwargs,
) -> Scenario:
    """Generate a complete scenario.

    Parameters
    ----------
    topology:
        One of ``"cycle"``, ``"random"`` or ``"scale-free"``.
    peer_count / attribute_count:
        Size of the network and of each schema.
    error_rate:
        Probability that any correspondence is corrupted.
    seed:
        Seed controlling topology, schema generation and error injection.
    topology_kwargs:
        Extra arguments forwarded to the topology builder (e.g.
        ``edge_probability`` for ``"random"``).
    """
    try:
        builder = _TOPOLOGY_BUILDERS[topology]
    except KeyError:
        raise GenerationError(
            f"unknown topology {topology!r}; expected one of "
            f"{sorted(_TOPOLOGY_BUILDERS)}"
        ) from None
    network = builder(
        peer_count, attribute_count=attribute_count, seed=seed, **topology_kwargs
    )
    ground_truth = inject_errors(network, error_rate, seed=seed + 1)
    return Scenario(
        network=network,
        ground_truth=ground_truth,
        error_rate=error_rate,
        seed=seed,
        topology=topology,
    )
