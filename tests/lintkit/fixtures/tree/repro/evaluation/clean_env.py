"""Clean fixture: a setting arrives as an explicit argument."""

from repro.constants import DEFAULT_SEED


def example_choice(seed=DEFAULT_SEED):
    return seed
