"""Clean fixture: knobs flow through the validated resolver."""

from repro.constants import read_env


def example_choice():
    return read_env("REPRO_EXAMPLE_KNOB")
