"""Violating fixture: the foundation module reading the environment."""

import os


def example_choice():
    return os.environ.get("REPRO_EXAMPLE_KNOB", "")
