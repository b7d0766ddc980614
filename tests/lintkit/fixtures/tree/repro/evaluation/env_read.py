"""Violating fixture: a direct environment read."""

import os


def example_choice():
    return os.environ.get("REPRO_EXAMPLE_KNOB", "")
