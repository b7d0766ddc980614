"""Violating fixture: a direct environment read outside the resolvers."""

import os


def example_choice():
    return os.environ.get("REPRO_EXAMPLE_KNOB", "")
