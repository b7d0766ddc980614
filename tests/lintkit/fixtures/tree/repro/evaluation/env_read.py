"""Violating fixture: a direct environment read outside the resolvers."""

import os


def executor_choice():
    return os.environ.get("REPRO_PROBE_EXECUTOR", "")
