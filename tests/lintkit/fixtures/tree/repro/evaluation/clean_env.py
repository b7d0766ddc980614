"""Clean fixture: knobs flow through the validated resolver."""

from repro.constants import PROBE_EXECUTOR_ENV, read_env


def executor_choice():
    return read_env(PROBE_EXECUTOR_ENV)
