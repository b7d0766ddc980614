"""Tests for :func:`repro.evaluation.timing.measure`, on a fake clock."""

import pytest

from repro.evaluation import timing
from repro.evaluation.timing import measure
from repro.exceptions import EvaluationError


class FakeClock:
    """A clock that only moves when a setup or a timed call advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(timing, "perf_counter", fake)
    return fake


def side(name, cost, clock, log):
    """A setup that costs 100 s itself and returns a call costing ``cost``."""

    def setup():
        log.append(("setup", name))
        clock.now += 100.0

        def call():
            log.append(("call", name))
            clock.now += cost
            return (name, len(log))

        return call

    return setup


def test_setups_run_outside_the_timed_region(clock):
    log = []
    result = measure([side("a", 1.0, clock, log), side("b", 2.0, clock, log)], 3)
    assert result.seconds == ((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
    assert result.pairs == 3
    assert result.median(1) == 2.0
    assert result.ratios(1, 0) == (2.0, 2.0, 2.0)
    assert result.speedup(1, 0) == 2.0


def test_each_setup_runs_right_before_its_call(clock):
    log = []
    measure([side("a", 1.0, clock, log)], 2)
    assert log == [("setup", "a"), ("call", "a")] * 2


def test_two_sides_alternate_which_runs_first(clock):
    log = []
    measure([side("a", 1.0, clock, log), side("b", 1.0, clock, log)], 4)
    calls = [name for kind, name in log if kind == "call"]
    assert calls == ["a", "b", "b", "a", "a", "b", "b", "a"]


def test_three_sides_rotate_their_start(clock):
    log = []
    measure([side(name, 1.0, clock, log) for name in "abc"], 3)
    calls = "".join(name for kind, name in log if kind == "call")
    assert calls == "abc" + "bca" + "cab"


def test_each_side_returns_its_last_value(clock):
    log = []
    result = measure([side("a", 1.0, clock, log), side("b", 1.0, clock, log)], 2)
    # b ran first in the last pair, so its last call logged before a's.
    assert result.values == (("a", 8), ("b", 6))


def test_quartiles_of_a_side(clock):
    costs = iter([1.0, 2.0, 3.0, 4.0, 5.0])

    def setup():
        def call():
            clock.now += next(costs)

        return call

    result = measure([setup], 5)
    assert result.median() == 3.0
    assert result.quartiles() == (2.0, 4.0)


@pytest.mark.parametrize("pairs", [0, -1])
def test_pairs_below_one_are_rejected(pairs):
    with pytest.raises(EvaluationError):
        measure([lambda: (lambda: None)], pairs)
