"""A star worker that dies surfaces as a typed FabricError."""

import functools
import os

import pytest

from repro.errors import FabricError
from repro.fabric.runner import FabricRun
from repro.fabric.sync import Component


class Idle(Component):
    def on_frame(self, time, port, kind, data, size):
        pass


class DiesOnStep(Idle):
    def step(self):
        os._exit(3)


def test_dead_star_worker_raises_a_named_fabric_error():
    # Round-robin placement: "a" on worker 0, "b" on worker 1.
    run = FabricRun(
        {
            "a": functools.partial(Idle, "a"),
            "b": functools.partial(DiesOnStep, "b"),
        },
        channels=[],
        processes=2,
    )
    with pytest.raises(FabricError) as info:
        run.run()
    message = str(info.value)
    assert "worker 1" in message
    assert "['b']" in message
    assert "exit code 3" in message
    assert isinstance(
        info.value.__cause__, (BrokenPipeError, EOFError, ConnectionResetError)
    )
