"""The exception hierarchy survives the shard runtime's pipes.

A shard worker ships any exception it raises to the coordinator
through a ``multiprocessing`` pipe, i.e. by pickling it.  Every class in
:mod:`repro.exceptions` must therefore round-trip through pickle with
its type, message and attributes intact, and a sharded run must raise
the same error, with the same fields, as the single-process engines.
"""

import inspect
import pickle

import pytest

import repro.exceptions as exceptions_module
from repro.core import distributed_betweenness
from repro.exceptions import CongestViolationError, ReproError
from repro.graphs import grid_graph

#: Constructor arguments for every class with its own ``__init__``.
CUSTOM_ARGS = {
    "CongestViolationError": (41, 38, 30, 39, 36),
    "EngineCapabilityError": ("bulk", "numpy is not installed"),
    "SimulationNotTerminatedError": (1001, 1000, (3, 4), "path_8"),
    "SimulationStalledError": (138, 6, (0, 1, 2), (4, 5)),
    "FrameChecksumError": (0x1F, 0x2E),
    "CheckpointPause": ("/tmp/ckpt/round-10", 10),
    "InvariantViolationError": ("lemma4", "two sends at node 3"),
}


def _exception_classes():
    return sorted(
        (
            obj
            for obj in vars(exceptions_module).values()
            if inspect.isclass(obj)
            and issubclass(obj, BaseException)
            and obj.__module__ == exceptions_module.__name__
        ),
        key=lambda cls: cls.__name__,
    )


def _instance(cls):
    if "__init__" in vars(cls):
        return cls(*CUSTOM_ARGS[cls.__name__])
    return cls("something went wrong")


@pytest.mark.parametrize(
    "cls", _exception_classes(), ids=lambda cls: cls.__name__
)
def test_pickle_round_trip_keeps_type_message_and_attributes(cls):
    original = _instance(cls)
    assert isinstance(original, ReproError)
    clone = pickle.loads(pickle.dumps(original))
    assert type(clone) is cls
    assert clone.args == original.args
    assert str(clone) == str(original)
    assert vars(clone) == vars(original)


@pytest.mark.parametrize(
    "engine, kwargs",
    [
        ("sweep", {}),
        ("event", {}),
        ("shard", {"workers": 2, "partitioner": "block"}),
    ],
    ids=["sweep", "event", "shard-2-block"],
)
def test_budget_violation_is_the_same_error_on_every_engine(engine, kwargs):
    """Exact arithmetic overflows a tight budget on an 8x8 grid; the
    offending edge lies in the second block, so under the shard engine
    the error is raised inside a worker process."""
    with pytest.raises(CongestViolationError) as excinfo:
        distributed_betweenness(
            grid_graph(8, 8),
            arithmetic="exact",
            congest_factor=6,
            engine=engine,
            **kwargs,
        )
    error = excinfo.value
    assert (
        error.round_number,
        error.sender,
        error.receiver,
        error.bits_used,
        error.bits_allowed,
    ) == (41, 38, 30, 39, 36)
