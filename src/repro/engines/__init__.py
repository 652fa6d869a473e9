"""Execution backends for the CONGEST simulator.

The :class:`~repro.congest.simulator.Simulator` owns two pure-Python
engines (``sweep`` and ``event``); this package adds the vectorized
``bulk`` engine plus the capability-probing dispatcher that picks the
fastest engine able to run a given simulation (``engine="auto"``).

Modules
-------
:mod:`repro.engines.dispatcher`
    Probes for numpy and for the bulk engine's protocol envelope;
    resolves ``"auto"`` / validates explicit ``"bulk"`` requests.
:mod:`repro.engines.lfmath`
    Batched L-float arithmetic on int64 mantissa/exponent arrays,
    bit-identical to :class:`repro.arithmetic.lfloat.LFloat`.
:mod:`repro.engines.bulk`
    The structure-of-arrays engine: computes the protocol's closed-form
    schedule (Lemmas 2-5) and executes whole rounds as array ops.
"""

from repro.engines.dispatcher import (
    ENGINE_PREFERENCE,
    EngineDecision,
    bulk_capability,
    decide_engine,
    shard_capability,
    numpy_available,
    reset_probe,
)

__all__ = [
    "ENGINE_PREFERENCE",
    "EngineDecision",
    "bulk_capability",
    "decide_engine",
    "shard_capability",
    "numpy_available",
    "reset_probe",
]
