"""Discrete-event simulation substrate.

The paper's evaluation ran on physical GPU clusters; this reproduction
replays the same scheduling logic on a compact discrete-event simulator.
:mod:`repro.simulate.engine` is a minimal process-based DES kernel
(SimPy-flavoured: processes are generators yielding events),
:mod:`repro.simulate.resources` provides the contended resources of a fat
node (CPU core pools, the GPU compute engine, PCI-E and network links) and
:mod:`repro.simulate.streams` models CUDA-stream style transfer/compute
overlap (Fermi single-queue vs Kepler Hyper-Q, paper §III.B.3b).
Execution traces are collected by :mod:`repro.simulate.trace`.
"""

from repro.simulate.engine import (
    AllOf,
    Engine,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.simulate.resources import CorePool, Link, Resource, Store
from repro.simulate.streams import StreamBlock, simulate_stream_batch
from repro.simulate.trace import TaskRecord, Trace

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "Interrupt",
    "Resource",
    "CorePool",
    "Link",
    "Store",
    "StreamBlock",
    "simulate_stream_batch",
    "Trace",
    "TaskRecord",
]
