"""Shared toy applications and test oracles."""

from __future__ import annotations

import json

import numpy as np

from repro.apps.cmeans import fuzzy_memberships
from repro.core.intensity import ConstantIntensity
from repro.hardware import CpuSpec, FatNode, GpuSpec
from repro.obs.analyze import analyze_tracer
from repro.obs.profile import loads_profile, profile_jsonl
from repro.runtime.api import Block, IterativeMapReduceApp, MapReduceApp


class ModSumApp(MapReduceApp):
    """Toy SPMD app: sum item values grouped by ``item % n_keys``.

    Deterministic ground truth makes runtime correctness checks exact.
    """

    name = "modsum"

    def __init__(self, n: int = 1000, n_keys: int = 4, intensity: float = 10.0):
        self._n = n
        self._keys = n_keys
        self._intensity = ConstantIntensity(intensity, label="modsum")

    def n_items(self) -> int:
        return self._n

    def item_bytes(self) -> float:
        return 8.0

    def intensity(self):
        return self._intensity

    def cpu_map(self, block: Block):
        items = np.arange(block.start, block.stop, dtype=np.int64)
        return [
            (int(k), int(items[items % self._keys == k].sum()))
            for k in range(self._keys)
            if np.any(items % self._keys == k)
        ]

    def cpu_reduce(self, key, values):
        return int(sum(values))

    def expected_output(self) -> dict[int, int]:
        items = np.arange(self._n, dtype=np.int64)
        return {
            int(k): int(items[items % self._keys == k].sum())
            for k in range(self._keys)
            if np.any(items % self._keys == k)
        }


class CombinerModSumApp(ModSumApp):
    """ModSumApp plus a combiner, to exercise the combiner path."""

    name = "modsum+combiner"

    def combiner(self, key, values):
        return int(sum(values))


class CountdownApp(IterativeMapReduceApp):
    """Iterative toy: state counts down; converges after ``rounds`` steps.

    Map emits the per-block item count; update() decrements the counter —
    exercising the iterate/broadcast/update/convergence machinery with
    exactly predictable iteration counts.
    """

    name = "countdown"
    max_iterations = 50

    def __init__(self, n: int = 200, rounds: int = 3):
        self._n = n
        self.rounds = rounds
        self.remaining = rounds
        self.updates = 0
        self._intensity = ConstantIntensity(500.0, label="countdown")

    def n_items(self) -> int:
        return self._n

    def item_bytes(self) -> float:
        return 4.0

    def intensity(self):
        return self._intensity

    def cpu_map(self, block: Block):
        return [("count", block.n_items)]

    def cpu_reduce(self, key, values):
        return sum(values)

    def iteration_state(self):
        return {"remaining": self.remaining}

    def update(self, reduced):
        assert reduced.get("count") == self._n, "lost map outputs"
        self.remaining -= 1
        self.updates += 1

    @property
    def converged(self) -> bool:
        return self.remaining <= 0


def output_digest(output: dict) -> str:
    """sha256 of the exact bytes of every output value, in key order.

    Floats feed their ``float.hex`` form and arrays their dtype, shape and
    raw bytes, so two outputs share a digest only when they are bitwise
    identical.  Keys are visited in ``repr`` order.
    """
    import hashlib

    h = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, (tuple, list)):
            h.update(b"(")
            for item in value:
                feed(item)
            h.update(b")")
        elif isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            h.update(value.hex().encode())
        else:
            h.update(repr(value).encode())

    for key in sorted(output, key=repr):
        h.update(repr(key).encode())
        feed(output[key])
    return h.hexdigest()


def assert_pairs_identical(got: list, want: list) -> None:
    """Two ``cpu_map`` outputs hold the same keys and bitwise-equal values
    (a value is a scalar or a tuple of scalars and arrays)."""
    assert [k for k, _ in got] == [k for k, _ in want]
    for (_, g), (_, w) in zip(got, want):
        g, w = (g, w) if isinstance(w, tuple) else ((g,), (w,))
        assert all(np.array_equal(a, b) for a, b in zip(g, w, strict=True))


def generic_node(
    name: str = "generic",
    cpu_gflops: float = 100.0,
    cpu_bandwidth: float = 30.0,
    gpu_gflops: float = 1000.0,
) -> FatNode:
    """A fat node with round-number specs: an 8-core CPU and one GPU."""
    cpu = CpuSpec(
        name=f"{name}-cpu",
        peak_gflops=cpu_gflops,
        dram_bandwidth=cpu_bandwidth,
        cores=8,
    )
    gpu = GpuSpec(
        name=f"{name}-gpu",
        peak_gflops=gpu_gflops,
        dram_bandwidth=150.0,
        pcie_bandwidth=4.0,
        cores=512,
    )
    return FatNode(name=name, cpu=cpu, gpus=(gpu,))


def cmeans_reference(
    points: np.ndarray,
    n_clusters: int,
    m: float = 2.0,
    iterations: int = 20,
    seed: int = 0,
) -> np.ndarray:
    """Plain single-process FCM — the oracle distributed runs must match."""
    rng = np.random.default_rng(seed)
    idx = rng.choice(points.shape[0], size=n_clusters, replace=False)
    centers = np.asarray(points, dtype=np.float64)[idx].copy()
    x = np.asarray(points, dtype=np.float64)
    for _ in range(iterations):
        u = fuzzy_memberships(x, centers, m)
        w = u**m
        centers = (w.T @ x) / np.sum(w, axis=0)[:, None]
    return centers


def degraded_makespan_bound(
    fault_free_makespan: float,
    kill_time: float,
    lost_fraction: float,
    overhead_s: float = 0.0,
) -> float:
    """Analytic upper bound on makespan after losing a device mid-run.

    Work completed before ``kill_time`` is unaffected; the remaining
    ``T0 - t`` seconds of schedule inflate by ``1 / (1 - f)`` when the
    dead device held a fraction ``f`` of the cluster's throughput, plus
    explicit recovery overhead (backoff waits, re-executed partial
    blocks)::

        T <= t + (T0 - t) / (1 - f) + overhead
    """
    if not 0.0 <= lost_fraction < 1.0:
        raise ValueError(f"lost_fraction must be in [0, 1), got {lost_fraction}")
    t = min(max(kill_time, 0.0), fault_free_makespan)
    return t + (fault_free_makespan - t) / (1.0 - lost_fraction) + overhead_s


def phase_spans(trace, rank: int | None = None,
                iteration: int | None = None) -> list:
    """The closed phase spans of *trace* on *rank* in *iteration*
    (``None`` matches any; iteration ``-1`` is the setup phase)."""
    return [
        s for s in trace.phase_spans
        if (rank is None or s.attrs["rank"] == rank)
        and (iteration is None or s.attrs["iteration"] == iteration)
    ]


def first_of(engine, events):
    """An event that fires when the first of *events* fires, with value
    ``(index, value)``, or fails with the first failure: one zero-delay
    hop after that child is processed (at once for a child processed
    already).  For the reference implementations that race work
    against a signal; the engine itself composes only with ``AllOf``."""
    events = tuple(events)
    first = engine.event()

    def on_child(event):
        if first.triggered:
            return
        if not event.ok:
            first.fail(event.value)
        else:
            first.succeed((events.index(event), event.value))

    for event in events:
        if event._processed:
            on_child(event)
        else:
            event.callbacks.append(on_child)
    return first


def saved_run_round_trip(result):
    """Save a finished run as profile JSONL and reload it.  The reloaded
    spans and their analysis must equal the live run's exactly; returns
    the reloaded tracer."""
    live = result.trace.tracer
    loaded = loads_profile(profile_jsonl(result.trace, {})).tracer
    assert [s.to_dict() for s in loaded.spans] == [
        s.to_dict() for s in live.spans
    ]

    def analysis(tracer):
        return json.dumps(analyze_tracer(tracer).to_dict(), sort_keys=True)

    assert analysis(loaded) == analysis(live)
    return loaded
