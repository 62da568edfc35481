"""Shared toy applications for runtime tests."""

from __future__ import annotations

import numpy as np

from repro.core.intensity import ConstantIntensity
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
