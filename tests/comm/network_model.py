"""Alpha/beta collective cost model: the oracle for the simulated MPI.

``NetworkModel`` wraps a :class:`~repro.hardware.cluster.NetworkSpec` and
provides the textbook collective cost estimates (Hockney model with
binomial trees).  The simulated communicator in :mod:`repro.comm.mpi`
builds collectives from point-to-point messages, so these closed forms
cross-check it: the simulation should agree with them to within
tree-shape effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._validation import require_nonnegative, require_positive_int
from repro.hardware.cluster import NetworkSpec


@dataclass(frozen=True)
class NetworkModel:
    """Collective cost estimates over an alpha/beta network."""

    spec: NetworkSpec

    # ------------------------------------------------------------------
    def p2p(self, nbytes: float) -> float:
        """One point-to-point message: ``alpha + n * beta`` seconds."""
        return self.spec.point_to_point_time(nbytes)

    def bcast(self, nbytes: float, ranks: int) -> float:
        """Binomial-tree broadcast: ``ceil(log2 P)`` rounds."""
        require_nonnegative("nbytes", nbytes)
        require_positive_int("ranks", ranks)
        if ranks == 1:
            return 0.0
        rounds = math.ceil(math.log2(ranks))
        return rounds * self.p2p(nbytes)

    def gather(self, nbytes_per_rank: float, ranks: int) -> float:
        """Linear gather at the root: ``P-1`` incoming messages.

        The simulated root receives sequentially, so linear (not tree)
        is the honest model; this is also what magnifies the paper's
        "increasing overhead in global reduction stage" at 8 nodes.
        """
        require_nonnegative("nbytes_per_rank", nbytes_per_rank)
        require_positive_int("ranks", ranks)
        return (ranks - 1) * self.p2p(nbytes_per_rank)

    def scatter(self, nbytes_per_rank: float, ranks: int) -> float:
        """Linear scatter from the root: ``P-1`` outgoing messages."""
        return self.gather(nbytes_per_rank, ranks)
