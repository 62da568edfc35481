"""Cluster communication substrate.

The paper runs PRS over MPI on a physical cluster; this subpackage provides
an in-process, simulated equivalent with the same shape of API so the
runtime code reads like MPI code:

* :mod:`repro.comm.mpi` — an mpi4py-flavoured communicator whose ranks are
  DES processes; point-to-point messages pay the alpha/beta cost of
  :class:`~repro.hardware.cluster.NetworkSpec` and collectives are *built
  from* point-to-point messages (a binomial-tree broadcast, linear
  gather/scatter, pairwise all-to-all), so their cost emerges
  from the simulation rather than being asserted.  The closed-form
  collective estimates that cross-check it are in
  ``tests/comm/network_model.py``.
"""

from repro.comm.mpi import RankComm, World, payload_nbytes

__all__ = ["World", "RankComm", "payload_nbytes"]
