"""The roofline model as the paper instantiates it (Figure 3).

A :class:`RooflineModel` wraps one :class:`~repro.hardware.device.DeviceSpec`
and answers the questions the analytic scheduler asks:

* ``attainable(A)`` — Equations (6)/(7): the flop rate ``F`` a task of
  arithmetic intensity ``A`` can sustain, ``min(P, A * B_eff)``;
* ``ridge`` — ``A_cr`` / ``A_gr``, the intensity where the two roofs meet;
* ``time(flops, nbytes)`` — wall time of a block under dynamic balance
  (the max of compute time and transfer time, which for the roofline's
  steady-state streaming assumption equals ``flops / F(A)``).

``staged`` selects between the two GPU data-placement cases the paper
distinguishes: input beginning in *host* memory (must cross PCI-E; the
default, Equation 7 first branch) versus loop-invariant input already
*resident* in GPU memory (iterative apps, §IV.B: "the average arithmetic
intensity of C-means and GMM depend on the bandwidth of DRAM and peak
performance of GPU, rather than bandwidth of PCI-E bus").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._validation import require_positive
from repro.hardware.device import DeviceSpec


@dataclass(frozen=True)
class RooflineModel:
    """Roofline view of one device.

    Parameters
    ----------
    device:
        The device being modelled.
    staged:
        Whether task input starts in host memory (GPU must pay PCI-E).
        Ignored for CPUs.
    """

    device: DeviceSpec
    staged: bool = True

    # ------------------------------------------------------------------
    @property
    def peak(self) -> float:
        """Compute roof ``P`` in GFLOP/s."""
        return self.device.peak_gflops

    @property
    def bandwidth(self) -> float:
        """Effective streaming bandwidth ``B_eff`` in GB/s."""
        return self.device.effective_bandwidth(self.staged)

    @property
    def ridge(self) -> float:
        """Ridge-point intensity ``A_cr``/``A_gr`` in flops/byte."""
        return self.device.ridge_point(self.staged)

    # ------------------------------------------------------------------
    def attainable(self, intensity: float) -> float:
        """Attainable rate ``F = min(P, A * B_eff)`` in GFLOP/s."""
        return self.device.attainable_gflops(intensity, self.staged)

    def time(self, flops: float, nbytes: float) -> float:
        """Seconds to process a block of *nbytes* executing *flops*.

        Under the roofline's streaming-balance assumption this is
        ``flops / (F(A) * 1e9)`` with ``A = flops/nbytes``, which equals
        ``max(compute time, transfer time)``.
        """
        require_positive("flops", flops)
        require_positive("nbytes", nbytes)
        intensity = flops / nbytes
        return flops / (self.attainable(intensity) * 1e9)



def roofline_curve(
    device: DeviceSpec,
    staged: bool = True,
    lo: float = 2.0**-4,
    hi: float = 2.0**10,
    points: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the roofline curve of *device* for plotting (Figure 3).

    Returns ``(intensities, gflops)`` with logarithmically spaced
    intensities between *lo* and *hi*.
    """
    require_positive("lo", lo)
    require_positive("hi", hi)
    if hi <= lo:
        raise ValueError(f"hi ({hi}) must exceed lo ({lo})")
    model = RooflineModel(device, staged=staged)
    ais = np.logspace(np.log2(lo), np.log2(hi), points, base=2.0)
    perf = np.minimum(model.peak, ais * model.bandwidth)
    return ais, perf
