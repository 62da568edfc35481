"""SPMD applications (paper §IV.A) implemented on the PRS MapReduce API.

Each application supplies real NumPy kernels (results are numerically
meaningful) plus the cost metadata — arithmetic-intensity profile and
output sizes — the simulator charges against the roofline device models.

* :mod:`repro.apps.cmeans` — fuzzy C-means clustering (Equations 12-14).
* :mod:`repro.apps.kmeans` — K-means, the paper's comparison clustering.
* :mod:`repro.apps.gmm` — Gaussian-mixture EM (Equation 15).
* :mod:`repro.apps.gemv` — row-striped matrix-vector multiply over a
  vendor-BLAS-style host map.
* :mod:`repro.apps.wordcount` — the low-intensity Figure 4 anchor.
* :mod:`repro.apps.dgemm` — the high-intensity BLAS3 anchor with
  block-size-dependent intensity (exercises Equations 9-11).
* :mod:`repro.apps.da` — deterministic-annealing clustering, the quality
  yardstick of the Figure 5 comparison.

Figure 4's other anchors (FFT, stencil, log analysis) need only their
intensity, so they are profiles in :mod:`repro.core.intensity`, not apps.
"""

from repro.apps.cmeans import CMeansApp, fuzzy_memberships
from repro.apps.kmeans import KMeansApp
from repro.apps.gmm import GMMApp
from repro.apps.gemv import GemvApp
from repro.apps.wordcount import WordCountApp
from repro.apps.dgemm import DgemmApp
from repro.apps.da import deterministic_annealing

__all__ = [
    "CMeansApp",
    "fuzzy_memberships",
    "KMeansApp",
    "GMMApp",
    "GemvApp",
    "WordCountApp",
    "DgemmApp",
    "deterministic_annealing",
]
