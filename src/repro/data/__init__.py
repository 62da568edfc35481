"""Synthetic dataset generators.

The paper's evaluation data is either synthetic ("the sample data set has
200k to 800k points, 100 dimensions, and 10 clusters") or proprietary
flow-cytometry data (the FLAME Lymphocytes set).  This subpackage generates
statistically equivalent inputs: seeded Gaussian mixtures, dense matrices
for GEMV/DGEMM, token streams for word count, and a Lymphocytes-like 4-D /
5-cluster reference set with held-out ground truth for the Figure 5
clustering-quality comparison.  Every input is regenerated from its seed,
so nothing is read from or written to disk.
"""

from repro.data.synth import (
    gaussian_mixture,
    random_matrix,
    random_vector,
    text_corpus,
)
from repro.data.flame import lymphocytes_like

__all__ = [
    "gaussian_mixture",
    "random_matrix",
    "random_vector",
    "text_corpus",
    "lymphocytes_like",
]
