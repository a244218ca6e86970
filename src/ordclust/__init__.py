"""Clustering for categorical and mixed data with learned value orders.

The library learns an integer order over each categorical attribute's values
jointly with the data partition, measures samples against cluster value
profiles through normalized rank differences, and ships the baselines,
ablations and validity indices needed to benchmark the approach.

The package exports the fit drivers, scoring and loading; everything else
is reached through its module (``ordclust.metric``, ``ordclust.order``, ...).
"""

from .cluster import FitConfig, FitResult, fit, fit_kmodes, fit_kprototypes, fit_mixed
from .data import Dataset, load_csv, load_dataset, load_schema
from .evaluate import score

__version__ = "0.1.0"
