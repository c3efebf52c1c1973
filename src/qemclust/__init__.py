"""Noise-aware mitigation of quantum measurement distributions.

Clusters noisy measurement bit-strings by Hamming distance around
majority-vote centroids, reassigns the probability mass that i.i.d.
bit-flip noise smeared off those centroids, and iterates the cluster
count until the reshaped distribution stabilizes. Includes the bit-flip
simulator used for sensitivity studies and an extremely-randomized-trees
estimator of the effective error rate from circuit features.
"""

# the top-level names are each module's __all__, stated once there
from .clustering import *
from .distributions import *
from .engine import *
from .estimator import *
from .noise import *
from .redistribution import *

__version__ = "0.1.0"
