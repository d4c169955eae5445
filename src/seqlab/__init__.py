"""seqlab: collectively-encoded qutrit pulse sequences, dissipative
dynamics, pairwise interactions, and photon-statistics estimators."""

__version__ = "0.1.0"
