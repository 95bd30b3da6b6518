"""corrmatch: a laboratory for the matching-recovery threshold of
correlated Erdos-Renyi graph pairs.

Submodules:
  graphs        generative laws, matchings, intersection graphs
  orbits        edge-orbit decompositions and censuses
  moments       exact orbit moments, tail bounds, combinatorial minimum
  density       exact densest subgraph, rho-curve fit, threshold inversion
  admissibility truncation event and good sets
  inference     likelihoods, exact posterior, estimators, TV experiments
  harness       experiment configs, deterministic replication, every CSV report
"""

from . import admissibility, density, graphs, harness, inference, moments, orbits  # noqa: F401

__version__ = "0.1.0"
