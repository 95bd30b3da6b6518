"""Counter-based random streams.

Every stochastic routine in the package takes an explicit seed and derives
its generator through :func:`stream`.  Replicate ``i`` of a run with master
seed ``s`` always uses ``stream(s, i)``, so serial and parallel executions
of the same configuration produce bit-identical output.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["stream"]


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for replicate ``index`` under ``master_seed``.

    Streams are keyed Philox counters: distinct (seed, index) pairs give
    statistically independent, reproducible streams.  Both must be
    integers (Python or numpy, not bools) in [0, 2**64), the key space, so
    that no two pairs alias one key (the key array would truncate a float).
    """
    for name, value in (("master seed", master_seed), ("stream index", index)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):   # np.bool_ is not Integral
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{name} {value} outside [0, 2**64)")
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
