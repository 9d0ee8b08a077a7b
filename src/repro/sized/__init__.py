"""Size-aware caching: the paper's §5 future-work direction, built.

The policies themselves are the ordinary ones fed ``request(key,
size)`` against a byte budget, built by
:func:`~repro.policies.registry.make_sized`.  This package holds what
is specific to sized traces:

* :mod:`repro.sized.base` -- object- and byte-level miss accounting.
* :mod:`repro.sized.workloads` -- deterministic heavy-tailed object
  sizes for any key trace.
* :mod:`repro.sized.simulator` -- (keys, sizes) replay.
"""

from repro.sized.base import SizedStats
from repro.sized.simulator import SizedSimResult, simulate_sized
from repro.sized.workloads import (
    attach_sizes,
    lognormal_size,
    pareto_size,
    total_bytes,
    unique_bytes,
)

__all__ = [
    "SizedStats",
    "SizedSimResult",
    "simulate_sized",
    "attach_sizes",
    "lognormal_size",
    "pareto_size",
    "total_bytes",
    "unique_bytes",
]
