"""Eviction-algorithm zoo: baselines and the five state-of-the-art
algorithms the paper QD-enhances (ARC, LIRS, CACHEUS, LeCaR, LHD),
plus the offline-optimal Belady bound and the size-aware GDSF.
"""

from repro.policies.arc import ARC
from repro.policies.belady import Belady
from repro.policies.cacheus import CACHEUS
from repro.policies.fifo import FIFO
from repro.policies.gdsf import GDSF
from repro.policies.hyperbolic import Hyperbolic
from repro.policies.lecar import LeCaR
from repro.policies.lfu import LFU
from repro.policies.lhd import LHD
from repro.policies.lirs import LIRS
from repro.policies.lrfu import LRFU
from repro.policies.lru import LRU
from repro.policies.mq import MQ
from repro.policies.random_policy import RandomCache
from repro.policies.registry import REGISTRY, SOTA_NAMES, PolicySpec, make, names
from repro.policies.slru import SLRU
from repro.policies.twoq import TwoQ
from repro.policies.wtinylfu import WTinyLFU

__all__ = [
    "ARC",
    "Belady",
    "CACHEUS",
    "FIFO",
    "GDSF",
    "Hyperbolic",
    "LeCaR",
    "LFU",
    "LHD",
    "LIRS",
    "LRFU",
    "LRU",
    "MQ",
    "RandomCache",
    "REGISTRY",
    "SOTA_NAMES",
    "PolicySpec",
    "make",
    "names",
    "SLRU",
    "TwoQ",
    "WTinyLFU",
]
