"""Policy registry: names -> factories.

A single place mapping algorithm names (as used in the paper's figures)
to constructors, so experiments, benchmarks, tests and the command-line
examples all agree on spelling and configuration.  QD-enhanced variants
of the five state-of-the-art algorithms are registered with a ``QD-``
prefix, mirroring the paper's QD-ARC / QD-LIRS / ... naming.

:func:`make` is the stable public constructor (see docs/api.md):

* **Parameter passthrough** -- ``make("2-bit-CLOCK", 100)`` uses the
  paper's configuration; ``make("QD-LP-FIFO", 100,
  probation_fraction=0.05)`` forwards keyword parameters to the
  policy's constructor.  Unknown parameters raise ``TypeError`` naming
  the policy.
* **Alias resolution** -- lookups are case-insensitive and ignore
  separators (``"sieve"``, ``"fifo-reinsertion"``, ``"2bit-clock"``,
  ``"s3fifo"`` all resolve), plus a small table of spelled-out aliases
  (``"clock2"``, ``"second-chance"``, ``"optimal"``...).
* **Did-you-mean** -- a typo raises ``KeyError`` suggesting the
  closest registered names.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.base import EvictionPolicy, validate_capacity
from repro.core.adaptive_qd import AdaptiveQDLPFIFO
from repro.core.clock import FIFOReinsertion, KBitClock
from repro.core.lp_variants import PeriodicPromotionLRU, PromoteOldOnlyLRU
from repro.core.qd import QDCache
from repro.core.qdlpfifo import QDLPFIFO
from repro.core.s3fifo import S3FIFO
from repro.core.sieve import Sieve
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
from repro.policies.slru import SLRU
from repro.policies.twoq import TwoQ
from repro.policies.wtinylfu import WTinyLFU

#: Policy constructor: ``factory(capacity, **params)``.
Factory = Callable[..., EvictionPolicy]


@dataclass(frozen=True)
class PolicySpec:
    """Registry entry for one algorithm."""

    name: str
    factory: Factory
    category: str  # baseline | lp-fifo | sota | qd | offline | extension
    min_capacity: int = 1


def _qd(factory: Callable[[int], EvictionPolicy]) -> Factory:
    """Wrap a main-cache factory in the paper's QD configuration.

    The returned factory forwards ``probation_fraction`` and
    ``ghost_factor`` overrides to :class:`~repro.core.qd.QDCache`.
    """

    def build(capacity: int, **params: float) -> QDCache:
        return QDCache(capacity, factory, **params)

    return build


def _kbit_clock(default_bits: int) -> Factory:
    """CLOCK factory whose ``bits`` default matches the registered name."""

    def build(capacity: int, bits: int = default_bits) -> KBitClock:
        return KBitClock(capacity, bits=bits)

    return build


_SPECS: List[PolicySpec] = [
    # Baselines
    PolicySpec("FIFO", FIFO, "baseline"),
    PolicySpec("LRU", LRU, "baseline"),
    PolicySpec("LFU", LFU, "baseline"),
    PolicySpec("Random", RandomCache, "baseline"),
    PolicySpec("SLRU", SLRU, "baseline", min_capacity=2),
    PolicySpec("2Q", TwoQ, "baseline", min_capacity=2),
    PolicySpec("MQ", MQ, "baseline"),
    PolicySpec("LRFU", LRFU, "baseline"),
    PolicySpec("Hyperbolic", Hyperbolic, "baseline"),
    # Lazy-Promotion FIFO family (the paper's §3)
    PolicySpec("FIFO-Reinsertion", FIFOReinsertion, "lp-fifo"),
    PolicySpec("2-bit-CLOCK", _kbit_clock(2), "lp-fifo"),
    PolicySpec("3-bit-CLOCK", _kbit_clock(3), "lp-fifo"),
    PolicySpec("PeriodicPromotion-LRU", PeriodicPromotionLRU, "lp-fifo"),
    PolicySpec("PromoteOldOnly-LRU", PromoteOldOnlyLRU, "lp-fifo"),
    # State of the art (the five algorithms QD-enhanced in Fig. 5)
    PolicySpec("ARC", ARC, "sota"),
    PolicySpec("LIRS", LIRS, "sota", min_capacity=2),
    PolicySpec("CACHEUS", CACHEUS, "sota"),
    PolicySpec("LeCaR", LeCaR, "sota"),
    PolicySpec("LHD", LHD, "sota"),
    # QD-enhanced variants (paper §4, Fig. 4/5)
    PolicySpec("QD-ARC", _qd(ARC), "qd", min_capacity=2),
    PolicySpec("QD-LIRS", _qd(LIRS), "qd", min_capacity=3),
    PolicySpec("QD-CACHEUS", _qd(CACHEUS), "qd", min_capacity=2),
    PolicySpec("QD-LeCaR", _qd(LeCaR), "qd", min_capacity=2),
    PolicySpec("QD-LHD", _qd(LHD), "qd", min_capacity=2),
    PolicySpec("QD-LP-FIFO", QDLPFIFO, "qd", min_capacity=2),
    # Offline optimal
    PolicySpec("Belady", Belady, "offline"),
    # Extensions this paper spawned
    PolicySpec("S3-FIFO", S3FIFO, "extension", min_capacity=2),
    PolicySpec("W-TinyLFU", WTinyLFU, "extension", min_capacity=2),
    PolicySpec("Adaptive-QD-LP-FIFO", AdaptiveQDLPFIFO, "extension",
               min_capacity=3),
    PolicySpec("SIEVE", Sieve, "extension"),
]

REGISTRY: Dict[str, PolicySpec] = {spec.name: spec for spec in _SPECS}

#: The five state-of-the-art algorithms of the paper's Fig. 5.
SOTA_NAMES = ["ARC", "LIRS", "CACHEUS", "LeCaR", "LHD"]

#: Spelled-out aliases whose normalised form differs from any canonical
#: name.  Normalisation (lowercase, separators stripped) already covers
#: spellings like "sieve", "fifo-reinsertion", "2bit-clock" or "s3fifo".
ALIASES: Dict[str, str] = {
    "clock": "2-bit-CLOCK",
    "clock2": "2-bit-CLOCK",
    "clock3": "3-bit-CLOCK",
    "secondchance": "FIFO-Reinsertion",
    "1bitclock": "FIFO-Reinsertion",
    "fiforeinsert": "FIFO-Reinsertion",
    "opt": "Belady",
    "optimal": "Belady",
    "min": "Belady",
    "tinylfu": "W-TinyLFU",
    "qdlpfifo": "QD-LP-FIFO",
    "rand": "Random",
}

_SEPARATORS = str.maketrans("", "", "-_ ./")


def _normalize(name: str) -> str:
    """Canonicalise a lookup key: lowercase, separators stripped."""
    return name.lower().translate(_SEPARATORS)


_LOOKUP: Dict[str, PolicySpec] = {}
for _spec in _SPECS:
    _LOOKUP[_normalize(_spec.name)] = _spec
for _alias, _target in ALIASES.items():
    _LOOKUP.setdefault(_normalize(_alias), REGISTRY[_target])


# ----------------------------------------------------------------------
# Size-aware (byte-budgeted) policies: same registry machinery
# ----------------------------------------------------------------------

def _sized(factory: Factory) -> Factory:
    """Build through *factory*, naming the policy ``Sized-<name>``.

    The sized names build the same classes as their unsized ones; only
    the printed name tells a byte-budgeted instance apart.
    """

    def build(capacity: int, **params: object) -> EvictionPolicy:
        policy = factory(capacity, **params)
        policy.name = f"Sized-{policy.name}"
        return policy

    return build


_SIZED_SPECS: List[PolicySpec] = [
    PolicySpec("Sized-FIFO", _sized(FIFO), "sized"),
    PolicySpec("Sized-LRU", _sized(LRU), "sized"),
    PolicySpec("Sized-2-bit-CLOCK", _sized(_kbit_clock(2)), "sized"),
    PolicySpec("Sized-3-bit-CLOCK", _sized(_kbit_clock(3)), "sized"),
    PolicySpec("GDSF", GDSF, "sized"),
    PolicySpec("Sized-QD-LP-FIFO", _sized(QDLPFIFO), "sized", min_capacity=2),
    PolicySpec("Sized-QD-GDSF", _sized(_qd(GDSF)), "sized", min_capacity=2),
]

SIZED_REGISTRY: Dict[str, PolicySpec] = {
    spec.name: spec for spec in _SIZED_SPECS}

#: Unsized canonical name -> its size-aware counterpart, letting every
#: unsized spelling (and alias -- ``clock``, ``qdlpfifo``, ...) resolve
#: through the one alias table: ``make_sized("lru", ...)`` works.
SIZED_COUNTERPARTS: Dict[str, str] = {
    "FIFO": "Sized-FIFO",
    "LRU": "Sized-LRU",
    "2-bit-CLOCK": "Sized-2-bit-CLOCK",
    "3-bit-CLOCK": "Sized-3-bit-CLOCK",
    "QD-LP-FIFO": "Sized-QD-LP-FIFO",
}

#: Spelled-out sized aliases beyond case/separator normalisation.
SIZED_ALIASES: Dict[str, str] = {
    "sizedclock": "Sized-2-bit-CLOCK",
    "greedydualsizefrequency": "GDSF",
    "greedydualsize": "GDSF",
    "qdgdsf": "Sized-QD-GDSF",
}

_SIZED_LOOKUP: Dict[str, PolicySpec] = {}
for _spec in _SIZED_SPECS:
    _SIZED_LOOKUP[_normalize(_spec.name)] = _spec
for _alias, _target in SIZED_ALIASES.items():
    _SIZED_LOOKUP.setdefault(_normalize(_alias), SIZED_REGISTRY[_target])


def resolve_sized(name: str) -> PolicySpec:
    """Look up a size-aware policy through the unified registry.

    *name* may be a canonical sized name (``Sized-LRU``, ``GDSF``), any
    case/separator variant, a sized alias, **or any unsized spelling**
    (canonical or alias: ``lru``, ``clock``, ``qd_lp_fifo``) that has a
    size-aware counterpart.  Raises ``KeyError`` with did-you-mean
    suggestions on a typo, or naming the missing counterpart when the
    unsized policy has no size-aware build.
    """
    spec = _SIZED_LOOKUP.get(_normalize(name))
    if spec is not None:
        return spec
    # An unsized spelling (name or alias) with a sized counterpart?
    unsized = _LOOKUP.get(_normalize(name))
    if unsized is not None:
        counterpart = SIZED_COUNTERPARTS.get(unsized.name)
        if counterpart is not None:
            return SIZED_REGISTRY[counterpart]
        raise KeyError(
            f"policy {unsized.name!r} has no size-aware counterpart "
            f"(sized policies: {', '.join(sorted(SIZED_REGISTRY))})")
    candidates = set(_SIZED_LOOKUP) | {
        _normalize(n) for n in SIZED_COUNTERPARTS}
    close = difflib.get_close_matches(_normalize(name), candidates, n=3,
                                      cutoff=0.6)
    suggestions = sorted({
        _SIZED_LOOKUP[c].name if c in _SIZED_LOOKUP
        else SIZED_REGISTRY[SIZED_COUNTERPARTS[_LOOKUP[c].name]].name
        for c in close})
    hint = (f"; did you mean {' or '.join(repr(s) for s in suggestions)}?"
            if suggestions else "")
    known = ", ".join(sorted(SIZED_REGISTRY))
    raise KeyError(
        f"unknown sized policy {name!r}{hint} "
        f"(known sized policies: {known})")


def make_sized(name: str, capacity_bytes: int,
               **params: object) -> EvictionPolicy:
    """Instantiate the size-aware policy registered under *name*.

    The byte-budget twin of :func:`make`: same alias resolution, same
    did-you-mean errors, same parameter passthrough (``bits`` for the
    sized CLOCK family, ``probation_fraction``/``ghost_factor`` for the
    sized QD wrappers).  Unsized spellings resolve to their sized
    counterpart, so ``make_sized("lru", 1 << 20)`` builds an ``LRU``
    with a 1 MiB budget, named ``Sized-LRU``; feed it
    ``request(key, size)``.
    """
    return _build(resolve_sized(name), capacity_bytes, "capacity_bytes",
                  params)


def canonical_sized_name(name: str) -> str:
    """The sized registry name *name* resolves to (e.g. ``lru`` -> ``Sized-LRU``)."""
    return resolve_sized(name).name


def sized_names() -> List[str]:
    """All registered size-aware policy names."""
    return [spec.name for spec in _SIZED_SPECS]


def resolve(name: str) -> PolicySpec:
    """Look up *name* (canonical, any case/separator variant, or alias).

    Raises ``KeyError`` with did-you-mean suggestions on a typo.
    """
    spec = _LOOKUP.get(_normalize(name))
    if spec is not None:
        return spec
    close = difflib.get_close_matches(_normalize(name), _LOOKUP, n=3,
                                      cutoff=0.6)
    suggestions = sorted({_LOOKUP[c].name for c in close})
    hint = (f"; did you mean {' or '.join(repr(s) for s in suggestions)}?"
            if suggestions else "")
    known = ", ".join(sorted(REGISTRY))
    raise KeyError(
        f"unknown policy {name!r}{hint} (known policies: {known})")


def canonical_name(name: str) -> str:
    """The registered name *name* resolves to (e.g. ``clock2`` -> ``2-bit-CLOCK``)."""
    return resolve(name).name


def make(name: str, capacity: int, **params: object) -> EvictionPolicy:
    """Instantiate the policy registered under *name*.

    *name* may be a canonical name, any case/separator variant of one,
    or an alias from :data:`ALIASES`.  Keyword *params* are forwarded to
    the policy's constructor (e.g. ``bits`` for the CLOCK family,
    ``probation_fraction``/``ghost_factor`` for the QD family).

    Raises ``KeyError`` with did-you-mean suggestions on a typo,
    ``ValueError`` when *capacity* is below the policy's minimum, and
    ``TypeError`` naming the policy when it rejects a parameter.
    """
    return _build(resolve(name), capacity, "capacity", params)


def _build(spec: PolicySpec, capacity: object, what: str,
           params: Dict[str, object]) -> EvictionPolicy:
    """Validate *capacity*, check *spec*'s minimum, then build.

    A plain ``int`` needs only the minimum check (every minimum is at
    least 1); anything else goes through :func:`validate_capacity`
    first, so ``"10"``, ``None``, ``True`` and ``2.5`` fail with its
    message instead of a comparison error.
    """
    if isinstance(capacity, bool) or not isinstance(capacity, int):
        capacity = validate_capacity(capacity, what=what)
    if capacity < spec.min_capacity:
        raise ValueError(
            f"{spec.name} needs {what} >= {spec.min_capacity}, "
            f"got {capacity}")
    try:
        return spec.factory(capacity, **params)
    except TypeError as exc:
        if params:
            raise TypeError(
                f"policy {spec.name!r} rejected parameters "
                f"{sorted(params)}: {exc}") from exc
        raise


def names(category: Optional[str] = None) -> List[str]:
    """All registered names, optionally filtered by category."""
    if category is None:
        return [spec.name for spec in _SPECS]
    return [spec.name for spec in _SPECS if spec.category == category]


__all__ = [
    "PolicySpec",
    "REGISTRY",
    "ALIASES",
    "SOTA_NAMES",
    "make",
    "resolve",
    "canonical_name",
    "names",
    "Factory",
    "SIZED_REGISTRY",
    "SIZED_ALIASES",
    "SIZED_COUNTERPARTS",
    "make_sized",
    "resolve_sized",
    "canonical_sized_name",
    "sized_names",
]
