"""Topology-epoch-keyed cache of link geometry for the radio medium.

The SINR hot path asks the same question over and over: *what does station
``rx`` hear when ``tx`` transmits?*  For a stationary deployment the answer
— path loss over the pair distance plus the frozen log-normal shadowing
term — never changes, yet the seed code recomputed it for every frame and
every interferer.  :class:`LinkCache` memoises the per-pair terms and keys
the whole cache on the :attr:`~repro.env.world.World.epoch` counter, which
the world bumps on every ``place``/``move``.  Stationary rooms compute link
geometry exactly once.  Mobile rooms recompute a link on its first use
after every mobility step, so where most links carry about one frame per
step the cache saves little: the seed-0 moving crowd of the benchmark
(300 stations, a step every 0.5 s) misses 65,157 times in 39,332 decode
attempts, 45,555 of them on interferer terms of the SINR sum.

On top of the pair terms the cache hands out one :class:`LinkRecord` per
*directed* ``(tx, rx)`` pair.  A record is built on the same lookup that
needs the pair terms and carries the per-frame answers the medium derives
from them (received power, audibility, clean-channel FER, rate choice), so
a stationary link's per-frame work is attribute reads and small-dict
probes.

Invalidation rule (documented in ``docs/performance.md``): the cache is
valid exactly while ``world.epoch`` is unchanged.  Any placement or move
invalidates *everything* — pair terms and records alike — coarse, but
checking one integer per lookup is what keeps the hit path to a dict probe.
The :class:`~repro.env.radio.PropagationModel` parameters are read only on
a miss, so they must be set before the first lookup.

Loss and shadowing are stored separately so a cached
``rx_power_dbm`` is bit-identical to the uncached
``tx_power - loss - shadow`` evaluation order of
:meth:`~repro.env.radio.PropagationModel.received_power_dbm`.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from .radio import PropagationModel
from .world import World


class LinkRecord:
    """One directed link ``tx -> rx``, valid for one topology epoch.

    ``loss`` and ``shadow`` are the pair terms.  Everything else is
    derived for the transmit power in ``power`` (dBm) and rebuilt by
    :meth:`rebase` whenever a caller asks at a different power:

    * ``dbm`` / ``mw`` — received power, ``power - loss - shadow`` and
      ``10 ** (dbm / 10)``;
    * ``audible`` — the medium's audibility verdict, valid while
      ``audible_epoch`` equals the medium's configuration epoch;
    * ``memo`` — None until first used, then one dict holding both
      kinds of per-frame answer, told apart by key type:
      ``wire_bytes -> (rate, sinr_db, fer)`` is the interference-free
      decode result (valid for the rate stored with it) and
      ``(wire_bytes, fer_target) -> rate`` is the rate-adaptation choice.

    Only deterministic arithmetic lives here; random draws stay per frame.
    """

    __slots__ = ("loss", "shadow", "power", "dbm", "mw", "audible_epoch",
                 "audible", "memo")

    def __init__(self, loss: float, shadow: float,
                 tx_power_dbm: float) -> None:
        self.loss = loss
        self.shadow = shadow
        self.rebase(tx_power_dbm)

    def rebase(self, tx_power_dbm: float) -> None:
        """Derive received power for ``tx_power_dbm`` and drop every
        answer computed at the previous power."""
        self.power = tx_power_dbm
        self.dbm = dbm = tx_power_dbm - self.loss - self.shadow
        self.mw = 10.0 ** (dbm / 10.0)
        self.audible_epoch = -1
        self.audible = False
        # Allocated on first use: in a moving crowd most records live
        # for one frame and never memoise anything.
        self.memo = None


class LinkCache:
    """Per-pair link attenuation, invalidated by world topology epoch.

    Both terms are symmetric (distance and frozen shadowing), so pairs are
    keyed unordered and each link is computed once per epoch; the directed
    :class:`LinkRecord` objects built over them are keyed ``(tx, rx)``.
    """

    __slots__ = ("world", "propagation", "_epoch", "_links", "_records",
                 "hits", "misses", "invalidations")

    def __init__(self, world: World, propagation: PropagationModel) -> None:
        self.world = world
        self.propagation = propagation
        self._epoch = world.epoch
        #: unordered (a, b) -> (path_loss_db, shadowing_db)
        self._links: Dict[Tuple[str, str], Tuple[float, float]] = {}
        #: tx -> rx -> LinkRecord, or False after one lookup (nested, so
        #: a lookup builds no key tuple)
        self._records: Dict[str, Dict[str, Union[LinkRecord, bool]]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._links.clear()
        self._records.clear()
        self._epoch = self.world._epoch
        self.invalidations += 1

    def _terms(self, a: str, b: str) -> Tuple[float, float]:
        if self.world._epoch != self._epoch:
            self._invalidate()
        key = (a, b) if a <= b else (b, a)
        terms = self._links.get(key)
        if terms is None:
            self.misses += 1
            prop = self.propagation
            terms = (prop.path_loss_scalar_db(self.world.distance_between(a, b)),
                     prop.shadowing_db(a, b))
            self._links[key] = terms
        else:
            self.hits += 1
        return terms

    def link(self, tx: str, rx: str, tx_power_dbm: float) -> LinkRecord:
        """The directed record ``tx -> rx``, derived at ``tx_power_dbm``.

        Each call counts one cache hit or miss: a missing record is built
        from the pair terms, and only a pair-terms miss counts as a miss.
        A record is kept from the second lookup of its pair within an
        epoch: the first lookup leaves a ``False`` marker and hands out a
        record nobody retains.  Where every link is used once per epoch
        (a moving crowd) records then never pile up for the garbage
        collector; a stationary room pays one extra build per link.
        """
        if self.world._epoch != self._epoch:
            self._invalidate()
        row = self._records.get(tx)
        if row is None:
            row = self._records[tx] = {}
        record = row.get(rx)
        if record:
            self.hits += 1
            if record.power != tx_power_dbm:
                record.rebase(tx_power_dbm)
            return record
        loss, shadow = self._terms(tx, rx)
        built = LinkRecord(loss, shadow, tx_power_dbm)
        row[rx] = built if record is False else False
        return built

    def rx_power_dbm(self, tx_power_dbm: float, tx: str, rx: str) -> float:
        """Received power in dBm over the cached link."""
        loss, shadow = self._terms(tx, rx)
        return tx_power_dbm - loss - shadow

    def attenuation_db(self, a: str, b: str) -> float:
        """Total attenuation (path loss + shadowing) for the pair ``{a, b}``."""
        loss, shadow = self._terms(a, b)
        return loss + shadow

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for benchmarks and ``BENCH_*.json`` reporting."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
            "cached_links": len(self._links),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LinkCache epoch={self._epoch} links={len(self._links)} "
                f"hit_rate={self.hit_rate:.2f}>")
