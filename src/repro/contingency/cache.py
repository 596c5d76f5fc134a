"""Composite-key contingency result cache.

The paper caches each outage evaluation "under a composite key (case +
outage + diff hash)" so repeated or incremental studies only recompute
affected layers.  The diff hash here is :meth:`Network.content_hash`, a
digest of the exported network (loads, topology, dispatch, limits), so
any modification made through the :class:`~repro.grid.network.Network`
API invalidates stale entries.  An outcome's overload and
voltage-violation lists also depend on the limits they were judged
against, so the key carries ``(vmin, vmax, overload_threshold)`` too: a
sweep at another threshold misses instead of reusing lists judged at
this one.  :func:`~repro.contingency.nminus1.run_n_minus_1` is the one
sweep that consults the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..cache import BoundedStore
from ..grid.network import Network
from .outcomes import ContingencyOutcome


#: The network's content digest as a function of the network.
network_content_hash = Network.content_hash


@dataclass(frozen=True)
class CacheKey:
    case_name: str
    content_hash: str
    branch_id: int
    vmin: float
    vmax: float
    overload_threshold: float


class ContingencyCache(BoundedStore[CacheKey, ContingencyOutcome]):
    """In-memory outcome cache with hit/miss instrumentation.

    Holds at most :attr:`MAX_ENTRIES` outcomes under the shared eviction
    rule of :class:`~repro.cache.BoundedStore`: load-perturbation
    ensembles give every scenario a distinct content hash, so the cache
    would otherwise grow without bound while never hitting.  The limits
    default to :func:`~repro.contingency.nminus1.analyze_single_outage`'s.
    """

    MAX_ENTRIES: ClassVar[int] = 20_000

    def __init__(self) -> None:
        super().__init__(self.MAX_ENTRIES)

    @staticmethod
    def key_for(net: Network, branch_id: int, vmin=0.94, vmax=1.06, overload_threshold=100.0):
        return CacheKey(net.name, net.content_hash(), branch_id, vmin, vmax, overload_threshold)

    def get(self, net: Network, branch_id: int, **limits) -> ContingencyOutcome | None:
        return super().get(self.key_for(net, branch_id, **limits))

    def put(self, net: Network, outcome: ContingencyOutcome, **limits) -> None:
        super().put(self.key_for(net, outcome.branch_id, **limits), outcome)

    def put_many(self, net: Network, outcomes: list[ContingencyOutcome], **limits) -> None:
        for o in outcomes:
            self.put(net, o, **limits)

    def lookup_sweep(
        self, net: Network, branch_ids: list[int], **limits
    ) -> tuple[dict[int, ContingencyOutcome], list[int]]:
        """Split a sweep into (cached outcomes, ids still to compute).

        The content hash is serialised once per network version, so a
        lookup costs one dict probe per outage.
        """
        found: dict[int, ContingencyOutcome] = {}
        missing: list[int] = []
        for bid in branch_ids:
            out = self.get(net, bid, **limits)
            if out is None:
                missing.append(bid)
            else:
                found[bid] = out
        return found, missing

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }
