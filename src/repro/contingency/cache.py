"""Composite-key contingency result cache.

The paper caches each outage evaluation "under a composite key (case +
outage + diff hash)" so repeated or incremental studies only recompute
affected layers.  The diff hash here is a content hash of the exported
network (loads, topology, dispatch, limits), so any modification made
through the :class:`~repro.grid.network.Network` API safely invalidates
stale entries.  The digest is memoised behind the network's mutation
counter; direct component edits that bypass the API must call
``Network.touch()`` (the contract ``Network`` itself documents), or the
memo — like the compiled solver views — will serve pre-edit state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import ClassVar

from ..grid.io import to_matpower
from ..grid.network import Network
from .outcomes import ContingencyOutcome


def network_content_hash(net: Network) -> str:
    """Stable hash of everything that affects contingency outcomes.

    Serialising a 300-bus network to MATPOWER JSON dominates cache-lookup
    cost in hot screening loops, so the digest is memoised on the network
    behind its mutation counter: recomputed only after a ``touch``.
    """
    memo = getattr(net, "_content_hash_memo", None)
    if memo is not None and memo[0] == net.version:
        return memo[1]
    payload = to_matpower(net)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
    net._content_hash_memo = (net.version, digest)
    return digest


@dataclass(frozen=True)
class CacheKey:
    case_name: str
    content_hash: str
    branch_id: int


@dataclass
class ContingencyCache:
    """In-memory outcome cache with hit/miss instrumentation.

    A put that finds :attr:`MAX_ENTRIES` outcomes stored drops them all
    first, the rule :class:`~repro.scenarios.runner.TopologyCache`
    applies: load-perturbation ensembles give every scenario a distinct
    content hash, so the cache would otherwise grow without bound while
    never hitting (reuse is an optimisation, not state).  Hit and miss
    counts survive the drop; :meth:`clear` resets them too.
    """

    MAX_ENTRIES: ClassVar[int] = 20_000

    _store: dict[CacheKey, ContingencyOutcome] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def key_for(self, net: Network, branch_id: int) -> CacheKey:
        return CacheKey(net.metadata.case_name, network_content_hash(net), branch_id)

    def get(self, net: Network, branch_id: int) -> ContingencyOutcome | None:
        key = self.key_for(net, branch_id)
        hit = self._store.get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def _make_room(self) -> None:
        if len(self._store) >= self.MAX_ENTRIES:
            self._store.clear()

    def put(self, net: Network, outcome: ContingencyOutcome) -> None:
        self._make_room()
        self._store[self.key_for(net, outcome.branch_id)] = outcome

    def put_many(self, net: Network, outcomes: list[ContingencyOutcome]) -> None:
        self._make_room()
        content = network_content_hash(net)
        name = net.metadata.case_name
        for o in outcomes:
            self._store[CacheKey(name, content, o.branch_id)] = o

    def lookup_sweep(
        self, net: Network, branch_ids: list[int]
    ) -> tuple[dict[int, ContingencyOutcome], list[int]]:
        """Split a sweep into (cached outcomes, ids still to compute).

        One content hash is computed for the whole lookup — the hash is
        the expensive part, not the dict probes.
        """
        content = network_content_hash(net)
        name = net.metadata.case_name
        found: dict[int, ContingencyOutcome] = {}
        missing: list[int] = []
        for bid in branch_ids:
            out = self._store.get(CacheKey(name, content, bid))
            if out is None:
                self.misses += 1
                missing.append(bid)
            else:
                self.hits += 1
                found[bid] = out
        return found, missing

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    @property
    def size(self) -> int:
        return len(self._store)

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "entries": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
        }
