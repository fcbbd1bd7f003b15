"""The routing API: where a request runs, and with whom it may share.

``InterferenceServer``'s dispatcher used to key micro-batches on a
hardcoded ``(type, measure, method)`` tuple built inline. That implicit
tuple is now a public, frozen :class:`RouteKey` produced by a
:class:`Router` — the seam both the single-process micro-batcher
(:class:`LaneRouter`) and the multi-process shard router
(:class:`repro.cluster.ClusterRouter`) implement, so "which lane
coalesces" and "which shard owns this region" are answers to the same
question asked of different routers.

Semantics
---------
Two requests may share one executor dispatch iff their route keys are
equal. :class:`RouteKey` equality is plain dataclass equality, so the
contract is visible in the fields:

- ``kind`` — the request type; batches never mix kinds.
- ``measure`` / ``method`` — the kernel options a fused interference
  batch must agree on (``None`` for kinds without them).
- ``token`` — a unique serial for non-batchable requests; a non-``None``
  token makes the key equal to nothing else, which *is* the
  "dispatch individually" behavior.
- ``shard`` — owning shard index in a cluster (``None`` single-process).
  Keys for different shards never compare equal, so a shard router gets
  per-shard batching for free.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.serve.protocol import BATCHABLE_TYPES


@dataclass(frozen=True, kw_only=True)
class RouteKey:
    """Batching/shard-compatibility key (see module docstring).

    Frozen and hashable: route keys are dict keys and set members in
    dispatcher internals, and equal keys *mean* "may share a dispatch".
    """

    kind: str
    measure: str | None = None
    method: str | None = None
    token: int | None = None
    shard: int | None = None

    @property
    def batchable(self) -> bool:
        """Whether this key can ever match another request's key."""
        return self.token is None


class Router(ABC):
    """Maps a request to its :class:`RouteKey` (and, for clusters, to the
    shard(s) that must execute it)."""

    @abstractmethod
    def route(self, kind: str, params: dict) -> RouteKey:
        """The dispatch-compatibility key for one request."""

    def targets(self, kind: str, params: dict) -> tuple[int, ...]:
        """Shard indices that must participate in this request.

        The single-process default is the one implicit shard, ``(0,)``.
        Cluster routers return every owner of the query region.
        """
        return (0,)


class LaneRouter(Router):
    """The single-shard router: exactly the dispatcher's old lane law.

    Batchable kinds key on ``(kind, measure, method)`` — requests whose
    kernel options agree may fuse into one ``node_interference_many``
    dispatch. Everything else gets a unique ``token`` and is dispatched
    alone. Differential-tested against the legacy tuple in
    ``tests/test_serve_routing.py``.
    """

    def __init__(self) -> None:
        self._tokens = itertools.count()

    def route(self, kind: str, params: dict) -> RouteKey:
        if kind in BATCHABLE_TYPES:
            return RouteKey(
                kind=kind,
                measure=params.get("measure", "graph"),
                method=params.get("method", "auto"),
            )
        return RouteKey(kind=kind, token=next(self._tokens))
