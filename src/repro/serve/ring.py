"""Consistent-hash ring: deterministic cell placement across nodes.

The cluster's one routing decision -- *which node owns this cell* -- is
made here, identically on every node, from nothing but the member list.
Nodes are identified by their advertised base URL, each projected onto a
64-bit ring at ``vnodes`` pseudo-random positions (sha-256 of
``"<node>#<i>"``), and a cell's content address is projected the same
way; the owner is the first virtual node clockwise.  Because every node
computes placement from the same member list, no coordination traffic
exists: a node receiving a sweep simply forwards each non-owned cell to
the node the ring names (:mod:`repro.serve.service`).

Properties the tests pin down (``tests/serve/test_ring.py``):

* **determinism** -- two rings built from the same members agree on
  every key, regardless of insertion order;
* **minimal movement** -- adding a node moves only the keys that node
  now owns (roughly ``1/n`` of them), and removing a node moves only
  the keys it owned; everything else stays put, so a membership change
  reshuffles only that share instead of the whole grid;
* **replica ordering** -- :meth:`HashRing.replicas` walks clockwise
  from the owner and yields *distinct* nodes, so an N-way replica set
  is stable and starts with the owner.

Content addresses already are uniformly distributed hex digests, but
keys are re-hashed anyway so the ring never depends on the store's key
format.
"""

from __future__ import annotations

import bisect
import hashlib

#: Virtual nodes per member.  More vnodes = smoother balance at the cost
#: of a larger (still tiny) sorted table; 64 keeps the owner-count
#: spread within a few percent for small clusters.
DEFAULT_VNODES = 64


def _position(token: str) -> int:
    """Project a token onto the 64-bit ring."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A sorted table of virtual-node positions over the member set."""

    def __init__(
        self, nodes: list[str] | tuple[str, ...] = (), vnodes: int = DEFAULT_VNODES
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        #: position -> node, with the positions mirrored into a sorted
        #: list for bisection.
        self._table: dict[int, str] = {}
        self._positions: list[int] = []
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[str]:
        """The member list, sorted (order never affects placement)."""
        return sorted(set(self._table.values()))

    def add(self, node: str) -> None:
        """Add a member (idempotent)."""
        if not node:
            raise ValueError("node id must be non-empty")
        for i in range(self.vnodes):
            position = _position(f"{node}#{i}")
            # Position collisions between distinct nodes are a 2^-64
            # event; deterministic tie-break on the node id keeps even
            # that case identical across the cluster.
            holder = self._table.get(position)
            if holder is not None and holder <= node:
                continue
            if holder is None:
                bisect.insort(self._positions, position)
            self._table[position] = node

    def remove(self, node: str) -> None:
        """Remove a member (idempotent); its keys fall to successors."""
        stale = [p for p, n in self._table.items() if n == node]
        for position in stale:
            del self._table[position]
            index = bisect.bisect_left(self._positions, position)
            del self._positions[index]

    # ------------------------------------------------------------------
    def owner(self, key: str) -> str:
        """The node that owns ``key`` (first vnode clockwise)."""
        if not self._positions:
            raise ValueError("ring has no nodes")
        index = bisect.bisect_right(self._positions, _position(key))
        if index == len(self._positions):
            index = 0  # wrap: the ring is circular
        return self._table[self._positions[index]]

    def replicas(self, key: str, n: int) -> list[str]:
        """The first ``n`` *distinct* nodes clockwise from ``key``.

        ``replicas(key, 1) == [owner(key)]``; with fewer than ``n``
        members the whole member set is returned (owner first).
        """
        if not self._positions:
            raise ValueError("ring has no nodes")
        out: list[str] = []
        start = bisect.bisect_right(self._positions, _position(key))
        for step in range(len(self._positions)):
            position = self._positions[(start + step) % len(self._positions)]
            node = self._table[position]
            if node not in out:
                out.append(node)
                if len(out) == n:
                    break
        return out

    def owns(self, key: str, node: str) -> bool:
        """Whether ``node`` is ``key``'s owner under this ring."""
        return self.owner(key) == node
