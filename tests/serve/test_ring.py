"""The consistent-hash ring: determinism, minimal movement, replicas."""

from __future__ import annotations

import hashlib

import pytest

from repro.serve.ring import DEFAULT_VNODES, HashRing

NODES = [f"http://10.0.0.{i}:8712" for i in range(1, 6)]


def sample_keys(count: int = 400) -> list[str]:
    """Deterministic content-address-shaped keys."""
    return [
        hashlib.sha256(f"cell-{i}".encode()).hexdigest()[:40]
        for i in range(count)
    ]


class TestPlacement:
    def test_owner_is_deterministic_across_instances(self):
        a = HashRing(NODES)
        b = HashRing(NODES)
        for key in sample_keys():
            assert a.owner(key) == b.owner(key)

    def test_owner_ignores_insertion_order(self):
        forward = HashRing(NODES)
        backward = HashRing(list(reversed(NODES)))
        for key in sample_keys():
            assert forward.owner(key) == backward.owner(key)

    def test_every_node_owns_something(self):
        ring = HashRing(NODES)
        owners = {ring.owner(key) for key in sample_keys()}
        assert owners == set(NODES)

    def test_add_is_idempotent(self):
        ring = HashRing(NODES)
        before = [ring.owner(key) for key in sample_keys()]
        ring.add(NODES[0])
        assert [ring.owner(key) for key in sample_keys()] == before

    def test_owns_matches_owner(self):
        ring = HashRing(NODES)
        for key in sample_keys(50):
            owner = ring.owner(key)
            for node in NODES:
                assert ring.owns(key, node) == (node == owner)

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError, match="no nodes"):
            HashRing().owner(sample_keys(1)[0])


class TestMinimalMovement:
    def test_join_only_moves_keys_to_the_new_node(self):
        """Adding a member must never shuffle keys between old members
        -- the property that makes a join move one share of the keys
        instead of a full reshard."""
        keys = sample_keys()
        ring = HashRing(NODES)
        before = {key: ring.owner(key) for key in keys}
        newcomer = "http://10.0.0.99:8712"
        ring.add(newcomer)
        moved = 0
        for key in keys:
            after = ring.owner(key)
            if after != before[key]:
                assert after == newcomer
                moved += 1
        # The newcomer picked up roughly 1/(N+1) of the keys; allow a
        # wide band, but it must take *some* and nowhere near all.
        assert 0 < moved < len(keys) // 2

    def test_leave_only_moves_the_dead_nodes_keys(self):
        keys = sample_keys()
        ring = HashRing(NODES)
        before = {key: ring.owner(key) for key in keys}
        victim = NODES[2]
        ring.remove(victim)
        for key in keys:
            if before[key] == victim:
                assert ring.owner(key) != victim
            else:
                assert ring.owner(key) == before[key]

    def test_join_then_leave_round_trips(self):
        keys = sample_keys()
        ring = HashRing(NODES)
        before = {key: ring.owner(key) for key in keys}
        ring.add("http://10.0.0.99:8712")
        ring.remove("http://10.0.0.99:8712")
        assert {key: ring.owner(key) for key in keys} == before


class TestReplicas:
    def test_replicas_are_distinct_and_start_with_the_owner(self):
        ring = HashRing(NODES)
        for key in sample_keys(100):
            replicas = ring.replicas(key, 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.owner(key)

    def test_replica_order_is_deterministic(self):
        a = HashRing(NODES)
        b = HashRing(list(reversed(NODES)))
        for key in sample_keys(100):
            assert a.replicas(key, 3) == b.replicas(key, 3)

    def test_replicas_cap_at_member_count(self):
        ring = HashRing(NODES[:2])
        for key in sample_keys(20):
            replicas = ring.replicas(key, 5)
            assert sorted(replicas) == sorted(NODES[:2])


class TestShape:
    def test_vnode_count(self):
        ring = HashRing(NODES[:1])
        assert len(ring._positions) == DEFAULT_VNODES

    def test_nodes_property_sorted(self):
        assert HashRing(list(reversed(NODES))).nodes == sorted(NODES)
