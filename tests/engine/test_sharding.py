"""Partition-layer tests: hash ownership, edge ids, shard reassembly.

The invariants under test are the ones the whole sharded tier rests on:

* :func:`~repro.engine.sharded.owner_of` is a **disjoint cover** — every
  node gets exactly one rank — for every shard count;
* :func:`~repro.engine.sharded.edge_ids` is **symmetric** in its
  endpoints (both owners of a boundary edge agree on its identity) and
  salt-separated from the owner hash;
* the per-rank CSR shards of :func:`~repro.engine.sharded.
  build_shard_plan` **reassemble to the original adjacency** — across
  all sixteen topology-zoo families, every tested shard count, and the
  degenerate shapes (``P > n``, empty ranks, edgeless graphs).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.engine.sharded import (
    build_shard_plan,
    edge_ids,
    hash64,
    owner_of,
)
from repro.errors import ConfigurationError
from repro.graphs import (
    Topology,
    build_family_graph,
    gnp_graph,
    topology_families,
)

FAMILY_NAMES = tuple(family.name for family in topology_families())


def small_topology(family: str, seed: int = 7) -> Topology:
    """A small zoo graph of the given family.

    ``n = 16`` satisfies every family's size constraint at once — a
    power of two (hypercube), a multiple of degree+1 = 4 (expander), a
    perfect square (grid/torus) — except the complete binary ``tree``,
    which needs ``n = 2^k - 1``.
    """
    n = 15 if family == "tree" else 16
    return Topology(build_family_graph(family, n, seed=seed))


class TestHash64:
    @given(st.integers(0, 2**62), st.integers(0, 2**62))
    @settings(max_examples=60)
    def test_deterministic(self, value, other):
        assert hash64(value) == hash64(value)
        if value != other:
            # splitmix64 is a bijection per salt: distinct inputs give
            # distinct outputs, so ownership never aliases nodes.
            assert hash64(value) != hash64(other)

    def test_salt_separates_streams(self):
        values = np.arange(64)
        assert not np.array_equal(hash64(values, "owner"), hash64(values, "eid"))

    def test_shapes_preserved(self):
        assert hash64(5).shape == ()
        assert hash64([1, 2, 3]).shape == (3,)
        assert hash64(np.arange(6).reshape(2, 3)).shape == (2, 3)
        assert hash64(np.arange(0)).shape == (0,)


class TestOwnerOf:
    @given(
        st.integers(min_value=1, max_value=11),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=80)
    def test_disjoint_cover_every_p(self, shards, n):
        owner = owner_of(np.arange(n), shards)
        # Cover: every node has an owner in range.  Disjoint: owner_of is
        # a function, so one rank per node by construction — the check
        # that matters is that the rank is always valid.
        assert owner.shape == (n,)
        assert ((owner >= 0) & (owner < shards)).all()

    def test_stable_across_calls_and_shapes(self):
        nodes = np.arange(1000)
        assert np.array_equal(owner_of(nodes, 7), owner_of(nodes, 7))
        scalar = [int(owner_of(v, 7)) for v in range(20)]
        assert scalar == list(owner_of(np.arange(20), 7))

    def test_roughly_balanced(self):
        counts = np.bincount(owner_of(np.arange(100_000), 4), minlength=4)
        assert counts.min() > 20_000  # hash balance, not exact quarters

    @pytest.mark.parametrize("shards", [0, -1])
    def test_invalid_shards_rejected(self, shards):
        with pytest.raises(ConfigurationError):
            owner_of(np.arange(4), shards)


class TestEdgeIds:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80)
    def test_symmetric(self, u, v):
        assert edge_ids(u, v) == edge_ids(v, u)

    def test_vectorised_symmetry(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 1 << 40, size=500)
        v = rng.integers(0, 1 << 40, size=500)
        assert np.array_equal(edge_ids(u, v), edge_ids(v, u))

    def test_distinct_edges_distinct_ids(self):
        n = 60
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        ids = edge_ids([p[0] for p in pairs], [p[1] for p in pairs])
        assert len(np.unique(ids)) == len(pairs)


def reassemble(plan, n: int) -> sp.csr_matrix:
    """Rebuild the global adjacency from a plan's per-rank CSR shards."""
    rows, cols = [], []
    for shard in plan.ranks:
        stacked = np.concatenate([shard.local_nodes, shard.halo_nodes])
        local_rows = np.repeat(shard.local_nodes, np.diff(shard.indptr))
        rows.append(local_rows)
        cols.append(stacked[shard.indices])
    rows = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    cols = np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
    return sp.csr_matrix(
        (np.ones(rows.shape[0], dtype=bool), (rows, cols)), shape=(n, n)
    )


class TestShardPlan:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_zoo_reassembly(self, family, shards):
        # The acid test: for every zoo family, the shards' rows stitched
        # back together are exactly the original adjacency matrix.
        topology = small_topology(family)
        plan = build_shard_plan(topology, shards)
        rebuilt = reassemble(plan, topology.num_nodes)
        assert (rebuilt != topology.adjacency).nnz == 0

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=0.5),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25)
    def test_random_graph_reassembly(self, n, shards, p, seed):
        topology = Topology(gnp_graph(n, p, seed=seed))
        plan = build_shard_plan(topology, shards)
        rebuilt = reassemble(plan, n)
        assert (rebuilt != topology.adjacency).nnz == 0

    def test_partition_is_disjoint_cover(self):
        topology = small_topology("expander")
        plan = build_shard_plan(topology, 3)
        all_locals = np.concatenate([s.local_nodes for s in plan.ranks])
        assert sorted(all_locals) == list(range(topology.num_nodes))
        for shard in plan.ranks:
            assert np.array_equal(plan.owner[shard.local_nodes], [shard.rank] * shard.num_local)

    def test_more_shards_than_nodes(self):
        topology = Topology(gnp_graph(5, 0.5, seed=1))
        plan = build_shard_plan(topology, 9)
        assert len(plan.ranks) == 9
        assert sum(shard.num_local for shard in plan.ranks) == 5
        assert any(shard.num_local == 0 for shard in plan.ranks)
        rebuilt = reassemble(plan, 5)
        assert (rebuilt != topology.adjacency).nnz == 0

    def test_edgeless_graph_has_no_boundaries(self):
        topology = Topology(gnp_graph(12, 0.0, seed=0))
        plan = build_shard_plan(topology, 4)
        for shard in plan.ranks:
            assert shard.num_halo == 0
            assert not shard.send_rows
            assert not shard.recv_slots
            assert not shard.boundary_fingerprints

    def test_halo_is_foreign_and_sorted(self):
        topology = small_topology("powerlaw")
        plan = build_shard_plan(topology, 4)
        for shard in plan.ranks:
            assert (plan.owner[shard.halo_nodes] != shard.rank).all()
            assert np.array_equal(shard.halo_nodes, np.sort(shard.halo_nodes))
            assert np.array_equal(shard.local_nodes, np.sort(shard.local_nodes))

    def test_exchange_maps_are_consistent(self):
        # What rank r sends to s (by global id) must be exactly what s
        # expects from r, in the same ascending order.
        topology = small_topology("gnp")
        plan = build_shard_plan(topology, 4)
        for sender in plan.ranks:
            for peer, rows in sender.send_rows.items():
                sent_globals = sender.local_nodes[rows]
                receiver = plan.ranks[peer]
                slots = receiver.recv_slots[sender.rank]
                expected_globals = receiver.halo_nodes[slots]
                assert np.array_equal(sent_globals, expected_globals)

    def test_boundary_fingerprints_symmetric(self):
        topology = small_topology("expander")
        plan = build_shard_plan(topology, 4)
        seen_any = False
        for shard in plan.ranks:
            for peer, fingerprint in shard.boundary_fingerprints.items():
                seen_any = True
                assert plan.ranks[peer].boundary_fingerprints[shard.rank] == fingerprint
        assert seen_any

    def test_plan_cached_on_topology(self):
        topology = small_topology("cycle")
        assert topology.shard_plan(3) is topology.shard_plan(3)
        assert topology.shard_plan(3) is not topology.shard_plan(2)

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            build_shard_plan(small_topology("path"), 0)
