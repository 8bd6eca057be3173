"""Tests for the schedule executor and its two kernels (repro.engine)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beeping.noise import BernoulliNoise, NoiseModel, NoiselessChannel
from repro.engine import (
    pack_rows,
    run_schedule,
    run_schedule_batch,
    unpack_rows,
    words_for,
)
from repro.engine.bitpacked import BitpackedBackend
from repro.engine.dense import DenseBackend
from repro.errors import ConfigurationError
from repro.graphs import (
    Topology,
    complete_graph,
    gnp_graph,
    path_graph,
    star_graph,
)

DENSE = DenseBackend()
PACKED = BitpackedBackend()


class TestPacking:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (5, 63), (5, 64), (5, 65), (3, 130), (0, 7), (4, 0)]
    )
    def test_roundtrip(self, shape):
        rng = np.random.default_rng(sum(shape))
        matrix = rng.random(shape) < 0.5
        packed = pack_rows(matrix)
        assert packed.dtype == np.uint64
        assert packed.shape == (shape[0], words_for(shape[1]))
        assert np.array_equal(unpack_rows(packed, shape[1]), matrix)

    def test_bit_layout(self):
        # round t lives in bit t % 64 of word t // 64
        matrix = np.zeros((1, 130), dtype=bool)
        matrix[0, 0] = matrix[0, 65] = matrix[0, 129] = True
        packed = pack_rows(matrix)
        assert packed[0, 0] == 1
        assert packed[0, 1] == 2
        assert packed[0, 2] == 1 << 1

    def test_shape_checked(self):
        with pytest.raises(ConfigurationError):
            pack_rows(np.zeros(4, dtype=bool))
        with pytest.raises(ConfigurationError):
            unpack_rows(np.zeros((2, 1), dtype=np.uint64), 65)


class TestNeighborOrEquivalence:
    """Carrier sense through ``run_schedule``: own beep or neighbours' OR."""

    @settings(max_examples=25)
    @given(st.integers(0, 200), st.integers(2, 80), st.integers(0, 2**16))
    def test_vector_matches_dense(self, graph_seed, n, beep_seed):
        topology = Topology(gnp_graph(n, 0.15, seed=graph_seed))
        rng = np.random.default_rng(beep_seed)
        column = rng.random((n, 1)) < 0.3
        assert np.array_equal(
            DENSE.run_schedule(topology, column),
            PACKED.run_schedule(topology, column),
        )

    def test_isolated_nodes_hear_nothing(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(6))
        graph.add_edges_from([(0, 1), (3, 4)])  # nodes 2 and 5 isolated
        topology = Topology(graph)
        column = np.ones((6, 1), dtype=bool)
        column[[2, 5]] = False
        heard = PACKED.run_schedule(topology, column)[:, 0]
        assert not heard[2] and not heard[5]
        assert heard[0] and heard[1] and heard[3] and heard[4]

    def test_edgeless_graph(self):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        topology = Topology(graph)
        schedule = np.ones((4, 100), dtype=bool)
        heard = PACKED.run_schedule(topology, schedule)
        # everyone beeps, nobody has neighbours: own beep only
        assert np.array_equal(heard, schedule)
        column = np.array([[True], [False], [False], [False]])
        assert np.array_equal(PACKED.run_schedule(topology, column), column)

    def test_matrix_form_matches_dense(self):
        topology = Topology(star_graph(9))
        rng = np.random.default_rng(1)
        beeps = rng.random((9, 77)) < 0.4
        assert np.array_equal(
            DENSE.run_schedule(topology, beeps),
            PACKED.run_schedule(topology, beeps),
        )

    def test_wrong_length_rejected(self, force_kernel):
        # The executor checks the shape before either kernel runs.
        force_kernel("bitpacked")
        topology = Topology(path_graph(3))
        with pytest.raises(ConfigurationError):
            run_schedule(topology, np.zeros((4, 1), dtype=bool))


class _InvertChannel(NoiseModel):
    """A channel the bit-packed kernel has no packed fast path for."""

    @property
    def eps(self) -> float:
        return 0.0

    def apply(self, received, round_index):
        return ~np.asarray(received, dtype=bool)


class TestRunScheduleEquivalence:
    def test_complete_graph_noiseless(self):
        topology = Topology(complete_graph(65))  # straddles one word
        rng = np.random.default_rng(0)
        schedule = rng.random((65, 200)) < 0.02
        assert np.array_equal(
            DENSE.run_schedule(topology, schedule),
            PACKED.run_schedule(topology, schedule),
        )

    def test_unknown_channel_falls_back(self):
        topology = Topology(path_graph(5))
        schedule = np.zeros((5, 10), dtype=bool)
        schedule[2, 3] = True
        heard = PACKED.run_schedule(topology, schedule, _InvertChannel())
        assert np.array_equal(
            heard, DENSE.run_schedule(topology, schedule, _InvertChannel())
        )
        # inverted: everything is True except where a beep was received
        assert not heard[2, 3] and not heard[1, 3] and not heard[3, 3]
        assert heard[0, 0]

    def test_zero_rounds(self):
        topology = Topology(path_graph(4))
        for channel in (None, BernoulliNoise(0.2, seed=0)):
            heard = PACKED.run_schedule(
                topology, np.zeros((4, 0), dtype=bool), channel
            )
            assert heard.shape == (4, 0)

    def test_validation_matches_dense(self, force_kernel):
        topology = Topology(path_graph(3))
        for kernel in ("dense", "bitpacked"):
            force_kernel(kernel)
            with pytest.raises(ConfigurationError):
                run_schedule(topology, np.zeros((4, 2), dtype=bool))
            with pytest.raises(ConfigurationError):
                run_schedule(topology, np.zeros(3, dtype=bool))


class TestSizeRule:
    def test_kernel_by_size(self, monkeypatch):
        ran: list[str] = []
        for kernel in (DenseBackend, BitpackedBackend):
            original = kernel.run_schedule_batch

            def spy(self, *args, _original=original, _name=kernel.__name__):
                ran.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(kernel, "run_schedule_batch", spy)
        cases = [
            (4, 10, "DenseBackend"),
            (512, 63, "DenseBackend"),  # under one packed word of rounds
            (63, 64, "DenseBackend"),  # 4032 cells, under the cell threshold
            (64, 64, "BitpackedBackend"),
            (512, 5000, "BitpackedBackend"),
        ]
        for n, rounds, expected in cases:
            ran.clear()
            schedules = np.zeros((1, n, rounds), dtype=bool)
            heard = run_schedule_batch(Topology(path_graph(n)), schedules)
            assert ran == [expected], (n, rounds)
            assert heard.shape == schedules.shape
