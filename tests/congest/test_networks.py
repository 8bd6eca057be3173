"""Tests for the per-node Broadcast CONGEST oracle and the CONGEST engine."""

from __future__ import annotations

import pytest

from repro.congest import BroadcastCongestAlgorithm, CongestAlgorithm, CongestNetwork
from repro.errors import (
    ConfigurationError,
    MessageSizeError,
    ProtocolViolationError,
)
from repro.graphs import Topology, path_graph, star_graph
from tests.algorithms.per_node_oracle import BroadcastCongestNetwork


class _BroadcastOnce(BroadcastCongestAlgorithm):
    """Broadcasts its ID once, records what it hears, finishes."""

    def __init__(self):
        self.inbox: list[int] = []
        self._done = False

    def broadcast(self, round_index):
        return self.ctx.node_id if round_index == 0 else None

    def receive(self, round_index, messages):
        self.inbox.extend(messages)
        self._done = True

    @property
    def finished(self):
        return self._done

    def output(self):
        return sorted(self.inbox)


class _SilentForever(BroadcastCongestAlgorithm):
    def broadcast(self, round_index):
        return None

    def receive(self, round_index, messages):
        pass


class _TooBig(BroadcastCongestAlgorithm):
    def broadcast(self, round_index):
        return 1 << 60

    def receive(self, round_index, messages):
        pass


class _FinishAfterRounds(BroadcastCongestAlgorithm):
    """Broadcasts every round until a per-node deadline, then finishes.

    Tracks every engine interaction so the live-node accounting can be
    checked for behaviour-identity: once a node reports finished, the
    engine must never call ``broadcast``/``receive`` on it again, and
    silent-but-alive nodes must keep receiving.
    """

    def __init__(self, deadline: int):
        self._deadline = deadline
        self.broadcast_rounds: list[int] = []
        self.receive_rounds: list[int] = []
        self._observed = 0

    def broadcast(self, round_index):
        self.broadcast_rounds.append(round_index)
        return self.ctx.node_id

    def receive(self, round_index, messages):
        self.receive_rounds.append(round_index)
        self._observed += 1

    @property
    def finished(self):
        return self._observed >= self._deadline

    def output(self):
        return (self.broadcast_rounds, self.receive_rounds)


class _BornFinished(BroadcastCongestAlgorithm):
    """Finished before round 0 — must never be driven at all."""

    calls = 0

    def broadcast(self, round_index):
        type(self).calls += 1
        return None

    def receive(self, round_index, messages):
        type(self).calls += 1

    @property
    def finished(self):
        return True


class TestBroadcastCongest:
    def test_neighbors_receive_unattributed_multiset(self):
        t = Topology(star_graph(4))
        algorithms = [_BroadcastOnce() for _ in range(4)]
        result = BroadcastCongestNetwork(t).run(algorithms, max_rounds=3)
        assert result.finished
        assert result.outputs[0] == [1, 2, 3]  # hub hears all leaves
        assert result.outputs[1] == [0]

    def test_rounds_counted_until_finish(self):
        t = Topology(path_graph(3))
        result = BroadcastCongestNetwork(t).run(
            [_BroadcastOnce() for _ in range(3)], max_rounds=10
        )
        assert result.rounds_used == 1

    def test_unfinished_run_reports(self):
        t = Topology(path_graph(3))
        result = BroadcastCongestNetwork(t).run(
            [_SilentForever() for _ in range(3)], max_rounds=4
        )
        assert not result.finished
        assert result.rounds_used == 4

    def test_message_size_enforced(self):
        t = Topology(path_graph(2))
        with pytest.raises(MessageSizeError):
            BroadcastCongestNetwork(t, message_bits=8).run(
                [_TooBig(), _TooBig()], max_rounds=1
            )

    def test_custom_ids_delivered(self):
        t = Topology(path_graph(2))
        network = BroadcastCongestNetwork(t, ids=[10, 99], message_bits=8)
        algorithms = [_BroadcastOnce(), _BroadcastOnce()]
        result = network.run(algorithms, max_rounds=2)
        assert result.outputs == [[99], [10]]

    def test_duplicate_ids_rejected(self):
        t = Topology(path_graph(2))
        with pytest.raises(ConfigurationError):
            BroadcastCongestNetwork(t, ids=[5, 5])

    def test_wrong_algorithm_count_rejected(self):
        t = Topology(path_graph(3))
        with pytest.raises(ConfigurationError):
            BroadcastCongestNetwork(t).run([_BroadcastOnce()], max_rounds=1)

    def test_messages_sent_counted(self):
        t = Topology(path_graph(3))
        result = BroadcastCongestNetwork(t).run(
            [_BroadcastOnce() for _ in range(3)], max_rounds=2
        )
        assert result.messages_sent == 3

    def test_context_fields(self):
        t = Topology(star_graph(4))
        captured = {}

        class Probe(_SilentForever):
            def setup(self, ctx):
                super().setup(ctx)
                captured[ctx.index] = ctx

        BroadcastCongestNetwork(t).run([Probe() for _ in range(4)], max_rounds=1)
        assert captured[0].degree == 3
        assert captured[0].max_degree == 3
        assert captured[0].num_nodes == 4
        assert captured[0].neighbor_ids is None  # BC: must be learned


class TestLiveNodeAccounting:
    """The live-count round loop must stay behaviour-identical.

    Regression for the transition-tracked termination check: staggered
    finishing must stop the run at the right round, finished nodes must
    never be driven again, and born-finished nodes must be invisible.
    """

    def test_staggered_finish_drives_exactly_like_spec(self):
        t = Topology(path_graph(3))
        algorithms = [_FinishAfterRounds(d) for d in (1, 3, 2)]
        result = BroadcastCongestNetwork(t, message_bits=4).run(
            algorithms, max_rounds=10
        )
        assert result.finished
        # the slowest node needs 3 receives, so exactly 3 rounds run
        assert result.rounds_used == 3
        # node 0 finished after round 0: broadcast/receive only there
        assert algorithms[0].output() == ([0], [0])
        assert algorithms[1].output() == ([0, 1, 2], [0, 1, 2])
        assert algorithms[2].output() == ([0, 1], [0, 1])
        # messages: 3 + 2 + 1 broadcasts across the three rounds
        assert result.messages_sent == 6

    def test_born_finished_nodes_never_driven(self):
        t = Topology(path_graph(2))
        _BornFinished.calls = 0
        result = BroadcastCongestNetwork(t).run(
            [_BornFinished(), _BornFinished()], max_rounds=5
        )
        assert result.finished
        assert result.rounds_used == 0
        assert _BornFinished.calls == 0

    def test_silent_but_alive_nodes_keep_receiving(self):
        t = Topology(path_graph(3))
        silent = _SilentForever()
        result = BroadcastCongestNetwork(t).run(
            [silent, _SilentForever(), _SilentForever()], max_rounds=4
        )
        assert not result.finished
        assert result.rounds_used == 4

    def test_congest_engine_staggered_finish(self):
        class FinishAfterSends(CongestAlgorithm):
            def __init__(self, deadline):
                self._deadline = deadline
                self._observed = 0
                self.sends = 0

            def send(self, round_index):
                self.sends += 1
                return {}

            def receive(self, round_index, messages):
                self._observed += 1

            @property
            def finished(self):
                return self._observed >= self._deadline

        t = Topology(path_graph(3))
        algorithms = [FinishAfterSends(d) for d in (1, 2, 3)]
        result = CongestNetwork(t).run(algorithms, max_rounds=10)
        assert result.finished
        assert result.rounds_used == 3
        assert [a.sends for a in algorithms] == [1, 2, 3]


class _SendToAll(CongestAlgorithm):
    """Sends a per-destination value; collects one round of input."""

    def __init__(self):
        self.inbox = {}
        self._done = False

    def send(self, round_index):
        if round_index > 0:
            return {}
        return {u: (self.ctx.node_id * 10 + u) % 64 for u in self.ctx.neighbor_ids}

    def receive(self, round_index, messages):
        self.inbox.update(messages)
        self._done = True

    @property
    def finished(self):
        return self._done

    def output(self):
        return dict(self.inbox)


class _SendsToStranger(CongestAlgorithm):
    def send(self, round_index):
        return {999: 1}

    def receive(self, round_index, messages):
        pass


class TestCongest:
    def test_point_to_point_attribution(self):
        t = Topology(star_graph(4))
        result = CongestNetwork(t, message_bits=8).run(
            [_SendToAll() for _ in range(4)], max_rounds=2
        )
        # hub (0) hears from each leaf u: value u*10+0
        assert result.outputs[0] == {1: 10, 2: 20, 3: 30}
        # leaf 2 hears hub's value 0*10+2
        assert result.outputs[2] == {0: 2}

    def test_neighbor_ids_in_context(self):
        t = Topology(path_graph(3))
        captured = {}

        class Probe(_SendToAll):
            def setup(self, ctx):
                super().setup(ctx)
                captured[ctx.index] = ctx.neighbor_ids

        CongestNetwork(t, message_bits=8).run(
            [Probe() for _ in range(3)], max_rounds=2
        )
        assert captured[1] == [0, 2]

    def test_non_neighbor_send_rejected(self):
        t = Topology(path_graph(2))
        with pytest.raises(ProtocolViolationError):
            CongestNetwork(t, message_bits=8).run(
                [_SendsToStranger(), _SendsToStranger()], max_rounds=1
            )

    def test_message_size_enforced(self):
        t = Topology(path_graph(2))

        class Big(CongestAlgorithm):
            def send(self, round_index):
                return {u: 1 << 40 for u in self.ctx.neighbor_ids}

            def receive(self, round_index, messages):
                pass

        with pytest.raises(MessageSizeError):
            CongestNetwork(t, message_bits=8).run([Big(), Big()], max_rounds=1)
