"""Bit-identity, fallback, and cache-hygiene tests for the native tier.

The native backend's contract is the engine invariant extended to a
compiled kernel: for every topology family, channel, ``start_round``
offset (including Philox window straddles) and replica batch, its heard
matrices are **bit-identical** to :class:`~repro.engine.DenseBackend`
and :class:`~repro.engine.BitpackedBackend`.  Hosts without a C compiler
must degrade to the bit-packed backend with a single
:class:`RuntimeWarning` — never an exception — and the on-disk ``.so``
cache must stay bounded and self-repair corrupt entries.

Equivalence tests are skipped (not failed) where the kernel cannot be
built, so tier-1 stays green on compiler-less hosts; the fallback tests
run everywhere because they monkeypatch the compiler probe themselves.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.beeping.noise import (
    AdversarialNoise,
    BernoulliNoise,
    HeterogeneousNoise,
    NoiselessChannel,
)
from repro.engine import (
    BitpackedBackend,
    DenseBackend,
    NativeBackend,
    get_backend,
)
from repro.engine.native import backend as native_backend_module
from repro.engine.native import build as native_build
from repro.engine.native.build import (
    NativeUnavailableError,
    kernel_source_hash,
    load_kernel,
    native_availability,
    prune_cache,
)
from repro.errors import ConfigurationError
from repro.graphs import (
    Topology,
    cycle_graph,
    gnp_graph,
    grid_graph,
    path_graph,
    random_regular_graph,
    star_graph,
)

DENSE = DenseBackend()
PACKED = BitpackedBackend()
NATIVE = NativeBackend()


def _kernel_available() -> bool:
    try:
        load_kernel()
    except NativeUnavailableError:
        return False
    return True


needs_kernel = pytest.mark.skipif(
    not _kernel_available(),
    reason="native kernel cannot be built here (no C compiler)",
)

#: Topology builders spanning the zoo's structure space: sparse chains,
#: hubs, lattices, regular expanders, and random graphs.
FAMILIES = {
    "cycle": lambda n: Topology(cycle_graph(n)),
    "path": lambda n: Topology(path_graph(n)),
    "star": lambda n: Topology(star_graph(n - 1)),
    "grid": lambda n: Topology(
        grid_graph(max(2, int(n**0.5)), max(2, int(n**0.5)))
    ),
    "regular": lambda n: Topology(random_regular_graph(n + (n % 2), 4, seed=3)),
    "gnp": lambda n: Topology(gnp_graph(n, 0.15, seed=7)),
}

#: Offsets straddling word boundaries and the 4096-round Philox window.
STRADDLE_STARTS = (0, 17, 63, 64, 4000, 4090, 4096)


def _channel(kind: str, n: int, seed: int):
    if kind == "none":
        return None
    if kind == "noiseless":
        return NoiselessChannel()
    if kind == "bernoulli":
        return BernoulliNoise(0.15, seed)
    if kind == "adversarial":
        return AdversarialNoise(0.2, seed)
    rng = np.random.default_rng(seed)
    return HeterogeneousNoise(rng.uniform(0.0, 0.4, size=n), seed)


@needs_kernel
class TestBitIdentity:
    @settings(max_examples=40)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        n=st.integers(8, 80),
        rounds=st.sampled_from((0, 1, 7, 63, 64, 65, 130)),
        start=st.sampled_from(STRADDLE_STARTS),
        kind=st.sampled_from(
            ("none", "noiseless", "bernoulli", "heterogeneous", "adversarial")
        ),
        seed=st.integers(0, 2**16),
    )
    def test_run_schedule_matches_dense_and_bitpacked(
        self, family, n, rounds, start, kind, seed
    ):
        topology = FAMILIES[family](n)
        rng = np.random.default_rng(seed)
        schedule = rng.random((topology.num_nodes, rounds)) < 0.3
        channel = _channel(kind, topology.num_nodes, seed)
        expected = DENSE.run_schedule(topology, schedule, channel, start)
        assert np.array_equal(
            expected, PACKED.run_schedule(topology, schedule, channel, start)
        )
        assert np.array_equal(
            expected, NATIVE.run_schedule(topology, schedule, channel, start)
        )

    def test_long_schedule_beyond_fused_limit(self):
        # rounds > 64 * max_fused_words exercises the separate
        # pack/OR/XOR/unpack path instead of the fused kernel.
        kernel = load_kernel()
        rounds = 64 * int(kernel.repro_max_fused_words()) + 70
        topology = FAMILIES["gnp"](24)
        rng = np.random.default_rng(2)
        schedule = rng.random((topology.num_nodes, rounds)) < 0.01
        channel = BernoulliNoise(0.05, 9)
        assert np.array_equal(
            PACKED.run_schedule(topology, schedule, channel, 4090),
            NATIVE.run_schedule(topology, schedule, channel, 4090),
        )

    def test_batch_matches_serial_and_dense(self):
        topology = FAMILIES["regular"](48)
        n = topology.num_nodes
        rng = np.random.default_rng(5)
        schedules = rng.random((5, n, 70)) < 0.25
        channels = [
            NoiselessChannel(),
            BernoulliNoise(0.1, 11),
            _channel("heterogeneous", n, 13),
            AdversarialNoise(0.3, 17),
            BernoulliNoise(0.2, 11),
        ]
        starts = [0, 17, 63, 4090, 4096]
        batch = NATIVE.run_schedule_batch(topology, schedules, channels, starts)
        assert np.array_equal(
            batch, DENSE.run_schedule_batch(topology, schedules, channels, starts)
        )
        for r in range(5):
            assert np.array_equal(
                batch[r],
                NATIVE.run_schedule(topology, schedules[r], channels[r], starts[r]),
            ), r

    def test_empty_batch(self):
        topology = FAMILIES["path"](6)
        schedules = np.zeros((0, 6, 9), dtype=bool)
        heard = NATIVE.run_schedule_batch(topology, schedules)
        assert heard.shape == (0, 6, 9)

    def test_unknown_channel_falls_through_to_apply(self):
        class InvertChannel(NoiselessChannel):
            def apply(self, received, start_round=0):
                return ~np.asarray(received, dtype=bool)

        topology = FAMILIES["star"](10)
        rng = np.random.default_rng(4)
        schedule = rng.random((topology.num_nodes, 33)) < 0.2
        assert np.array_equal(
            DENSE.run_schedule(topology, schedule, InvertChannel(), 2),
            NATIVE.run_schedule(topology, schedule, InvertChannel(), 2),
        )
        schedules = schedule[np.newaxis].repeat(3, axis=0)
        assert np.array_equal(
            DENSE.run_schedule_batch(topology, schedules, InvertChannel()),
            NATIVE.run_schedule_batch(topology, schedules, InvertChannel()),
        )

    def test_neighbor_or_vector_and_matrix(self):
        topology = FAMILIES["gnp"](70)
        rng = np.random.default_rng(8)
        vector = rng.random(topology.num_nodes) < 0.3
        assert np.array_equal(
            DENSE.neighbor_or(topology, vector),
            NATIVE.neighbor_or(topology, vector),
        )
        matrix = rng.random((topology.num_nodes, 77)) < 0.3
        assert np.array_equal(
            DENSE.neighbor_or(topology, matrix),
            NATIVE.neighbor_or(topology, matrix),
        )

    def test_neighbor_or_wrong_length_rejected(self):
        topology = FAMILIES["path"](5)
        with pytest.raises(ConfigurationError):
            NATIVE.neighbor_or(topology, np.zeros(6, dtype=bool))

    def test_validation_matches_other_backends(self):
        topology = FAMILIES["path"](3)
        with pytest.raises(ConfigurationError):
            NATIVE.run_schedule(topology, np.zeros((4, 2), dtype=bool))
        with pytest.raises(ConfigurationError):
            NATIVE.run_schedule_batch(topology, np.zeros((2, 4, 2), dtype=bool))


@needs_kernel
class TestShardedComposition:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_native_matches_dense(self, request, shards):
        from repro.engine import ShardedBackend, with_shards

        backend = with_shards("native", shards)
        if isinstance(backend, ShardedBackend):
            request.addfinalizer(backend.close)
        else:
            backend = get_backend(backend)
        topology = FAMILIES["gnp"](61)
        rng = np.random.default_rng(6)
        schedule = rng.random((topology.num_nodes, 70)) < 0.25
        for channel, start in (
            (None, 0),
            (BernoulliNoise(0.1, 42), 11),
            (BernoulliNoise(0.05, 7), 4090),
        ):
            assert np.array_equal(
                DENSE.run_schedule(topology, schedule, channel, start),
                backend.run_schedule(topology, schedule, channel, start),
            ), (shards, channel, start)


@pytest.fixture
def clean_native_state(monkeypatch, tmp_path):
    """Isolated build-module state: fresh cache dir, no memoized loads."""
    cache = tmp_path / "native-cache"
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    monkeypatch.setattr(native_build, "_LOADED", {})
    monkeypatch.setattr(native_build, "_FAILED_REASON", None)
    monkeypatch.setattr(native_backend_module, "_WARNED_FALLBACK", False)
    return cache


class TestFallback:
    def test_no_compiler_warns_once_and_matches_bitpacked(
        self, clean_native_state, monkeypatch
    ):
        monkeypatch.setattr(native_build, "compiler_path", lambda: None)
        topology = Topology(gnp_graph(30, 0.2, seed=1))
        rng = np.random.default_rng(0)
        schedule = rng.random((30, 70)) < 0.3
        channel = BernoulliNoise(0.1, 3)
        backend = NativeBackend()
        with pytest.warns(RuntimeWarning, match="falling back to the bit-packed"):
            heard = backend.run_schedule(topology, schedule, channel, 5)
        assert np.array_equal(
            heard, PACKED.run_schedule(topology, schedule, channel, 5)
        )
        # Warn-once: subsequent calls stay silent and keep working.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = backend.run_schedule_batch(
                topology, schedule[np.newaxis], channel, start_rounds=5
            )
        assert np.array_equal(again[0], heard)
        assert not os.path.exists(clean_native_state) or not list(
            clean_native_state.glob("*.so")
        )

    def test_availability_reports_missing_compiler(
        self, clean_native_state, monkeypatch
    ):
        monkeypatch.setattr(native_build, "compiler_path", lambda: None)
        ok, reason = native_availability()
        assert not ok and "no C compiler" in reason

    def test_unknown_backend_error_notes_native_fallback(
        self, clean_native_state, monkeypatch
    ):
        monkeypatch.setattr(native_build, "compiler_path", lambda: None)
        with pytest.raises(
            ConfigurationError, match="native falls back to bitpacked"
        ):
            get_backend("bogus")

    def test_compile_failure_is_sticky_and_typed(
        self, clean_native_state, monkeypatch
    ):
        calls = []

        def broken_compile(compiler, so_path):
            calls.append(so_path)
            raise NativeUnavailableError("native kernel compile failed (exit 1)")

        monkeypatch.setattr(native_build, "_compile", broken_compile)
        with pytest.raises(NativeUnavailableError):
            native_build.load_kernel()
        with pytest.raises(NativeUnavailableError):
            native_build.load_kernel()
        assert len(calls) == 1  # memoized failure, no re-probe per call
        ok, reason = native_availability()
        assert not ok and "compile failed" in reason


class TestCacheHygiene:
    def test_prune_bounds_entries_lru(self, tmp_path):
        for index in range(12):
            path = tmp_path / f"kernel-{index:016x}.so"
            path.write_bytes(b"x")
            os.utime(path, (1000 + index, 1000 + index))
        evicted = prune_cache(tmp_path, limit=8)
        assert sorted(evicted) == [f"kernel-{i:016x}.so" for i in range(4)]
        survivors = sorted(p.name for p in tmp_path.glob("kernel-*.so"))
        assert survivors == [f"kernel-{i:016x}.so" for i in range(4, 12)]

    def test_prune_missing_directory_is_noop(self, tmp_path):
        assert prune_cache(tmp_path / "absent") == []

    def test_prune_ignores_foreign_files(self, tmp_path):
        (tmp_path / "NOTES.txt").write_text("keep me")
        for index in range(3):
            (tmp_path / f"kernel-{index:016x}.so").write_bytes(b"x")
        assert prune_cache(tmp_path, limit=2)
        assert (tmp_path / "NOTES.txt").exists()

    @needs_kernel
    def test_corrupt_entry_deleted_and_rebuilt(self, clean_native_state):
        so_path = clean_native_state / f"kernel-{kernel_source_hash()}.so"
        so_path.parent.mkdir(parents=True)
        so_path.write_bytes(b"this is not a shared library")
        kernel = native_build.load_kernel()
        assert kernel.repro_native_abi() == native_build.KERNEL_ABI
        # The garbage entry was replaced by a real library.
        assert so_path.stat().st_size > 1000

    @needs_kernel
    def test_truncated_entry_deleted_and_rebuilt(self, tmp_path, monkeypatch):
        # Build a donor library in one directory, then plant a truncated
        # copy in a second, never-loaded cache: overwriting a dlopen'd
        # (mmapped) file in place would corrupt the live mapping instead
        # of testing the repair path.
        monkeypatch.setattr(native_build, "_LOADED", {})
        monkeypatch.setattr(native_build, "_FAILED_REASON", None)
        donor = tmp_path / "donor"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(donor))
        real = native_build.load_kernel()
        assert real.repro_native_abi() == native_build.KERNEL_ABI
        so_name = f"kernel-{kernel_source_hash()}.so"
        payload = (donor / so_name).read_bytes()

        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / so_name).write_bytes(payload[:128])
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        native_build._LOADED.clear()
        kernel = native_build.load_kernel()
        assert kernel.repro_native_abi() == native_build.KERNEL_ABI
        assert (cache / so_name).stat().st_size > 128

    @needs_kernel
    def test_load_touches_mtime_for_lru_recency(self, clean_native_state):
        native_build.load_kernel()
        so_path = clean_native_state / f"kernel-{kernel_source_hash()}.so"
        os.utime(so_path, (1000, 1000))
        native_build._LOADED.clear()
        native_build.load_kernel()
        assert so_path.stat().st_mtime > 1000


class TestBuildIdentity:
    def test_source_hash_is_short_stable_hex(self):
        first = kernel_source_hash()
        assert first == kernel_source_hash()
        assert len(first) == 16
        int(first, 16)

    @needs_kernel
    def test_availability_reports_loaded(self):
        load_kernel()
        ok, reason = native_availability()
        assert ok and reason == "loaded"
