"""End-to-end tests for the HTTP job service: a live server per test.

Everything here drives a real ``ThreadingHTTPServer`` on an ephemeral
port through plain :mod:`urllib` — the same wire a curl user sees.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import api
from repro.service import DirJobStore, InlineExecutor, JobSpec
from repro.service.jobs import JobFailure, execute_spec, render_csv

from svc_util import ServiceClient, make_service

EXPERIMENT_JOB = {"kind": "experiment", "ids": ["e01"], "profile": "quick", "seed": 5}

SWEEP_GRID = {
    "topologies": ["expander"],
    "sizes": [16],
    "noises": [0.0, 0.05],
    "seeds": [0, 1],
    "rounds": 2,
    "params": {"expander": {"degree": 3}},
}


class CountingExecutor:
    """An inline executor that counts executions (the dedupe spy)."""

    def __init__(self, cache_dir=None) -> None:
        """Wrap an :class:`InlineExecutor`; executions are counted."""
        self._inner = InlineExecutor(cache_dir)
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, spec, emit):
        """Count, then delegate."""
        with self._lock:
            self.calls += 1
        return self._inner(spec, emit)


class TestRoundTrip:
    def test_submit_poll_result(self, live_service):
        status, submitted = live_service.post_json("/v1/jobs", EXPERIMENT_JOB)
        assert status == 200
        assert submitted["kind"] == "experiment"
        assert submitted["deduped"] is False
        state = live_service.wait(submitted["job_id"])
        assert state["state"] == "done"
        assert state["error"] is None
        assert state["result_ref"]
        status, body = live_service.get(
            f"/v1/jobs/{submitted['job_id']}/result"
        )
        assert status == 200
        [entry] = json.loads(body)
        assert entry["experiment_id"] == "e01"
        assert entry["seed"] == 5

    def test_result_bytes_match_programmatic_api(self, tmp_path):
        # Cold over HTTP, then replay locally through the server's own
        # cache: elapsed replays from the shared entry, so the two
        # serializations must agree byte for byte.
        service = make_service(tmp_path / "store")
        client = ServiceClient(service)
        try:
            _, submitted = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            client.wait(submitted["job_id"])
            _, served = client.get(f"/v1/jobs/{submitted['job_id']}/result")
        finally:
            service.shutdown()
        results = api.run(
            ["e01"], seed=5, cache_dir=tmp_path / "store" / "cache"
        )
        assert all(result.cached for result in results)
        expected = json.dumps([r.to_dict() for r in results], indent=2)
        assert served.decode("utf-8") == expected

    def test_csv_format_matches_render(self, live_service):
        _, submitted = live_service.post_json("/v1/jobs", EXPERIMENT_JOB)
        live_service.wait(submitted["job_id"])
        job = f"/v1/jobs/{submitted['job_id']}"
        _, document = live_service.get(f"{job}/result")
        status, csv = live_service.get(f"{job}/result?format=csv")
        assert status == 200
        assert csv.decode("utf-8") == render_csv(
            "experiment", document.decode("utf-8")
        )
        assert csv.startswith(b"# table: e01")

    def test_sweep_round_trip_matches_warm_local_run(self, tmp_path):
        from repro import sweeps

        cache = tmp_path / "store" / "cache"
        # Warm the shared point cache, then capture a fully-replayed local
        # document; the server's execution over the same cache replays
        # every point too, so the bytes must match exactly.
        sweeps.run(SWEEP_GRID, cache_dir=cache)
        expected = sweeps.run(SWEEP_GRID, cache_dir=cache).to_json()
        service = make_service(tmp_path / "store")
        client = ServiceClient(service)
        try:
            _, submitted = client.post_json(
                "/v1/jobs", {"kind": "sweep", "grid": SWEEP_GRID}
            )
            state = client.wait(submitted["job_id"])
            assert state["state"] == "done"
            _, served = client.get(f"/v1/jobs/{submitted['job_id']}/result")
        finally:
            service.shutdown()
        assert served.decode("utf-8") == expected
        assert len(json.loads(served)["points"]) == 4

    def test_health_and_listing(self, live_service):
        status, health = live_service.get_json("/v1/health")
        assert status == 200 and health["status"] == "ok"
        _, submitted = live_service.post_json("/v1/jobs", EXPERIMENT_JOB)
        live_service.wait(submitted["job_id"])
        _, listing = live_service.get_json("/v1/jobs")
        assert [job["job_id"] for job in listing["jobs"]] == [
            submitted["job_id"]
        ]
        _, health = live_service.get_json("/v1/health")
        assert health["jobs"]["done"] == 1


class TestEvents:
    def test_snapshot_stream_is_ordered_ndjson(self, live_service):
        _, submitted = live_service.post_json("/v1/jobs", EXPERIMENT_JOB)
        live_service.wait(submitted["job_id"])
        status, body = live_service.get(
            f"/v1/jobs/{submitted['job_id']}/events?follow=0"
        )
        assert status == 200
        events = [json.loads(line) for line in body.decode().splitlines()]
        messages = [event["message"] for event in events]
        assert messages[0] == "queued"
        assert messages[-1] == "done"
        assert "e01: combined-code layout assembled" in messages
        assert [event["seq"] for event in events] == list(
            range(1, len(events) + 1)
        )

    def test_follow_stream_closes_at_terminal_state(self, live_service):
        _, submitted = live_service.post_json("/v1/jobs", EXPERIMENT_JOB)
        url = f"{live_service.base}/v1/jobs/{submitted['job_id']}/events"
        messages = []
        with urllib.request.urlopen(url, timeout=30) as response:
            assert response.headers["Content-Type"] == "application/x-ndjson"
            for raw in response:  # server closes after the final event
                messages.append(json.loads(raw)["message"])
        assert messages[0] == "queued"
        assert messages[-1] == "done"

    def test_resume_cursor_skips_replayed_events(self, live_service):
        _, submitted = live_service.post_json("/v1/jobs", EXPERIMENT_JOB)
        live_service.wait(submitted["job_id"])
        _, body = live_service.get(
            f"/v1/jobs/{submitted['job_id']}/events?follow=0&after=2"
        )
        events = [json.loads(line) for line in body.decode().splitlines()]
        assert events and all(event["seq"] > 2 for event in events)


class TestDedupe:
    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        spy = CountingExecutor(tmp_path / "store" / "cache")
        service = make_service(tmp_path / "store", executor=spy)
        client = ServiceClient(service)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                replies = list(
                    pool.map(
                        lambda _: client.post_json("/v1/jobs", EXPERIMENT_JOB),
                        range(8),
                    )
                )
            job_ids = {reply["job_id"] for _, reply in replies}
            assert len(job_ids) == 1  # everyone attached to one job
            assert sum(not reply["deduped"] for _, reply in replies) == 1
            (job_id,) = job_ids
            client.wait(job_id)
            bodies = {
                client.get(f"/v1/jobs/{job_id}/result")[1] for _ in range(3)
            }
            assert len(bodies) == 1  # byte-identical for every client
        finally:
            service.shutdown()
        assert spy.calls == 1  # the single-flight guarantee

    def test_resubmit_after_done_attaches_without_execution(self, tmp_path):
        spy = CountingExecutor(tmp_path / "store" / "cache")
        service = make_service(tmp_path / "store", executor=spy)
        client = ServiceClient(service)
        try:
            _, first = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            client.wait(first["job_id"])
            _, second = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            assert second["deduped"] is True
            assert second["job_id"] == first["job_id"]
        finally:
            service.shutdown()
        assert spy.calls == 1

    def test_different_payloads_do_not_collide(self, tmp_path):
        spy = CountingExecutor(tmp_path / "store" / "cache")
        service = make_service(tmp_path / "store", executor=spy)
        client = ServiceClient(service)
        try:
            _, a = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            _, b = client.post_json(
                "/v1/jobs", {**EXPERIMENT_JOB, "seed": 6}
            )
            assert a["job_id"] != b["job_id"]
            client.wait(a["job_id"])
            client.wait(b["job_id"])
        finally:
            service.shutdown()
        assert spy.calls == 2

    def test_replay_from_result_store_bypasses_the_queue(self, tmp_path):
        # Pre-seed the shared result store under the spec's key, with no
        # job bound to it: submission completes instantly, zero executions.
        store = DirJobStore(tmp_path / "store")
        spec = JobSpec.normalize(EXPERIMENT_JOB)
        store.put_result(spec.identity_key(), '[{"stub": true}]')
        spy = CountingExecutor(tmp_path / "store" / "cache")
        service = make_service(tmp_path / "store", executor=spy)
        client = ServiceClient(service)
        try:
            _, submitted = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            state = client.wait(submitted["job_id"])
            assert state["state"] == "done"
            _, body = client.get(f"/v1/jobs/{submitted['job_id']}/result")
            assert json.loads(body) == [{"stub": True}]
        finally:
            service.shutdown()
        assert spy.calls == 0


class FailingExecutor:
    """An executor that always raises — the failed-job path."""

    def __call__(self, spec, emit):
        """Report some progress, then fail with a typed error."""
        emit("about to explode")
        raise JobFailure("ReactorMeltdown", "core temperature exceeded")


class TestFailures:
    def test_failed_job_payload_and_result_conflict(self, tmp_path):
        service = make_service(tmp_path / "store", executor=FailingExecutor())
        client = ServiceClient(service)
        try:
            _, submitted = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            state = client.wait(submitted["job_id"])
            assert state["state"] == "failed"
            assert state["error"] == {
                "type": "ReactorMeltdown",
                "message": "core temperature exceeded",
            }
            status, body = client.get_json(
                f"/v1/jobs/{submitted['job_id']}/result"
            )
            assert status == 409
            assert body["error"]["type"] == "ReactorMeltdown"
        finally:
            service.shutdown()

    def test_failed_job_is_retried_on_resubmit(self, tmp_path):
        service = make_service(tmp_path / "store", executor=FailingExecutor())
        client = ServiceClient(service)
        try:
            _, first = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            client.wait(first["job_id"])
            _, second = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            # A failed job never satisfies dedupe: a fresh attempt runs.
            assert second["deduped"] is False
            assert second["job_id"] != first["job_id"]
        finally:
            service.shutdown()

    def test_malformed_submissions_are_400(self, live_service):
        status, body = live_service.post_json(
            "/v1/jobs", {"kind": "experiment", "ids": ["zz99"]}
        )
        assert status == 400
        assert body["error"]["type"] == "ConfigurationError"
        assert "zz99" in body["error"]["message"]
        status, body = live_service.post_json("/v1/jobs", "not an object")
        assert status == 400
        for retired, value in (
            ("runtime", "reference"),
            ("shards", 2),
            ("backend", "dense"),
        ):
            status, body = live_service.post_json(
                "/v1/jobs", {**EXPERIMENT_JOB, retired: value}
            )
            assert status == 400
            assert body["error"]["message"] == (
                f"unknown experiment-job key(s) '{retired}'; "
                "known: ids, tags, profile, seed"
            )

    def test_unknown_routes_and_jobs_are_404(self, live_service):
        assert live_service.get("/v1/nope")[0] == 404
        assert live_service.get("/v1/jobs/feedbeef")[0] == 404
        assert live_service.get("/v1/jobs/feedbeef/result")[0] == 404
        assert live_service.get("/v1/jobs/feedbeef/events")[0] == 404

    def test_result_before_done_is_409_not_ready(self, tmp_path):
        gate = threading.Event()

        class GatedExecutor:
            """Blocks until the test opens the gate."""

            def __call__(self, spec, emit):
                """Wait, then return a stub document."""
                assert gate.wait(timeout=30)
                return "[]"

        service = make_service(tmp_path / "store", executor=GatedExecutor())
        client = ServiceClient(service)
        try:
            _, submitted = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            status, body = client.get_json(
                f"/v1/jobs/{submitted['job_id']}/result"
            )
            assert status == 409
            assert body["error"]["type"] == "NotReady"
            gate.set()
            client.wait(submitted["job_id"])
        finally:
            gate.set()
            service.shutdown()

    def test_unknown_result_format_is_400(self, live_service):
        _, submitted = live_service.post_json("/v1/jobs", EXPERIMENT_JOB)
        live_service.wait(submitted["job_id"])
        status, body = live_service.get_json(
            f"/v1/jobs/{submitted['job_id']}/result?format=xml"
        )
        assert status == 400
        assert "xml" in body["error"]["message"]


class TestRecovery:
    def test_restart_repairs_orphans_and_reruns_lost_work(self, tmp_path):
        # Simulate a server that died mid-flight: one job still queued,
        # one orphaned as running without a result, one running whose
        # result document landed just before the crash.
        store = DirJobStore(tmp_path / "store")
        specs = [
            JobSpec.normalize({**EXPERIMENT_JOB, "seed": seed})
            for seed in (1, 2, 3)
        ]
        queued = store.create(specs[0], specs[0].identity_key())
        store.bind_key(specs[0].identity_key(), queued.job_id)
        orphan = store.create(specs[1], specs[1].identity_key())
        store.bind_key(specs[1].identity_key(), orphan.job_id)
        store.set_state(orphan.job_id, "running")
        landed = store.create(specs[2], specs[2].identity_key())
        store.bind_key(specs[2].identity_key(), landed.job_id)
        store.set_state(landed.job_id, "running")
        store.put_result(specs[2].identity_key(), '[{"landed": true}]')

        spy = CountingExecutor(tmp_path / "store" / "cache")
        service = make_service(tmp_path / "store", executor=spy)
        client = ServiceClient(service)
        try:
            for record in (queued, orphan, landed):
                state = client.wait(record.job_id)
                assert state["state"] == "done"
            _, health = client.get_json("/v1/health")
            # No orphaned running jobs after recovery — the acceptance bar.
            assert health["jobs"]["running"] == 0
            assert health["jobs"]["queued"] == 0
            assert health["jobs"]["done"] == 3
        finally:
            service.shutdown()
        # The queued and orphaned jobs re-ran; the landed one replayed.
        assert spy.calls == 2


class TestSubprocessExecutorPath:
    def test_spawn_worker_round_trip(self, tmp_path):
        # The production path once: a real spawn worker process relays
        # progress over the queue and returns the document.
        from repro.service import JobService, ServiceConfig

        service = JobService(
            ServiceConfig(
                host="127.0.0.1",
                port=0,
                store_dir=tmp_path / "store",
                jobs=1,
                inline=False,
            )
        )
        service.start()
        service.start_background()
        client = ServiceClient(service)
        try:
            _, submitted = client.post_json("/v1/jobs", EXPERIMENT_JOB)
            state = client.wait(submitted["job_id"], timeout=120)
            assert state["state"] == "done"
            _, body = client.get(
                f"/v1/jobs/{submitted['job_id']}/events?follow=0"
            )
            messages = [
                json.loads(line)["message"]
                for line in body.decode().splitlines()
            ]
            assert "e01: combined-code layout assembled" in messages
            _, document = client.get(f"/v1/jobs/{submitted['job_id']}/result")
            expected = execute_spec(
                JobSpec.normalize(EXPERIMENT_JOB),
                cache_dir=str(tmp_path / "store" / "cache"),
            )
            assert document.decode("utf-8") == expected
        finally:
            service.shutdown()
