"""ProcessReplica: parity with in-process workers, real death, chaos kill."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.fleet import FleetRouter, ProcessReplica, WorkerDownError
from repro.runtime import fork_available
from repro.validate.faults import (
    HangWorkerOnce,
    KillWorkerOnce,
    chaos_enabled,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="process replicas need the fork start method")


@pytest.fixture()
def fleet(checkpoint):
    replicas = [ProcessReplica(f"p{i}", checkpoint, version="m-v1",
                               response_timeout=30.0) for i in range(2)]
    router = FleetRouter(replicas)
    yield router
    router.close()


def test_process_fleet_matches_reference(fleet, corpus, reference):
    assert np.array_equal(fleet.embed(corpus), reference)
    stats = fleet.stats()
    assert all(w["backend"] == "process" for w in stats["per_worker"])
    assert all(w["alive"] for w in stats["per_worker"])
    assert stats["cache"]["misses"] == len(corpus)


def test_killed_replica_fails_over_and_reports_dead_stub(fleet, corpus,
                                                         reference):
    victim = fleet.worker("p0")
    victim.kill()
    assert not victim.alive
    with pytest.raises(WorkerDownError):
        victim.embed_items([])
    result = fleet.embed_detailed(corpus)
    assert np.array_equal(result.embeddings, reference)
    assert set(result.workers) == {"p1"}
    assert fleet.telemetry.count("failover") > 0
    stub = victim.stats()
    assert stub["alive"] is False and stub["backend"] == "process"
    assert stub["service"]["cache"]["lookups"] == 0


def test_close_is_graceful_and_idempotent(checkpoint, corpus):
    replica = ProcessReplica("p0", checkpoint, response_timeout=30.0)
    router = FleetRouter([replica])
    router.embed(corpus[:4])
    replica.close()
    replica.close()
    assert not replica.alive


def test_timed_out_replica_is_terminated_not_left_to_reply_late(
        tmp_path, checkpoint, corpus, reference):
    """A reply that misses ``response_timeout`` must never answer a later
    request: the hung child is terminated and the replica reads as down,
    so the next batch fails over instead of reading the stale rows."""
    hung = ProcessReplica("p0", checkpoint, version="m-v1",
                          response_timeout=0.5,
                          fault=HangWorkerOnce(tmp_path / "hung", item=0,
                                               seconds=2.0))
    steady = ProcessReplica("p1", checkpoint, version="m-v1",
                            response_timeout=30.0)
    with FleetRouter([hung, steady]) as router:
        router.stats()  # both children are up and answering
        started = time.monotonic()
        with pytest.raises(WorkerDownError):
            hung.embed_items(corpus[:3])
        assert time.monotonic() - started < 0.5 + 1.0
        assert not hung.alive
        result = router.embed_detailed(corpus[3:7])
        assert np.array_equal(result.embeddings, reference[3:7])
        assert set(result.workers) == {"p1"}


@pytest.mark.skipif(not chaos_enabled(),
                    reason="chaos tests run with REPRO_CHAOS=1")
def test_chaos_kill_mid_load_fails_over_without_version_mixing(
        tmp_path, checkpoint, corpus, reference):
    """The acceptance scenario: a replica dies *during* the load.

    ``KillWorkerOnce`` hard-exits the child on its third request; every
    in-flight and subsequent item must complete on the survivor,
    bit-identical and single-versioned, and the death must be visible in
    the failover counter.
    """
    doomed = ProcessReplica("p0", checkpoint, version="m-v1",
                            response_timeout=30.0,
                            fault=KillWorkerOnce(tmp_path / "killed", item=2))
    steady = ProcessReplica("p1", checkpoint, version="m-v1",
                            response_timeout=30.0)
    with FleetRouter([doomed, steady]) as router:
        versions = set()
        workers_seen = set()
        for start in range(0, len(corpus), 3):
            batch = corpus[start:start + 3]
            result = router.embed_detailed(batch)
            assert np.array_equal(result.embeddings,
                                  reference[start:start + 3])
            versions |= result.served_versions()
            workers_seen |= set(result.workers)
        fault = KillWorkerOnce(tmp_path / "killed", item=2)
        assert fault.fired(), "the chaos kill never triggered"
        assert not doomed.alive
        assert versions == {"m-v1"}, "failover must not mix versions"
        assert "p1" in workers_seen
        assert router.telemetry.count("failover") > 0
        assert router.stats()["alive"] == 1
