"""ProcessReplica: parity with in-process workers, real death, chaos kill."""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.fleet import (
    FleetRouter,
    FleetWorker,
    ProcessReplica,
    WorkerDownError,
    canary_fraction,
)
from repro.graph import Graph
from repro.resilience import CircuitBreaker
from repro.runtime import fork_available
from repro.serve import EmbeddingService, graph_digest
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
            hung.embed_items([(graph_digest(g), g) for g in corpus[:3]])
        assert time.monotonic() - started < 0.5 + 1.0
        assert not hung.alive
        result = router.embed_detailed(corpus[3:7])
        assert np.array_equal(result.embeddings, reference[3:7])
        assert set(result.workers) == {"p1"}


class _Unpicklable(Graph):
    """A graph that fails loudly if it is ever pickled onto a pipe."""

    def __reduce__(self):
        raise TypeError("this graph must not cross the pipe")


def test_hot_request_ships_no_graph(fleet, corpus, reference):
    """Digest-first: once every row is cached, only digests are sent."""
    fleet.embed(corpus)  # warm-up: each shard misses once and resends
    warm = fleet.stats()
    assert warm["resends"] == 2
    pinned = [_Unpicklable(g.x, g.edge_index) for g in corpus]
    with pytest.raises(TypeError, match="must not cross the pipe"):
        pickle.dumps(pinned[0])
    assert np.array_equal(fleet.embed(pinned), reference)
    stats = fleet.stats()
    assert stats["resends"] == warm["resends"]
    assert stats["worker_errors"] == 0 and stats["failover"] == 0
    assert stats["cache"]["hits"] == len(corpus)


def test_mixed_request_matches_inprocess_worker(checkpoint, corpus):
    """Hits and misses in one request: same rows, order and counters as a
    FleetWorker fed the same sequence. The cache holds 8 rows, so
    evictions are part of what must match."""
    replica = ProcessReplica("p0", checkpoint, version="m-v1",
                             cache_size=8, response_timeout=30.0)
    worker = FleetWorker(
        "p0", EmbeddingService.from_checkpoint(checkpoint, cache_size=8),
        version="m-v1")
    sequence = [corpus[:5], corpus[3:9], corpus[8:10] + corpus[:2],
                corpus[12:14] + corpus[9:10] + corpus[12:13], corpus[9:10],
                corpus[20:24] + corpus[:6]]
    resends = 0
    try:
        for graphs in sequence:
            items = [(graph_digest(g), g) for g in graphs]
            resends += any(d not in worker.stable.service for d, _ in items)
            got_rows, got_versions = replica.embed_items(items)
            want_rows, want_versions = worker.embed_items(items)
            assert np.array_equal(np.stack(got_rows), np.stack(want_rows))
            assert got_versions == want_versions
        got, want = replica.stats(), worker.stats()
        for key in ("hits", "misses", "lookups", "evictions", "size"):
            assert got["service"]["cache"][key] \
                == want["service"]["cache"][key], key
        assert got["service"]["latency"]["requests"] \
            == want["service"]["latency"]["requests"] == len(sequence)
        assert got["service"]["encoder"] == want["service"]["encoder"]
        assert got["served"] == want["served"]
        assert got["resends"] == resends == 5
    finally:
        replica.close()


def test_canary_slice_is_served_from_its_slot(checkpoint, corpus,
                                              reference):
    replica = ProcessReplica("p0", checkpoint, version="m-v1",
                             response_timeout=30.0)
    with FleetRouter([replica]) as router:
        router.deploy_canary(
            lambda: EmbeddingService.from_checkpoint(checkpoint), "m-v2",
            0.5)
        expected = ["m-v2" if canary_fraction(graph_digest(g)) < 0.5
                    else "m-v1" for g in corpus]
        canaried = expected.count("m-v2")
        assert 0 < canaried < len(corpus)
        first = router.embed_detailed(corpus)
        hot = router.embed_detailed(corpus)
        assert first.versions == hot.versions == expected
        assert np.array_equal(hot.embeddings, reference)
        stats = replica.stats()
        assert stats["resends"] == 1  # the hot pass found every row
        assert stats["canary_service"]["cache"]["hits"] == canaried
        assert stats["service"]["cache"]["hits"] == len(corpus) - canaried


def test_resend_without_a_needed_graph_fails_over_not_wrong_row(
        checkpoint, corpus, reference, encoder):
    """A canary-cached row was sent digest-only; the canary then sheds the
    request's miss, so the whole slice falls back to stable, which has
    neither the row nor the graph. The replica must raise (the router's
    failover signal), never serve something else."""
    replica = ProcessReplica("p0", checkpoint, version="m-v1",
                             response_timeout=30.0)
    spare = FleetWorker("p1", EmbeddingService(encoder), version="m-v1")
    with FleetRouter([replica, spare]) as router:
        homed = [i for i, g in enumerate(corpus) if router.home(g) == "p0"]
        cached, shipped = homed[:2]
        canary = EmbeddingService.from_checkpoint(
            checkpoint, breaker=CircuitBreaker(failure_threshold=1,
                                               recovery_timeout=600.0))
        canary.embed([corpus[cached]])
        canary.breaker.record_failure()  # open: misses are shed
        replica.deploy_canary(canary, "m-v2", 1.0)
        items = [(graph_digest(corpus[i]), corpus[i])
                 for i in (cached, shipped)]
        with pytest.raises(RuntimeError, match="no graph was sent"):
            replica.embed_items(items)
        assert replica.alive and replica.resends == 1
        result = router.embed_detailed([corpus[cached], corpus[shipped]])
        assert np.array_equal(result.embeddings,
                              reference[[cached, shipped]])
        assert result.workers == ["p1", "p1"]
        assert router.stats()["worker_errors"] == 1


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
