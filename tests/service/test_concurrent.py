"""Coalescing and load-shedding under real threads.

Synchronisation is event-based (gate backends), never time-based: the
tests block on explicit rendezvous points with hard deadlines, so they
are deterministic and sleep-free.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exec.clock import VirtualClock
from repro.policies.lru import LRU
from repro.service.backend import Backend, InMemoryBackend
from repro.service.service import (
    HIT,
    MISS,
    SHED,
    STALE,
    CacheService,
    ServiceConfig,
)

#: hard real-time cap on any rendezvous in this module
DEADLINE = 30.0


class GateBackend(Backend):
    """A backend whose fetches block until the test opens the gate."""

    def __init__(self) -> None:
        self.origin = InMemoryBackend()
        self.entered = threading.Event()   # a fetch has started
        self.gate = threading.Event()      # fetches may proceed

    def fetch(self, key):
        self.entered.set()
        assert self.gate.wait(DEADLINE), "test gate never opened"
        return self.origin.fetch(key)


def run_threads(fn, count):
    """Run *fn(index)* in *count* threads; returns the results in order."""
    results = [None] * count
    errors = []

    def runner(index):
        try:
            results[index] = fn(index)
        except BaseException as exc:  # surface worker failures in the test
            errors.append(exc)

    pool = [threading.Thread(target=runner, args=(i,), daemon=True)
            for i in range(count)]
    for thread in pool:
        thread.start()
    deadline = time.monotonic() + DEADLINE
    for thread in pool:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive(), "worker thread hung (deadlock?)"
    assert not errors, f"worker raised: {errors[0]!r}"
    return results


def wait_for_waiters(service, key, count):
    """Block until *count* requests wait on *key*'s in-flight fetch."""
    deadline = time.monotonic() + DEADLINE
    while service.flight_waiters(key) < count:
        assert time.monotonic() < deadline, "followers never latched on"
        time.sleep(0)  # yield the GIL; no timed waiting


def join_all(*threads):
    """Join *threads*, failing the test if any is still running."""
    for thread in threads:
        thread.join(DEADLINE)
        assert not thread.is_alive(), "request thread hung (deadlock?)"


class TestCoalescing:
    def test_miss_storm_issues_one_backend_fetch(self):
        backend = GateBackend()
        service = CacheService(LRU(10), backend, ServiceConfig())
        followers = 4

        def hammer(_index):
            return service.get("hot")

        # Leader enters the (blocked) fetch first, so every follower
        # finds the flight in place.
        leader = threading.Thread(target=hammer, args=(0,), daemon=True)
        leader.start()
        assert backend.entered.wait(DEADLINE)
        # Wait until all followers joined the flight, then open the gate.
        pool = [threading.Thread(target=hammer, args=(i,), daemon=True)
                for i in range(followers)]
        for thread in pool:
            thread.start()
        wait_for_waiters(service, "hot", followers)
        backend.gate.set()
        join_all(leader, *pool)

        assert backend.origin.fetch_count("hot") == 1   # single-flight
        snap = service.metrics.snapshot()
        assert snap["requests"] == followers + 1
        assert snap["miss"] == followers + 1            # all share the fetch
        assert snap["coalesced"] == followers
        assert snap["hit"] + snap["miss"] == followers + 1
        assert service.flight_waiters("hot") == 0       # flight released

    def test_coalesced_followers_share_the_leaders_failure(self):
        class FailingGate(GateBackend):
            def fetch(self, key):
                self.entered.set()
                assert self.gate.wait(DEADLINE)
                raise RuntimeError("origin exploded")

        backend = FailingGate()
        service = CacheService(LRU(10), backend,
                               ServiceConfig(breaker=None))
        results = {}
        leader = threading.Thread(
            target=lambda: results.setdefault("leader", service.get("k")),
            daemon=True)
        leader.start()
        assert backend.entered.wait(DEADLINE)
        follower = threading.Thread(
            target=lambda: results.setdefault("follower", service.get("k")),
            daemon=True)
        follower.start()
        wait_for_waiters(service, "k", 1)
        backend.gate.set()
        join_all(leader, follower)
        assert results["leader"].outcome == "error"
        assert results["follower"].outcome == "error"
        assert results["follower"].coalesced
        assert "origin exploded" in results["follower"].error

    def test_next_request_after_settle_is_a_hit(self):
        backend = GateBackend()
        backend.gate.set()  # no blocking needed here
        service = CacheService(LRU(10), backend, ServiceConfig())
        assert service.get("k").outcome == MISS
        assert service.get("k").outcome == HIT
        assert backend.origin.fetch_count("k") == 1


class TestLoadShedding:
    def test_requests_beyond_max_inflight_are_shed(self):
        backend = GateBackend()
        service = CacheService(LRU(10), backend,
                               ServiceConfig(max_inflight=1))
        leader_result = {}
        leader = threading.Thread(
            target=lambda: leader_result.setdefault(
                "r", service.get("slow")),
            daemon=True)
        leader.start()
        assert backend.entered.wait(DEADLINE)   # one fetch in flight
        shed = service.get("other")             # over the in-flight cap
        assert shed.outcome == SHED
        assert shed.value is None
        assert not shed.ok
        assert "load shed" in shed.error
        backend.gate.set()
        join_all(leader)
        assert leader_result["r"].outcome == MISS
        snap = service.metrics.snapshot()
        assert snap["shed"] == 1 and snap["miss"] == 1

    def test_shed_request_serves_stale_if_available(self):
        clock = VirtualClock()
        backend = GateBackend()
        backend.gate.set()
        service = CacheService(
            LRU(10), backend,
            ServiceConfig(ttl=5.0, stale_ttl=50.0, max_inflight=1),
            clock=clock)
        service.get("a")                        # cache at t=0
        clock.advance(10.0)                     # "a" expired
        backend.gate.clear()                    # block the next fetch
        leader = threading.Thread(target=lambda: service.get("slow"),
                                  daemon=True)
        leader.start()
        assert backend.entered.wait(DEADLINE)
        result = service.get("a")               # shed path, stale copy
        assert result.outcome == STALE
        assert result.value == "value:a"
        backend.gate.set()
        join_all(leader)

    def test_same_key_is_coalesced_not_shed(self):
        # max_inflight caps *distinct* fetches; a second request for
        # the key already being fetched must join it, not be shed.
        backend = GateBackend()
        service = CacheService(LRU(10), backend,
                               ServiceConfig(max_inflight=1))
        outcomes = {}
        leader = threading.Thread(
            target=lambda: outcomes.setdefault("lead", service.get("k")),
            daemon=True)
        leader.start()
        assert backend.entered.wait(DEADLINE)
        follower = threading.Thread(
            target=lambda: outcomes.setdefault("follow", service.get("k")),
            daemon=True)
        follower.start()
        wait_for_waiters(service, "k", 1)
        backend.gate.set()
        join_all(leader, follower)
        assert outcomes["lead"].outcome == MISS
        assert outcomes["follow"].outcome == MISS
        assert outcomes["follow"].coalesced
        assert service.metrics.snapshot()["shed"] == 0


@pytest.mark.timeout(60)
class TestNoDeadlockSmoke:
    def test_interleaved_keys_do_not_deadlock(self):
        service = CacheService(LRU(16), InMemoryBackend(), ServiceConfig())

        def hammer(index):
            for step in range(500):
                service.get((index + step) % 40)
            return True

        assert all(run_threads(hammer, 8))
        assert_total = service.metrics.snapshot()
        assert assert_total["requests"] == 8 * 500
