"""Circuit breaker state machine on a virtual clock (no sleeps)."""

from __future__ import annotations

import threading

import pytest

from repro.exec.clock import VirtualClock
from repro.service.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)


def make_breaker(threshold=3, reset=10.0, probes=1, clock=None):
    clock = clock or VirtualClock()
    config = BreakerConfig(failure_threshold=threshold,
                           reset_timeout=reset,
                           half_open_probes=probes)
    return CircuitBreaker(config, clock), clock


class TestConfigValidation:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerConfig(failure_threshold=0)

    def test_rejects_bad_reset_timeout(self):
        with pytest.raises(ValueError, match="reset_timeout"):
            BreakerConfig(reset_timeout=0.0)

    def test_rejects_bad_probe_count(self):
        with pytest.raises(ValueError, match="half_open_probes"):
            BreakerConfig(half_open_probes=0)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker, _ = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = make_breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = make_breaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # streak broken, never reached 3

    def test_half_open_after_cooldown(self):
        breaker, clock = make_breaker(threshold=1, reset=10.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.999)
        assert breaker.state == OPEN
        clock.advance(0.001)
        assert breaker.state == HALF_OPEN

    def test_half_open_grants_limited_probes(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0, probes=2)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # both probe slots consumed

    def test_probe_success_closes(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0)
        breaker.record_failure()     # open at t=0
        clock.advance(5.0)           # half-open at t=5
        assert breaker.allow()
        breaker.record_failure()     # re-open at t=5
        assert breaker.state == OPEN
        clock.advance(4.5)
        assert breaker.state == OPEN     # new cooldown, not the old one
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN

    def test_full_cycle_transitions_recorded_with_timestamps(self):
        breaker, clock = make_breaker(threshold=2, reset=10.0)
        breaker.record_failure()
        breaker.record_failure()         # -> open at t=0
        clock.advance(10.0)
        assert breaker.allow()           # -> half-open at t=10
        breaker.record_success()         # -> closed at t=10
        assert breaker.transitions == [
            (0.0, CLOSED, OPEN),
            (10.0, OPEN, HALF_OPEN),
            (10.0, HALF_OPEN, CLOSED),
        ]


class TestIsOpen:
    """The lock-free closed check still sees every state change."""

    def test_closed_reads_need_no_clock(self):
        class CountingClock(VirtualClock):
            reads = 0

            def now(self):
                self.reads += 1
                return super().now()

        breaker, clock = make_breaker(clock=CountingClock())
        assert not breaker.is_open()
        assert clock.reads == 0

    def test_flips_on_trip_and_back_to_half_open_after_cooldown(self):
        breaker, clock = make_breaker(threshold=2, reset=10.0)
        breaker.record_failure()
        assert not breaker.is_open()
        breaker.record_failure()
        assert breaker.is_open()
        clock.advance(9.5)
        assert breaker.is_open()
        clock.advance(0.5)
        assert not breaker.is_open()         # the due move is applied
        assert breaker.state == HALF_OPEN
        assert breaker.transitions[-1] == (10.0, OPEN, HALF_OPEN)


class TestHalfOpenProbeConcurrency:
    """Races on the half-open probe slots: exactly N winners, ever.

    The half-open state's whole point is to cap the load a possibly
    still-dead backend sees; a race that grants two probes when one is
    configured defeats it.  These tests gate ``half_open_probes`` under
    real thread contention (the lock inside :meth:`allow` makes the
    slot grant atomic with the state refresh).
    """

    def race_allow(self, breaker, threads):
        """Call ``allow()`` once per thread, all released together."""
        barrier = threading.Barrier(threads)
        results = []
        results_lock = threading.Lock()

        def contender():
            barrier.wait()
            granted = breaker.allow()
            with results_lock:
                results.append(granted)

        pool = [threading.Thread(target=contender) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in pool)
        return results

    def test_single_probe_slot_admits_exactly_one_of_many(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0, probes=1)
        breaker.record_failure()
        clock.advance(5.0)
        results = self.race_allow(breaker, threads=16)
        assert len(results) == 16
        assert results.count(True) == 1
        # The race must not have corrupted the state machine: still
        # half-open, exactly one open->half-open transition recorded.
        assert breaker.state == HALF_OPEN
        moves = [(src, dst) for _, src, dst in breaker.transitions]
        assert moves.count((OPEN, HALF_OPEN)) == 1

    def test_n_probe_slots_admit_exactly_n(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0, probes=3)
        breaker.record_failure()
        clock.advance(5.0)
        results = self.race_allow(breaker, threads=12)
        assert results.count(True) == 3

    def test_losing_threads_see_clean_reopen_after_probe_failure(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0, probes=1)
        breaker.record_failure()
        clock.advance(5.0)
        assert self.race_allow(breaker, threads=8).count(True) == 1
        # The winning probe fails: straight back to open with a fresh
        # cooldown, and the next half-open window grants exactly one
        # slot again (the probe counter was reset, not leaked).
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(5.0)
        results = self.race_allow(breaker, threads=8)
        assert results.count(True) == 1

    def test_probe_success_closes_and_unblocks_everyone(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0, probes=1)
        breaker.record_failure()
        clock.advance(5.0)
        assert self.race_allow(breaker, threads=8).count(True) == 1
        breaker.record_success()
        assert breaker.state == CLOSED
        # Closed state has no slot accounting: everyone gets through.
        results = self.race_allow(breaker, threads=8)
        assert results.count(True) == 8

    def test_repeated_half_open_cycles_never_leak_slots(self):
        breaker, clock = make_breaker(threshold=1, reset=5.0, probes=2)
        breaker.record_failure()       # trip it once; stays tripped
        for _ in range(5):
            clock.advance(5.0)
            assert breaker.state == HALF_OPEN
            results = self.race_allow(breaker, threads=10)
            assert results.count(True) == 2
            breaker.record_failure()   # re-open, next cycle
            assert breaker.state == OPEN
