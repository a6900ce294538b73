"""Dispatcher admission control: coalescing, shedding, error mapping.

The deterministic trick: a pool that has not been started yet queues
work without serving it, so in-flight state can be arranged exactly;
start() then drains everything.
"""

import pytest

from repro.api import (
    AnalyzeRequest,
    AnalyzeResponse,
    EngineConfig,
    ErrorResponse,
    ExecuteRequest,
)
from repro.server import Dispatcher, EnginePool

SOURCE = """
program dispatch_test
param N
array A(100), B(100)

main
  do i = 1, N @ copy
    A[i] = B[i] + 1
  end
end
"""

OTHER = SOURCE.replace("B[i] + 1", "B[i] + 2").replace(
    "program dispatch_test", "program dispatch_other"
)


def _pool(**kwargs):
    kwargs.setdefault("engine_config", EngineConfig(use_disk_cache=False))
    return EnginePool(**kwargs)


class TestCoalescing:
    def test_identical_inflight_analyzes_coalesce(self):
        pool = _pool(workers=1, queue_depth=16)
        dispatcher = Dispatcher(pool)
        request = AnalyzeRequest(source=SOURCE, loop="copy")
        futures = [dispatcher.submit(request) for _ in range(5)]
        # one unit of queued work, four riders
        assert pool.queue_size(0) == 1
        assert pool.metrics.snapshot()["coalesced"] == 4
        pool.start()
        texts = {f.result(timeout=60).canonical_text() for f in futures}
        assert len(texts) == 1
        assert all(
            isinstance(f.result(), AnalyzeResponse) for f in futures
        )
        pool.stop()

    def test_different_options_do_not_coalesce(self):
        pool = _pool(workers=1, queue_depth=16)
        dispatcher = Dispatcher(pool)
        dispatcher.submit(AnalyzeRequest(source=SOURCE, loop="copy"))
        dispatcher.submit(
            AnalyzeRequest(source=SOURCE, loop="copy", options={"size_cap": 99})
        )
        assert pool.queue_size(0) == 2
        assert pool.metrics.snapshot()["coalesced"] == 0
        pool.start()
        pool.stop()

    def test_executes_never_coalesce(self):
        pool = _pool(workers=1, queue_depth=16)
        dispatcher = Dispatcher(pool)
        request = ExecuteRequest(source=SOURCE, loop="copy", params={"N": 4})
        dispatcher.submit(request)
        dispatcher.submit(request)
        assert pool.queue_size(0) == 2
        pool.start()
        pool.stop()

    def test_coalescing_resets_after_completion(self):
        pool = _pool(workers=1, queue_depth=16).start()
        dispatcher = Dispatcher(pool)
        request = AnalyzeRequest(source=SOURCE, loop="copy")
        first = dispatcher.submit(request)
        first.result(timeout=60)
        # in-flight table must be empty again; a new request is primary
        assert not dispatcher._inflight_analyze
        second = dispatcher.submit(request)
        assert second.result(timeout=60).canonical_text() == \
            first.result().canonical_text()
        pool.stop()


class TestShedding:
    def test_queue_full_sheds_with_typed_error(self):
        pool = _pool(workers=1, queue_depth=2)
        dispatcher = Dispatcher(pool, max_inflight=100)
        a = ExecuteRequest(source=SOURCE, loop="copy", params={"N": 2})
        b = ExecuteRequest(source=OTHER, loop="copy", params={"N": 2})
        dispatcher.submit(a)
        dispatcher.submit(b)
        shed = dispatcher.submit(a).result(timeout=5)
        assert isinstance(shed, ErrorResponse)
        assert shed.code == "overloaded"
        assert shed.retryable is True
        snapshot = pool.metrics.snapshot()
        assert snapshot["shed"] == 1
        # the microsecond shed fast-path must not pollute the latency
        # histogram (it only measures requests that reached the pool)
        assert snapshot["latency"]["count"] == 0
        pool.start()
        pool.stop()

    def test_max_inflight_budget_sheds(self):
        pool = _pool(workers=2, queue_depth=100)
        dispatcher = Dispatcher(pool, max_inflight=2)
        a = ExecuteRequest(source=SOURCE, loop="copy", params={"N": 2})
        b = ExecuteRequest(source=OTHER, loop="copy", params={"N": 2})
        assert not dispatcher.submit(a).done()
        assert not dispatcher.submit(b).done()
        shed = dispatcher.submit(a).result(timeout=5)
        assert shed.code == "overloaded"
        pool.start()
        pool.stop()

    def test_budget_frees_after_completion(self):
        pool = _pool(workers=1, queue_depth=10).start()
        dispatcher = Dispatcher(pool, max_inflight=1)
        request = ExecuteRequest(source=SOURCE, loop="copy", params={"N": 2})
        first = dispatcher.submit(request)
        first.result(timeout=60)
        assert dispatcher.inflight() == 0
        second = dispatcher.submit(request)
        result = second.result(timeout=60)
        assert not isinstance(result, ErrorResponse)
        pool.stop()


class TestErrorMapping:
    def test_unknown_loop_is_bad_request(self):
        pool = _pool(workers=1).start()
        dispatcher = Dispatcher(pool)
        response = dispatcher.submit(
            AnalyzeRequest(source=SOURCE, loop="no_such_loop")
        ).result(timeout=60)
        assert isinstance(response, ErrorResponse)
        assert response.code == "bad_request"
        assert response.retryable is False
        pool.stop()

    def test_parse_failure_is_bad_request(self):
        pool = _pool(workers=1).start()
        dispatcher = Dispatcher(pool)
        response = dispatcher.submit(
            AnalyzeRequest(source="this is not a program", loop="L")
        ).result(timeout=60)
        assert isinstance(response, ErrorResponse)
        assert response.code == "bad_request"
        pool.stop()

    @pytest.mark.parametrize("chunk, message", [
        ({"size": 2.5}, "chunk size must be an int >= 1 (got 2.5)"),
        ({"size": "3"}, "chunk size must be an int >= 1 (got '3')"),
        ({"size": True}, "chunk size must be an int >= 1 (got True)"),
        ({"policy": 7}, "unknown chunk policy 7; valid: ['static', 'dynamic']"),
    ])
    def test_a_malformed_chunk_is_a_bad_request_naming_the_field(self, chunk, message):
        """Not whatever ``range()`` or ``<`` said once the capture had
        run (``'float' object cannot be interpreted as an integer``)."""
        pool = _pool(workers=1).start()
        response = Dispatcher(pool).submit(ExecuteRequest(
            source=SOURCE, loop="copy", params={"N": 4}, backend="thread", chunk=chunk,
        )).result(timeout=60)
        pool.stop()
        assert isinstance(response, ErrorResponse)
        assert (response.code, response.message) == ("bad_request", message)

    def test_non_request_is_bad_request(self):
        pool = _pool(workers=1)
        dispatcher = Dispatcher(pool)
        response = dispatcher.submit("not a request").result(timeout=5)
        assert response.code == "bad_request"
        pool.stop()

    def test_pool_shutdown_maps_to_overloaded(self):
        pool = _pool(workers=1)  # never started
        dispatcher = Dispatcher(pool)
        future = dispatcher.submit(
            ExecuteRequest(source=SOURCE, loop="copy", params={"N": 2})
        )
        pool.stop(drain=False)
        response = future.result(timeout=5)
        assert isinstance(response, ErrorResponse)
        assert response.code == "overloaded"
        assert response.retryable is True

    def test_stop_under_load_does_not_deadlock(self):
        """stop(drain=True) racing submit() with a full worker inbox
        must terminate (regression: a lock cycle between the pool lock,
        the bounded inbox and the dispatcher lock hung forever)."""
        import threading

        slow = (
            "program slow\n"
            "param N, M\n"
            "array S(50), W(500)\n"
            "\n"
            "main\n"
            "  do i = 1, N @ copy\n"
            "    do j = 1, M\n"
            "      S[i] = S[i] + (W[j] * i)\n"
            "    end\n"
            "  end\n"
            "end\n"
        )
        pool = _pool(workers=1, queue_depth=1).start()
        dispatcher = Dispatcher(pool, max_inflight=100)
        running = ExecuteRequest(source=slow, loop="copy",
                                 params={"N": 40, "M": 400})
        queued = ExecuteRequest(source=OTHER, loop="copy", params={"N": 2})
        first = dispatcher.submit(running)   # worker picks this up
        second = dispatcher.submit(queued)   # fills the depth-1 inbox

        def racing_submit():
            dispatcher.submit(
                ExecuteRequest(source=SOURCE, loop="copy", params={"N": 2})
            ).result(timeout=60)

        stopper = threading.Thread(target=pool.stop, daemon=True)
        racer = threading.Thread(target=racing_submit, daemon=True)
        stopper.start()
        racer.start()
        stopper.join(timeout=60)
        racer.join(timeout=60)
        assert not stopper.is_alive(), "pool.stop() deadlocked"
        assert not racer.is_alive(), "dispatcher.submit() deadlocked"
        assert first.result(timeout=5) is not None
        assert second.result(timeout=5) is not None


class TestAdmissionController:
    """AIMD policy under an injected clock: pure, deterministic."""

    def make(self, base=16, **kwargs):
        from repro.server import AdmissionController

        clock = {"now": 0.0}
        kwargs.setdefault("sustain_s", 1.0)
        controller = AdmissionController(
            base, clock=lambda: clock["now"], **kwargs
        )
        return controller, clock

    def test_validation(self):
        from repro.server import AdmissionController

        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(16, decrease=1.0)
        with pytest.raises(ValueError):
            AdmissionController(16, low_utilization=0.9, high_utilization=0.5)

    def test_transient_spike_does_not_shrink(self):
        controller, clock = self.make(base=16)
        # saturated for less than sustain_s: budget holds
        assert controller.observe(100, 100, 0, 0) == 16
        clock["now"] = 0.5
        assert controller.observe(100, 100, 0, 0) == 16
        # the queue drains before the window elapses: pressure re-arms
        clock["now"] = 0.9
        assert controller.observe(0, 100, 0, 0) == 16
        clock["now"] = 1.5
        assert controller.observe(100, 100, 0, 0) == 16

    def test_sustained_pressure_halves_to_floor(self):
        controller, clock = self.make(base=16)
        budget = 16
        for tick in range(1, 40):
            clock["now"] = tick * 0.6
            budget = controller.observe(80, 100, budget, 5)
        assert budget == controller.floor == 2
        snap = controller.snapshot()
        assert snap["under_pressure"] is True
        assert snap["decreases"] >= 3

    def test_drained_and_bound_grows_additively_to_cap(self):
        controller, clock = self.make(base=16)
        # shrink first
        controller.observe(100, 100, 0, 0)
        clock["now"] = 1.2
        assert controller.observe(100, 100, 0, 1) == 8
        # drained + shedding: grow one step per tick
        clock["now"] = 2.0
        assert controller.observe(0, 100, 0, 1) == 10
        clock["now"] = 2.6
        assert controller.observe(0, 100, 0, 1) == 12
        # grow to cap, never beyond
        budget = 12
        for tick in range(200):
            clock["now"] = 3.0 + tick * 0.6
            budget = controller.observe(0, 100, budget, 1)
        assert budget == controller.cap == 64

    def test_idle_unbound_server_holds_budget(self):
        controller, clock = self.make(base=16)
        for tick in range(10):
            clock["now"] = tick * 0.6
            # empty queues, nothing in flight, no sheds: no probe
            assert controller.observe(0, 100, 0, 0) == 16
        assert controller.snapshot()["increases"] == 0

    def test_inflight_near_budget_counts_as_bound(self):
        controller, clock = self.make(base=16)
        # 75% of budget in flight is enough pressure to probe upward
        assert controller.observe(0, 100, 12, 0) == 18


class TestDispatcherAdapt:
    def test_static_dispatcher_adapt_is_noop(self):
        pool = _pool(workers=1)
        dispatcher = Dispatcher(pool, max_inflight=8)
        assert dispatcher.adapt(100, 100) == 8
        assert dispatcher.max_inflight == 8
        snap = dispatcher.admission_snapshot()
        assert snap == {
            "adaptive": False, "base_max_inflight": 8,
            "max_inflight": 8, "shed_total": 0,
        }
        pool.stop(drain=False)

    def test_adapt_applies_controller_budget(self):
        from repro.server import AdmissionController

        clock = {"now": 0.0}
        pool = _pool(workers=1)
        controller = AdmissionController(8, clock=lambda: clock["now"])
        dispatcher = Dispatcher(pool, max_inflight=8, controller=controller)
        assert dispatcher.adapt(10, 10) == 8  # pressure starts
        clock["now"] = 1.5
        assert dispatcher.adapt(10, 10) == 4  # sustained: halved
        assert dispatcher.max_inflight == 4
        snap = dispatcher.admission_snapshot()
        assert snap["adaptive"] is True
        assert snap["controller"]["budget"] == 4
        pool.stop(drain=False)

    def test_adaptive_sheds_less_than_static_under_recovery(self):
        """The acceptance scenario, deterministic: identical request
        schedules against a static and an adaptive dispatcher.  After
        an overload burst the queues drain; the adaptive budget grows
        back and admits later bursts the static budget keeps shedding.
        """
        from repro.server import AdmissionController

        def run(adaptive):
            clock = {"now": 0.0}
            pool = _pool(workers=1, queue_depth=64)  # never started:
            # queued work stays queued, so admission is the only actor
            controller = (
                AdmissionController(4, sustain_s=1.0,
                                    clock=lambda: clock["now"])
                if adaptive else None
            )
            dispatcher = Dispatcher(pool, max_inflight=4,
                                    controller=controller)
            request = ExecuteRequest(source=SOURCE, loop="copy",
                                     params={"N": 2})
            shed = 0
            for round_index in range(6):
                for _ in range(8):  # burst of 8 against budget 4
                    future = dispatcher.submit(request)
                    if future.done() and isinstance(
                        future.result(), ErrorResponse
                    ):
                        shed += 1
                # between bursts the workers catch up: simulate the
                # drain the sampler would observe (in-flight work
                # completes; queues empty)
                with dispatcher._lock:
                    dispatcher._inflight = 0
                clock["now"] = float(round_index + 1)
                dispatcher.adapt(0, 64)  # drained queue signal
            pool.stop(drain=False)
            return shed

        static_shed = run(adaptive=False)
        adaptive_shed = run(adaptive=True)
        # static: every round sheds 8 - 4 = 4.  adaptive: the drained-
        # while-shedding signal grows the budget (4 -> 5 -> 6 ...), so
        # later bursts shed strictly less.
        assert static_shed == 24
        assert adaptive_shed < static_shed
