"""ServerMetrics counters and the latency histogram.

The stats snapshot is a wire document (served via the ``stats`` verb),
so its key set must be exact and stable; the histogram's percentiles
interpolate log-linearly inside log-spaced buckets, so every estimate
lands within one bucket ratio of the exact nearest-rank quantile.
"""

import math
import random
import threading

from repro.api import ERROR_CODES
from repro.server import FrontTierMetrics, LatencyHistogram, ServerMetrics
from repro.server.metrics import _BUCKET_RATIO

SNAPSHOT_KEYS = {
    "coalesced", "completed", "connections", "errors", "inflight",
    "latency", "requests", "shed", "speculation", "uptime_s", "warm_hits",
}
LATENCY_KEYS = {"count", "invalid", "mean_s", "p50_s", "p95_s", "p99_s",
                "max_s"}
VERB_KEYS = {"analyze", "execute", "stats", "subscribe", "trace",
             "unsubscribe"}


class TestLatencyHistogram:
    def test_empty_is_all_zero(self):
        snap = LatencyHistogram().snapshot()
        assert snap == {
            "count": 0, "invalid": 0, "mean_s": 0.0, "p50_s": 0.0,
            "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0,
        }

    def test_quantiles_stay_within_one_bucket_of_a_point_mass(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(0.003)
        snap = hist.snapshot()
        assert snap["count"] == 100
        # every quantile interpolates inside the one occupied bucket
        assert 0.003 / _BUCKET_RATIO <= snap["p50_s"] <= 0.003 * _BUCKET_RATIO
        assert snap["p50_s"] <= snap["p95_s"] <= snap["p99_s"]
        assert snap["p99_s"] <= snap["max_s"]  # clamped to the observed max
        assert abs(snap["max_s"] - 0.003) < 1e-9
        assert abs(snap["mean_s"] - 0.003) < 1e-9

    def test_spread_sample_orders_percentiles(self):
        hist = LatencyHistogram()
        for i in range(1, 101):
            hist.observe(i / 1000.0)  # 1ms .. 100ms
        snap = hist.snapshot()
        assert 0.050 / _BUCKET_RATIO <= snap["p50_s"] <= 0.100
        assert snap["p95_s"] >= 0.095 / _BUCKET_RATIO
        assert snap["p50_s"] < snap["p95_s"] <= snap["p99_s"]

    def test_negative_clamped(self):
        hist = LatencyHistogram()
        hist.observe(-1.0)
        assert hist.snapshot()["max_s"] == 0.0

    def test_non_finite_durations_rejected(self):
        # regression: a single NaN used to poison sum_s (every later
        # mean became NaN) and inf pinned max_s forever
        hist = LatencyHistogram()
        hist.observe(0.002)
        for poison in (float("nan"), float("inf"), float("-inf"), None, "x"):
            hist.observe(poison)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["invalid"] == 5
        assert math.isfinite(snap["mean_s"]) and snap["mean_s"] > 0
        assert snap["max_s"] == 0.002
        # the histogram keeps working after the bad samples
        hist.observe(0.004)
        assert hist.snapshot()["count"] == 2
        assert math.isfinite(hist.snapshot()["mean_s"])

    def test_state_is_sparse_and_cumulative(self):
        hist = LatencyHistogram()
        hist.observe(0.003)
        hist.observe(0.003)
        hist.observe(float("nan"))
        state = hist.state()
        assert state["total"] == 2
        assert state["invalid"] == 1
        assert sum(state["counts"].values()) == 2
        assert len(state["counts"]) == 1  # sparse: only hit buckets


class TestQuantileInterpolation:
    """The log-linear estimate is bounded against the exact
    nearest-rank quantile of the raw samples: it never errs by more
    than one bucket ratio in either direction (the histogram only
    knows the bucket, interpolation just places the rank inside it),
    and never exceeds the observed maximum."""

    QS = (0.50, 0.90, 0.95, 0.99)

    @staticmethod
    def _exact(samples, q):
        ordered = sorted(samples)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    def _assert_bounded(self, samples):
        hist = LatencyHistogram()
        for value in samples:
            hist.observe(value)
        for q in self.QS:
            exact = self._exact(samples, q)
            estimate = hist.quantile(q)
            assert estimate <= max(samples) + 1e-12
            assert exact / _BUCKET_RATIO <= estimate <= exact * _BUCKET_RATIO, (
                f"q={q}: estimate {estimate} vs exact {exact}"
            )

    def test_uniform_spread(self):
        self._assert_bounded([i / 1000.0 for i in range(1, 501)])

    def test_log_spread(self):
        rng = random.Random(7)
        self._assert_bounded(
            [10 ** rng.uniform(-4.5, 0.5) for _ in range(1000)]
        )

    def test_heavy_tail(self):
        rng = random.Random(11)
        self._assert_bounded(
            [0.002 + rng.paretovariate(1.5) / 1000.0 for _ in range(800)]
        )

    def test_bimodal(self):
        self._assert_bounded([0.001] * 400 + [0.2] * 100)

    def test_estimates_are_monotone_in_q(self):
        rng = random.Random(3)
        hist = LatencyHistogram()
        for _ in range(300):
            hist.observe(rng.uniform(0.0005, 0.5))
        values = [hist.quantile(q / 100.0) for q in range(1, 100)]
        assert values == sorted(values)


class TestServerMetrics:
    def test_snapshot_schema_is_exact(self):
        snap = ServerMetrics().snapshot()
        assert set(snap) == SNAPSHOT_KEYS
        assert set(snap["latency"]) == LATENCY_KEYS
        assert set(snap["requests"]) == VERB_KEYS
        assert set(snap["errors"]) == ERROR_CODES
        assert snap["speculation"] == {"commits": 0, "rollbacks": 0}

    def test_counter_lifecycle(self):
        metrics = ServerMetrics()
        metrics.connection_opened()
        metrics.request_received("analyze")
        metrics.request_admitted()
        assert metrics.snapshot()["inflight"] == 1
        metrics.request_completed(0.004)
        metrics.shed()
        metrics.coalesced()
        metrics.warm_hit()
        metrics.error("bad_request")
        metrics.connection_closed()
        snap = metrics.snapshot()
        assert snap["requests"]["analyze"] == 1
        assert snap["completed"] == 1
        assert snap["inflight"] == 0
        assert snap["connections"] == 0
        assert snap["shed"] == 1
        assert snap["coalesced"] == 1
        assert snap["warm_hits"] == 1
        assert snap["errors"]["overloaded"] == 1  # shed implies the code
        assert snap["errors"]["bad_request"] == 1
        assert snap["latency"]["count"] == 1

    def test_speculation_counters_accumulate(self):
        metrics = ServerMetrics()
        metrics.speculation(1, 0)
        metrics.speculation(0, 1)
        metrics.speculation(2, 0)
        assert metrics.snapshot()["speculation"] == {
            "commits": 3, "rollbacks": 1,
        }

    def test_unknown_verb_and_code_ignored(self):
        metrics = ServerMetrics()
        metrics.request_received("frobnicate")
        metrics.error("no_such_code")
        snap = metrics.snapshot()
        assert sum(snap["requests"].values()) == 0
        assert sum(snap["errors"].values()) == 0

    def test_connections_gauge_never_underflows(self):
        # regression: an unmatched close (teardown racing the open
        # accounting) used to drive the gauge to -1 forever
        metrics = ServerMetrics()
        metrics.connection_closed()
        assert metrics.snapshot()["connections"] == 0
        metrics.connection_opened()
        metrics.connection_closed()
        metrics.connection_closed()
        assert metrics.snapshot()["connections"] == 0
        metrics.connection_opened()  # next open still counts from zero
        assert metrics.snapshot()["connections"] == 1

    def test_front_tier_connections_gauge_never_underflows(self):
        metrics = FrontTierMetrics()
        metrics.connection_closed()
        metrics.connection_closed()
        assert metrics.snapshot()["connections"] == 0
        metrics.connection_opened()
        assert metrics.snapshot()["connections"] == 1

    def test_thread_safety_of_counters(self):
        metrics = ServerMetrics()

        def pound():
            for _ in range(500):
                metrics.request_received("execute")
                metrics.request_admitted()
                metrics.request_completed(0.001)

        threads = [threading.Thread(target=pound) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = metrics.snapshot()
        assert snap["requests"]["execute"] == 4000
        assert snap["completed"] == 4000
        assert snap["inflight"] == 0
        assert snap["latency"]["count"] == 4000


class TestSampleRing:
    def test_sample_shape_and_sequence(self):
        metrics = ServerMetrics()
        first = metrics.sample(gauges={"queue_depth": [0, 1]})
        second = metrics.sample(extra={"hot_shards": {"hot_digests": 0}})
        assert set(first) == {
            "seq", "uptime_s", "stats", "gauges", "extra", "latency_state",
        }
        assert first["seq"] == 0 and second["seq"] == 1
        assert first["gauges"] == {"queue_depth": [0, 1]}
        assert second["extra"] == {"hot_shards": {"hot_digests": 0}}
        assert set(first["stats"]) == SNAPSHOT_KEYS

    def test_ring_is_bounded_and_keeps_newest(self):
        metrics = ServerMetrics(ring_capacity=4)
        for _ in range(10):
            metrics.sample()
        samples = metrics.recent_samples()
        assert [s["seq"] for s in samples] == [6, 7, 8, 9]
        assert [s["seq"] for s in metrics.recent_samples(limit=2)] == [8, 9]
        assert metrics.recent_samples(limit=0) == []

    def test_front_tier_ring_too(self):
        metrics = FrontTierMetrics(ring_capacity=2)
        metrics.sample()
        metrics.sample()
        metrics.sample()
        assert [s["seq"] for s in metrics.recent_samples()] == [1, 2]
