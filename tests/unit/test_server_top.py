"""The ``repro-eval top`` dashboard rendering, pinned against
synthetic frames (no socket, no terminal)."""

from repro.api import MetricsFrame
from repro.server import render_frame
from repro.server.metrics import _BUCKET_EDGES
from repro.server.top import _bar, _fmt_s, _window_quantile


def _frame(**overrides):
    stream = {
        "counters": {
            "completed": 20,
            "shed": 2,
            "coalesced": 1,
            "warm_hits": 3,
            "requests": {"analyze": 15, "execute": 7, "stats": 0,
                         "subscribe": 0, "unsubscribe": 0},
            "errors": {"overloaded": 2},
            "speculation": {"commits": 2, "rollbacks": 1},
        },
        "gauges": {"inflight": 3, "connections": 2, "max_inflight": 16,
                   "queue_depth": [4, 0, 1]},
        "hot_shards": None,
        "latency": {"buckets": {"10": 18, "14": 2}, "count": 20,
                    "invalid": 0, "max_s": 0.012, "overflow": 0,
                    "sum_s": 0.06},
        "topology": "threads",
        "uptime_s": 12.5,
    }
    stream.update(overrides.pop("stream", {}))
    defaults = dict(seq=3, stream=stream, elapsed_s=2.0, final=False,
                    history=[])
    defaults.update(overrides)
    return MetricsFrame(**defaults)


class TestHelpers:
    def test_bar_clamps_and_fills(self):
        assert _bar(0, 10, width=4) == "[....]"
        assert _bar(5, 10, width=4) == "[##..]"
        assert _bar(50, 10, width=4) == "[####]"
        assert _bar(1, 0, width=4) == "[....]"  # no capacity: empty

    def test_fmt_s_units(self):
        assert _fmt_s(0.00005).endswith("us")
        assert _fmt_s(0.005).endswith("ms")
        assert _fmt_s(2.5) == "2.50s"

    def test_window_quantile_over_sparse_deltas(self):
        assert _window_quantile({}, 0.5) == 0.0
        # all mass in one bucket: estimates interpolate within the
        # bucket (monotone in q, never past the bucket's upper edge)
        p50 = _window_quantile({"10": 5}, 0.5)
        p99 = _window_quantile({"10": 5}, 0.99)
        assert 0 < p50 <= p99 <= _BUCKET_EDGES[10]
        assert p50 > _BUCKET_EDGES[9]
        # mass split: p95 lands in the upper bucket
        assert _window_quantile({"10": 90, "20": 10}, 0.95) > \
            _window_quantile({"10": 90, "20": 10}, 0.50)


class TestRenderFrame:
    def test_threads_frame_content(self):
        text = render_frame(_frame(), "127.0.0.1:7070")
        assert "repro-eval top -- 127.0.0.1:7070" in text
        assert "topology=threads" in text
        assert "frame=3" in text
        assert "(final)" not in text
        # rates over the 2.0s window: 22 requests -> 11.0/s, 20
        # completed -> 10.0/s, 2 shed -> 1.0/s
        assert "requests      11.0/s" in text
        assert "completed     10.0/s" in text
        assert "shed           1.0/s" in text
        assert "coalesced" in text  # threads tier third row
        assert "max_inflight=16" in text
        # one bar per worker, labeled, with the raw depth
        assert "w0" in text and "w2" in text
        assert "[########################] 4" in text
        assert "latency window: n=20" in text
        assert "speculation: +2 commit / +1 rollback" in text
        assert "tier" not in text
        # no hot-shard line on the threads tier, no history line
        assert "hot shards" not in text
        assert "history" not in text

    def test_final_frame_and_history_annotations(self):
        frame = _frame(
            seq=0, final=True, elapsed_s=0.0,
            history=[{"seq": 7}, {"seq": 8}],
        )
        text = render_frame(frame, "x:1")
        assert "(final)" in text
        assert "first frame: no window yet" in text
        assert "history: 2 ring sample(s), seq 7..8" in text

    def test_multiproc_frame_content(self):
        frame = _frame(stream={
            "topology": "multiproc",
            "counters": {
                "completed": 10, "shed": 0, "rerouted": 4, "fanouts": 2,
                "requests": {"analyze": 10}, "errors": {},
            },
            "gauges": {"inflight": 1, "connections": 1,
                       "backends_live": 2, "backend_inflight": [3, 1]},
            "hot_shards": {"hot_digests": 1, "hot_rps_threshold": 5.0,
                           "max_rate": 9.5, "tracked": 12, "window_s": 1.0},
        })
        text = render_frame(frame, "x:1")
        assert "topology=multiproc" in text
        assert "rerouted" in text and "fanouts" in text
        assert "coalesced" not in text
        assert "backends_live=2" in text
        assert "backend in-flight:" in text
        assert "b0" in text and "b1" in text
        assert "hot shards: 1 hot (>= 5.0 rps, max 9.5 rps, tracking 12)" \
            in text

    def test_render_is_ansi_free(self):
        assert "\x1b" not in render_frame(_frame(), "x:1")
