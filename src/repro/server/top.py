"""``repro-eval top``: a live terminal dashboard over the v6 stream.

Subscribes to a running server (either topology) and renders each
:class:`~repro.api.protocol.MetricsFrame` as one text screen: request/
shed/reroute rates computed from the frame's counter deltas, per-worker
queue depth (or per-backend in-flight) as bars, window latency
percentiles reconstructed from the sparse bucket deltas, tier and
speculation counters, and the hot-shard snapshot on the front tier.

Pure rendering (:func:`render_frame`) is separated from the I/O loop
(:func:`run_top`) so the tests can pin the dashboard against synthetic
frames without a terminal; ``--once`` requests exactly one frame and
prints it without ANSI control codes -- the headless/CI mode.
"""

from __future__ import annotations

import sys
from typing import Optional

from ..api.protocol import MetricsFrame
from .client import ServerClient
from .metrics import _BUCKET_EDGES, _interpolate_bucket

__all__ = ["render_frame", "run_top"]

_BAR_WIDTH = 24


def _bar(value: float, cap: float, width: int = _BAR_WIDTH) -> str:
    """A fixed-width utilization bar (cap <= 0 renders empty)."""
    if cap <= 0:
        filled = 0
    else:
        filled = min(width, int(round(width * min(1.0, value / cap))))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _rate(delta: float, elapsed_s: float) -> float:
    return delta / elapsed_s if elapsed_s > 0 else 0.0


def _window_quantile(buckets: dict, q: float) -> float:
    """Quantile over one frame's sparse bucket deltas, log-linearly
    interpolated within the winning bucket (the same estimator the
    cumulative histogram reports)."""
    total = sum(buckets.values())
    if total <= 0:
        return 0.0
    rank = q * total
    seen = 0
    for index in sorted(buckets, key=int):
        count = buckets[index]
        if count and seen + count >= rank:
            i = int(index)
            if 0 <= i < len(_BUCKET_EDGES):
                return _interpolate_bucket(i, rank - seen, count)
            return _BUCKET_EDGES[-1]
        seen += count
    return _BUCKET_EDGES[-1]


def _fmt_s(seconds: float) -> str:
    """Human latency: us/ms/s with 3 significant-ish digits."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def render_frame(frame: MetricsFrame, endpoint: str) -> str:
    """One dashboard screen (plain text, no ANSI) for one frame."""
    stream = frame.stream or {}
    counters = stream.get("counters", {})
    gauges = stream.get("gauges", {})
    latency = stream.get("latency", {})
    elapsed = frame.elapsed_s
    requests = counters.get("requests", {})
    errors = counters.get("errors", {})
    work_delta = requests.get("analyze", 0) + requests.get("execute", 0)

    lines = [
        f"repro-eval top -- {endpoint}  "
        f"topology={stream.get('topology', '?')}  "
        f"uptime={stream.get('uptime_s', 0.0):.1f}s  "
        f"frame={frame.seq}{'  (final)' if frame.final else ''}",
        "",
        f"  rates ({elapsed:.2f}s window)" if elapsed > 0
        else "  rates (first frame: no window yet)",
        f"    requests  {_rate(work_delta, elapsed):8.1f}/s"
        f"    completed {_rate(counters.get('completed', 0), elapsed):8.1f}/s",
        f"    shed      {_rate(counters.get('shed', 0), elapsed):8.1f}/s"
        f"    errors    {_rate(sum(errors.values()), elapsed):8.1f}/s",
    ]

    # tier-specific third rate row
    if "rerouted" in counters or "fanouts" in counters:
        lines.append(
            f"    rerouted  {_rate(counters.get('rerouted', 0), elapsed):8.1f}/s"
            f"    fanouts   {_rate(counters.get('fanouts', 0), elapsed):8.1f}/s"
        )
    else:
        lines.append(
            f"    coalesced {_rate(counters.get('coalesced', 0), elapsed):8.1f}/s"
            f"    warm hits {_rate(counters.get('warm_hits', 0), elapsed):8.1f}/s"
        )

    lines += [
        "",
        f"  gauges: inflight={gauges.get('inflight', 0)}"
        f"  connections={gauges.get('connections', 0)}"
        + (f"  max_inflight={gauges['max_inflight']}"
           if "max_inflight" in gauges else "")
        + (f"  backends_live={gauges['backends_live']}"
           if "backends_live" in gauges else ""),
    ]

    depths = gauges.get("queue_depth")
    if isinstance(depths, list) and depths:
        cap = max(max(depths), 1)
        lines.append("  worker queues:")
        for worker, depth in enumerate(depths):
            lines.append(f"    w{worker:<3d} {_bar(depth, cap)} {depth}")
    backend_inflight = gauges.get("backend_inflight")
    if isinstance(backend_inflight, list) and backend_inflight:
        cap = max(max(backend_inflight), 1)
        lines.append("  backend in-flight:")
        for backend, inflight in enumerate(backend_inflight):
            lines.append(f"    b{backend:<3d} {_bar(inflight, cap)} {inflight}")

    buckets = latency.get("buckets", {})
    lines += [
        "",
        f"  latency window: n={latency.get('count', 0)}"
        f"  p50={_fmt_s(_window_quantile(buckets, 0.50))}"
        f"  p95={_fmt_s(_window_quantile(buckets, 0.95))}"
        f"  max(cum)={_fmt_s(latency.get('max_s', 0.0))}"
        + (f"  invalid=+{latency['invalid']}"
           if latency.get("invalid") else ""),
    ]

    speculation = counters.get("speculation")
    if speculation:
        lines.append(
            f"  speculation: +{speculation.get('commits', 0)} commit"
            f" / +{speculation.get('rollbacks', 0)} rollback"
        )

    hot = stream.get("hot_shards")
    if hot is not None:
        lines.append(
            f"  hot shards: {hot.get('hot_digests', 0)} hot"
            f" (>= {hot.get('hot_rps_threshold', 0)} rps,"
            f" max {hot.get('max_rate', 0.0)} rps,"
            f" tracking {hot.get('tracked', 0)})"
        )

    if frame.history:
        lines.append(
            f"  history: {len(frame.history)} ring sample(s), "
            f"seq {frame.history[0].get('seq', 0)}.."
            f"{frame.history[-1].get('seq', 0)}"
        )
    return "\n".join(lines)


def run_top(
    host: str,
    port: int,
    interval_s: float = 1.0,
    frames: int = 0,
    once: bool = False,
    history: int = 0,
    out=None,
) -> int:
    """Subscribe and render until the stream ends (Ctrl-C unsubscribes
    cleanly).  Returns a process exit code."""
    out = out if out is not None else sys.stdout
    # ANSI clear-screen only on a real terminal in live mode; --once and
    # redirected output stay plain append-only text
    live = bool(not once and hasattr(out, "isatty") and out.isatty())
    client = None
    try:
        client = ServerClient(host, port)
        stream = client.subscribe(
            interval_s=interval_s,
            frames=1 if once else frames,
            history=history,
        )
        try:
            for frame in stream:
                if live:
                    out.write("\x1b[2J\x1b[H")  # clear screen, home cursor
                out.write(render_frame(frame, f"{host}:{port}") + "\n")
                if not live:
                    out.write("\n")
                out.flush()
        except KeyboardInterrupt:
            ack = client.unsubscribe()
            out.write(f"\nstream closed cleanly after {ack.frames} frame(s)\n")
            out.flush()
        return 0
    except (ConnectionError, OSError, RuntimeError) as exc:
        print(f"repro-eval top: {exc}", file=sys.stderr)
        return 1
    finally:
        if client is not None:
            client.close()
