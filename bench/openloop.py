"""Open-loop driver: requests are sent on a schedule, whatever the
server does, and each one is timed from the moment it was *due*.

``repro.server.loadgen``'s open loop stamps a request when it is
actually sent, so a sender stalled behind a slow server hides the very
queueing an open loop exists to show.  Here request *k* is due at
``start + k * interval``; a late send still counts from the due
time, and how late the generator itself ran is reported beside the
latencies (``late_ms``) so that a slow generator cannot pass for a slow
server.  A request that is refused, answered with an error, or not
answered before the drain timeout is a failure and misses the limit.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.api import StatsRequest, StatsResponse
from repro.server.client import ServerClient

#: how long the receiver waits for outstanding answers after the last send
DRAIN_S = 5.0


@dataclass
class OpenLoopResult:
    #: (latency from due time in ms, request meta, response) per answer
    answers: list = field(default_factory=list)
    #: actual send minus due time, ms, per request sent
    late_ms: list = field(default_factory=list)
    sent: int = 0
    #: transport-level problems (strings)
    problems: list = field(default_factory=list)
    wall_s: float = 0.0


def run_open_loop(host, port, requests, rate, seconds) -> OpenLoopResult:
    """Offer *rate* requests/s for *seconds* on one connection: a sender
    thread on the schedule, the calling thread receiving.  *requests*
    yields ``(meta, request)``."""
    result = OpenLoopResult()
    pending: deque = deque()  # (due, meta), FIFO == response order
    try:
        client = ServerClient(host, port, timeout=DRAIN_S)
    except OSError as exc:
        result.problems.append(f"connect: {type(exc).__name__}: {exc}")
        return result
    interval = 1.0 / rate
    start = time.perf_counter() + 0.05
    stop_at = start + seconds

    def sender():
        try:
            due = start
            # build the next request before sleeping, so the send
            # itself is all that stands between waking and the wire
            for meta, request in requests:
                if due >= stop_at:
                    break
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                pending.append((due, meta))
                result.late_ms.append((time.perf_counter() - due) * 1e3)
                client.send(request)
                result.sent += 1
                due += interval
            # answers come back in request order, so the answer to this
            # stats request tells the receiver that the schedule is over
            client.send(StatsRequest())
        except OSError as exc:
            result.problems.append(f"send: {type(exc).__name__}: {exc}")

    thread = threading.Thread(target=sender, daemon=True)
    thread.start()
    try:
        while True:
            response = client.recv()
            if isinstance(response, StatsResponse):
                break  # the sender's end-of-schedule sentinel
            due, meta = pending.popleft()
            result.answers.append(
                ((time.perf_counter() - due) * 1e3, meta, response)
            )
    except (OSError, ValueError) as exc:
        # a timeout here means the drain limit passed with requests
        # still unanswered; they stay counted in sent - len(answers)
        result.problems.append(f"recv: {type(exc).__name__}: {exc}")
    finally:
        thread.join(timeout=DRAIN_S)
        client.close()
    result.wall_s = time.perf_counter() - start
    return result
