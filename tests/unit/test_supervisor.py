"""Backend process supervision: spawn, ready parsing, crash restart
with backoff, draining stop, chaos kill."""

import signal
import sys
import time

import pytest

from repro.server import BackendSupervisor


def _script_command(body):
    """A command factory running *body* as a fake backend."""
    def command(index):
        return [sys.executable, "-u", "-c", body.format(index=index)]
    return command


#: A fake backend that binds nothing but speaks the ready line and
#: exits cleanly on SIGINT, like the real server.
_WELL_BEHAVED = """
import signal, sys, time
signal.signal(signal.SIGINT, lambda *a: sys.exit(0))
print("repro-serve: listening on 127.0.0.1:{index}", flush=True)
while True:
    time.sleep(0.1)
"""

#: A backend that dies immediately, before ever binding.
_CRASH_LOOP = """
import sys
sys.exit(3)
"""


def _wait(predicate, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestSupervisor:
    def test_rejects_zero_backends(self):
        with pytest.raises(ValueError):
            BackendSupervisor(0, _script_command(_WELL_BEHAVED))

    @pytest.mark.parametrize("sizes", [
        {"backends": 0}, {"replicas": 0}, {"backend_workers": 0},
        {"replicas": -1}, {"backend_workers": -2},
    ])
    def test_front_tier_rejects_sizes_below_one(self, sizes):
        """Checked at construction: nothing is spawned, and no backend is
        ever started with a command it exits 2 on."""
        from repro.server import FrontTier

        (name, value), = sizes.items()
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            FrontTier(port=0, **{"backends": 2, **sizes})

    def test_front_tier_keeps_replicas_within_backends(self):
        from repro.server import FrontTier

        assert FrontTier(port=0, backends=2, replicas=5).replicas == 2

    @pytest.mark.parametrize("workers", [0, -1])
    def test_backend_command_rejects_workers_below_one(self, workers):
        from repro.server.supervisor import serve_backend_command

        with pytest.raises(ValueError, match="workers must be >= 1"):
            serve_backend_command(workers=workers)

    def test_spawns_and_parses_ready_line(self):
        supervisor = BackendSupervisor(
            2, _script_command(_WELL_BEHAVED), backoff_base=0.05
        ).start()
        try:
            assert supervisor.wait_up(timeout_s=30)
            statuses = supervisor.statuses()
            assert [s.state for s in statuses] == ["up", "up"]
            # the fake backend advertises its index as its port
            assert supervisor.address(0) == ("127.0.0.1", 0)
            assert supervisor.address(1) == ("127.0.0.1", 1)
            assert all(s.pid is not None for s in statuses)
            assert all(s.restarts == 0 for s in statuses)
        finally:
            supervisor.stop(grace_s=5)
        assert [s.state for s in supervisor.statuses()] == ["stopped", "stopped"]

    def test_on_up_callback_fires_with_address(self):
        seen = []
        supervisor = BackendSupervisor(
            1, _script_command(_WELL_BEHAVED),
            on_up=lambda i, h, p: seen.append((i, h, p)),
        ).start()
        try:
            assert supervisor.wait_up(timeout_s=30)
            assert _wait(lambda: seen == [(0, "127.0.0.1", 0)])
        finally:
            supervisor.stop(grace_s=5)

    def test_crash_restarts_with_backoff(self):
        supervisor = BackendSupervisor(
            1, _script_command(_CRASH_LOOP),
            backoff_base=0.01, backoff_cap=0.05,
        ).start()
        try:
            assert _wait(
                lambda: supervisor.statuses()[0].restarts >= 3, timeout_s=30
            )
            status = supervisor.statuses()[0]
            assert status.state in ("backoff", "starting")
            assert "exited with code 3" in status.last_error
        finally:
            supervisor.stop(grace_s=5)

    def test_kill_triggers_restart_and_counts(self):
        supervisor = BackendSupervisor(
            1, _script_command(_WELL_BEHAVED),
            backoff_base=0.01, backoff_cap=0.05,
        ).start()
        try:
            assert supervisor.wait_up(timeout_s=30)
            first_pid = supervisor.statuses()[0].pid
            deaths = []
            supervisor.on_down = lambda i: deaths.append(i)
            assert supervisor.kill(0, signal.SIGKILL) == first_pid
            assert _wait(
                lambda: supervisor.statuses()[0].state == "up"
                and supervisor.statuses()[0].pid != first_pid,
                timeout_s=30,
            )
            assert supervisor.statuses()[0].restarts == 1
            assert deaths == [0]
        finally:
            supervisor.stop(grace_s=5)

    def test_kill_on_dead_backend_returns_none(self):
        supervisor = BackendSupervisor(1, _script_command(_WELL_BEHAVED))
        assert supervisor.kill(0) is None  # never started

    def test_stop_terminates_promptly_and_is_idempotent(self):
        supervisor = BackendSupervisor(
            2, _script_command(_WELL_BEHAVED)
        ).start()
        assert supervisor.wait_up(timeout_s=30)
        pids = [s.pid for s in supervisor.statuses()]
        started = time.monotonic()
        supervisor.stop(grace_s=10)
        assert time.monotonic() - started < 10
        supervisor.stop(grace_s=1)  # second stop is a no-op
        import os

        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
