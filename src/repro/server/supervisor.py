"""Backend process supervision for the multi-process serving tier.

The front tier does not *contain* engines -- it proxies to N
independent backend server processes (each a full ``repro-eval serve``
with its own interpreter, GIL, engine pool and caches).  This module
owns their lifecycle:

* **spawn**: each backend is launched from a command factory (the
  production factory runs ``python -m repro.evaluation serve --port 0``
  and parses the bound ephemeral port from the backend's own
  "listening on host:port" line -- no port-picking race);
* **crash detection + restart with exponential backoff**: a monitor
  thread per backend waits for the process to exit; an unexpected exit
  re-spawns it after ``backoff_base * 2^k`` seconds (capped), and the
  attempt counter resets once a backend has stayed up ``stable_s``
  seconds, so a one-off crash does not penalize the next month of
  uptime;
* **draining shutdown**: ``stop()`` signals every backend (SIGINT --
  the backend's own graceful drain), waits ``grace_s``, then escalates
  to SIGKILL; monitors are joined before return;
* **chaos hooks**: ``kill(index)`` SIGKILLs one backend -- what the
  chaos test and the CI kill-one-backend step use.

The supervisor is deliberately asyncio-free (plain threads + Popen) so
it can be driven from the front tier's event loop (via thread-safe
callbacks), from tests, and from the CLI identically.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, List, Optional

__all__ = ["BackendStatus", "BackendSupervisor", "serve_backend_command"]

#: Pattern the production backend prints once its port is bound.
READY_PATTERN = re.compile(r"listening on ([0-9.]+):([0-9]+)")


def serve_backend_command(
    workers: int = 2,
    cache_dir: Optional[str] = None,
    use_disk_cache: bool = True,
    trace_sample: float = 0.0,
) -> Callable[[int], List[str]]:
    """The production command factory: one single-process
    ``repro-eval serve`` per backend, ephemeral port, inherited
    environment.

    ``trace_sample`` head-samples at the *backend* door; it is normally
    left at 0 because the front tier's own sampling decision propagates
    to the backends in the wire trace context.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")

    def command(index: int) -> List[str]:
        argv = [
            sys.executable, "-m", "repro.evaluation", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--workers", str(workers),
        ]
        if cache_dir is not None:
            argv += ["--cache-dir", cache_dir]
        if not use_disk_cache:
            argv.append("--no-cache")
        if trace_sample > 0.0:
            argv += ["--trace-sample", str(trace_sample)]
        return argv

    return command


class BackendStatus:
    """A point-in-time snapshot of one supervised backend."""

    __slots__ = ("index", "state", "host", "port", "pid", "restarts", "last_error")

    def __init__(self, index, state, host, port, pid, restarts, last_error):
        self.index = index
        self.state = state  # 'starting' | 'up' | 'backoff' | 'stopped'
        self.host = host
        self.port = port
        self.pid = pid
        self.restarts = restarts
        self.last_error = last_error

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "state": self.state,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "restarts": self.restarts,
            "last_error": self.last_error,
        }


class _Backend:
    """Mutable supervised state of one backend (guarded by the
    supervisor lock)."""

    def __init__(self, index: int):
        self.index = index
        self.state = "starting"
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.process: Optional[subprocess.Popen] = None
        self.restarts = 0
        self.last_error = ""
        self.thread: Optional[threading.Thread] = None


class BackendSupervisor:
    """Spawn, monitor, restart and drain N backend server processes."""

    def __init__(
        self,
        count: int,
        command: Callable[[int], List[str]],
        ready_pattern=READY_PATTERN,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
        stable_s: float = 10.0,
        spawn_timeout_s: float = 60.0,
        on_up: Optional[Callable[[int, str, int], None]] = None,
        on_down: Optional[Callable[[int], None]] = None,
    ):
        if count < 1:
            raise ValueError(f"count must be >= 1 (got {count})")
        self.count = count
        self.command = command
        self.ready_pattern = ready_pattern
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.stable_s = stable_s
        self.spawn_timeout_s = spawn_timeout_s
        self.on_up = on_up
        self.on_down = on_down
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._backends = [_Backend(i) for i in range(count)]
        self._started = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "BackendSupervisor":
        with self._lock:
            if self._started:
                return self
            self._started = True
        for backend in self._backends:
            backend.thread = threading.Thread(
                target=self._monitor, args=(backend,),
                name=f"repro-backend-{backend.index}", daemon=True,
            )
            backend.thread.start()
        return self

    def stop(self, grace_s: float = 10.0) -> None:
        """Drain every backend: SIGINT (graceful), wait *grace_s*,
        SIGKILL stragglers, join the monitors."""
        self._stopping.set()
        with self._lock:
            procs = [b.process for b in self._backends if b.process is not None]
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGINT)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + grace_s
        for proc in procs:
            remaining = deadline - time.monotonic()
            try:
                proc.wait(timeout=max(0.0, remaining))
            except subprocess.TimeoutExpired:
                try:
                    proc.kill()
                except (ProcessLookupError, OSError):
                    pass
                proc.wait()
        for backend in self._backends:
            if backend.thread is not None:
                backend.thread.join(timeout=grace_s + 10.0)

    def wait_up(self, timeout_s: float = 60.0, need: Optional[int] = None) -> bool:
        """Block until *need* backends (default: all) are up, or the
        timeout passes.  Returns whether the condition was met."""
        need = self.count if need is None else need
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if sum(1 for s in self.statuses() if s.state == "up") >= need:
                return True
            if self._stopping.is_set():
                return False
            time.sleep(0.02)
        return sum(1 for s in self.statuses() if s.state == "up") >= need

    # -- chaos / introspection ------------------------------------------
    def kill(self, index: int, sig: int = signal.SIGKILL) -> Optional[int]:
        """Send *sig* to one backend (chaos testing).  Returns the pid
        signalled, or ``None`` when the backend has no live process."""
        with self._lock:
            proc = self._backends[index].process
        if proc is None or proc.poll() is not None:
            return None
        try:
            os.kill(proc.pid, sig)
        except (ProcessLookupError, OSError):
            return None
        return proc.pid

    def statuses(self) -> List[BackendStatus]:
        with self._lock:
            return [
                BackendStatus(
                    b.index, b.state, b.host, b.port,
                    b.process.pid if b.process is not None else None,
                    b.restarts, b.last_error,
                )
                for b in self._backends
            ]

    def address(self, index: int) -> Optional[tuple]:
        with self._lock:
            backend = self._backends[index]
            if backend.state == "up" and backend.port is not None:
                return (backend.host, backend.port)
        return None

    # -- monitor loop ---------------------------------------------------
    def _monitor(self, backend: _Backend) -> None:
        attempt = 0
        while not self._stopping.is_set():
            try:
                process = subprocess.Popen(
                    self.command(backend.index),
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                )
            except OSError as exc:
                with self._lock:
                    backend.state = "backoff"
                    backend.last_error = f"spawn failed: {exc}"
                attempt += 1
                self._sleep_backoff(attempt)
                continue
            with self._lock:
                backend.process = process
                backend.state = "starting"
                backend.host = backend.port = None
            up_at = None
            address = self._await_ready(process)
            if address is not None:
                with self._lock:
                    backend.host, backend.port = address
                    backend.state = "up"
                    backend.last_error = ""
                up_at = time.monotonic()
                if self.on_up is not None:
                    self.on_up(backend.index, address[0], address[1])
            # drain remaining output until the process exits (keeps the
            # pipe from filling; retains nothing -- backends do their
            # own logging)
            self._drain(process)
            returncode = process.wait()
            was_up = address is not None
            # a drained exit during shutdown is not a death
            if was_up and self.on_down is not None and not self._stopping.is_set():
                self.on_down(backend.index)
            if self._stopping.is_set():
                break
            with self._lock:
                backend.state = "backoff"
                backend.restarts += 1
                if not was_up:
                    backend.last_error = (
                        f"exited with code {returncode} before binding"
                    )
                else:
                    backend.last_error = f"exited with code {returncode}"
            # a backend that stayed up long enough earns a fresh backoff
            if up_at is not None and time.monotonic() - up_at >= self.stable_s:
                attempt = 0
            attempt += 1
            self._sleep_backoff(attempt)
        with self._lock:
            backend.state = "stopped"

    def _sleep_backoff(self, attempt: int) -> None:
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        self._stopping.wait(delay)

    def _await_ready(self, process: subprocess.Popen) -> Optional[tuple]:
        """Read the backend's stdout until the ready line appears
        (returning its (host, port)), the process exits, or the spawn
        timeout passes (then the hung backend is killed)."""
        deadline = time.monotonic() + self.spawn_timeout_s
        buffer = b""
        selector = selectors.DefaultSelector()
        selector.register(process.stdout, selectors.EVENT_READ)
        try:
            while time.monotonic() < deadline and not self._stopping.is_set():
                if not selector.select(timeout=0.1):
                    if process.poll() is not None:
                        return None
                    continue
                chunk = os.read(process.stdout.fileno(), 65536)
                if not chunk:  # EOF: process died before binding
                    return None
                buffer += chunk
                match = self.ready_pattern.search(buffer.decode(errors="replace"))
                if match:
                    return (match.group(1), int(match.group(2)))
        finally:
            selector.close()
        # hung before binding (or the supervisor is stopping): reap it
        if process.poll() is None:
            try:
                process.kill()
            except (ProcessLookupError, OSError):
                pass
        return None

    def _drain(self, process: subprocess.Popen) -> None:
        selector = selectors.DefaultSelector()
        try:
            selector.register(process.stdout, selectors.EVENT_READ)
        except (ValueError, OSError):
            return
        try:
            while True:
                if not selector.select(timeout=0.2):
                    if process.poll() is not None:
                        return
                    continue
                try:
                    chunk = os.read(process.stdout.fileno(), 65536)
                except OSError:
                    return
                if not chunk:
                    return
        finally:
            selector.close()
