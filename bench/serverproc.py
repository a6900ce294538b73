"""Lifecycle of the server child the serve workloads drive.

The server is the unmodified ``python -m repro.evaluation serve`` in a
process of its own, so the load generator's interpreter lock is not
the server's.  ``stop()`` proves that nothing outlives the run: the
child has exited, its port refuses connections and no ``.repro-cache``
directory appeared.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

from benchlib import ROOT, SRC, cpu_seconds, peak_rss_mb

#: the 2-core sizing: two engine workers, persistent cache off
SERVE_ARGS = ("--port", "0", "--workers", "2", "--no-cache")
_BANNER = "listening on "


class ServerLeak(RuntimeError):
    """Something the server started survived ``stop()``."""


class ServerProc:
    """One ``repro-eval serve`` child, from banner to verified exit."""

    def __init__(self):
        self._cache_before = self._cache_entries()
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
        env.pop("REPRO_CACHE_DIR", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.evaluation", "serve", *SERVE_ARGS],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        try:
            banner = self.proc.stdout.readline()
            if _BANNER not in banner:
                raise RuntimeError(f"server printed no banner: {banner!r}")
            address = banner.split(_BANNER, 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
        except BaseException:
            self._terminate()
            raise

    def _cache_entries(self) -> set:
        cache = ROOT / ".repro-cache"
        return {p.name for p in cache.iterdir()} if cache.is_dir() else set()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def _terminate(self) -> None:
        """SIGINT (graceful drain), wait, then kill what is left."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def stop(self) -> None:
        self._terminate()
        leaks = []
        if self.proc.returncode != 0:
            leaks.append(f"server exited with {self.proc.returncode}")
        if Path(f"/proc/{self.pid}").exists():
            leaks.append(f"process {self.pid} still exists")
        try:
            socket.create_connection((self.host, self.port), 0.5).close()
            leaks.append(f"port {self.port} still accepts connections")
        except OSError:
            pass
        if self._cache_entries() != self._cache_before:
            leaks.append(".repro-cache changed despite --no-cache")
        if leaks:
            raise ServerLeak("; ".join(leaks))
