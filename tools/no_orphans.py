#!/usr/bin/env python3
"""Run a command and fail if any process it started outlives its parent.

    python tools/no_orphans.py -- CMD [ARG...]

CMD runs as the leader of a new session (``setsid``), so every process
it starts, however deep, carries that session id -- unless it starts a
session of its own, which nothing in this repository does.  While CMD
runs, ``/proc`` is polled for the session's members and the first
command line seen for each is kept (a zombie's reads empty).  Two kinds
of process fail the run:

* **left behind** -- present the moment CMD exits: running, sleeping, or
  a zombie nobody has reaped yet.  There is no grace period, because a
  process that is only *about* to go is still one CMD did not wait for;
* **orphaned** -- seen during the run with a parent outside the session:
  its parent exited without waiting for it.  ``bench/run.py`` runs each
  workload in a child, so a helper leaked by one workload is orphaned
  there and gone long before the whole run ends.

Each is printed as ``pid state cmdline``.  The exit code is CMD's own
when it failed, else 1 if anything was reported, else 0; the last line
says which.  Linux only (reads ``/proc``).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from typing import Optional

POLL_S = 0.05


def read_stat(pid: int) -> Optional[tuple]:
    """(state, ppid, session, command line) of *pid*, None once gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            argv = f.read().split(b"\0")
    except OSError:
        return None
    # "pid (comm) state ppid pgrp session ...": comm may hold spaces
    state, ppid, _, session = stat[stat.rindex(")") + 2 :].split()[:4]
    cmdline = " ".join(a.decode(errors="replace") for a in argv if a)
    comm = stat[stat.index("(") + 1 : stat.rindex(")")]
    return state, int(ppid), int(session), cmdline or f"[{comm}]"


def session_members(sid: int) -> dict:
    """pid -> :func:`read_stat` of every process in session *sid*."""
    members = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = read_stat(int(entry))
            if stat is not None and stat[2] == sid:
                members[int(entry)] = stat
    return members


def is_orphan(pid: int, sid: int) -> bool:
    """Read again: a line read just before its process was reaped, along
    with its parent, must not count."""
    stat = read_stat(pid)
    if stat is None or stat[1] == os.getpid():
        return False
    parent = read_stat(stat[1])
    return parent is None or parent[2] != sid


def main(argv: list) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print("usage: no_orphans.py -- CMD [ARG...]", file=sys.stderr)
        return 2
    if not os.path.isdir("/proc/self"):
        print("no_orphans: needs /proc", file=sys.stderr)
        return 2
    proc = subprocess.Popen(argv, start_new_session=True)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda n, _: proc.send_signal(n))
    seen: dict = {}  # pid -> first command line seen
    orphaned: dict = {}  # pid -> (state, command line) when first seen so
    while True:
        members = session_members(proc.pid)
        for pid, (state, ppid, _, cmdline) in members.items():
            if not cmdline.startswith("["):
                seen.setdefault(pid, cmdline)
            if (ppid != os.getpid() and ppid not in members
                    and pid not in orphaned and is_orphan(pid, proc.pid)):
                orphaned[pid] = (state, cmdline)
        try:
            code = proc.wait(timeout=POLL_S)
            break
        except subprocess.TimeoutExpired:
            pass
    left = session_members(proc.pid)
    reports = [("left behind", pid, stat[0], stat[3])
               for pid, stat in sorted(left.items())]
    reports += [("orphaned", pid, *orphaned[pid])
                for pid in sorted(orphaned) if pid not in left]
    for kind, pid, state, cmdline in reports:
        print(f"no_orphans: {kind}: pid {pid} state {state} "
              f"{seen.get(pid, cmdline)}")
    if reports:
        print(f"no_orphans: FAILED -- {len(reports)} process(es) outlived "
              f"their parent (exit {code})")
        return code or 1
    print(f"no_orphans: nothing outlived the command (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
