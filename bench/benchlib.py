"""Shared helpers of the benchmark harness: order statistics, /proc
readers, the host-speed clock, the span recorder, and the metric
vocabulary read back from ``BENCHMARK.json`` (the one place names,
units and bounds are defined).
"""

from __future__ import annotations

import ast
import gc
import json
import os
import platform
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import geometric_mean as geomean, median  # noqa: F401 -- re-exported

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def spec() -> dict:
    """The benchmark definition (``BENCHMARK.json`` at the repo root)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_facts() -> dict:
    """Facts a reader needs before comparing two results."""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the rule ``repro.server.loadgen`` uses)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, round(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when the layer did no work."""
    return numerator / denominator if denominator else 0.0


# -- /proc -------------------------------------------------------------------

def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` of *pid* in MB (the kernel's own high-water mark)."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def cpu_seconds(pid) -> float:
    """utime + stime of *pid*, threads included, in seconds."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    # the command name may contain spaces; fields count from after ')'
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


# -- host speed --------------------------------------------------------------
#
# The benchmark runs on a few cores of a shared host whose speed, as one
# thread sees it, steps between levels up to 2x apart and stays there
# for seconds to minutes (a neighbour on the sibling hardware thread or
# in the shared cache; the kernel reports almost none of it as steal).
# No run length averages that out, so it is measured and divided out:
# the whole benchmark is pinned to one CPU, a fixed *calibration unit*
# of standard-library work runs on that CPU between slices of measured
# work, and every time is reported as it would read on a host where the
# unit takes ``REF_UNIT_S``.

#: seconds the calibration unit takes on the reference host
REF_UNIT_S = 0.002
#: measured work between two probes
SLICE_S = 0.1

_CAL_SOURCE = "def f(a, b):\n" + "\n".join(
    f"    x{i} = a * {i} + b[{i}] if a > {i} else [a, b, {i}]" for i in range(24)
)
_CAL_DOC = {str(i): [i, i * 2, str(i % 7)] for i in range(500)}


def pin_to_one_cpu() -> int:
    """Pin this process, and every child it starts, to one CPU: the
    probes then see the same hardware thread as the measured work, and
    no result depends on how fast a second, halted virtual CPU wakes."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _calibration_unit() -> None:
    """Object allocation, parsing and JSON in the proportions that made
    the unit slow down with the host by the same factor as the three
    kinds of measured work (symbolic analysis, loop interpretation, a
    served round trip) did, to within 5 % a second."""
    table = {}
    for i in range(1500):
        table[i] = (i, [i], str(i))
    compile(ast.parse(_CAL_SOURCE), "<calibration>", "exec")
    json.loads(json.dumps(_CAL_DOC))


def probe(units: int = 3) -> float:
    """Host slowness now: median seconds per calibration unit over the
    reference's (above 1 on a slower host).  The cyclic collector is
    off meanwhile: the unit allocates containers, and a collection it
    set off would walk the measured program's heap and charge the probe
    for the size of it."""
    samples = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(units):
            t0 = time.perf_counter()
            _calibration_unit()
            samples.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return median(samples) / REF_UNIT_S


class HostClock:
    """Times operations in slices of ``SLICE_S``, each between two
    probes, and scales every time by the mean of its slice's probes.
    ``finish`` fills ``samples``, ``slices`` and ``factors``."""

    def __init__(self):
        self.samples: list = []  # (key, reference seconds, slice index)
        self.slices: list = []   # (operations, reference seconds of wall)
        self.factors: list = []  # host slowness of each slice
        self._probes: list = []
        self._closed: list = []  # (index of the opening probe, wall, operations)
        self._open: list = []
        self.restart()

    def restart(self) -> None:
        """Begin a slice now (after work that is not to be measured)."""
        self._probes.append(probe())
        self._start = time.perf_counter()

    def record(self, key, seconds: float) -> None:
        self._open.append((key, seconds))
        if time.perf_counter() - self._start >= SLICE_S:
            self.cut()

    def cut(self) -> None:
        """Close the open slice; its closing probe opens the next.  Call
        before work that is not to be measured, ``restart`` after it."""
        if not self._open:
            return
        wall = time.perf_counter() - self._start
        self._closed.append((len(self._probes) - 1, wall, self._open))
        self._open = []
        self._probes.append(probe())
        self._start = time.perf_counter()

    def finish(self) -> None:
        """Scale what was recorded.  Each probe is first replaced by the
        median of itself and its two neighbours: a stall that hit one
        probe is not the weather of the slices beside it, and a running
        median keeps the steps between the host's levels."""
        self.cut()
        probes = self._probes
        smooth = [median(probes[max(0, i - 1):i + 2]) for i in range(len(probes))]
        for index, (first, wall, operations) in enumerate(self._closed):
            factor = (smooth[first] + smooth[first + 1]) / 2
            self.samples.extend((key, s / factor, index) for key, s in operations)
            self.slices.append((len(operations), wall / factor))
            self.factors.append(factor)


def scaled_seconds(work) -> float:
    """Reference seconds of one call of *work* (a set-up step)."""
    before = probe()
    t0 = time.perf_counter()
    work()
    wall = time.perf_counter() - t0
    return wall / ((before + probe()) / 2)


def band_quantile(values, q: float, half_width: float) -> float:
    """Geometric mean of the order statistics ranked within
    *half_width* of *q*.  The items of a pass are the same in every run
    and their costs lie far apart, so the one item ranked exactly at
    *q* carries its own timing noise and changes identity from run to
    run; a band of neighbours averages both away."""
    ordered = sorted(values)
    lo = max(0, round((q - half_width) * len(ordered)))
    hi = min(len(ordered), max(lo + 1, round((q + half_width) * len(ordered))))
    return geomean(ordered[lo:hi])


def best_item_metrics(samples: list) -> dict:
    """Throughput, median and tail latency of a pass-structured workload
    from each item's *best* time over the passes: interference only ever
    adds time, and with two to four passes a run the minimum is the
    steadiest estimate of what the code costs.  Throughput is items per
    second of the pass made of those best times; the median is the band
    between the 40th and 60th percentile item, the tail the band
    between the 85th and the 95th."""
    best: dict = {}
    for key, seconds, _ in samples:
        best[key] = min(seconds, best.get(key, seconds))
    times = list(best.values())
    return {
        "throughput_ops_s": len(times) / sum(times),
        "lat_p50_ms": band_quantile(times, 0.50, 0.10) * 1e3,
        "lat_tail_ms": band_quantile(times, 0.90, 0.05) * 1e3,
    }


# -- spans -------------------------------------------------------------------

class Spans:
    """In-memory span recorder for the traced pass.

    One record per layer boundary the harness crosses: name, start, end
    and the span that caused it (``records`` goes into the run's
    ``--out`` record as it is).
    """

    def __init__(self):
        self.records: list = []  # [name, parent index or -1, start, end]
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter(), 0.0]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(r[3] - r[2] for r in self.records if r[0] == name)

    def top_level_total(self) -> float:
        return sum(r[3] - r[2] for r in self.records if r[1] == -1)


# -- result assembly ---------------------------------------------------------

def metric_doc(names_key: str, values: dict) -> dict:
    """``{name: {"value", "unit"}}`` for every metric ``BENCHMARK.json``
    lists under *names_key*.  An end-to-end metric the workload did not
    produce, or a produced name the definition does not list, is a
    harness bug; a per-layer metric the workload did not produce reads
    0 (the layer did no work on that workload)."""
    listed = {entry["name"]: entry["unit"] for entry in spec()[names_key]}
    unknown = set(values) - set(listed)
    if unknown:
        raise KeyError(f"not in BENCHMARK.json {names_key}: {sorted(unknown)}")
    if names_key == "end_to_end" and set(listed) - set(values):
        raise KeyError(f"workload produced no {sorted(set(listed) - set(values))}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in listed.items()
    }
