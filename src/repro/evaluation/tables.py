"""Regenerate Tables 1-3: per-benchmark properties and loop classification.

Each row reports the measured classification and techniques next to the
paper's, plus the measured runtime-test overhead (RTov) and the coverage
needing runtime tests (SCrt).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ..workloads import ALL_BENCHMARKS
from .model import measure_benchmark

__all__ = [
    "TableRow", "TableReport", "generate_table", "format_table",
    "format_fuzz_table",
]

_SUITE_PROCS = {"perfect": 4, "spec92": 4, "spec2000": 8}


@dataclass
class TableRow:
    """One loop row of a table."""

    benchmark: str
    loop: str
    lsc: float
    gr_ms: float
    paper_class: str
    measured_class: str
    parallel: bool
    correct: bool
    rtov: float


@dataclass
class TableReport:
    """One regenerated table."""

    suite: str
    rows: list[TableRow] = field(default_factory=list)
    benchmark_rtov: dict[str, float] = field(default_factory=dict)
    benchmark_rtov_paper: dict[str, float] = field(default_factory=dict)
    benchmark_scrt: dict[str, float] = field(default_factory=dict)
    benchmark_techniques: dict[str, list[str]] = field(default_factory=dict)


def classification_compatible(measured: str, paper: str) -> bool:
    """Is the measured classification consistent with the paper's row?

    Exact match, or an accepted refinement: EXACT-family labels match the
    paper's TLS/HOIST-USR (runtime-refined), F/OI prefixes are mutually
    compatible at matching cost, CIVagg matches CIV-COMP, and reduction /
    bounds labels match the BOUNDS-COMP rows.
    """
    if measured == paper:
        return True
    pairs = [
        (("TLS",), ("TLS", "EXACT")),
        (("HOIST-USR",), ("HOIST-USR", "EXACT")),
        # A statically-planned reduction (SRED) is a static parallel
        # decision -- no runtime test runs; the paper's STATIC-PAR rows
        # for pure reduction loops (e.g. EK[1] += VF[i]) match it.
        (("STATIC-PAR",), ("STATIC-PAR", "SRED")),
        (("CIV-COMP", "CIVagg"), ("CIVagg", "CIV-COMP", "STATIC-PAR")),
        (("SLV",), ("OI", "CIVagg", "SLV")),
        (("BOUNDS-COMP",), ("BOUNDS-COMP", "RRED", "SRED")),
        (("STATIC-SEQ",), ("STATIC-SEQ", "SEQ")),
        # A reduction treatment of an output-dependent loop matches the
        # paper's OI rows (both parallelize via a cross-iteration-write
        # resolution at the same test complexity).
        (("OI",), ("OI", "RRED", "F/OI")),
    ]
    for papers, measures in pairs:
        if any(paper.startswith(p) or p in paper for p in papers):
            if any(measured.startswith(m) or m in measured for m in measures):
                return True
    # F/OI family: same cost class is what matters.
    fam = ("FI", "OI", "F/OI")
    if paper.startswith(fam) and measured.startswith(fam):
        return True
    if paper.endswith("HOIST-USR") and measured.startswith(fam):
        return True
    return False


def generate_table(suite: str, scale: int = 1) -> TableReport:
    """Regenerate the table for one suite ('perfect'/'spec92'/'spec2000')."""
    report = TableReport(suite=suite)
    procs = _SUITE_PROCS[suite]
    for spec in ALL_BENCHMARKS:
        if spec.suite != suite:
            continue
        measurement = measure_benchmark(spec, system="hybrid", scale=scale)
        techniques: set[str] = set()
        for loop in spec.loops:
            m = measurement.loops[loop.label]
            report.rows.append(
                TableRow(
                    benchmark=spec.name,
                    loop=loop.label,
                    lsc=loop.lsc,
                    gr_ms=loop.gr_ms,
                    paper_class=loop.paper_class,
                    measured_class=m.runtime_label,
                    parallel=m.parallel,
                    correct=m.correct,
                    rtov=m.rtov(procs),
                )
            )
            if m.plan is not None:
                techniques.update(m.plan.techniques())
        report.benchmark_rtov[spec.name] = measurement.rtov(procs)
        report.benchmark_rtov_paper[spec.name] = spec.rtov_paper
        report.benchmark_scrt[spec.name] = measurement.measured_scrt()
        report.benchmark_techniques[spec.name] = sorted(techniques)
    return report


def format_fuzz_table(report) -> str:
    """Soundness/precision summary of a differential-fuzzing run.

    *report* is a :class:`repro.fuzz.oracle.FuzzReport` (duck-typed here
    to keep the evaluation layer import-free of the fuzz package).
    """
    total = len(report.results)
    counts = report.counts
    lines = [
        f"Differential fuzzing: {total} seed(s) in {report.elapsed_s:.2f}s "
        f"({report.cache_hits} cached)",
        f"{'outcome':<18}{'count':>7}{'%':>8}",
        "-" * 33,
    ]
    for name in ("sound-parallel", "sound-sequential", "precision-gap",
                 "unsound", "crash"):
        n = counts.get(name, 0)
        pct = (100.0 * n / total) if total else 0.0
        lines.append(f"{name:<18}{n:>7}{pct:>7.1f}%")
    lines.append("-" * 33)
    parallelized = counts.get("sound-parallel", 0)
    gaps = counts.get("precision-gap", 0)
    candidates = parallelized + gaps
    precision = (100.0 * parallelized / candidates) if candidates else 100.0
    verdict = "SOUND" if report.ok else "UNSOUND/CRASHING"
    lines.append(
        f"soundness: {verdict} "
        f"({counts.get('unsound', 0)} unsound, {counts.get('crash', 0)} crash); "
        f"precision: {precision:.1f}% of independent runs parallelized"
    )
    lines.append(
        f"decision step: inspector reached {report.inspector_reached} time(s), "
        f"BOUNDS-COMP {report.bounds_comp_reached} (executed seeds only)"
    )
    lines.append(
        f"speculative marked run: inline {report.spec_inline}, "
        f"thread pool {report.spec_thread}, process pool {report.spec_process}; "
        f"committed in place {report.spec_in_place}, "
        f"re-judged by the isolated run {report.spec_rejudged}"
    )
    lines.append(
        f"chunks copied out: in place {report.chunk_in_place}, "
        f"by diff {report.chunk_diff}, by record {report.chunk_record} "
        "(counted in this process)"
    )
    lines.append(
        f"loop exits: {report.entries_verified} entries matched the in-order "
        f"run, {report.arbiter_runs} execute(s) re-run whole to settle a mismatch"
    )
    hist = report.classification_histogram()
    if hist:
        top = ", ".join(f"{label} x{n}" for label, n in hist[:10])
        lines.append(f"classifications: {top}")
    return "\n".join(lines)


def format_table(report: TableReport) -> str:
    """Pretty-print a regenerated table, paper vs measured."""
    lines = [
        f"Table ({report.suite} suite): loop classification, paper vs measured",
        f"{'BENCH':<12}{'LOOP':<18}{'LSC%':>6}{'GR ms':>9}"
        f"  {'PAPER':<16}{'MEASURED':<18}{'PAR':<5}{'OK':<4}{'RTov%':>7}",
        "-" * 96,
    ]
    current = None
    for row in report.rows:
        bench = row.benchmark if row.benchmark != current else ""
        current = row.benchmark
        lines.append(
            f"{bench:<12}{row.loop:<18}{row.lsc * 100:>6.1f}{row.gr_ms:>9.3f}"
            f"  {row.paper_class:<16}{row.measured_class:<18}"
            f"{'yes' if row.parallel else 'no':<5}"
            f"{'y' if row.correct else 'N':<4}{row.rtov * 100:>7.2f}"
        )
    lines.append("-" * 96)
    lines.append(f"{'BENCH':<12}{'RTov measured':>14}{'RTov paper':>12}{'SCrt':>8}  techniques")
    for name, rtov in report.benchmark_rtov.items():
        lines.append(
            f"{name:<12}{rtov * 100:>13.2f}%{report.benchmark_rtov_paper[name] * 100:>11.2f}%"
            f"{report.benchmark_scrt[name] * 100:>7.1f}%  "
            + ",".join(report.benchmark_techniques[name])
        )
    return "\n".join(lines)
