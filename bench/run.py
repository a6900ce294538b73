"""The benchmark's one command.

    python3 bench/run.py --seed 0                      # all five workloads,
                                                       # untraced then traced
    python3 bench/run.py --workload serve_warm --seed 3 --seconds 10 --trace 0

With ``--workload`` the run happens in this process and the last line
of standard output is one JSON object with exactly ``correct``,
``attempted``, ``failed`` and ``metrics`` -- every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Without it each workload gets a process of its own
(peak memory and the process-global memo tables must not carry over).
Every run is pinned to one CPU and every time it reports is scaled to
the reference host (``benchlib``, host speed).  The exit code is
non-zero if any output was wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

_T0 = time.perf_counter()

from benchlib import (  # noqa: E402
    SRC,
    host_facts,
    median,
    metric_doc,
    pin_to_one_cpu,
    probe,
    scaled_seconds,
    spec,
)

IN_PROCESS = ("compile_cold", "exec_paper", "exec_kernels")
#: what an in-process workload imports before it can start
_IMPORT_PROBE = (
    "import repro.api, repro.workloads, repro.evaluation.profile, "
    "repro.runtime.backends"
)


def _import_seconds(repeats: int) -> float:
    """Median time of a fresh interpreter importing the package: the
    part of set-up that cannot be repeated inside this process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return median(
        scaled_seconds(lambda: subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, check=True
        ))
        for _ in range(repeats)
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    """One run of one workload in this process; returns the full record
    (the driver's four keys plus what a reader needs beside them)."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    cpu = pin_to_one_cpu()
    import wl_inprocess
    import wl_serve

    in_process = name in IN_PROCESS
    workload = (wl_inprocess if in_process else wl_serve).make(name)
    # set-up is repeated so that its median is steady; a traced run
    # reports no set-up time and prepares once
    repeats = 1 if trace or quick else workload.setup_repeats
    setups = []
    try:
        for repeat in range(repeats):
            if repeat:
                workload.release()
            setups.append(scaled_seconds(lambda: workload.prepare(seed, quick)))
        if trace:
            slowness = [probe()]
            outcome = workload.traced(seconds)
            slowness.append(probe())
            # traced times are as this host ran them; this says how slow
            # it was (1 = the reference host)
            outcome["metrics"]["gen.host_slowness"] = sum(slowness) / 2
            metrics = metric_doc("per_layer", outcome["metrics"])
        else:
            outcome = workload.measure(seconds)
            setup_s = median(setups)
            if in_process:
                setup_s += _import_seconds(1 if quick else 3)
            outcome["metrics"]["setup_s"] = setup_s
            metrics = metric_doc("end_to_end", outcome["metrics"])
    finally:
        workload.release()
    problems = outcome["problems"]
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "quick": quick,
        "host": dict(
            host_facts(), pinned_cpu=cpu,
            slowness=median(outcome.get("host_factors") or [0.0]),
        ),
        "correct": not problems,
        "attempted": outcome["attempted"],
        # a wrong answer is a failed operation even when it arrived
        "failed": max(outcome["failed"], len(problems)),
        "problems": problems[:20],
        "setup_samples_s": setups,
        "spans": outcome.get("spans", []),
        # a per-layer metric absent from here read 0 by default
        "produced": sorted(outcome["metrics"]),
        "metrics": metrics,
        "wall_s": time.perf_counter() - _T0,
    }


def _print_record(record: dict) -> None:
    host = record["host"]
    print(
        f"== {record['workload']}  seed={record['seed']} "
        f"trace={record['trace']} seconds={record['seconds']:g}  "
        f"[cpu_count={host['cpu_count']} pinned to cpu {host['pinned_cpu']} "
        f"python={host['python']}]"
    )
    if not record["trace"]:
        print(
            "  times are scaled to the reference host; this one took "
            f"{host['slowness']:.3f} times as long"
        )
    for name, doc in record["metrics"].items():
        print(f"  {name:<34} {doc['value']:>14.6g} {doc['unit']}")
    fail_frac = record["failed"] / record["attempted"]
    print(
        f"  {'fail_frac':<34} {fail_frac:>14.6g} fraction  "
        f"({record['failed']} of {record['attempted']} operations)"
    )
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")


def _append(path: str, record: dict) -> None:
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def _run_all(args) -> int:
    """Every workload in a process of its own, untraced then traced."""
    ok = True
    traces = (0, 1) if args.trace is None else (args.trace,)
    for trace in traces:
        for entry in spec()["workloads"]:
            command = [
                sys.executable, __file__, "--workload", entry["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            if args.quick:
                command.append("--quick")
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            ok = ok and done.returncode == 0
    print("benchmark " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    definition = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in definition["workloads"]],
        help="run this workload only, in this process (default: all five)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the generated inputs (default: 0)")
    parser.add_argument(
        "--seconds", type=float, default=definition["run_seconds"],
        help="how long one run measures (default: run_seconds of "
        "BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=None,
        help="0: end-to-end metrics, tracing off; 1: the traced pass and "
        "its per-layer metrics (default: 0 for one workload, both for all)",
    )
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes; the numbers mean nothing")
    parser.add_argument("--out", metavar="FILE",
                        help="append each run's full record to FILE as one "
                        "JSON line (compare.py reads two such files)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.quick
    )
    _print_record(record)
    if args.out:
        _append(args.out, record)
    print(json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    ), flush=True)
    return 0 if record["correct"] and not record["failed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
