"""CWelMax pipeline benchmark.

One run of one workload::

    python3 cwbench/run.py --workload build-50k --seed 1 --seconds 16 \\
        --trace 0

prints every metric by name with its unit and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs a separate traced pass
and reports the per-layer metrics (spans go to ``.cwbench-traces/``).

Any subset of workloads, several runs each (seeds ``seed``, ``seed+1``,
...), each run in its own process, with per-metric median and quartiles::

    python3 cwbench/run.py --workload serve-sweep,serve-drift --runs 5

Durations are scaled to a reference host speed measured between the
operations (``calibrate.py``); the raw values are printed alongside.  Run it
from the repository root; it reads ``src/`` and writes only under
``.cwbench-work/`` (removed when the run ends) and ``.cwbench-traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".cwbench-work"
TRACES = ROOT / ".cwbench-traces"

#: how often set-up is repeated per run (``setup_s`` is the median); the
#: serve-sweep index build alone takes ~7 s, so it is set up twice
SETUPS = {"build-50k": 3, "serve-sweep": 2, "serve-drift": 5,
          "run-paper": 5}
#: a run must end well within three minutes
CHILD_TIMEOUT_S = 150.0

#: end-to-end metric -> unit and the power of the host-speed factor it is
#: scaled by (1: a duration, -1: a rate, 0: not a time); every workload
#: reports all of them
END_TO_END: Tuple[Tuple[str, str, int], ...] = (
    ("setup_s", "s", 1),
    ("op_p50_ms", "ms", 1),
    ("aux_p50_ms", "ms", 1),
    ("peak_rss_mib", "MiB", 0),
    ("objective", "value", 0),
)
#: printed with every run but not in the result line: over ten identical
#: runs on the shared host their spread reached 0.26-0.32 of the median
INFORMATIONAL: Tuple[Tuple[str, str, int], ...] = (
    ("op_tail_ms", "ms", 1),
    ("ops_per_s", "1/s", -1),
)

#: what each end-to-end slot measures on each workload
ALIASES: Dict[str, Dict[str, str]] = {
    "build-50k": {"op_p50_ms": "build_s (median build)",
                  "op_tail_ms": "build_s (slowest build)",
                  "ops_per_s": "builds per second",
                  "aux_p50_ms": "first_query_ms",
                  "peak_rss_mib": "build_rss_mib",
                  "objective": "spread of the first query's 50 seeds"},
    "serve-sweep": {"op_p50_ms": "req_p50_ms", "op_tail_ms": "req_p99_ms",
                    "ops_per_s": "req_per_s",
                    "aux_p50_ms": "cold_start_ms",
                    "peak_rss_mib": "serve_rss_mib",
                    "objective": "mean served estimated value"},
    "serve-drift": {"op_p50_ms": "req_p50_ms", "op_tail_ms": "req_p99_ms",
                    "ops_per_s": "req_per_s",
                    "aux_p50_ms": "delta_p50_ms",
                    "peak_rss_mib": "drift_rss_mib",
                    "objective": "mean select estimated value"},
    "run-paper": {"op_p50_ms": "run_s (median pair)",
                  "op_tail_ms": "run_s (slowest pair)",
                  "ops_per_s": "pairs per second",
                  "aux_p50_ms": "welfare_eval_ms",
                  "peak_rss_mib": "run_rss_mib",
                  "objective": "welfare"},
}


#: which reference kernel (calibrate.py) each workload's durations are
#: scaled by: the one doing the same kind of work
KINDS: Dict[str, Dict[str, str]] = {
    # snapshot generation loops in Python; sampling is dense-matrix NumPy;
    # the first query is mmap setup plus the selection loop
    "build-50k": {"setup": "interp", "op": "array", "aux": "interp"},
    # set-up builds an index with the batched sampler; requests are
    # protocol, asyncio and selection-loop work
    "serve-sweep": {"setup": "array", "op": "interp", "aux": "interp"},
    # set-up and repairs are keyed batched sampling; queries are protocol
    "serve-drift": {"setup": "array", "op": "interp", "aux": "array"},
    # the scalar samplers loop in Python; welfare is batched simulation
    "run-paper": {"setup": "interp", "op": "interp", "aux": "array"},
}
_SLOT = {"setup_s": "setup", "op_p50_ms": "op", "op_tail_ms": "op",
         "ops_per_s": "op", "aux_p50_ms": "aux"}


class ChildFailed(RuntimeError):
    """A measured child process exited without a result."""


def _spawn(kind: str, args: Dict[str, Any], work: Path) -> Dict[str, Any]:
    """Run one measured pass in a fresh interpreter and return its result."""
    number = len(list(work.glob("child-*.json")))
    args_path = work / f"child-{number}.json"
    result_path = work / f"result-{number}.json"
    args_path.write_text(json.dumps(args), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", kind,
         "--child-args", str(args_path), "--child-out", str(result_path)],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=str(ROOT))
    if proc.returncode != 0 or not result_path.exists():
        raise ChildFailed(f"{kind} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-1500:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def _child_main(kind: str, args_path: str, out_path: str) -> int:
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import CHILDREN

    args = json.loads(Path(args_path).read_text(encoding="utf-8"))
    result = CHILDREN[kind](args, Tracer())
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
class Run:
    """Accumulates one run's operations, failures and metric values."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, work: Path) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.work = trace, work
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.values: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []
        #: reference-kernel times sampled between the measured operations
        self.kernel_s: Dict[str, List[float]] = {}

    def child_args(self, **extra: Any) -> Dict[str, Any]:
        label = f"{self.workload}-seed{self.seed}-pid{os.getpid()}"
        return dict(seed=self.seed, seconds=self.seconds,
                    mode="trace" if self.trace else "run",
                    work=str(self.work),
                    trace_file=str(TRACES / f"{label}.jsonl"), **extra)

    def check(self, problems: List[str], ops: int = 1) -> None:
        """Record the problems an output check found, as failed ops."""
        self.problems.extend(problems)
        self.failed += min(ops, len(problems))


def _median_ms(values: List[float]) -> float:
    return 1e3 * statistics.median(values)


def _tail_ms(run: Run, values: List[float]) -> float:
    from workloads import tail

    value, label = tail(values)
    run.notes.append(f"op_p50_ms over {len(values)} samples; op_tail_ms is "
                     f"the {label}")
    return 1e3 * value


def _overhead(untraced: float, traced: float) -> float:
    return traced / untraced - 1.0


def measure_build(run: Run, inputs: Mapping[str, Any]) -> None:
    from workloads import check_build

    result = _spawn("build", run.child_args(snapshot=inputs["snapshot"]),
                    run.work)
    builds = result["builds"]
    run.kernel_s = result["kernel_s"]
    for build in builds:
        run.attempted += 1
        run.check(check_build(build["out"], build["seeds"], build["value"]))
    if run.trace:
        run.layers = result["layers"]
        walls = [b["wall"][1] - b["wall"][0] for b in builds]
        run.layers["trace.overhead_frac"] = _overhead(walls[0], walls[1])
        return
    build_s = [b["build_s"] for b in builds]
    first = [q for b in builds for q in b["first_query_s"]]
    run.notes.append(f"aux_p50_ms over {len(first)} first queries")
    run.values.update(
        op_p50_ms=_median_ms(build_s), op_tail_ms=_tail_ms(run, build_s),
        ops_per_s=len(build_s) / sum(build_s),
        aux_p50_ms=_median_ms(first),
        peak_rss_mib=max(b["rss_mib"] for b in builds),
        objective=statistics.median(b["value"] for b in builds))


def measure_sweep(run: Run, inputs: Mapping[str, Any]) -> None:
    from workloads import check_sweep

    result = _spawn("sweep", run.child_args(index_dir=inputs["index_dir"]),
                    run.work)
    measured = result["traced"] if run.trace else result["pass"]
    run.kernel_s = result.get("kernel_s", {})
    for cold_s, ok in result.get("cold", []):
        run.attempted += 1
        run.failed += not ok
    run.attempted += measured["sent"]
    run.failed += len(measured["failures"])
    run.problems.extend(f"request failed: {failure}"
                        for failure in measured["failures"][:3])
    run.check(check_sweep(inputs, run.seed, measured["kept"]),
              ops=len(measured["kept"]))
    if run.trace:
        untraced = result["untraced"]
        run.attempted += untraced["sent"]
        run.failed += len(untraced["failures"])
        run.layers = result["layers"]
        run.layers["trace.overhead_frac"] = _overhead(
            untraced["wall"][1] - untraced["wall"][0],
            measured["wall"][1] - measured["wall"][0])
        return
    latencies = measured["latencies"]
    run.values.update(
        op_p50_ms=_median_ms(latencies), op_tail_ms=_tail_ms(run, latencies),
        ops_per_s=len(latencies) / measured["busy_s"],
        aux_p50_ms=_median_ms([cold_s for cold_s, _ok in result["cold"]]),
        peak_rss_mib=result["rss_mib"],
        objective=statistics.fmean(measured["values"]))


def measure_drift(run: Run, inputs: Mapping[str, Any]) -> None:
    from workloads import check_drift

    result = _spawn("drift", run.child_args(
        pristine=inputs["pristine"], key=inputs["key"],
        events=inputs["events"]), run.work)
    replays = result["replays"]
    run.kernel_s = result["kernel_s"] or {}
    for replay in replays:
        run.attempted += len(replay["queries"]) + len(replay["deltas"]) \
            + len(replay["failures"])
        run.failed += len(replay["failures"])
        run.problems.extend(f"request failed: {failure}"
                            for failure in replay["failures"][:3])
    run.check(check_drift(inputs, run.seed, result["final_dir"]))
    if run.trace:
        run.layers = result["layers"]
        walls = [r["wall"][1] - r["wall"][0] for r in replays]
        run.layers["trace.overhead_frac"] = _overhead(walls[0], walls[1])
        return
    queries = [q for replay in replays for q in replay["queries"]]
    run.notes.append(f"{len(replays)} replays; aux_p50_ms over "
                     f"{len(replays) * len(replays[0]['deltas'])} deltas")
    run.values.update(
        op_p50_ms=_median_ms(queries), op_tail_ms=_tail_ms(run, queries),
        ops_per_s=len(queries) / sum(queries),
        aux_p50_ms=_median_ms([d for replay in replays
                               for d in replay["deltas"]]),
        peak_rss_mib=result["rss_mib"],
        objective=statistics.fmean(v for replay in replays
                                   for v in replay["values"]))


def measure_paper(run: Run, inputs: Mapping[str, Any]) -> None:
    from workloads import PAPER_RUNS, check_paper

    result = _spawn("paper", run.child_args(instance=inputs["instance"]),
                    run.work)
    pairs = result["pairs"]
    run.kernel_s = result["kernel_s"] or {}
    run.attempted += len(PAPER_RUNS) * len(pairs)
    run.check(check_paper(pairs, result["num_nodes"]),
              ops=len(PAPER_RUNS) * len(pairs))
    if run.trace:
        run.layers = result["layers"]
        walls = [p["wall"][1] - p["wall"][0] for p in pairs]
        run.layers["trace.overhead_frac"] = _overhead(walls[0], walls[1])
        return
    run_s = [p["run_s"] for p in pairs]
    run.values.update(
        op_p50_ms=_median_ms(run_s), op_tail_ms=_tail_ms(run, run_s),
        ops_per_s=len(run_s) / sum(run_s),
        aux_p50_ms=_median_ms([p["eval_s"] for p in pairs]),
        peak_rss_mib=result["rss_mib"],
        objective=statistics.median(p["welfare"] for p in pairs))


def _workloads() -> Dict[str, Tuple[Callable, Callable]]:
    from workloads import setup_build, setup_drift, setup_paper, setup_sweep

    return {"build-50k": (setup_build, measure_build),
            "serve-sweep": (setup_sweep, measure_sweep),
            "serve-drift": (setup_drift, measure_drift),
            "run-paper": (setup_paper, measure_paper)}


WORKLOAD_NAMES = ("build-50k", "serve-sweep", "serve-drift", "run-paper")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One run: set-up (repeated), the measured pass, the checks, the
    routing probe, then the report and the result line.  The reference
    kernel is timed before set-up, before the measured pass and after it."""
    from calibrate import REFERENCE_S, Calibrator
    from layers import PER_LAYER
    from workloads import mixed_kind_probe

    setup, measure = _workloads()[workload]
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        TRACES.mkdir(exist_ok=True)
    run = Run(workload, seed, seconds, trace, work)
    setup_calibrator = Calibrator()
    try:
        setup_times = []
        for attempt in range(SETUPS[workload]):
            directory = work / f"setup-{attempt}"
            directory.mkdir()
            setup_calibrator.sample()
            started = time.perf_counter()
            inputs = setup(seed, directory)
            setup_times.append(time.perf_counter() - started)
            if attempt:
                shutil.rmtree(work / f"setup-{attempt - 1}")
        run.values["setup_s"] = statistics.median(setup_times)
        setup_calibrator.sample()
        try:
            measure(run, inputs)
        except ChildFailed as error:
            run.attempted += 1
            run.failed += 1
            run.problems.append(str(error))
        probe = mixed_kind_probe(seed, work / "probe")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    correct = not run.problems and run.failed == 0
    print(f"# {workload} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}: attempted={run.attempted} "
          f"failed={run.failed} correct={correct}")
    for problem in run.problems:
        print(f"#   check failed: {problem}")
    print(f"#   check.mixed_kind_routing: {probe} (known defect probe, "
          f"not gating)")
    for note in run.notes:
        print(f"#   {note}")
    print(f"#   setup_s runs: {[round(t, 4) for t in setup_times]}")
    # durations at the reference host speed (calibrate.py); raw in brackets
    kinds = KINDS[workload]
    factors = {"setup": setup_calibrator.factor(kinds["setup"])}
    if run.kernel_s.get("interp"):
        for slot in ("op", "aux"):
            factors[slot] = REFERENCE_S[kinds[slot]] / statistics.median(
                run.kernel_s[kinds[slot]])
    print("#   host speed factors: " + ", ".join(
        f"{slot} {factor:.4f} ({kinds[slot]})"
        for slot, factor in factors.items())
        + f" over {len(setup_calibrator.samples['interp'])} set-up and "
          f"{len(run.kernel_s.get('interp', []))} pass kernel samples; "
          f"per-layer values are raw")
    metrics: Dict[str, Dict[str, Any]] = {}
    raw: Dict[str, float] = {}
    if trace:
        run.layers["check.mixed_kind_routing"] = float(probe == "ok")
        for name, unit in PER_LAYER:
            metrics[name] = {"value": float(run.layers.get(name, 0.0)),
                             "unit": unit}
    elif run.values.keys() >= {n for n, _u, _p in END_TO_END + INFORMATIONAL}:
        for name, unit, power in END_TO_END + INFORMATIONAL:
            raw[name] = float(run.values[name])
            factor = factors[_SLOT[name]] if power else 1.0
            metrics[name] = {"value": raw[name] * factor ** power,
                             "unit": unit}
    informational = {name for name, _unit, _power in INFORMATIONAL}
    for name, entry in metrics.items():
        measured = f"(raw {raw[name]:.6g})" if name in raw else ""
        label = f"#   (not reported) {name}" if name in informational \
            else name
        print(f"{label:28s} {entry['value']:>16.6f} {entry['unit']:6s} "
              f"{measured:22s} {ALIASES[workload].get(name, '')}")
    for name in informational:
        metrics.pop(name, None)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct and metrics else 1


# ----------------------------------------------------------------------
# several runs: one process each, summarized
# ----------------------------------------------------------------------
def run_many(workloads: List[str], seed: int, runs: int, seconds: float,
             trace: bool) -> int:
    env = dict(os.environ)
    summary: Dict[str, Any] = {}
    status = 0
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for number in range(runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed + number), "--seconds",
                 str(seconds), "--trace", str(int(trace))],
                env=env, capture_output=True, text=True, cwd=str(ROOT))
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                status = 1
                print(proc.stderr.strip()[-1500:], file=sys.stderr)
            for name, entry in result.get("metrics", {}).items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
        print(f"## {workload}: {runs} runs, seeds {seed}..{seed + runs - 1}")
        rows = {}
        for name, series in values.items():
            q1, q2, q3 = (statistics.quantiles(series, n=4)
                          if len(series) > 1 else (series[0],) * 3)
            spread = (q3 - q1) / q2 if q2 else 0.0
            rows[name] = {"unit": units[name], "runs": series,
                          "median": q2, "q1": q1, "q3": q3,
                          "iqr_over_median": spread}
            print(f"{name:28s} {units[name]:6s} median={q2:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} iqr/median={spread:.4f} "
                  f"runs={[round(v, 6) for v in series]}")
        summary[workload] = rows
    print(json.dumps(summary))
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="comma-separated subset of "
                             f"{', '.join(WORKLOAD_NAMES)}, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds seed, seed+1, ...")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--child-args", help=argparse.SUPPRESS)
    parser.add_argument("--child-out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return _child_main(args.child, args.child_args, args.child_out)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro sources are missing ({SRC / 'repro'}); "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    workloads = (list(WORKLOAD_NAMES) if args.workload == "all"
                 else args.workload.split(","))
    unknown = sorted(set(workloads) - set(WORKLOAD_NAMES))
    if unknown or args.runs < 1 or args.seconds <= 0:
        parser.error(f"unknown workload(s) {unknown}" if unknown
                     else "--runs and --seconds must be positive")
    if len(workloads) > 1 or args.runs > 1:
        return run_many(workloads, args.seed, args.runs, args.seconds,
                        bool(args.trace))
    sys.path.insert(0, str(SRC))
    return run_once(workloads[0], args.seed, args.seconds,
                    bool(args.trace))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
