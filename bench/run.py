"""Benchmark for the fedcharge CLI: one workload, one run, one JSON line.

    python3 bench/run.py --workload depot-etl --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; fedcharge is imported from its src/. A run
builds the workload's inputs in set-up, makes one untimed warm-up pass, then
repeats passes for --seconds (at least MIN_PASSES of them). A pass runs the
workload's CLI commands in process through fedcharge.cli.dispatch, the way
`fedcharge <command>` does, and checks the outputs (see checks.py); a pass
that exits nonzero, raises or fails a check counts as failed.

--trace 0 reports the end-to-end metrics: medians over the timed passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics (see layers.py), medians over the traced passes, plus the untraced
command times, the process's CPU use and the tracing overhead.

--seed n offsets every depot seed of the workload by n; outputs are pinned
for n = 0 only, other seeds are checked pass against pass. Human-readable
lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import stats
import workloads
from spans import Tracer, patched
from workloads import ROOT, WORKLOADS, use_checkout_src

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
MIN_PASSES = 3
MIN_TRACED = 2
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class PassResult:
    times: dict[str, float]            # command metric -> seconds, summed over calls
    cpu: float                         # process CPU seconds over the same commands
    problems: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


class Run:
    """Runs and checks passes of one workload and counts the failures."""

    def __init__(self, workload, offset: int, inputs: Path, out: Path, cli):
        self.workload = workload
        self.offset = offset
        self.inputs = inputs
        self.out = out
        self.cli = cli
        self.pins = checks.load_pins(workload.name, offset)
        self.reference: dict | None = None
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer: Tracer | None = None) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        commands = self.workload.commands(self.inputs, self.out, self.offset)
        result = PassResult(times=dict.fromkeys((m for m, _ in commands), 0.0), cpu=0.0)
        cpu0 = time.process_time()
        for metric, argv in commands:
            span = tracer.span(f"cli.{metric}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), span:
                    code = self.cli.dispatch(argv)
            except Exception as exc:  # the program crashed: a failed pass
                traceback.print_exc()
                code = f"{type(exc).__name__}: {exc}"
            result.times[metric] += time.perf_counter() - t0
            if code != 0:
                result.problems.append(f"{argv[0]}: exit {code}")
                break
        result.cpu = time.process_time() - cpu0
        found = checks.digests(self.out, self.workload.outputs)
        result.problems += checks.problems(self.out, found, self.reference, self.pins)
        if self.reference is None:
            self.reference = found
        self.attempted += 1
        if result.problems:
            self.failed += 1
            print(f"pass {self.attempted} failed: {'; '.join(result.problems)}", file=sys.stderr)
        return result


def set_up(workload, offset: int, work: Path, repeats: int) -> tuple[Path, list[float], list[str]]:
    """Build the inputs `repeats` times, each in a fresh interpreter, and time
    each build; every build must produce the same bytes.
    """
    pins = checks.load_pins(workload.name, offset)
    times, problems, first = [], [], None
    for i in range(repeats):
        target = work / f"inputs-{i}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, workloads.__file__, workload.name, str(offset), str(target)],
            cwd=ROOT, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up of {workload.name} exited {proc.returncode}")
        found = checks.digests(target, workload.inputs)
        problems += checks.problems(target, found, first, pins, section="inputs")
        if first is None:
            first = found
        else:
            shutil.rmtree(target)
    return work / "inputs-0", times, problems


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _ok(results: list[PassResult]) -> list[PassResult]:
    """Passes whose times count: the successful ones, or all if none was."""
    return [r for r in results if not r.problems] or results


def command_medians(results: list[PassResult]) -> dict[str, float]:
    return {
        f"{c}_s": statistics.median(r.times.get(c, 0.0) for r in results)
        for c in layers.COMMANDS
    }


def measure_end_to_end(run: Run, seconds: float, setup_times: list[float]) -> dict:
    results: list[PassResult] = []
    t0 = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        results.append(run.one_pass())
    timed = _ok(results)
    walls = [r.wall for r in timed]
    print(f"{len(results)} timed passes after 1 warm-up pass; {SETUP_REPEATS} set-ups")
    for name in timed[0].times:
        print(f"  {name}_s: {stats.describe([r.times[name] for r in timed], 's')}")
    print(f"  wall_s: {stats.describe(walls, 's')}")
    print(f"  setup_s: {stats.describe(setup_times, 's')}")
    cpu = sum(r.cpu for r in timed) / sum(walls)
    print(f"  process.cpu_util: {cpu:.3f} CPU s per wall s")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_layers(run: Run, seconds: float) -> dict:
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    per_pass: list[dict] = []
    rounds: list[float] = []
    t0 = time.perf_counter()
    while min(len(plain), len(traced)) < MIN_TRACED or time.perf_counter() - t0 < seconds:
        if len(plain) <= len(traced):
            plain.append(run.one_pass())
            continue
        tracer = Tracer()
        with patched(tracer, layers.TARGETS):
            traced.append(run.one_pass(tracer))
        per_pass.append(layers.pass_metrics(tracer))
        rounds += layers.round_times(tracer)
    ok = _ok(plain)
    out = {**command_medians(ok), **layers.median_metrics(per_pass)}
    out["federation.round_p50_ms"] = stats.percentile(rounds, 50) * 1e3 if rounds else 0.0
    out["federation.round_p95_ms"] = stats.percentile(rounds, 95) * 1e3 if rounds else 0.0
    out["process.cpu_util"] = sum(r.cpu for r in ok) / sum(r.wall for r in ok)
    # Each traced pass against the untraced pass just before it, so that the
    # machine's slow drift in speed cancels out of the ratio.
    out["trace.overhead_pct"] = 100.0 * statistics.median(
        t.wall / p.wall - 1.0 for p, t in zip(plain, traced))
    print(f"{len(plain)} untraced and {len(traced)} traced passes after 1 warm-up pass")
    if rounds:
        print(f"  federation rounds: {stats.describe([r * 1e3 for r in rounds], 'ms')}")
        if (stats.tail_percentile(len(rounds)) or 0) < 95:
            print("  note: round_p95_ms has fewer than 10 rounds beyond it")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="offset added to every depot seed")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fedcharge = use_checkout_src()
    import fedcharge.cli as cli

    workload = WORKLOADS[args.workload]
    env = environment()
    print(f"workload {workload.name}, seed offset {args.seed}, fedcharge from {fedcharge.__file__}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    try:
        inputs, setup_times, setup_problems = set_up(
            workload, args.seed, work, 1 if args.trace else SETUP_REPEATS)
        for problem in setup_problems:
            print(f"set-up: {problem}", file=sys.stderr)
        run = Run(workload, args.seed, inputs, work / "pass", cli)
        run.one_pass()                             # warm-up: checked, not timed
        if args.trace:
            values, units = measure_layers(run, args.seconds), layers.LAYER_UNITS
        else:
            values, units = measure_end_to_end(run, args.seconds, setup_times), E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):         # other runs may still use it
            work.parent.rmdir()

    error_rate = run.failed / run.attempted
    for name, unit in units.items():
        print(f"  {name}: {values[name]:.6g} {unit}")
    print(f"  error_rate: {error_rate:g} ({run.failed} failed of {run.attempted} passes)")
    result = {
        "correct": run.failed == 0 and not setup_problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
