"""homcoh benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: homcoh is imported from its `src/`.  The
run sets up the workload several times, then runs rounds of the workload's
jobs back to back in this process (a closed loop, one thread) until S
seconds have passed, finishing the round under way.  Outputs are checked
after the timed part.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and the metrics listed in
BENCHMARK.json: the end-to-end ones with `--trace 0`, the per-layer ones
with `--trace 1`.

Times are reported at a reference machine speed.  On a shared machine the
speed this process gets swings by up to half within seconds.  So while a job
or set-up runs, a timer signal runs a fixed pure-Python kernel every 20 ms,
and the time, less the kernel's, is divided by how much slower than
KERNEL_REFERENCE_S the kernel ran meanwhile.  The raw medians are printed on
the line before the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import resource
import shutil
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 15
MODULES = ("linalg", "poly", "groebner", "cdga", "catalog", "obstruct", "cli")
FAILED = object()
# Median time of one calibration_kernel() call on a 2-vCPU x86-64 VM with
# CPython 3.11, the machine the reference figures in README.md come from.
KERNEL_REFERENCE_S = 0.0017
TICK_S = 0.02
MIN_SAMPLES = 5


def calibration_kernel():
    """Fixed pure-Python work of the kinds homcoh does: Fractions, ints, dicts."""
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, i % 11 + 1)
    counts = {}
    for i in range(1500):
        key = (i % 31, i % 17, i % 5)
        counts[key] = counts.get(key, 0) + (i * 2654435761) // (i % 13 + 1)
    return total


class Clock:
    """Times calls while a timer signal samples the machine speed.

    Every TICK_S of a measured call, the signal handler runs the kernel once;
    its time is taken off the call's time, and off the open span's when a
    tracer is given.  The collector is off meanwhile, so objects the program
    keeps alive cannot slow the kernel.
    """

    def __init__(self):
        self.kernel_s = 0.0
        self.kernel_calls = 0
        self.tracer = None

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            calibration_kernel()
            elapsed = perf_counter() - start
            self.kernel_s += elapsed
            self.kernel_calls += 1
            if self.tracer is not None:
                self.tracer.exclude(elapsed)
        finally:
            if enabled:
                gc.enable()

    def measure(self, fn, *args, tracer=None):
        """(result, seconds, (kernel seconds, kernel calls) during the call)."""
        self.kernel_s, self.kernel_calls, self.tracer = 0.0, 0, tracer
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        return result, seconds - self.kernel_s, (self.kernel_s, self.kernel_calls)


def speed_factor(samples):
    """Reference kernel time over the measured one, pooled over the samples."""
    kernel_s = sum(k for k, _ in samples)
    calls = sum(c for _, c in samples)
    return KERNEL_REFERENCE_S * calls / kernel_s


def at_reference_speed(measured):
    """Times of (seconds, (kernel seconds, kernel calls)) at reference speed.

    A time is scaled by the kernel samples taken during it, or, with fewer
    than MIN_SAMPLES of them, by all the samples of `measured` together.
    """
    pooled = speed_factor([samples for _, samples in measured])
    return [
        seconds * (speed_factor([samples]) if samples[1] >= MIN_SAMPLES else pooled)
        for seconds, samples in measured
    ]


def import_homcoh():
    """A fresh import of every homcoh module from this checkout's src/."""
    for name in [n for n in sys.modules if n == "homcoh" or n.startswith("homcoh.")]:
        del sys.modules[name]
    hc = SimpleNamespace(**{m: importlib.import_module(f"homcoh.{m}") for m in MODULES})
    if Path(hc.cli.__file__).resolve().parents[2] != ROOT.resolve():
        raise ImportError(f"homcoh was imported from {hc.cli.__file__}, not from {ROOT}/src")
    return hc


def setup(workload, seed, workdir):
    """Import homcoh, load and validate its catalog, write the inputs."""
    hc = import_homcoh()
    hc.catalog.load_catalog(str(Path(hc.cli.__file__).parent / "data" / "catalog.txt"))
    return hc, workloads.build(workload, seed, workdir, hc)


def run_job(hc, job):
    try:
        return job.run(hc)
    except (Exception, SystemExit):
        traceback.print_exc()
        return FAILED


def run_round(hc, jobs, clock, tracer=None):
    """Run every job once; (per job (seconds, samples), outputs)."""
    measured = [clock.measure(run_job, hc, job, tracer=tracer) for job in jobs]
    return [(seconds, samples) for _, seconds, samples in measured], [m[0] for m in measured]


def check_outputs(jobs, rounds):
    """(failed count, correct) over every output of every round."""
    failed, correct, seen = 0, True, set()
    for outputs in rounds:
        for job, output in zip(jobs, outputs):
            if output is FAILED:
                failed += 1
                continue
            key = (job.name, repr(output))
            if key in seen:
                continue
            seen.add(key)
            try:
                job.check(output)
            except Exception as exc:  # a malformed output is a wrong answer too
                print(f"check failed: {job.name}: {exc!r}", file=sys.stderr)
                correct = False
    return failed, correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        clock, setups = Clock(), []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # the modules of the previous set-up are garbage now
            (hc, jobs), *measured = clock.measure(setup, args.workload, args.seed, workdir)
            setups.append(measured)

        # With tracing, untraced and traced rounds alternate so that the
        # tracing overhead is measured in the same run.
        gc.collect()
        tracer = Tracer()
        plain, traced, rounds = [], [], []
        deadline = perf_counter() + args.seconds
        while True:
            tracing = bool(args.trace) and len(plain) > len(traced)
            if tracing:
                tracer.install(hc)
            try:
                jobs_measured, outputs = run_round(hc, jobs, clock, tracer if tracing else None)
            finally:
                tracer.uninstall()
            rounds.append(outputs)
            (traced if tracing else plain).append(jobs_measured)
            if perf_counter() >= deadline and (traced or not args.trace):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(ROOT / ".perfbench-work", ignore_errors=True)

    failed, correct = check_outputs(jobs, rounds)
    if not any(job.sympy_check for job in jobs):
        sympy = "not used by this workload"
    elif importlib.util.find_spec("sympy") is None:
        sympy = "skipped, sympy does not import"
    else:
        sympy = "ran"
    raw_wall = statistics.median(sum(s for s, _ in r) for r in plain)
    raw_largest = statistics.median(max(s for s, _ in r) for r in plain)
    raw_setup = statistics.median(s for s, _ in setups)
    print(
        f"{args.workload}: seed {args.seed}, {len(rounds)} rounds of {len(jobs)} jobs "
        f"({len(traced)} traced); sympy reference basis check {sympy}; raw medians: "
        f"wall {raw_wall:.4f} s, largest job {raw_largest:.4f} s, setup {raw_setup:.4f} s"
    )
    scaled = [at_reference_speed(r) for r in plain]
    wall = statistics.median(sum(r) for r in scaled)
    if args.trace:
        traced_wall = statistics.median(sum(at_reference_speed(r)) for r in traced)
        values = tracer.metrics(len(traced), traced_wall - wall)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "largest_job_s": statistics.median(max(r) for r in scaled),
            "setup_s": statistics.median(at_reference_speed(setups)),
            "peak_rss_mb": peak_rss_mb,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": correct,
        "attempted": len(rounds) * len(jobs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
