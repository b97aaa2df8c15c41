"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload eval|contour|search|ledger \
        --seed N --seconds S --trace 0|1

Jobs are zetalab command lines run in this process through
zetalab.cli.main(argv), stdout captured and checked.  The process starts no
threads; the set-up probe runs its fresh interpreters one after another
before any job.  Each run repeats whole rounds of the workload's jobs until
S seconds have passed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing     # noqa: E402
import workloads   # noqa: E402
import yardstick   # noqa: E402

SETUP_REPS = 7
YARDSTICK_SHARE = 0.2     # of each job's time, spent on the yardstick after it

# One fresh interpreter: import zetalab and its CLI, report the time taken.
_SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import zetalab, zetalab.cli
t1 = time.perf_counter()
if not zetalab.__file__.startswith({src!r}):
    sys.exit("zetalab imported from " + zetalab.__file__)
print(t1 - t0)
"""


def measure_setup() -> float:
    probe = _SETUP_PROBE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def import_zetalab():
    sys.path.insert(0, str(SRC))
    import zetalab.cli
    if not Path(zetalab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"zetalab imported from {zetalab.__file__}")
    return zetalab.cli


def run_job(cli, job) -> tuple[float, int, str]:
    if job.before is not None:
        job.before()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as e:         # argparse rejects the command line
            code = e.code
    return time.perf_counter() - t0, code, out.getvalue()


class Run:
    """Rounds of jobs with their timings, checks and yardstick samples."""

    def __init__(self, cli, jobs):
        self.cli, self.jobs = cli, jobs
        self.round_s: list[float] = []
        self.job_s: list[list[float]] = []      # [round][job], seconds
        self.job_norm: list[list[float]] = []   # [round][job], yardsticks
        self.yard_s: list[float] = []
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []

    def one_round(self):
        times, norms = [], []
        for job in self.jobs:
            dt, code, out = run_job(self.cli, job)
            # The yardstick right after a job meets the host in the state
            # the job met.  It runs at least once, and for YARDSTICK_SHARE
            # of the job's time, so that a long job that saw several flips
            # of state is set against a stretch of time, not one instant.
            yard = [yardstick.timed()]
            while sum(yard) < YARDSTICK_SHARE * dt:
                yard.append(yardstick.timed())
            self.yard_s += yard
            times.append(dt)
            norms.append(dt / statistics.mean(yard))
            problems = [f"exit code {code}"] if code != 0 else job.check(out)
            self.attempted += 1
            if problems:
                self.failed += 1
                if not job.known_fault:
                    self.unexpected.append(
                        f"{' '.join(job.argv)}: {'; '.join(problems)}")
        self.job_s.append(times)
        self.job_norm.append(norms)
        self.round_s.append(sum(times))

    def rounds_until(self, deadline: float):
        while not self.round_s or time.perf_counter() < deadline:
            self.one_round()


def per_job_median(rounds: list[list[float]]) -> list[float]:
    """Each job's median over the rounds."""
    return [statistics.median(col) for col in zip(*rounds)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"no zetalab sources under {SRC}", file=sys.stderr)
        return 2
    ref = json.loads((HERE / "reference.json").read_text())
    jobs = workloads.build(args.workload, args.seed, ref)

    setup_s = measure_setup()
    cli = import_zetalab()
    run_job(cli, workloads.Job(["eval", "--alpha", "rat:1,2", "--s", "2,0"],
                               lambda out: []))       # untimed warm-up

    run = Run(cli, jobs)
    start = time.perf_counter()
    if args.trace:
        # untraced and traced rounds alternate, so host drift hits both
        tracer = tracing.Tracer()
        traced = Run(cli, jobs)
        while not traced.round_s or time.perf_counter() < start + args.seconds:
            run.one_round()
            tracer.install()
            try:
                traced.one_round()
            finally:
                tracer.uninstall()
        overhead = statistics.median(
            t - u for t, u in zip(traced.round_s, run.round_s))
        metrics = tracer.per_round(len(traced.round_s), overhead)
        run.attempted += traced.attempted
        run.failed += traced.failed
        run.unexpected += traced.unexpected
    else:
        run.rounds_until(start + args.seconds)
        # The host flips between a fast and a slow state several times a
        # second, in a mix that drifts over minutes.  Raw seconds follow it,
        # so they go on the line before the result and are not gated.
        norm, raw = per_job_median(run.job_norm), per_job_median(run.job_s)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("RAW", json.dumps({
            "wall_s": sum(raw), "job_p50_s": statistics.median(raw),
            "yardstick_s": statistics.median(run.yard_s)}))
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_norm": {"value": sum(norm), "unit": "yardstick"},
            "job_p50_norm": {"value": statistics.median(norm),
                             "unit": "yardstick"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    for line in run.unexpected[:10]:
        print("FAILED", line)
    print(json.dumps({"correct": not run.unexpected,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
