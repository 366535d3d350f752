#!/usr/bin/env python3
"""dirachl benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 18 --trace 0

One process, one job at a time (closed loop, one client).  A round is the
workload's fixed list of jobs; whole rounds repeat for about --seconds
(a round starts if it would end nearer to --seconds than stopping now).  Every output is checked (oracle or property) the first
time a job runs and must repeat exactly in later rounds.  The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  Diagnostics go to
stderr.

Times are in reference seconds.  The machine's speed drifts by up to 2x
over tens of seconds, and the same drift shows in a fixed calibration
kernel (`calibrate`) timed between jobs, so each job time is scaled by
CAL_REF over the median of the calibrations taken within CAL_WINDOW
seconds of the job's midpoint.  Dense transform work drifts differently
from interpreter-bound work, so the kernel follows the job's kind
(CAL_KIND).  Single calibrations also swing by up to
2x from one second to the next, faster than the drift, so a window and
not the nearest calibration sets the scale.  Raw medians go to stderr.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools at one thread, for this process and its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# one CPU for the benchmark and every child, so that the calibration kernel
# and the jobs it scales run on the same core
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".perfbench")
# calibration kernel times in seconds in this machine's fast state
CAL_REF = {"mixed": 0.0025, "dense": 0.015, "spawn": 0.013}
# the kernel that drifts like a job kind's work: large-array
# transcendentals (dense transforms, n <= 4096 round trips and the
# cell-sampled searches, whose times the mixed kernel follows worse than
# the dense one), process start-up (CLI operations), or a mix of
# interpreter and small-array work (every other kind)
CAL_KIND = {"evaluate": "dense", "extract": "dense", "fault": "dense",
            "roundtrip": "dense", "cell": "dense", "chain": "spawn", "check": "spawn"}
CAL_WINDOW = 5.0
SETUP_PROBES = 3
_CAL_X = np.linspace(0.0, 100.0, 40_000)
_CAL_DENSE = np.linspace(0.0, 100.0, 250_000)


def calibrate(kind: str = "mixed") -> float:
    """"mixed": best of three runs of a fixed kernel of interpreter loops,
    small-array NumPy calls and one vector transcendental.  "dense": one
    complex exponential over 250,000 points (4 MB out).  "spawn": best of
    two starts of a bare interpreter (`python -S -c pass`)."""
    if kind == "spawn":
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
            best = min(best, time.perf_counter() - start)
        return best
    if kind == "dense":
        start = time.perf_counter()
        float(np.exp(1j * _CAL_DENSE).sum().real)
        return time.perf_counter() - start
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        v = np.ones(64, dtype=complex)
        for _ in range(120):
            v = v * 0.999 + 1e-3 * v[::-1]
        float(np.exp(1j * _CAL_X).sum().real)
        s = 0
        for i in range(8000):
            s += i * i
        best = min(best, time.perf_counter() - start)
    return best


def scale(cals: list[float], kind: str = "mixed") -> float:
    return CAL_REF[kind] / statistics.median(cals)


class Runner:
    def __init__(self, ctx: workloads.Context, jobs: list[workloads.Job]):
        self.ctx = ctx
        self.jobs = jobs
        self.cal_kinds = sorted({CAL_KIND.get(job.kind, "mixed") for job in jobs})
        self.digests: list = [None] * len(self.jobs)
        self.correct = True
        self.attempted = 0
        self.failed = 0
        # per attempted job: (round, job index, kind, raw s, ok, traced, midpoint)
        self.records: list[tuple[int, int, str, float, bool, bool, float]] = []
        # (time, seconds) of each calibration per kernel: one after every
        # job, and between the steps of a job that runs child processes
        self.cals: dict[str, list[tuple[float, float]]] = {k: [] for k in self.cal_kinds}
        self.calibrate_all()
        self.paused = 0.0
        ctx.pause = self.pause

    def calibrate_all(self) -> None:
        for kind in self.cal_kinds:
            self.cals[kind].append((time.perf_counter(), calibrate(kind)))

    def pause(self) -> None:
        """Calibrate inside a job; the time it takes is not job time."""
        start = time.perf_counter()
        self.calibrate_all()
        self.paused += time.perf_counter() - start

    def factors(self) -> list[float]:
        """Scale of each attempted job: CAL_REF over the median of the
        calibrations within CAL_WINDOW of its midpoint."""
        out = []
        for rec in self.records:
            kind = CAL_KIND.get(rec[2], "mixed")
            cals = self.cals[kind]
            near = [c for t, c in cals if abs(t - rec[6]) <= CAL_WINDOW]
            if not near:
                near = [min(cals, key=lambda tc: abs(tc[0] - rec[6]))[1]]
            out.append(scale(near, kind))
        return out

    def scaled(self) -> list[float]:
        return [r[3] * f for r, f in zip(self.records, self.factors())]

    def run_round(self, rnd: int, tracer: spans.Tracer | None) -> None:
        for i, job in enumerate(self.jobs):
            if rnd == 0 and job.prepare is not None:
                job.prepare()
            self.ctx.tracer = tracer
            if tracer is not None:
                tracer.job = len(self.records)
            self.paused = 0.0
            start = time.perf_counter()
            error = None
            try:
                if tracer is None:
                    out = job.call()
                else:
                    with spans.instrumented(tracer):
                        out = job.call()
            except Exception as exc:          # counted, reported, never fatal
                error = exc
            end = time.perf_counter()
            raw = end - start - self.paused
            self.ctx.tracer = None
            self.calibrate_all()
            self.attempted += 1
            ok = error is None
            if not ok:
                self.failed += 1
                known = job.fault is not None and job.fault in str(error)
                if not known or rnd == 0:
                    print(f"perfbench: {job.kind} job {i} failed"
                          f"{' (known fault)' if known else ''}: "
                          f"{type(error).__name__}: {error}", file=sys.stderr)
            else:
                self.verify(i, job, out)
            self.records.append((rnd, i, job.kind, raw, ok, tracer is not None,
                                 0.5 * (start + end)))

    def verify(self, i: int, job: workloads.Job, out) -> None:
        try:
            digest = np.asarray(job.digest(out), dtype=float)
            if self.digests[i] is None:
                job.check(out)
                self.digests[i] = digest
            elif not np.array_equal(digest, self.digests[i]):
                raise workloads.CheckError("output differs from the first round's")
        except workloads.CheckError as exc:
            self.correct = False
            print(f"perfbench: CHECK FAILED, {job.kind} job {i}: {exc}", file=sys.stderr)


def setup_probe(workload: str, seed: int) -> float:
    """Scaled seconds from starting a fresh interpreter until the workload's
    inputs are built: imports and input generation, no oracle work and no
    calibration."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    cal_before = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise SystemExit(f"perfbench: set-up probe failed with exit code {code}")
    return elapsed * scale([cal_before, calibrate()])


def startup_probe() -> float:
    """Scaled seconds for a bare import of dirachl.cli in a fresh interpreter."""
    cal_before = calibrate()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dirachl.cli"],
                   env=workloads.cli_env(ROOT), cwd=ROOT, check=True)
    return (time.perf_counter() - start) * scale([cal_before, calibrate()])


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(workload: str, runner: Runner, setups: list[float]) -> dict:
    times = runner.scaled()
    busy = sum(times)
    done = [t for t, r in zip(times, runner.records) if r[4]]
    if workload == "cli":
        rss_kib = runner.ctx.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "jobs_per_s": metric(len(done) / busy, "1/s"),
        "job_s_p50": metric(statistics.median(done), "s"),
        "peak_rss_mib": metric(rss_kib / 1024.0, "MiB"),
    }


# per-layer time metrics: metric name -> (span name, inclusive time?)
LAYER_TIMES = {
    "forward.jost_kernel_direct_s": ("forward.jost_kernel_direct", False),
    "forward.jost_kernel_s": ("forward.jost_kernel", False),
    "forward.psi_exact_s": ("forward.psi_exact", False),
    "forward.psi_cell_s": ("forward.psi_cell", False),
    "core.s_values_s": ("core.s_values", False),
    "core.jost_psi_s": ("core.jost_psi", False),
    "core.validate_class_s": ("core.validate_class", False),
    "core.json_codec_s": ("core.json_codec", False),
    "inverse.invert_wiener_s": ("inverse.invert_wiener", False),
    "inverse.scattering_kernel_s": ("inverse.scattering_kernel", False),
    "inverse.recover_potential_s": ("inverse.recover_potential", False),
    "spectral.find_resonances_s": ("spectral.find_resonances", True),
    "spectral.search_self_s": ("spectral.find_resonances", False),
    "transforms.blaschke_modify_s": ("transforms.blaschke_modify", False),
    "canonical.hamiltonian_from_potential_s": ("canonical.hamiltonian_from_potential", False),
    "canonical.potential_from_hamiltonian_s": ("canonical.potential_from_hamiltonian", False),
    "canonical.canonical_values_s": ("canonical.canonical_values", False),
    "cli.synth_s": ("cli.synth", True),
    "cli.shift_s": ("cli.shift", True),
    "cli.forward_s": ("cli.forward", True),
    "cli.invert_s": ("cli.invert", True),
    "cli.check_s": ("cli.check", True),
    "cli.resonances_s": ("cli.resonances", True),
}


def per_layer(runner: Runner, tracer: spans.Tracer, startups: list[float]) -> dict:
    """Scaled seconds per traced job for each layer, the search's psi
    counts per search job, the s_values heap peak and the tracing overhead."""
    traced = [r for r in runner.records if r[5]]
    n_jobs = len(traced)
    factors = runner.factors()
    sums: dict[tuple[str, bool], float] = {}
    for name, job, self_s, total_s in tracer.self_times():
        sums[(name, False)] = sums.get((name, False), 0.0) + self_s * factors[job]
        sums[(name, True)] = sums.get((name, True), 0.0) + total_s * factors[job]
    for name, job, self_s in tracer.external:
        sums[(name, False)] = sums.get((name, False), 0.0) + self_s * factors[job]
    out = {key: metric(sums.get(src, 0.0) / n_jobs, "s") for key, src in LAYER_TIMES.items()}
    searches = sum(1 for r in traced if r[2] in ("exact", "cell"))
    for key in ("spectral.psi_calls", "spectral.psi_points"):
        out[key] = metric(tracer.counts.get(key, 0) / searches if searches else 0.0, "count")
    out["core.s_values_peak_mib"] = metric(
        tracer.peak_bytes.get("core.s_values", 0) / 2 ** 20, "MiB")
    out["cli.startup_s"] = metric(statistics.median(startups) if startups else 0.0, "s")
    # overhead: for each job of the round, its median scaled time in traced
    # rounds over that in plain rounds, and the median of these ratios (a
    # sum over whole rounds is dominated by the noise of the longest jobs);
    # round 0 pays first-call costs (lazy imports) and is left out
    times: dict[tuple[int, bool], list[float]] = {}
    for (rnd, i, _, _, _, tr, _), t in zip(runner.records, runner.scaled()):
        if rnd > 0:
            times.setdefault((i, tr), []).append(t)
    ratios = [statistics.median(times[(i, True)]) / statistics.median(times[(i, False)])
              for i in range(len(runner.jobs))]
    out["trace.overhead_pct"] = metric(100.0 * (statistics.median(ratios) - 1.0), "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import dirachl
    expected = os.path.join(ROOT, "src", "dirachl")
    if os.path.dirname(os.path.abspath(dirachl.__file__)) != expected:
        print(f"perfbench: dirachl imported from {dirachl.__file__}, not {expected}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    ctx = workloads.Context(args.seed, ROOT, workdir)
    try:
        jobs = workloads.WORKLOADS[args.workload](ctx)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        runner = Runner(ctx, jobs)
        setups = [] if args.trace else [setup_probe(args.workload, args.seed)
                                        for _ in range(SETUP_PROBES)]
        tracer = spans.Tracer() if args.trace else None
        startups: list[float] = []
        start = time.perf_counter()
        rnd, last = 0, 0.0
        # a round starts if it would end nearer to --seconds than stopping
        # now; traced runs alternate plain and traced rounds, for the overhead
        while (time.perf_counter() - start + 0.5 * last < args.seconds
               or (tracer is not None and rnd < 3)):
            began = time.perf_counter()
            use = tracer if (tracer is not None and rnd % 2 == 1) else None
            runner.run_round(rnd, use)
            if use is not None and args.workload == "cli":
                startups += [startup_probe() for _ in range(3)]
            last = time.perf_counter() - began
            rnd += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    done_raw = [r[3] for r in runner.records if r[4]]
    print(f"perfbench: {args.workload} seed {args.seed}: {rnd} rounds, "
          f"{runner.attempted} jobs, {time.perf_counter() - start:.1f} s; raw jobs_per_s "
          f"{len(done_raw) / sum(r[3] for r in runner.records):.4g}, raw job_s_p50 "
          f"{statistics.median(done_raw):.4g}", file=sys.stderr)
    scaled = runner.scaled()
    for kind in dict.fromkeys(r[2] for r in runner.records):
        rows = [(r[3], t) for r, t in zip(runner.records, scaled) if r[2] == kind]
        print(f"perfbench:   {kind:10s} {len(rows):4d} jobs, median "
              f"{statistics.median(t for _, t in rows):.4f} s scaled, "
              f"{statistics.median(raw for raw, _ in rows):.4f} s raw", file=sys.stderr)
    if tracer is not None:
        metrics = per_layer(runner, tracer, startups)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl"))
    else:
        metrics = end_to_end(args.workload, runner, setups)
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
