"""Workload inputs, the timed calls into dirachl, and the output checks.

Each builder takes the run's seed and returns one round: a list of jobs
that the runner repeats whole until the run's time is up.  Inputs come
only from the seed; the calls go through dirachl's public functions; every
check uses the oracle in `oracle.py` or a property the method must have,
never a stored copy of an earlier output.  Job counts are chosen so that
the median job of a round sits in the middle of one kind (see README).

Set-up (what `setup_s` times) makes only the inputs that come from the seed
and from dirachl itself.  Inputs that take the oracle (a zero to move, psi
samples to extract from, a region clear of zeros) are made by a job's
`prepare`, which the runner calls once before the job's first call, outside
its time; the checks compute their oracle references when they run.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle
from dirachl import canonical, core, forward, inverse, spectral, synth, transforms
from dirachl.core import BoundaryParam


class CheckError(Exception):
    """A program output failed its oracle or property check."""


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], np.ndarray]
    # message fragment of a known fault: the call is expected to raise it
    fault: str | None = None
    # makes the inputs that take the oracle; called once, untimed
    prepare: Callable[[], None] | None = None


@dataclass
class Context:
    seed: int
    root: str
    workdir: str
    tracer: Any = None          # spans.Tracer during traced rounds, else None
    child_rss_kib: int = 0      # peak resident set over CLI children
    pause: Callable[[], None] = lambda: None    # untimed calibration inside a job


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def rel_l2(ref: np.ndarray, got: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


def oracle_of(q: core.Potential, alpha: float):
    """z -> oracle psi of q: exact pieces when q has them, else its cell model."""
    if q.pieces is not None:
        cells = oracle.cells_from_pieces([(p.lo, p.hi, p.amp, p.chirp) for p in q.pieces])
    else:
        cells = oracle.cells_from_samples(q.gamma, q.samples.values)
    return lambda z: oracle.psi(cells, alpha, z)


def pot_seed(rng) -> int:
    return int(rng.integers(1, 2 ** 31 - 1))


def _traced_evaluator(ctx: Context, name: str, ev):
    """The psi evaluator handed to the search; in traced rounds it is one
    span per call and counts calls and points."""
    tr = ctx.tracer
    if tr is None:
        return ev

    def traced(z):
        tr.counts["spectral.psi_calls"] = tr.counts.get("spectral.psi_calls", 0) + 1
        tr.counts["spectral.psi_points"] = tr.counts.get("spectral.psi_points", 0) + int(np.size(z))
        with tr.span(name):
            return ev(z)
    return traced


def check_zeros(entries, psi_ref, region) -> None:
    """Located zeros (z, multiplicity) are zeros of the oracle psi, and the
    multiplicities add up to the oracle's winding along the region boundary."""
    for z, _ in entries:
        ratio = oracle.zero_ratio(psi_ref, z)
        require(ratio < 1e-4, f"located zero {z:.6g} is not a zero of the oracle psi "
                f"(|psi| ratio {ratio:.2e})")
    total = sum(m for _, m in entries)
    count = oracle.winding(psi_ref, *region)
    require(total == count, f"{total} zeros located, oracle winding counts {count}")


def clear_region(psi_ref, region, step: float = 0.37):
    """Widen the region until no oracle zero sits near its boundary (the
    search rightly refuses a boundary through a zero)."""
    re0, re1, im0, im1 = region
    for _ in range(12):
        zs = oracle.rectangle(re0, re1, im0, im1, 128)
        mags = np.abs(psi_ref(zs))
        if np.min(mags) > 0.05 * np.median(mags):
            return (re0, re1, im0, im1)
        re0, re1, im0 = re0 - step, re1 + step, im0 - step / 3
    raise CheckError("no region boundary clear of zeros")


# ---------------------------------------------------------------------------
# roundtrip: kernel-space work
# ---------------------------------------------------------------------------

def roundtrip(ctx: Context) -> list[Job]:
    rng = np.random.default_rng([ctx.seed, 1])
    jobs: list[Job] = []

    # canonical conversions of smooth potentials (fastest kind)
    for _ in range(3):
        n = 512
        x = np.linspace(0.0, 1.0, n + 1)
        coef = (rng.normal(size=4) + 1j * rng.normal(size=4)) / (2.0 * np.arange(1, 5))
        vals = sum(c * np.sin((k + 1) * np.pi * x) for k, c in enumerate(coef))
        q = core.potential_from_values(1.0, vals)
        zs = rng.uniform(-6.0, 6.0, 12) + 1j * rng.uniform(-1.0, 0.5, 12)
        jobs.append(Job("canonical", _canonical_call(q, zs), _canonical_check(q, zs),
                        lambda out: np.concatenate([out[0].a, out[0].b,
                                                    out[1].samples.values.view(float),
                                                    out[2].ravel().view(float)])))

    # surgery on q = 1 (the median kind)
    n_s = 1024
    q1 = synth.constant_potential(1.0, n=n_s)
    for _ in range(7):
        alpha = float(rng.uniform(0.0, 2.5))
        pick = float(rng.uniform())
        # 0.3 deeper into the lower half-plane, in a seeded direction
        step = 0.3 * np.exp(1j * rng.uniform(np.pi, 2.0 * np.pi))
        jobs.append(_surgery_job(q1, alpha, pick, step))

    # scattering round trips of piecewise potentials (slowest kind)
    for n in (1024, 2048, 4096):
        q = synth.random_piecewise_potential(pot_seed(rng), n=n)
        alpha = float(rng.uniform(0.0, 2.5))
        jobs.append(Job("roundtrip", _roundtrip_call(q, alpha),
                        _roundtrip_check(q),
                        lambda out: out.samples.values.view(float)))
    return jobs


def _roundtrip_call(q, alpha):
    a = BoundaryParam(alpha)

    def call():
        rep = forward.jost_kernel_direct(q, a)
        wi = inverse.invert_wiener(rep)
        S = inverse.scattering_kernel(rep, wi)
        return inverse.recover_potential(S)
    return call


def _roundtrip_check(q):
    def check(qhat):
        err = rel_l2(q.samples.values, qhat.samples.values)
        require(err <= 1e-2, f"round trip at n={q.n}: relative L2 error {err:.2e} > 1e-2")
    return check


def _constant_zeros(c: float, alpha: float) -> list[complex]:
    """Oracle zeros of psi for q = c on [0, 1] with |Re z| < 7: minima of
    the closed form on a grid, refined by Newton."""
    f = lambda z: oracle.psi_constant(c, 1.0, alpha, z)  # noqa: E731
    re, im = np.meshgrid(np.linspace(-7.0, 7.0, 281), np.linspace(-2.5, -0.05, 50))
    grid = re + 1j * im
    mag = np.abs(f(grid.ravel())).reshape(grid.shape)
    inner = mag[1:-1, 1:-1]
    is_min = np.ones(inner.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            is_min &= inner <= mag[1 + di:mag.shape[0] - 1 + di, 1 + dj:mag.shape[1] - 1 + dj]
    out: list[complex] = []
    for z in grid[1:-1, 1:-1][is_min]:
        z = complex(z)
        for _ in range(40):
            d = 1e-7
            step = f(z)[0] / ((f(z + d)[0] - f(z - d)[0]) / (2 * d))
            z -= step
            if abs(step) < 1e-13:
                break
        if abs(f(z)[0]) < 1e-10 and abs(z.real) < 6.5 and z.imag < -0.2:
            if all(abs(z - w) > 1e-6 for w in out):
                out.append(z)
    if not out:
        raise CheckError("no oracle zero of the constant potential")
    return sorted(out, key=lambda z: (z.real, z.imag))


def _surgery_job(q1, alpha, pick, step):
    """Move the oracle zero at position `pick` (in [0, 1)) of the sorted
    zeros of psi for q1 = 1 by `step`."""
    a = BoundaryParam(alpha)
    moves: list = []

    def prepare():
        zeros = _constant_zeros(1.0, alpha)
        z0 = zeros[int(pick * len(zeros))]
        moves.append(transforms.ResonanceMove(z0, z0 + step))

    def check(qnew):
        z0, z1 = moves[0].source, moves[0].target
        psi_ref = oracle_of(qnew, alpha)
        at_target = oracle.zero_ratio(psi_ref, z1, radius=0.05)
        require(at_target < 1e-2,
                f"after surgery the oracle psi does not vanish at the target {z1:.4g} "
                f"(ratio {at_target:.2e})")
        at_source = oracle.zero_ratio(psi_ref, z0, radius=0.05)
        require(at_source > 0.1,
                f"after surgery the source {z0:.4g} is still a zero (ratio {at_source:.2e})")

    return Job("surgery", lambda: transforms.move_resonances(q1, a, moves), check,
               lambda out: out.samples.values.view(float), prepare=prepare)


def _canonical_call(q, zs):
    def call():
        H = canonical.hamiltonian_from_potential(q)
        qb = canonical.potential_from_hamiltonian(H)
        M = canonical.canonical_values(q, zs)
        return H, qb, M
    return call


def _canonical_check(q, zs):
    def check(out):
        H, qb, M = out
        psi0 = oracle_of(q, 0.0)(zs)
        det = H.a * H.h22() - H.b ** 2
        require(np.max(np.abs(det - 1.0)) < 1e-12, "det H != 1")
        err = rel_l2(q.samples.values, qb.samples.values)
        require(err <= 1e-2, f"canonical round trip: relative L2 error {err:.2e} > 1e-2")
        E = M[:, 0, 1] - 1j * M[:, 1, 1]
        ref = -1j * np.exp(-1j * zs) * psi0
        dev = float(np.max(np.abs(E - ref) / np.maximum(1.0, np.abs(ref))))
        require(dev < 1e-8, f"E(z) != -i e^(-i gamma z) psi_0(z): deviation {dev:.2e}")
    return check


# ---------------------------------------------------------------------------
# spectra: transform evaluation of prebuilt kernels
# ---------------------------------------------------------------------------

# (n, real points per band, evaluate jobs): the eight n = 1024 jobs hold
# the median; the rest of the round lies below (extraction at n = 1024) or
# above (n = 2048 jobs) them
SPECTRA_SIZES = ((1024, 601, 8), (2048, 301, 2))


def spectra(ctx: Context) -> list[Job]:
    rng = np.random.default_rng([ctx.seed, 2])
    evaluate: list[Job] = []
    extract: list[Job] = []
    for n, nz, count in SPECTRA_SIZES:
        q = synth.random_piecewise_potential(pot_seed(rng), n=n)
        alpha = float(rng.uniform(0.0, 2.5))
        a = BoundaryParam(alpha)
        rep = forward.jost_kernel_direct(q, a)
        S = inverse.scattering_kernel(rep)
        psi_ref = oracle_of(q, alpha)
        h = q.grid.h
        s_tol = s_accuracy(S)
        for _ in range(count):
            zmax = float(rng.uniform(15.0, 30.0))
            band = np.linspace(-zmax, zmax, nz)
            c = complex(rng.uniform(-15.0, 15.0), rng.uniform(-2.0, -1.0))
            rect = (c.real + np.linspace(-5.0, 5.0, 41)[:, None]
                    + 1j * (c.imag + np.linspace(-1.0, 1.0, 9)[None, :])).ravel()
            evaluate.append(Job("evaluate",
                                _evaluate_call(rep, S, band, rect, s_tol, nz),
                                _evaluate_check(psi_ref, band, rect, s_tol, h),
                                _evaluate_digest))
        extract.append(_extract_job(q, a, psi_ref, h))

    # the known fault: default jost_kernel on synth seed 0 fails its own
    # held-out residual gate (1.600e-4 and 1.628e-4 against 1e-4)
    q0 = synth.random_piecewise_potential(0, n=1024)
    faults = [Job("fault", lambda al=al: forward.jost_kernel(q0, BoundaryParam(al)),
                  _extract_check(oracle_of(q0, al), 1125.0),
                  lambda rep: rep.g.values.view(float),
                  fault="kernel reconstruction residual")
              for al in (0.0, 0.3)]
    return extract + faults + evaluate


def s_accuracy(S) -> float:
    """Accuracy expected of S on the real axis: the O(h^2 z) floor of the
    sampled kernel (the CLI's formula) plus three times the estimated mass
    of F cut off at t_max, from the geometric decay of |F| over its last
    two eighths.  The second term can dominate when a resonance lies near
    the real axis; the CLI's check omits it (see CHANGES.md)."""
    h = S.F.grid.h
    floor = max(1e-6, 3.0 * h * h * 40.0 * max(1.0, S.F.norm_l1() ** 2))
    mag = np.abs(S.F.values)
    k = mag.size // 8
    end, before = float(mag[-k:].mean()), float(mag[-2 * k:-k].mean())
    if end >= before:
        return math.inf
    decay = -math.log(end / before) / (k * h)
    return floor + 3.0 * end / decay


def _evaluate_call(rep, S, band, rect, s_tol, nz):
    def call():
        sv = S.s_values(band)
        pv = rep.psi(rect)
        rj = core.validate_class(rep)
        rs = core.validate_class(S, tol=s_tol, n_check=nz)
        return sv, pv, rj, rs
    return call


def _evaluate_digest(out):
    sv, pv, rj, rs = out
    return np.concatenate([sv.view(float), pv.view(float),
                           [c.measured for c in rj.checks + rs.checks]])


def _evaluate_check(psi_ref, band, rect, s_tol, h):
    pick = np.linspace(0, band.size - 1, 12).astype(int)

    def check(out):
        sv, pv, rj, rs = out
        ref_band = psi_ref(band[pick])
        ref_rect = psi_ref(rect[::31])
        dev = float(np.max(np.abs(np.abs(sv) - 1.0)))
        require(dev <= s_tol, f"|S| - 1 = {dev:.2e} on the real band (> {s_tol:.1e})")
        steps = np.angle(sv[1:] / sv[:-1])
        require(round(float(np.sum(steps)) / (2 * np.pi)) == 0, "S winds on the real band")
        ref = np.conj(ref_band) / ref_band
        dev = float(np.max(np.abs(sv[pick] - ref)))
        require(dev <= s_tol, f"S vs oracle conj(psi)/psi: {dev:.2e} > {s_tol:.1e}")
        # second-order kernel: relative error within 200 h^2 (1 + |z|); the
        # largest seen over 20 seeded kernels was 11.4 h^2 (1 + |z|)
        scale = np.maximum(1.0, np.abs(ref_rect)) * (1.0 + np.abs(rect[::31]))
        dev = float(np.max(np.abs(pv[::31] - ref_rect) / scale)) / (h * h)
        require(dev <= 200.0, f"JostRep.psi vs oracle on the rectangle: {dev:.1f} h^2 (1+|z|)")
        require(rj.passed, "validate_class(JostRep) failed: " + "; ".join(rj.lines()))
        require(rs.passed, "validate_class(ScatteringRep) failed: " + "; ".join(rs.lines()))
    return check


def _extract_job(q, a, psi_ref, h):
    """jost_kernel from the oracle's psi at 4096 points of the kernel's band."""
    zs = forward.fourier_band(1.0, h, 400.0 * math.pi, 4096)
    samples: list = []
    return Job("extract", lambda: forward.jost_kernel(q, a, psi_samples=samples[0]),
               _extract_check(psi_ref, zs[-1]), lambda rep: rep.g.values.view(float),
               prepare=lambda: samples.append(psi_ref(zs)))


def _extract_check(psi_ref, z_use):
    """psi of the extracted kernel against the oracle on the held-out grid
    jost_kernel uses for its own gate.  The tolerance is 1e-3, ten times
    that gate: at n = 1024 the band-limited extraction misses 1e-4 on
    several seeds (up to 2.5e-4 seen), the fault the spectra workload
    counts on synth seed 0; at n = 2048 it stays near 3e-6."""
    def check(rep):
        held = (np.arange(-120, 121) + 0.5) * (z_use / 241.0)
        dev = float(np.max(np.abs(rep.psi(held) - psi_ref(held))))
        require(dev <= 1e-3, f"extracted kernel: held-out psi residual {dev:.2e} > 1e-3")
    return check


# ---------------------------------------------------------------------------
# resonances: argument-principle search
# ---------------------------------------------------------------------------

SEARCH_BOX = (-6.0, 6.0, -3.0, 0.0)


def resonances(ctx: Context) -> list[Job]:
    """Exact-piece jobs: synth seeds 1-10, each multiplied by e^{2ikx} with
    a seeded k in [-20, 20] and searched over SEARCH_BOX + k.  The shift
    moves every resonance by k, so each seed searches other potentials and
    boxes while the search makes the same steps; a free draw of potentials
    or boxes changes the search's work by 20-50 % per job (measured), more
    than a run of a few dozen jobs averages out.  Cell-sampled jobs: one
    fixed potential recovered at n = 96, searched over two fixed boxes; a
    shift of sampled data is not exact, so they do not vary."""
    rng = np.random.default_rng([ctx.seed, 3])
    jobs: list[Job] = []
    re0, re1, im0, im1 = SEARCH_BOX
    for j in range(10):
        k = float(rng.uniform(-20.0, 20.0))
        q = transforms.shift_potential(synth.random_piecewise_potential(1 + j, n=1024), k)
        jobs.append(_search_job(ctx, "exact", q, 0.15 * j, (re0 + k, re1 + k, im0, im1)))
    # cell-sampled: what recover_potential returns (no pieces)
    alpha = 0.4
    qp = synth.random_piecewise_potential(101, n=96)
    S = inverse.scattering_kernel(forward.jost_kernel_direct(qp, BoundaryParam(alpha)))
    q = inverse.recover_potential(S)
    jobs += [_search_job(ctx, "cell", q, alpha, (re0 + d, re1 + d, im0, im1))
             for d in (0.0, 1.3)]
    return jobs


def _search_job(ctx, kind, q, alpha, box):
    psi_ref = oracle_of(q, alpha)
    ev = forward.make_psi_evaluator(q, BoundaryParam(alpha))
    span = "forward.psi_exact" if kind == "exact" else "forward.psi_cell"
    region: list = []

    def call():
        return spectral.find_resonances(_traced_evaluator(ctx, span, ev),
                                        spectral.SearchRegion(*region[0]))

    return Job(kind, call, lambda R: check_zeros(R.entries, psi_ref, region[0]),
               lambda R: np.array([[z.real, z.imag, m] for z, m in R.entries]).ravel(),
               prepare=lambda: region.append(clear_region(psi_ref, box)))


# ---------------------------------------------------------------------------
# cli: subprocess chains
# ---------------------------------------------------------------------------

CLI_N = 1024
CLI_REGION = (-3.0, 3.0, -2.0, 0.0)
CLI_CHAIN = ("synth", "shift", "forward", "invert", "resonances")
CLI_SYNTH_SEED = 7
# the known fault of `dirachl check` on the synth seed-7 potential
CHECK_FAULT = "[FAIL] scattering: |S| = 1 on real samples"


def cli(ctx: Context) -> list[Job]:
    """Two operations per round.  The chain: synth (fixed seed) -> shift
    by a seeded k -> forward -> invert -> resonances over CLI_REGION + k.
    As in `resonances`, the shift gives every seed other data while the
    search step does the same work; the other steps cost the same for any
    data.  Then `check` of the synthesized (unshifted) potential, the same
    input for every seed."""
    rng = np.random.default_rng([ctx.seed, 4])
    k = float(rng.uniform(-20.0, 20.0))
    q = transforms.shift_potential(synth.random_piecewise_potential(CLI_SYNTH_SEED, n=CLI_N), k)
    re0, re1, im0, im1 = CLI_REGION
    box = (re0 + k, re1 + k, im0, im1)
    d = os.path.join(ctx.workdir, "chain")
    argv = {
        "synth": ["synth", "--seed", str(CLI_SYNTH_SEED), "--n", str(CLI_N), "--out", d],
        "shift": ["shift", f"{d}/potential.json", repr(k), "--out", f"{d}/sh"],
        "forward": ["forward", f"{d}/sh/potential.json", "--out", f"{d}/fwd"],
        "invert": ["invert", f"{d}/fwd/jostrep.json", "--out", f"{d}/inv"],
        "check": ["check", f"{d}/potential.json", "--out", f"{d}/chk"],
    }
    region: list = []

    def prepare():
        region.append(clear_region(oracle_of(q, 0.0), box))
        argv["resonances"] = ["resonances", f"{d}/sh/potential.json",
                              "--region=" + ",".join(repr(v) for v in region[0]),
                              "--out", f"{d}/res"]

    def chain():
        shutil.rmtree(d, ignore_errors=True)
        return _run_steps(ctx, argv, CLI_CHAIN)

    def check(results):
        require("CHECK PASS" in results["check"], "dirachl check did not print CHECK PASS")

    return [Job("chain", chain, _chain_check(d, region), _chain_digest(d), prepare=prepare),
            Job("check", lambda: _run_steps(ctx, argv, ("check",)), check,
                lambda results: np.frombuffer(results["check"].encode(), dtype=np.uint8),
                fault=CHECK_FAULT)]


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict, cwd: str) -> tuple[int, str, str, int]:
    """(exit code, stdout, stderr, peak RSS in KiB) of one child process."""
    paths = [os.path.join(cwd, "child.out"), os.path.join(cwd, "child.err")]
    with open(paths[0], "w") as out, open(paths[1], "w") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    texts = []
    for path in paths:
        with open(path) as fh:
            texts.append(fh.read())
    return proc.returncode, texts[0], texts[1], int(usage.ru_maxrss)


def _run_steps(ctx: Context, argv: dict, steps) -> dict:
    """Run CLI steps in order, each a fresh process; stdout per step."""
    env = cli_env(ctx.root)
    tr = ctx.tracer
    results = {}
    for step in steps:
        ctx.pause()
        if tr is None:
            cmd = [sys.executable, "-m", "dirachl.cli", *argv[step]]
            rc, out, err, rss = run_child(cmd, env, ctx.workdir)
        else:
            span_file = os.path.join(ctx.workdir, f"spans-{step}.json")
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py"),
                   span_file, *argv[step]]
            with tr.span(f"cli.{step}"):
                rc, out, err, rss = run_child(cmd, env, ctx.workdir)
            if os.path.exists(span_file):
                with open(span_file) as fh:
                    child = json.load(fh)
                for name, self_s in child["self"].items():
                    tr.add_external(name, self_s)
                for name, peak in child["peak_bytes"].items():
                    tr.peak_bytes[name] = max(tr.peak_bytes.get(name, 0), peak)
                os.remove(span_file)
        ctx.child_rss_kib = max(ctx.child_rss_kib, rss)
        if rc != 0:
            fails = "; ".join(line for line in out.splitlines() if line.startswith("[FAIL]"))
            raise RuntimeError(f"dirachl {step} exited with {rc}: "
                               f"{(fails or err.strip())[-300:]}")
        results[step] = out
    return results


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _samples(obj) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj["samples"]])


def _chain_check(d, region):
    def check(results):
        qs = _read_json(f"{d}/sh/potential.json")
        cells = oracle.cells_from_pieces([(lo, hi, complex(ar, ai), ch)
                                          for lo, hi, ar, ai, ch in qs["pieces"]])
        psi_ref = lambda z: oracle.psi(cells, 0.0, z)  # noqa: E731
        err = rel_l2(_samples(qs), _samples(_read_json(f"{d}/inv/potential.json")))
        require(err <= 1e-2, f"inverted potential: relative L2 error {err:.2e} > 1e-2")
        with open(f"{d}/fwd/psi.csv") as fh:
            rows = np.loadtxt(fh, delimiter=",", skiprows=1)[::257]
        z = rows[:, 1] + 1j * rows[:, 2]
        dev = float(np.max(np.abs(rows[:, 3] + 1j * rows[:, 4] - psi_ref(z))))
        require(dev < 1e-9, f"psi.csv vs oracle: {dev:.2e}")
        R = _read_json(f"{d}/res/resonances.json")["zeros"]
        check_zeros([(complex(r["re"], r["im"]), int(r["mult"])) for r in R],
                    psi_ref, region[0])
    return check


def _chain_digest(d):
    def digest(results):
        qs = _read_json(f"{d}/sh/potential.json")
        qi = _read_json(f"{d}/inv/potential.json")
        R = _read_json(f"{d}/res/resonances.json")
        zs = [[z["re"], z["im"], z["mult"]] for z in R["zeros"]]
        return np.concatenate([_samples(qs).view(float), _samples(qi).view(float),
                               np.array(zs, dtype=float).ravel()])
    return digest


WORKLOADS = {
    "roundtrip": roundtrip,
    "spectra": spectra,
    "resonances": resonances,
    "cli": cli,
}
