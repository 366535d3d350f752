"""Command-line front end.

Subcommands: forward, resonances, invert, move, shift, reflect, canonical,
check, synth.  Inputs and outputs are the JSON shapes documented in the
README plus header-carrying CSV files.  Flag precedence is command line >
config file (--config, JSON) > defaults.  Exit codes: 0 success, 1
numerical failure, 2 usage or validation error (including unreadable
input); failures emit one machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import canonical as can
from . import core, forward, inverse, spectral, synth, transforms
from .core import (
    BoundaryParam,
    DirachlError,
    NumericalError,
    Potential,
    ResonanceSet,
    ScatteringRep,
    JostRep,
    ValidationError,
    make_grid,
)

__all__ = ["main", "RunConfig"]


@dataclass
class RunConfig:
    gamma: float = 1.0
    alpha: float = 0.0
    n: int = 1024
    zmax: float | None = None       # Fourier band for kernel extraction
    zwindow: float = 20.0           # real-axis window for psi/S CSV output
    tmax: float | None = None       # scattering-kernel horizon (default 8 gamma of the input)
    rcut: float = 60.0
    tol: float = 1e-9
    seed: int = 0
    out: str = "."


# type of each RunConfig field, for its flag and its --config key
_FIELD_TYPES = {"gamma": float, "alpha": float, "n": int, "zmax": float,
                "zwindow": float, "tmax": float, "rcut": float, "tol": float,
                "seed": int, "out": str}


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        data = _read_input(args.config, dict)
        unknown = sorted(set(data) - set(_FIELD_TYPES))
        if unknown:
            raise ValidationError(f"unknown key(s) {unknown} in --config {args.config}")
        for name, value in data.items():
            typ = _FIELD_TYPES[name]
            if type(value) not in ((int, float) if typ is float else (typ,)):
                raise ValidationError(
                    f"--config key {name!r} must be {typ.__name__}, got {value!r}")
            setattr(cfg, name, typ(value))
    for name in _FIELD_TYPES:
        v = getattr(args, name, None)
        if v is not None:
            setattr(cfg, name, v)
    if cfg.tol <= 0:
        raise ValidationError("tolerances must be positive")
    return cfg


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _read_input(path, decode):
    """Decode a JSON input file; unreadable or malformed files are parse errors."""
    try:
        return decode(core.load_json(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"parse: cannot read {path}: {exc}") from exc


def _read_potential(path) -> Potential:
    return _read_input(path, Potential.from_json)


def cmd_forward(args) -> int:
    cfg = _load_config(args)
    q = _read_potential(args.potential)
    alpha = BoundaryParam(cfg.alpha)
    os.makedirs(cfg.out, exist_ok=True)
    zs = np.linspace(-cfg.zwindow, cfg.zwindow, 4 * cfg.n + 1)
    psi = forward.psi_values(q, alpha, zs.astype(complex))
    _write_csv(os.path.join(cfg.out, "psi.csv"),
               ["x", "z_re", "z_im", "value_re", "value_im"],
               [[0.0, z, 0.0, v.real, v.imag] for z, v in zip(zs, psi)])
    sv = np.conj(psi) / psi
    _write_csv(os.path.join(cfg.out, "smatrix.csv"),
               ["x", "z_re", "z_im", "value_re", "value_im"],
               [[0.0, z, 0.0, v.real, v.imag] for z, v in zip(zs, sv)])
    if cfg.zmax is not None:
        rep = forward.jost_kernel(q, alpha, z_max=cfg.zmax)
    else:
        rep = forward.jost_kernel_direct(q, alpha)
    core.dump_json(os.path.join(cfg.out, "jostrep.json"), rep.to_json())
    return 0


def _resonances_of(q, alpha, cfg, region=None) -> ResonanceSet:
    ev = forward.make_psi_evaluator(q, alpha)
    if region is None:
        depth = min(6.0, 0.9 * forward._growth_cap(q.gamma))
        region = spectral.SearchRegion(-cfg.rcut * 1.05, cfg.rcut * 1.05, -depth, 0.0)
    return spectral.find_resonances(ev, region, tol=cfg.tol)


def cmd_resonances(args) -> int:
    cfg = _load_config(args)
    q = _read_potential(args.potential)
    alpha = BoundaryParam(cfg.alpha)
    region = None
    if args.region:
        try:
            region = spectral.SearchRegion(*(float(t) for t in args.region.split(",")))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"--region {args.region!r}: expected four numbers "
                                  "re_min,re_max,im_min,im_max") from exc
    R = _resonances_of(q, alpha, cfg, region)
    os.makedirs(cfg.out, exist_ok=True)
    core.dump_json(os.path.join(cfg.out, "resonances.json"), R.to_json())

    rows = []
    for r in np.linspace(cfg.rcut / 8, cfg.rcut, 16):
        rp, rm = spectral.levinson_ratio(R, q.gamma, r)
        rows.append([r, rp, rm])
    _write_csv(os.path.join(cfg.out, "levinson.csv"),
               ["r", "ratio_plus", "ratio_minus"], rows)

    fd = spectral.forbidden_domain_check(R, q.gamma, eps=0.1)
    _write_csv(os.path.join(cfg.out, "forbidden.csv"),
               ["z_re", "z_im", "mult", "slack"],
               [[z.real, z.imag, m, s]
                for (z, m), s in zip(R.entries, fd.slack)])

    grid = make_grid(-10.0, 10.0, 400)
    prof = spectral.phase_profile(R, q.gamma, alpha, grid, cfg.rcut,
                                  z_limit=0.9 * cfg.rcut)
    _write_csv(os.path.join(cfg.out, "phase.csv"),
               ["z", "phi", "dphi"],
               [[z, p, d] for z, p, d in zip(grid.nodes(), prof.phi, prof.dphi)])
    return 0


def cmd_invert(args) -> int:
    cfg = _load_config(args)
    data = _read_input(args.data, lambda obj: (
        ScatteringRep.from_json(obj) if "t_max" in obj else JostRep.from_json(obj)))
    os.makedirs(cfg.out, exist_ok=True)
    if isinstance(data, ScatteringRep):
        S = data
    else:
        S = inverse.scattering_kernel(data, t_max=cfg.tmax)
    qhat, rec = inverse.recover_potential(S, with_report=True)
    core.dump_json(os.path.join(cfg.out, "potential.json"), qhat.to_json())
    _write_csv(os.path.join(cfg.out, "diagnostics.csv"),
               ["quantity", "value"],
               [["support", rec.support],
                ["clamp_magnitude", rec.clamp_magnitude],
                ["glm_residual", rec.init_residual]])
    return 0


def _read_moves(moves_json):
    try:
        return [transforms.ResonanceMove(complex(m["from"]["re"], m["from"]["im"]),
                                         complex(m["to"]["re"], m["to"]["im"]))
                for m in json.loads(moves_json)]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"moves: expected a JSON list like "
                              f"[{{\"from\": {{\"re\": .., \"im\": ..}}, \"to\": {{...}}}}] "
                              f"({type(exc).__name__}: {exc})") from exc


def cmd_move(args) -> int:
    cfg = _load_config(args)
    q = _read_potential(args.potential)
    alpha = BoundaryParam(cfg.alpha)
    if os.path.exists(args.moves):
        with open(args.moves) as fh:
            moves = _read_moves(fh.read())
    else:
        moves = _read_moves(args.moves)
    qnew = transforms.move_resonances(q, alpha, moves, t_max=cfg.tmax)
    os.makedirs(cfg.out, exist_ok=True)
    core.dump_json(os.path.join(cfg.out, "potential.json"), qnew.to_json())
    return 0


def cmd_shift(args) -> int:
    cfg = _load_config(args)
    q = _read_potential(args.potential)
    qk = transforms.shift_potential(q, args.k)
    os.makedirs(cfg.out, exist_ok=True)
    core.dump_json(os.path.join(cfg.out, "potential.json"), qk.to_json())
    return 0


def cmd_reflect(args) -> int:
    cfg = _load_config(args)
    q = _read_potential(args.potential)
    qo = transforms.reflect_potential(q, BoundaryParam(cfg.alpha))
    os.makedirs(cfg.out, exist_ok=True)
    core.dump_json(os.path.join(cfg.out, "potential.json"), qo.to_json())
    return 0


def cmd_canonical(args) -> int:
    cfg = _load_config(args)
    os.makedirs(cfg.out, exist_ok=True)
    if args.mode == "to-hamiltonian":
        q = _read_potential(args.data)
        H = can.hamiltonian_from_potential(q)
        core.dump_json(os.path.join(cfg.out, "hamiltonian.json"), H.to_json())
    elif args.mode == "to-potential":
        H = _read_input(args.data, can.Hamiltonian.from_json)
        q = can.potential_from_hamiltonian(H)
        core.dump_json(os.path.join(cfg.out, "potential.json"), q.to_json())
    elif args.mode == "hermite":
        q = _read_potential(args.data)
        ev = can.make_hermite_evaluator(q)
        zs = np.linspace(-cfg.zwindow, cfg.zwindow, 2 * cfg.n + 1)
        vals = ev(zs.astype(complex))
        _write_csv(os.path.join(cfg.out, "hermite.csv"),
                   ["z_re", "z_im", "e_re", "e_im"],
                   [[z, 0.0, v.real, v.imag] for z, v in zip(zs, vals)])
    else:
        raise ValidationError(f"unknown canonical mode {args.mode!r}")
    return 0


def cmd_check(args) -> int:
    cfg = _load_config(args)
    q = _read_potential(args.potential)
    alpha = BoundaryParam(cfg.alpha)
    rep = forward.jost_kernel_direct(q, alpha)
    S = inverse.scattering_kernel(rep, t_max=cfg.tmax)
    lines = []
    ok = True
    s_tol, decayed = inverse.unimodularity_tolerance(S)
    for obj, kw in ((q, {}), (rep, {}), (S, {"tol": s_tol})):
        report = core.validate_class(obj, **kw)
        ok = ok and report.passed
        lines.extend(report.lines())
    if not (decayed or next(c.passed for c in report.checks if c.name.startswith("|S| = 1"))):
        lines.append(f"[hint] scattering: F has not decayed by t_max = {S.t_max:g}, so the "
                     f"|S| = 1 tolerance counts no cut-off mass; rerun with a larger --tmax")
    ident = inverse.support_identities(q, rep, S)
    ok = ok and (ident["pass"] or ident["degenerate"])
    lines.append(f"[{'pass' if ident['pass'] or ident['degenerate'] else 'FAIL'}] "
                 f"support identities: {ident['differences']}")
    zs = np.linspace(-8.0, 8.0, 33) + 0j
    sres = transforms.shift_identity_residual(q, alpha, 0.7, zs)
    rres = transforms.reflect_identity_residual(q, alpha, zs)
    # exact piecewise descriptors make the identities hold to rounding; a
    # bare sampled potential carries the O(k h |q|) cell-model error
    peak = float(np.max(np.abs(q.samples.values)) or 1.0)
    ident_tol = 1e-8 if q.pieces is not None else max(
        1e-6, 0.5 * 0.7 * q.grid.h * peak * q.gamma)
    for name, val in (("shift identity", sres), ("reflection identity", rres)):
        good = val < ident_tol
        ok = ok and good
        lines.append(f"[{'pass' if good else 'FAIL'}] {name}: residual {val:.3e}")
    for line in lines:
        print(line)
    os.makedirs(cfg.out, exist_ok=True)
    core.dump_json(os.path.join(cfg.out, "check.json"),
                   {"pass": ok, "lines": lines})
    print("CHECK", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    q = synth.random_piecewise_potential(cfg.seed, gamma=cfg.gamma, n=cfg.n,
                                         n_pieces=args.pieces, max_amp=args.max_amp)
    os.makedirs(cfg.out, exist_ok=True)
    core.dump_json(os.path.join(cfg.out, "potential.json"), q.to_json())
    return 0


def _add_common(p):
    for name, typ in _FIELD_TYPES.items():
        p.add_argument(f"--{name}", type=typ, default=None)
    p.add_argument("--config", type=str, default=None)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dirachl",
                                 description="Half-line Dirac resonance scattering")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("forward", help="psi, S and the Jost kernel from a potential")
    p.add_argument("potential")
    _add_common(p)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("resonances", help="locate resonances and phase data")
    p.add_argument("potential")
    p.add_argument("--region", type=str, default=None,
                   help="re_min,re_max,im_min,im_max")
    _add_common(p)
    p.set_defaults(fn=cmd_resonances)

    p = sub.add_parser("invert", help="recover a potential from scattering data")
    p.add_argument("data", help="ScatteringRep or JostRep JSON file")
    _add_common(p)
    p.set_defaults(fn=cmd_invert)

    p = sub.add_parser("move", help="resonance surgery")
    p.add_argument("potential")
    p.add_argument("moves", help="JSON list like "
                   '[{"from":{"re":..,"im":..},"to":{"re":..,"im":..}}] or a file')
    _add_common(p)
    p.set_defaults(fn=cmd_move)

    p = sub.add_parser("shift", help="multiply by e^{2ikx}")
    p.add_argument("potential")
    p.add_argument("k", type=float)
    _add_common(p)
    p.set_defaults(fn=cmd_shift)

    p = sub.add_parser("reflect", help="reflect resonances across the imaginary axis")
    p.add_argument("potential")
    _add_common(p)
    p.set_defaults(fn=cmd_reflect)

    p = sub.add_parser("canonical", help="canonical-system conversions")
    p.add_argument("mode", choices=["to-hamiltonian", "to-potential", "hermite"])
    p.add_argument("data")
    _add_common(p)
    p.set_defaults(fn=cmd_canonical)

    p = sub.add_parser("check", help="class membership and identity checks")
    p.add_argument("potential")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("synth", help="seeded random piecewise-constant potential")
    p.add_argument("--pieces", type=int, default=8)
    p.add_argument("--max-amp", dest="max_amp", type=float, default=2.0)
    _add_common(p)
    p.set_defaults(fn=cmd_synth)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        kind = "parse" if str(exc).startswith("parse:") else "validation"
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}),
              file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": {"kind": "numerical", "message": str(exc)}}),
              file=sys.stderr)
        return 1
    except DirachlError as exc:
        print(json.dumps({"error": {"kind": "error", "message": str(exc)}}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
