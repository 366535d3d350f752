"""Command-line front end.

Subcommands: synth, shift, reflect, forward, invert, move, check,
resonances, canonical (modes to-hamiltonian, to-potential, hermite).
Inputs and outputs are the JSON shapes documented in the README plus
header-carrying CSV files.  One table drives the flags: `FLAGS` gives
each flag's type and default, and `COMMANDS` lists the flags each
subcommand, or each mode of canonical, reads (besides --out and
--config).  A flag or --config key that the subcommand does not read is a
usage error.  Only `check` reads --tmax: `invert` and `move` recover
through the GLM, which reads the scattering kernel on [-gamma, 0] only.
Flag precedence is command line > config file (--config, JSON) > defaults.
Exit codes: 0 success, 1 numerical failure, 2 usage or validation error
(including unreadable input); failures emit one machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import canonical as can
from . import core, forward, inverse, spectral, synth, transforms
from .core import (
    BoundaryParam,
    DirachlError,
    NumericalError,
    Potential,
    ScatteringRep,
    JostRep,
    ValidationError,
    make_grid,
)

__all__ = ["main", "FLAGS", "COMMANDS"]

# flag -> (type, default); a --config key is the flag's name without "--"
FLAGS = {
    "gamma": (float, 1.0),
    "alpha": (float, 0.0),
    "n": (int, 1024),
    "zwindow": (float, 20.0),       # real-axis window for psi/S/hermite CSV output
    "tmax": (float, None),          # S horizon for check (default inverse._HORIZON gamma)
    "rcut": (float, 60.0),
    "tol": (float, 1e-9),
    "region": (str, None),          # re_min,re_max,im_min,im_max (default from rcut and gamma)
    "seed": (int, 0),
    "pieces": (int, 8),
    "max-amp": (float, 2.0),
    "out": (str, "."),
}


class _UsageError(ValidationError):
    """A flag, --config key or argument the subcommand does not take."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _read_input(path, decode):
    """Decode a JSON input file; unreadable or malformed files are parse errors."""
    try:
        return decode(core.load_json(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise core.ParseError(f"parse: cannot read {path}: {exc}") from exc


def _read_potential(path) -> Potential:
    return _read_input(path, Potential.from_json)


def _save(out: str, files: dict) -> int:
    """Write each file under `out`, a dict as JSON and a (header, rows) pair
    as CSV; returns the success exit code."""
    os.makedirs(out, exist_ok=True)
    for name, data in files.items():
        path = os.path.join(out, name)
        if isinstance(data, dict):
            core.dump_json(path, data)
            continue
        header, rows = data
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
    return 0


def cmd_synth(args) -> int:
    q = synth.random_piecewise_potential(args.seed, gamma=args.gamma, n=args.n,
                                         n_pieces=args.pieces, max_amp=args.max_amp)
    return _save(args.out, {"potential.json": q.to_json()})


def cmd_shift(args) -> int:
    qk = transforms.shift_potential(_read_potential(args.potential), args.k)
    return _save(args.out, {"potential.json": qk.to_json()})


def cmd_reflect(args) -> int:
    qo = transforms.reflect_potential(_read_potential(args.potential), BoundaryParam(args.alpha))
    return _save(args.out, {"potential.json": qo.to_json()})


def cmd_forward(args) -> int:
    q = _read_potential(args.potential)
    alpha = BoundaryParam(args.alpha)
    zs = np.linspace(-args.zwindow, args.zwindow, 4 * q.grid.n + 1)
    psi = forward.psi_values(q, alpha, zs.astype(complex))
    header = ["x", "z_re", "z_im", "value_re", "value_im"]
    return _save(args.out, {
        "psi.csv": (header, ([0.0, z, 0.0, v.real, v.imag] for z, v in zip(zs, psi))),
        "smatrix.csv": (header, ([0.0, z, 0.0, v.real, v.imag]
                                 for z, v in zip(zs, np.conj(psi) / psi))),
        "jostrep.json": forward.jost_kernel_direct(q, alpha).to_json()})


def cmd_invert(args) -> int:
    data = _read_input(args.data, lambda obj: (
        ScatteringRep.from_json(obj) if "t_max" in obj else JostRep.from_json(obj)))
    qhat, rec = inverse.recover_potential(data, with_report=True)
    return _save(args.out, {
        "potential.json": qhat.to_json(),
        "diagnostics.csv": (["quantity", "value"],
                            [["support", rec.support],
                             ["clamp_magnitude", rec.clamp_magnitude],
                             ["glm_residual", rec.init_residual],
                             ["glm_iterations", rec.glm_iterations]])})


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
    q = _read_potential(args.potential)
    if os.path.exists(args.moves):
        with open(args.moves) as fh:
            moves = _read_moves(fh.read())
    else:
        moves = _read_moves(args.moves)
    qnew = transforms.move_resonances(q, BoundaryParam(args.alpha), moves)
    return _save(args.out, {"potential.json": qnew.to_json()})


def cmd_check(args) -> int:
    q = _read_potential(args.potential)
    alpha = BoundaryParam(args.alpha)
    rep = forward.jost_kernel_direct(q, alpha)
    S = inverse.scattering_kernel(rep, t_max=args.tmax)
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
    _save(args.out, {"check.json": {"pass": ok, "lines": lines}})
    print("CHECK", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_resonances(args) -> int:
    q = _read_potential(args.potential)
    alpha = BoundaryParam(args.alpha)
    if args.region is None:
        if not (args.rcut > 0 and math.isfinite(2.1 * args.rcut)):     # the region's width
            raise ValidationError(f"--rcut must be positive with 2.1 --rcut finite, got {args.rcut!r}")
        depth = min(6.0, 0.9 * forward._growth_cap(q.gamma))
        region = spectral.SearchRegion(-args.rcut * 1.05, args.rcut * 1.05, -depth, 0.0)
    else:
        try:
            region = spectral.SearchRegion(*(float(t) for t in args.region.split(",")))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"--region {args.region!r}: expected four numbers "
                                  "re_min,re_max,im_min,im_max") from exc
    R = spectral.find_resonances(forward.make_psi_evaluator(q, alpha), region, tol=args.tol)
    fd = spectral.forbidden_domain_check(R, q.gamma, eps=0.1)
    grid = make_grid(-10.0, 10.0, 400)
    prof = spectral.phase_profile(R, q.gamma, alpha, grid, args.rcut,
                                  z_limit=0.9 * args.rcut)
    return _save(args.out, {
        "resonances.json": R.to_json(),
        "levinson.csv": (["r", "ratio_plus", "ratio_minus"],
                         [[r, *spectral.levinson_ratio(R, q.gamma, r)]
                          for r in np.linspace(args.rcut / 8, args.rcut, 16)]),
        "forbidden.csv": (["z_re", "z_im", "mult", "slack"],
                          [[z.real, z.imag, m, s] for (z, m), s in zip(R.entries, fd.slack)]),
        "phase.csv": (["z", "phi", "dphi"],
                      [[z, p, d] for z, p, d in zip(grid.nodes(), prof.phi, prof.dphi)])})


def cmd_to_hamiltonian(args) -> int:
    H = can.hamiltonian_from_potential(_read_potential(args.data))
    return _save(args.out, {"hamiltonian.json": H.to_json()})


def cmd_to_potential(args) -> int:
    H = _read_input(args.data, can.Hamiltonian.from_json)
    return _save(args.out, {"potential.json": can.potential_from_hamiltonian(H).to_json()})


def cmd_hermite(args) -> int:
    q = _read_potential(args.data)
    zs = np.linspace(-args.zwindow, args.zwindow, 2 * q.grid.n + 1)
    vals = can.make_hermite_evaluator(q)(zs.astype(complex))
    return _save(args.out, {"hermite.csv": (["z_re", "z_im", "e_re", "e_im"],
                                            [[z, 0.0, v.real, v.imag] for z, v in zip(zs, vals)])})


_POTENTIAL = {"potential": {}}
# subcommand -> (handler, help, positional arguments, flags read besides --out);
# "canonical MODE" rows are the modes of one subcommand, each with its own flags
COMMANDS = {
    "synth": (cmd_synth, "seeded random piecewise-constant potential", {},
              ("gamma", "n", "seed", "pieces", "max-amp")),
    "shift": (cmd_shift, "multiply by e^{2ikx}", {**_POTENTIAL, "k": {"type": float}}, ()),
    "reflect": (cmd_reflect, "reflect resonances across the imaginary axis", _POTENTIAL,
                ("alpha",)),
    "forward": (cmd_forward, "psi, S and the Jost kernel from a potential", _POTENTIAL,
                ("alpha", "zwindow")),
    "invert": (cmd_invert, "recover a potential from scattering data",
               {"data": {"help": "ScatteringRep or JostRep JSON file"}}, ()),
    "move": (cmd_move, "resonance surgery",
             {**_POTENTIAL, "moves": {"help": "JSON list like "
                                      '[{"from":{"re":..,"im":..},"to":{"re":..,"im":..}}] '
                                      "or a file"}},
             ("alpha",)),
    "check": (cmd_check, "class membership and identity checks", _POTENTIAL, ("alpha", "tmax")),
    "resonances": (cmd_resonances, "locate resonances and phase data", _POTENTIAL,
                   ("alpha", "rcut", "tol", "region")),
    "canonical to-hamiltonian": (cmd_to_hamiltonian, "canonical-system Hamiltonian of a potential",
                                 {"data": {}}, ()),
    "canonical to-potential": (cmd_to_potential, "potential of a canonical-system Hamiltonian",
                               {"data": {}}, ()),
    "canonical hermite": (cmd_hermite, "Hermite-Biehler function on the real axis",
                          {"data": {}}, ("zwindow",)),
}


def _parse(argv) -> argparse.Namespace:
    """The subcommand's arguments, each flag it reads set from the command
    line, else from --config, else from `FLAGS`."""
    ap = _Parser(prog="dirachl", description="Half-line Dirac resonance scattering",
                 allow_abbrev=False)
    sub = ap.add_subparsers(dest="cmd", required=True)
    modes = {}
    for name, (fn, help_, positionals, flags) in COMMANDS.items():
        cmd, _, mode = name.partition(" ")
        if mode:
            if cmd not in modes:
                group = [m.partition(" ")[2] for m in COMMANDS if m.startswith(cmd + " ")]
                modes[cmd] = sub.add_parser(
                    cmd, help=f"modes: {', '.join(group)}", allow_abbrev=False
                ).add_subparsers(dest="mode", required=True)
            p = modes[cmd].add_parser(mode, help=help_, allow_abbrev=False)
        else:
            p = sub.add_parser(name, help=help_, allow_abbrev=False)
        for pos, kw in positionals.items():
            p.add_argument(pos, **kw)
        row = (*flags, "out")
        for flag in row:
            p.add_argument(f"--{flag}", type=FLAGS[flag][0])
        p.add_argument("--config")
        p.set_defaults(fn=fn, flags=row, name=name)
    args, extra = ap.parse_known_args(argv)
    if extra:
        takes = " ".join(f"--{flag}" for flag in (*args.flags, "config"))
        raise _UsageError(f"dirachl {args.name}: unrecognized argument(s) {' '.join(extra)}; "
                          f"its flags are {takes}")
    data = _read_input(args.config, dict) if args.config else {}
    foreign = sorted(set(data) - set(args.flags))
    if foreign:
        raise _UsageError(f"--config {args.config}: dirachl {args.name} does not read "
                          f"key(s) {foreign}; its keys are {list(args.flags)}")
    for flag in args.flags:
        typ, value = FLAGS[flag]
        if flag in data:
            value = data[flag]
            if type(value) not in ((int, float) if typ is float else (typ,)):
                raise ValidationError(
                    f"--config key {flag!r} must be {typ.__name__}, got {value!r}")
            value = typ(value)
        dest = flag.replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, value)
    return args


# exit kind and code per error class, most specific first
_FAILURES = ((_UsageError, "usage", 2), (core.ParseError, "parse", 2),
             (ValidationError, "validation", 2), (NumericalError, "numerical", 1),
             (DirachlError, "error", 1))


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.fn(args)
    except DirachlError as exc:
        kind, code = next((kind, code) for cls, kind, code in _FAILURES if isinstance(exc, cls))
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
