import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirachl
from dirachl import cli, core, inverse
from dirachl.core import JostRep
from dirachl.synth import constant_potential, random_piecewise_potential

# the child process imports the same dirachl as the tests, installed or not
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(Path(dirachl.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)}


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "dirachl.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=_ENV)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    r = run_cli("synth", "--seed", "3", "--n", "512", "--out", str(d))
    assert r.returncode == 0, r.stderr
    return d


def load_samples(path):
    obj = json.loads(path.read_text())
    return np.array([complex(re, im) for re, im in obj["samples"]])


class TestSynth:
    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            r = run_cli("synth", "--seed", "11", "--n", "256", "--out", str(d))
            assert r.returncode == 0
        assert (a / "potential.json").read_text() == (b / "potential.json").read_text()

    def test_piece_count_control(self, tmp_path):
        r = run_cli("synth", "--seed", "0", "--n", "256", "--pieces", "4",
                    "--out", str(tmp_path))
        assert r.returncode == 0
        obj = json.loads((tmp_path / "potential.json").read_text())
        assert len(obj["pieces"]) == 4


class TestForward:
    def test_outputs(self, workdir, tmp_path):
        out = tmp_path / "fwd"
        r = run_cli("forward", str(workdir / "potential.json"), "--out", str(out))
        assert r.returncode == 0, r.stderr
        psi_lines = (out / "psi.csv").read_text().splitlines()
        assert psi_lines[0] == "x,z_re,z_im,value_re,value_im"
        # 4n + 1 points for the input's n = 512
        assert len(psi_lines) == 1 + 4 * 512 + 1
        s_lines = (out / "smatrix.csv").read_text().splitlines()
        vals = np.array([[float(t) for t in row.split(",")] for row in s_lines[1:]])
        mags = np.hypot(vals[:, 3], vals[:, 4])
        assert np.max(np.abs(mags - 1.0)) < 1e-9
        rep = json.loads((out / "jostrep.json").read_text())
        assert rep["n"] == 512

    def test_zero_potential_constant_column(self, tmp_path):
        obj = {"gamma": 1.0, "n": 64, "samples": [[0.0, 0.0]] * 65}
        src = tmp_path / "zero.json"
        src.write_text(json.dumps(obj))
        out = tmp_path / "fwd0"
        r = run_cli("forward", str(src), "--alpha", "0.4", "--out", str(out))
        assert r.returncode == 0
        rows = (out / "psi.csv").read_text().splitlines()[1:]
        vals = np.array([[float(t) for t in row.split(",")] for row in rows])
        want = np.exp(-1j * 0.4)
        assert np.max(np.abs(vals[:, 3] + 1j * vals[:, 4] - want)) < 1e-12

    def test_huge_zwindow_refused(self, workdir, tmp_path):
        # |z| beyond 1e152 is a validation error, not an OverflowError
        r = run_cli("forward", str(workdir / "potential.json"), "--zwindow", "1e160",
                    "--out", str(tmp_path / "fwd"))
        assert r.returncode == 2, r.stderr
        err = json.loads(r.stderr.strip().splitlines()[-1])["error"]
        assert err["kind"] == "validation"
        assert "z out of range" in err["message"]

    def test_nonfinite_piece_exit_2(self, tmp_path, capsys):
        # a NaN amplitude once loaded and failed later as an overflow
        obj = constant_potential(1.0, n=16).to_json()
        obj["pieces"][0][2] = math.nan
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "x"
        assert cli.main(["forward", str(bad), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "validation"
        assert "piece [0.0, 1.0) must have a finite" in err["message"]
        assert not out.exists()

    def test_untiled_pieces_exit_2(self, workdir, tmp_path, capsys):
        # a potential.json whose pieces overlap is refused before any work
        obj = json.loads((workdir / "potential.json").read_text())
        obj["pieces"].append([0.0, 0.5, 1.0, 0.0, 0.0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "x"
        assert cli.main(["forward", str(bad), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "validation"
        assert "pieces must tile" in err["message"]
        assert not out.exists()

    def test_samples_off_their_pieces_exit_2(self, tmp_path, capsys):
        # zero samples under synth seed 1's pieces were once accepted
        obj = random_piecewise_potential(1, n=64).to_json()
        obj["samples"] = [[0.0, 0.0]] * len(obj["samples"])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        out = tmp_path / "x"
        assert cli.main(["forward", str(bad), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "validation"
        assert "node values of its pieces" in err["message"]
        assert not out.exists()

    def test_malformed_input_exit_2(self, tmp_path):
        bad_pair = {"gamma": 1.0, "n": 2, "samples": [[0.0, 0.0], [1.0, 2.0, 3.0], [0.0, 0.0]]}
        for text in ("{nope", json.dumps(bad_pair)):
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            r = run_cli("forward", str(bad), "--out", str(tmp_path / "x"))
            assert r.returncode == 2, r.stderr
            err = json.loads(r.stderr.strip().splitlines()[-1])
            assert err["error"]["kind"] == "parse"


class TestResonances:
    def test_region_must_be_lower(self, workdir, tmp_path):
        r = run_cli("resonances", str(workdir / "potential.json"),
                    "--region=-5,5,-2,1", "--out", str(tmp_path))
        assert r.returncode == 2

    @pytest.mark.parametrize("region", ["1,2,3", "a,b,c,d"])
    def test_malformed_region_exit_2(self, workdir, tmp_path, capsys, region):
        # a wrong count or a non-number is a validation error naming the
        # flag, not a traceback
        rc = cli.main(["resonances", str(workdir / "potential.json"),
                       f"--region={region}", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["kind"] == "validation"
        assert "--region" in err["error"]["message"]
        assert "re_min,re_max,im_min,im_max" in err["error"]["message"]

    def test_zero_potential_empty(self, tmp_path):
        obj = {"gamma": 1.0, "n": 64, "samples": [[0.0, 0.0]] * 65}
        src = tmp_path / "zero.json"
        src.write_text(json.dumps(obj))
        out = tmp_path / "res"
        r = run_cli("resonances", str(src), "--region=-5,5,-2,0",
                    "--rcut", "5", "--out", str(out))
        assert r.returncode == 0, r.stderr
        zeros = json.loads((out / "resonances.json").read_text())["zeros"]
        assert zeros == []

    def test_reports_emitted(self, workdir, tmp_path):
        out = tmp_path / "res"
        r = run_cli("resonances", str(workdir / "potential.json"),
                    "--region=-8,8,-2.5,0", "--rcut", "8", "--out", str(out))
        assert r.returncode == 0, r.stderr
        for name in ("resonances.json", "levinson.csv", "forbidden.csv", "phase.csv"):
            assert (out / name).exists()


class TestPipelines:
    def test_invert_trivial_scattering(self, tmp_path):
        n = 64
        obj = {"alpha": 0.4, "gamma": 1.0, "t_max": 4.0, "n": 5 * n,
               "samples": [[0.0, 0.0]] * (5 * n + 1)}
        src = tmp_path / "slim.json"
        src.write_text(json.dumps(obj))
        out = tmp_path / "inv0"
        r = run_cli("invert", str(src), "--out", str(out))
        assert r.returncode == 0, r.stderr
        vals = load_samples(out / "potential.json")
        assert np.max(np.abs(vals)) < 1e-12

    def test_invert_refuses_negative_tmax_in_file(self, tmp_path, capsys):
        # a kernel grid that stops short of s = 0 is refused when the file is
        # read, with the cause named, not later by the GLM solve
        obj = {"alpha": 0.4, "gamma": 1.0, "t_max": -0.5, "n": 32,
               "samples": [[0.0, 0.0]] * 33}
        src = tmp_path / "short.json"
        src.write_text(json.dumps(obj))
        assert cli.main(["invert", str(src), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "validation"
        assert "t_max" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_invert_refuses_kernel_without_node_at_zero(self, probe, tmp_path, capsys):
        # t_max = 8.1 puts s = 0 between nodes (step 9.1 / 1152); such a file
        # once inverted to a wrong potential with exit code 0
        obj = {**core.load_json(probe["scat"]), "t_max": 8.1}
        src = tmp_path / "off.json"
        src.write_text(json.dumps(obj))
        assert cli.main(["invert", str(src), "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "validation"
        assert "0.0 is not a node" in err["message"]
        assert not (tmp_path / "o").exists()

    def test_invert_jost_input_matches_library(self, probe, tmp_path):
        # invert on a JostRep writes recover_potential's answer, bit for bit,
        # and its report, the GLM line solve's CG iterations among it
        assert cli.main(["invert", probe["rep"], "--out", str(tmp_path / "cli")]) == 0
        rep = JostRep.from_json(core.load_json(probe["rep"]))
        qhat, rec = inverse.recover_potential(rep, with_report=True)
        core.dump_json(tmp_path / "lib.json", qhat.to_json())
        assert ((tmp_path / "cli" / "potential.json").read_bytes()
                == (tmp_path / "lib.json").read_bytes())
        rows = dict(line.split(",") for line in
                    (tmp_path / "cli" / "diagnostics.csv").read_text().splitlines()[1:])
        assert rows == {"support": str(rec.support),
                        "clamp_magnitude": str(rec.clamp_magnitude),
                        "glm_residual": str(rec.init_residual),
                        "glm_iterations": str(rec.glm_iterations)}
        assert 0 < rec.glm_iterations <= 20

    def test_invert_round_trip(self, workdir, tmp_path):
        fwd = tmp_path / "fwd"
        r = run_cli("forward", str(workdir / "potential.json"), "--out", str(fwd))
        assert r.returncode == 0
        inv = tmp_path / "inv"
        r = run_cli("invert", str(fwd / "jostrep.json"), "--out", str(inv))
        assert r.returncode == 0, r.stderr
        a = load_samples(workdir / "potential.json")
        b = load_samples(inv / "potential.json")
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-2

    def test_shift_zero_is_identity(self, workdir, tmp_path):
        out = tmp_path / "sh"
        r = run_cli("shift", str(workdir / "potential.json"), "0.0", "--out", str(out))
        assert r.returncode == 0
        a = load_samples(workdir / "potential.json")
        b = load_samples(out / "potential.json")
        assert np.array_equal(a, b)

    def test_reflect_twice_identity(self, workdir, tmp_path):
        o1 = tmp_path / "r1"
        o2 = tmp_path / "r2"
        r = run_cli("reflect", str(workdir / "potential.json"), "--alpha", "0.7",
                    "--out", str(o1))
        assert r.returncode == 0
        r = run_cli("reflect", str(o1 / "potential.json"), "--alpha", "0.7",
                    "--out", str(o2))
        assert r.returncode == 0
        a = load_samples(workdir / "potential.json")
        b = load_samples(o2 / "potential.json")
        assert np.max(np.abs(a - b)) < 1e-12

    def test_canonical_round_trip(self, workdir, tmp_path):
        oh = tmp_path / "h"
        r = run_cli("canonical", "to-hamiltonian", str(workdir / "potential.json"),
                    "--out", str(oh))
        assert r.returncode == 0
        op = tmp_path / "p"
        r = run_cli("canonical", "to-potential", str(oh / "hamiltonian.json"),
                    "--out", str(op))
        assert r.returncode == 0
        a = load_samples(workdir / "potential.json")
        b = load_samples(op / "potential.json")
        # finite differences across the sample jumps limit pointwise accuracy
        interior = np.ones(len(a), dtype=bool)
        assert np.median(np.abs(a - b)) < 1e-2

    def test_check_passes_on_pipeline(self, workdir, tmp_path):
        # synth seed 7 at n = 1024: the F mass cut off at t_max exceeds the
        # O(h^2) floor of the |S| = 1 tolerance
        r = run_cli("synth", "--seed", "7", "--n", "1024", "--out", str(tmp_path / "s7"))
        assert r.returncode == 0, r.stderr
        for src in (workdir / "potential.json", tmp_path / "s7" / "potential.json"):
            r = run_cli("check", str(src), "--out", str(tmp_path))
            assert r.returncode == 0, r.stdout + r.stderr
            assert "CHECK PASS" in r.stdout
            obj = json.loads((tmp_path / "check.json").read_text())
            assert obj["pass"]

    def test_check_names_tmax_when_f_has_not_decayed(self, tmp_path):
        # synth seed 281451239 at n = 1024: F has not started to decay by
        # t_max = 8, so |S| - 1 (3.3e-2) meets only the O(h^2) floor
        r = run_cli("synth", "--seed", "281451239", "--n", "1024", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        r = run_cli("check", str(tmp_path / "potential.json"), "--out", str(tmp_path))
        assert r.returncode == 1
        assert "[FAIL] scattering: |S| = 1" in r.stdout
        assert "--tmax" in r.stdout

    def test_check_tmax_defaults_to_input_gamma(self, tmp_path, monkeypatch, capsys):
        # without --tmax the horizon is scattering_kernel's own 8 gamma of
        # the input (16 here), not 8 --gamma
        assert cli.main(["synth", "--seed", "0", "--gamma", "2", "--n", "512",
                         "--out", str(tmp_path)]) == 0
        seen = []
        kernel = inverse.scattering_kernel

        def wrapped(*args, **kwargs):
            S = kernel(*args, **kwargs)
            seen.append(S.t_max)
            return S

        monkeypatch.setattr(inverse, "scattering_kernel", wrapped)
        rc = cli.main(["check", str(tmp_path / "potential.json"), "--out", str(tmp_path)])
        assert rc in (0, 1), capsys.readouterr()
        assert seen == [pytest.approx(16.0)]

    def test_move_relocates(self, workdir, tmp_path):
        res = tmp_path / "res"
        r = run_cli("resonances", str(workdir / "potential.json"),
                    "--region=-6,6,-2.5,0", "--rcut", "6", "--out", str(res))
        assert r.returncode == 0, r.stderr
        zeros = json.loads((res / "resonances.json").read_text())["zeros"]
        z0 = min(zeros, key=lambda e: e["re"] ** 2 + e["im"] ** 2)
        moves = json.dumps([{"from": {"re": z0["re"], "im": z0["im"]},
                             "to": {"re": z0["re"] + 0.2, "im": z0["im"]}}])
        out = tmp_path / "mv"
        r = run_cli("move", str(workdir / "potential.json"), moves, "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert (out / "potential.json").exists()

    @pytest.mark.parametrize("moves", ['[{"from": {"re": 1.0, "im": -1.0}',
                                       '[{"from": {"re": 1.0}, "to": {"re": 1.2, "im": -1.0}}]',
                                       '[{"from": {"re": 1.0, "im": -1.0}, "to": {"im": -1.0}}]'])
    def test_malformed_moves_exit_2(self, workdir, tmp_path, capsys, moves):
        # bad JSON or a missing "im"/"re" key is a validation error naming
        # the argument and its shape, not a traceback
        rc = cli.main(["move", str(workdir / "potential.json"), moves, "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"]["kind"] == "validation"
        assert err["error"]["message"].startswith("moves: expected a JSON list")


class TestConfig:
    def test_config_applies_below_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 128, "seed": 5}))
        r = run_cli("synth", "--config", str(cfg), "--n", "64", "--out", str(tmp_path))
        assert r.returncode == 0, r.stderr
        obj = json.loads((tmp_path / "potential.json").read_text())
        assert obj["n"] == 64
        r = run_cli("synth", "--seed", "5", "--n", "64", "--out", str(tmp_path / "b"))
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "b" / "potential.json").read_text() == \
            (tmp_path / "potential.json").read_text()

    def test_unknown_config_key_rejected(self, workdir, tmp_path):
        # a key the run cannot use (here the removed growth-cap override)
        # is an error, not silently ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rcut": 8.0, "imcap": 10.0}))
        r = run_cli("resonances", str(workdir / "potential.json"), "--config", str(cfg),
                    "--out", str(tmp_path))
        assert r.returncode == 2, r.stderr
        err = json.loads(r.stderr.strip().splitlines()[-1])
        assert err["error"]["kind"] == "usage"
        assert "imcap" in err["error"]["message"]
        r = run_cli("resonances", str(workdir / "potential.json"), "--imcap", "10",
                    "--out", str(tmp_path))
        assert r.returncode == 2

    def test_config_value_types_checked(self, tmp_path):
        # a --config value is read with its flag's type: a string or a
        # fraction for an integer is a validation error naming the key
        cfg = tmp_path / "cfg.json"
        for data in ({"n": "64"}, {"n": 64.5}, {"gamma": "2"}, {"out": 3}):
            cfg.write_text(json.dumps(data))
            r = run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "o"))
            assert r.returncode == 2, r.stderr
            err = json.loads(r.stderr.strip().splitlines()[-1])
            assert err["error"]["kind"] == "validation"
            assert repr(next(iter(data))) in err["error"]["message"]
        cfg.write_text(json.dumps({"n": 64, "gamma": 2}))
        r = run_cli("synth", "--config", str(cfg), "--out", str(tmp_path / "ok"))
        assert r.returncode == 0, r.stderr
        obj = json.loads((tmp_path / "ok" / "potential.json").read_text())
        assert obj["n"] == 64 and obj["gamma"] == 2.0


# positional arguments that get each subcommand past argument parsing
_POSITIONALS = {"synth": [], "shift": ["p.json", "0"], "move": ["p.json", "[]"]}


def _usage_error(capsys):
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"]["kind"] == "usage"
    return err["error"]["message"]


class TestUsage:
    def test_removed_kernel_band_flag(self, workdir, tmp_path, capsys):
        assert cli.main(["forward", str(workdir / "potential.json"), "--zmax", "1000",
                         "--out", str(tmp_path)]) == 2
        assert "--zmax" in _usage_error(capsys)

    def test_missing_positional_exit_2(self, capsys):
        assert cli.main(["shift", "p.json"]) == 2
        assert "k" in _usage_error(capsys)
        assert cli.main([]) == 2
        _usage_error(capsys)

    @pytest.mark.parametrize("cmd", list(cli.COMMANDS), ids=lambda cmd: cmd.replace(" ", "-"))
    def test_each_subcommand_takes_its_row_only(self, cmd, tmp_path, capsys):
        # every flag outside the subcommand's row is refused, on the command
        # line (shift --alpha, canonical to-hamiltonian --zwindow) and as a
        # --config key (resonances with {"seed": 1}), before any input is read
        flags = {*cli.COMMANDS[cmd][3], "out"}
        argv = [*cmd.split(), *_POSITIONALS.get(cmd, ["p.json"])]
        cfg = tmp_path / "cfg.json"
        for flag in sorted(set(cli.FLAGS) - flags):
            assert cli.main([*argv, f"--{flag}", "1"]) == 2, flag
            assert f"--{flag}" in _usage_error(capsys)
            cfg.write_text(json.dumps({flag: 1}))
            assert cli.main([*argv, "--config", str(cfg)]) == 2, flag
            assert repr(flag) in _usage_error(capsys)


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    # synth seed 0 at n = 128 and its Jost kernel
    d = tmp_path_factory.mktemp("probe")
    assert cli.main(["synth", "--seed", "0", "--n", "128", "--out", str(d)]) == 0
    assert cli.main(["forward", str(d / "potential.json"), "--out", str(d)]) == 0
    rep = JostRep.from_json(core.load_json(d / "jostrep.json"))
    core.dump_json(d / "scattering.json", inverse.scattering_kernel(rep).to_json())
    return {"p": str(d / "potential.json"), "rep": str(d / "jostrep.json"),
            "scat": str(d / "scattering.json")}


# each call with the fragment its error message names; {p} stands for the
# probe's potential
_BAD_VALUES = [("check {p} --tmax -1", "t_max"), ("check {p} --tmax nan", "t_max"),
               ("synth --pieces 0", "piece count"),
               ("resonances {p} --tol nan", "tol"), ("resonances {p} --tol 0", "tol"),
               ("resonances {p} --region=-3,3,-2,0 --rcut nan", "r_cut"),
               ("resonances {p} --region=-3,3,-2,0 --rcut inf", "r_cut"),
               ("resonances {p} --region=-3,3,-2,0 --rcut 0", "r_cut"),
               ("resonances {p} --rcut 0", "--rcut"), ("resonances {p} --rcut nan", "--rcut"),
               ("resonances {p} --rcut 1e308", "--rcut"),
               ("resonances {p} --region=nan,3,-2,0", "finite"),
               ("forward {p} --zwindow nan", "z must be finite"),
               ("canonical hermite {p} --zwindow nan", "z must be finite")]

# only check reads a horizon; invert, on the probe's JostRep {rep} or its
# ScatteringRep {scat}, and move refuse one
_TMAX_REFUSED = ["invert {rep} --tmax 0", "invert {rep} --tmax -1", "invert {rep} --tmax nan",
                 "invert {scat} --tmax 99", "move {p} [] --tmax -1", "move {p} [] --tmax nan",
                 "move {p} [] --tmax 8"]


class TestBadValues:
    @pytest.mark.parametrize("line, names", _BAD_VALUES, ids=[line for line, _ in _BAD_VALUES])
    def test_refused_as_validation(self, probe, tmp_path, capsys, line, names):
        # values that once ended in a traceback (an IndexError for a
        # negative --tmax, a LinAlgError for a NaN --rcut, an OverflowError
        # for an infinite one) or in a misleading error (a NaN --tol as
        # "subdivision depth limit exceeded", a NaN --zwindow as an
        # overflow, a zero --rcut as "z_limit", a NaN region extent as an
        # empty region) are refused by the library call that reads them
        out = tmp_path / "o"
        assert cli.main([*line.format(**probe).split(), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert err["kind"] == "validation"
        assert names in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("line", _TMAX_REFUSED)
    def test_tmax_refused_as_usage(self, probe, tmp_path, capsys, line):
        # invert and move recover from F on [-gamma, 0], so no horizon
        # reaches them: --tmax, whatever its value and input kind, on the
        # command line or as a --config key, is a usage error
        argv = line.format(**probe).split()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tmax": float(argv[-1])}))
        out = tmp_path / "o"
        for call, named in ((argv, "--tmax"), ([*argv[:-2], "--config", str(cfg)], "'tmax'")):
            assert cli.main([*call, "--out", str(out)]) == 2
            assert named in _usage_error(capsys)
            assert not out.exists()
