import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dirachl

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
        r = run_cli("forward", str(workdir / "potential.json"), "--n", "512",
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
        psi_lines = (out / "psi.csv").read_text().splitlines()
        assert psi_lines[0] == "x,z_re,z_im,value_re,value_im"
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

    def test_forward_fourier_kernel_flag(self, workdir, tmp_path):
        out = tmp_path / "fz"
        r = run_cli("forward", str(workdir / "potential.json"),
                    "--zmax", str(float(400 * np.pi)), "--out", str(out))
        assert r.returncode == 0, r.stderr
        rep = json.loads((out / "jostrep.json").read_text())
        assert rep["n"] == 512

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
        assert err["error"]["kind"] == "validation"
        assert "imcap" in err["error"]["message"]
        r = run_cli("resonances", str(workdir / "potential.json"), "--imcap", "10",
                    "--out", str(tmp_path))
        assert r.returncode == 2
