import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirachl.core import BoundaryParam, Piece, ValidationError, validate_class
from dirachl.forward import jost_kernel_direct, make_psi_evaluator, psi_values
from dirachl.spectral import SearchRegion, find_resonances
from dirachl.transforms import (
    ResonanceMove,
    blaschke_modify,
    move_resonances,
    reflect_identity_residual,
    reflect_potential,
    shift_identity_residual,
    shift_potential,
)
from dirachl.synth import constant_potential, random_piecewise_potential, sampled_from_pieces

from conftest import rel_l2
from oracles import moved_psi


def _clear_region(ev, re0, re1, im0, im1, step=0.37):
    """The region widened until |psi| on its boundary is clear of zeros:
    the search rightly refuses a boundary through a zero."""
    t = np.arange(128) / 128
    for _ in range(12):
        zs = np.concatenate([re0 + t * (re1 - re0) + 1j * im0, re1 + 1j * (im0 + t * (im1 - im0)),
                             re1 - t * (re1 - re0) + 1j * im1, re0 + 1j * (im1 - t * (im1 - im0))])
        mags = np.abs(ev(zs))
        if np.min(mags) > 0.05 * np.median(mags):
            return SearchRegion(re0, re1, im0, im1)
        re0, re1, im0 = re0 - step, re1 + step, im0 - step / 3
    raise AssertionError("no region boundary clear of zeros")


@pytest.fixture(scope="module")
def unit_setup():
    q = constant_potential(1.0, n=2048)
    al = BoundaryParam(0.0)
    rep = jost_kernel_direct(q, al)
    ev = make_psi_evaluator(q, al)
    R = find_resonances(ev, SearchRegion(-8, 8, -3, 0), tol=1e-11)
    return q, al, rep, R


class TestBlaschke:
    def test_identity_move(self, unit_setup):
        q, al, rep, R = unit_setup
        z0 = R.entries[0][0]
        moves = [ResonanceMove(z0, z0)]
        rep1 = blaschke_modify(rep, moves)
        assert np.max(np.abs(rep1.g.values - rep.g.values)) < 1e-10
        z = np.array([1.3 + 0j, -2.0 - 0.5j])
        assert np.max(np.abs(moved_psi(rep.psi, moves)(z) - rep.psi(z))) < 1e-12

    def test_kernel_matches_evaluator(self, unit_setup):
        # the updated kernel's psi against the rational factor applied to psi
        q, al, rep, R = unit_setup
        z0 = R.entries[0][0]
        moves = [ResonanceMove(z0, z0 + 0.3)]
        rep1 = blaschke_modify(rep, moves)
        z = np.array([2.0 + 0j, -3.0 + 0j, 1.0 - 0.8j, 5.0 - 0.2j])
        assert np.max(np.abs(moved_psi(rep.psi, moves)(z) - rep1.psi(z))) < 1e-6

    def test_rejects_non_zero_source(self, unit_setup):
        q, al, rep, R = unit_setup
        with pytest.raises(ValidationError, match="not a zero"):
            blaschke_modify(rep, [ResonanceMove(1.0 - 1.0j, 1.5 - 1.0j)])

    def test_rejects_upper_target(self):
        with pytest.raises(ValidationError):
            ResonanceMove(1 - 1j, 1 + 1j)

    def test_moves_resonance_set(self, unit_setup):
        q, al, rep, R = unit_setup
        z0 = R.entries[0][0]
        z1 = z0 + 0.25 - 0.15j
        rep1 = blaschke_modify(rep, [ResonanceMove(z0, z1)])
        R1 = find_resonances(lambda z: rep1.psi(z), SearchRegion(-8, 8, -3, 0), tol=1e-10)
        assert R1.total() == R.total()
        news = R1.zeros()
        assert min(abs(news - z1)) < 1e-4
        assert min(abs(news - z0)) > 0.1
        # untouched zeros stay put
        for z, m in R.entries[1:]:
            assert min(abs(news - z)) < 1e-4
        report = validate_class(rep1)
        assert report.passed

    def test_double_zero_needs_two_moves(self, unit_setup):
        # colliding two simple zeros produces a double zero, which a single
        # move then relocates one unit at a time
        q, al, rep, R = unit_setup
        z0 = R.entries[0][0]
        z1 = R.entries[1][0]
        mid = 0.5 * (z0 + z1)
        moves = [ResonanceMove(z0, mid), ResonanceMove(z1, mid)]
        rep1 = blaschke_modify(rep, moves)
        R1 = find_resonances(moved_psi(rep.psi, moves), SearchRegion(-8, 8, -3, 0), tol=1e-10)
        entry = min(R1.entries, key=lambda e: abs(e[0] - mid))
        assert entry[1] == 2
        assert abs(entry[0] - mid) < 1e-7
        # the kernel representation sees the double zero to O(sqrt(kernel err))
        assert abs(rep1.psi(mid)) < 1e-6


class TestMoveResonances:
    def test_empty_moves_round_trip(self, unit_setup):
        q, al, rep, R = unit_setup
        qnew = move_resonances(q, al, [])
        assert rel_l2(q, qnew.samples.values) < 1e-2

    def test_relocated_zero_found_by_forward_solve(self, unit_setup):
        q, al, rep, R = unit_setup
        z0 = R.entries[0][0]
        z1 = z0 + 0.3
        qnew = move_resonances(q, al, [ResonanceMove(z0, z1)])
        evn = make_psi_evaluator(qnew, al)
        Rn = find_resonances(evn, SearchRegion(z1.real - 1, z1.real + 1,
                                               max(z1.imag - 1, -3), 0), tol=1e-11)
        best = min(Rn.entries, key=lambda e: abs(e[0] - z1))
        assert abs(best[0] - z1) < 1e-5

    def test_shrinking_moves_shrink_potential_change(self, unit_setup):
        q, al, rep, R = unit_setup
        z0 = R.entries[0][0]
        dists = []
        for step in (0.3, 0.1, 0.03):
            qnew = move_resonances(q, al, [ResonanceMove(z0, z0 + step)])
            dists.append(rel_l2(q, qnew.samples.values))
        assert dists[0] > dists[1] > dists[2]


class TestShift:
    def test_zero_shift_is_identity(self):
        q = random_piecewise_potential(3, n=512)
        qk = shift_potential(q, 0.0)
        assert np.array_equal(qk.samples.values, q.samples.values)

    def test_modulus_preserved(self):
        q = random_piecewise_potential(8, n=512)
        qk = shift_potential(q, 1.7)
        assert np.max(np.abs(np.abs(qk.samples.values) - np.abs(q.samples.values))) < 1e-14

    def test_jost_identity(self):
        zs = np.linspace(-8, 8, 33) + 0j
        for seed in (1, 4):
            q = random_piecewise_potential(seed, n=512)
            assert shift_identity_residual(q, BoundaryParam(0.5), 0.83, zs) < 1e-8

    def test_scattering_identity(self):
        q = random_piecewise_potential(2, n=512)
        al = BoundaryParam(0.9)
        k = 0.6
        qk = shift_potential(q, k)
        z = np.linspace(-5, 5, 41)
        s_shift = psi_values(qk, al, z.astype(complex))
        s_shift = np.conj(s_shift) / s_shift
        s_base = psi_values(q, al, (z - k).astype(complex))
        s_base = np.conj(s_base) / s_base
        assert np.max(np.abs(s_shift - s_base)) < 1e-8

    def test_resonances_translate(self):
        q = constant_potential(1.0, n=1024)
        al = BoundaryParam(0.0)
        k = 0.8
        qk = shift_potential(q, k)
        region = SearchRegion(-6, 6, -2, 0)
        R = find_resonances(make_psi_evaluator(q, al), region, tol=1e-11)
        Rk = find_resonances(make_psi_evaluator(qk, al),
                             SearchRegion(-6 + k, 6 + k, -2, 0), tol=1e-11)
        for (z, _), (zk, _) in zip(sorted(R.entries, key=lambda e: e[0].real),
                                   sorted(Rk.entries, key=lambda e: e[0].real)):
            assert abs(zk - (z + k)) < 1e-9


class TestReflect:
    def test_involution(self):
        q = random_piecewise_potential(6, n=256)
        al = BoundaryParam(1.3)
        q2 = reflect_potential(reflect_potential(q, al), al)
        assert np.max(np.abs(q2.samples.values - q.samples.values)) < 1e-12

    def test_real_potential_fixed_at_alpha_zero(self):
        q = constant_potential(1.0, n=128)
        qo = reflect_potential(q, BoundaryParam(0.0))
        assert np.array_equal(qo.samples.values, q.samples.values)

    def test_imaginary_constant_flips(self):
        q = constant_potential(1j, n=128)
        qo = reflect_potential(q, BoundaryParam(0.0))
        assert np.max(np.abs(qo.samples.values + 1j)) < 1e-14

    def test_identity(self):
        zs = np.linspace(-6, 6, 25) + 0j
        for seed in (0, 9):
            q = random_piecewise_potential(seed, n=512)
            assert reflect_identity_residual(q, BoundaryParam(0.4), zs) < 1e-8

    def test_resonances_mirror(self):
        q = random_piecewise_potential(1, n=1024)
        al = BoundaryParam(0.6)
        qo = reflect_potential(q, al)
        region = SearchRegion(-7, 7, -2.5, 0)
        R = find_resonances(make_psi_evaluator(q, al), region, tol=1e-10)
        Ro = find_resonances(make_psi_evaluator(qo, al), region, tol=1e-10)
        assert R.total() == Ro.total()
        mirrored = sorted([-np.conj(z) for z in Ro.zeros()], key=abs)
        for (z, _), w in zip(R.entries, mirrored):
            assert abs(z - w) < 1e-8


class TestClassClosure:
    def test_outputs_stay_in_class(self, unit_setup):
        q, al, rep, R = unit_setup
        qk = shift_potential(q, 0.5)
        qo = reflect_potential(q, al)
        for pot in (qk, qo):
            assert validate_class(pot).passed
        z0 = R.entries[0][0]
        rep1 = blaschke_modify(rep, [ResonanceMove(z0, z0 - 0.2j)])
        assert validate_class(rep1).passed


def random_layout(seed, n, count, chirp):
    """Exact pieces on [0, 1] with `count` random node-aligned breaks,
    amplitudes in the disk of radius 2 and chirps in [-chirp, chirp]."""
    rng = np.random.default_rng(seed)
    count = min(count, n)
    cuts = np.sort(rng.choice(np.arange(1, n), count - 1, replace=False))
    edges = np.concatenate(([0], cuts, [n])) / n
    amps = 2.0 * np.sqrt(rng.uniform(size=count)) * np.exp(2j * np.pi * rng.uniform(size=count))
    chirps = chirp * rng.uniform(-1.0, 1.0, count)
    return sampled_from_pieces(1.0, n, tuple(
        Piece(float(lo), float(hi), complex(a), float(c))
        for lo, hi, a, c in zip(edges[:-1], edges[1:], amps, chirps)))


class TestSweeps:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.14), st.sampled_from([2, 7, 64, 300, 512]),
           st.integers(1, 9), st.floats(0.0, 8.0), st.floats(-5.0, 5.0))
    def test_shift_and_reflection_identities(self, seed, alpha, n, count, chirp, k):
        # criterion 9's identities at its 1e-8 on any exact piece layout
        q = random_layout(seed, n, count, chirp)
        al = BoundaryParam(alpha)
        zs = np.linspace(-8, 8, 33) + 0j
        assert shift_identity_residual(q, al, k, zs) < 1e-8
        assert reflect_identity_residual(q, al, zs) < 1e-8

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 2 ** 16), st.floats(0.0, 3.14), st.floats(-0.5, 0.5),
           st.floats(-0.5, 0.5))
    @example(65536, 0.03424980042832309, 0.0, 0.0)     # a zero near [-4, 4]x[-3, 0]
    def test_blaschke_closure(self, seed, alpha, d_re, d_im):
        # a moved zero leaves the kernel in the Jost class: the full class
        # report, support check included, passes
        al = BoundaryParam(alpha)
        q = random_piecewise_potential(seed, n=256)
        ev = make_psi_evaluator(q, al)
        R = find_resonances(ev, _clear_region(ev, -4.0, 4.0, -3.0, 0.0))
        z0 = R.entries[0][0]
        z1 = complex(z0.real + d_re, min(z0.imag + d_im, -0.1))
        rep1 = blaschke_modify(jost_kernel_direct(q, al), [ResonanceMove(z0, z1)])
        report = validate_class(rep1)
        assert report.passed, report.lines()
