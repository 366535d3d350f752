import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirachl import forward
from dirachl.canonical import canonical_values
from dirachl.core import BoundaryParam, NumericalError, Piece, Potential, ValidationError
from dirachl.forward import (
    _band_adjoint,
    _band_sum,
    _propagate_exact,
    fourier_band,
    integrate_jost,
    jost_function,
    jost_kernel,
    jost_kernel_direct,
    make_psi_evaluator,
    psi_values,
)
from dirachl.synth import constant_potential, random_piecewise_potential, sampled_from_pieces
from dirachl.transforms import shift_potential

from oracles import (
    expm_traceless_one_step,
    f0_constant,
    f0_pieces,
    march_kernel_loop,
    propagate_sequential,
    psi_constant,
)


class TestIntegrateJost:
    def test_free_evolution_identity(self):
        q = constant_potential(0.0, n=256)
        for z in (0.4, -2.0 + 0j, 1 - 1j):
            f = integrate_jost(q, z)
            assert np.max(np.abs(f - np.eye(2))) < 1e-12

    def test_constant_matches_exponential(self):
        q = constant_potential(1.0, n=2048)
        for z in (2.0, -5.0, 2 - 1j, 10 - 3j):
            f = integrate_jost(q, z)
            assert np.max(np.abs(f - f0_constant(1.0, 1.0, z))) < 1e-8

    def test_two_step_product(self):
        pieces = (Piece(0.0, 0.5, 1.2 - 0.3j), Piece(0.5, 1.0, -0.4 + 0.9j))
        q = sampled_from_pieces(1.0, 2048, pieces)
        ref_pieces = [(0.0, 0.5, 1.2 - 0.3j), (0.5, 1.0, -0.4 + 0.9j)]
        for z in (1.0, 3 - 0.5j):
            f = integrate_jost(q, z)
            assert np.max(np.abs(f - f0_pieces(ref_pieces, z))) < 1e-8

    def test_wronskian_conserved(self):
        q = random_piecewise_potential(2, n=1024)
        for z in (0.3, 5 - 2j, -9.0):
            f = integrate_jost(q, z)
            assert abs(np.linalg.det(f) - 1.0) < 1e-9

    def test_fourth_order_convergence(self):
        errs = []
        for n in (128, 256, 512):
            q = constant_potential(1.0, n=n)
            f = integrate_jost(q, 2 - 1j)
            errs.append(np.max(np.abs(f - f0_constant(1.0, 1.0, 2 - 1j))))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.25)

    def test_growth_cap_enforced(self):
        q = constant_potential(1.0, n=64)
        with pytest.raises(NumericalError, match="cap"):
            integrate_jost(q, -100j)


class TestJostFunction:
    def test_free_values(self):
        q = constant_potential(0.0, n=128)
        assert jost_function(q, BoundaryParam(0.0), 1.7) == pytest.approx(1.0, abs=1e-12)
        assert jost_function(q, BoundaryParam(np.pi / 2), 0.3) == pytest.approx(-1j, abs=1e-12)

    def test_constant_oracle(self):
        q = constant_potential(1.0, n=2048)
        got = jost_function(q, BoundaryParam(0.0), 2.0)
        want = psi_constant(1.0, 1.0, 0.0, np.array([2.0]))[0]
        assert abs(got - want) < 1e-8

    def test_exact_propagator_matches_rk4(self):
        q = random_piecewise_potential(4, n=1024)
        al = BoundaryParam(0.7)
        z = np.array([0.5, -3.0, 2 - 1j])
        a = psi_values(q, al, z, method="exact")
        b = psi_values(q, al, z, method="rk4")
        assert np.max(np.abs(a - b)) < 1e-7

    def test_nonvanishing_on_upper_half_plane(self):
        q = random_piecewise_potential(11, n=512)
        ev = make_psi_evaluator(q, BoundaryParam(1.1))
        re = np.linspace(-12, 12, 49)
        im = np.linspace(0, 12, 25)
        zz = (re[:, None] + 1j * im[None, :]).ravel()
        assert np.min(np.abs(ev(zz))) > 1e-6

    def test_riemann_lebesgue_decay(self):
        q = constant_potential(1.0, n=1024)
        al = BoundaryParam(0.4)
        devs = [abs(psi_values(q, al, float(Z)) - np.exp(-1j * 0.4))
                for Z in (20.0, 80.0, 320.0)]
        assert devs[0] > devs[1] > devs[2]


def _cells(seed, n):
    """The node samples of a synth potential without its exact pieces: one
    propagator segment per cell."""
    qp = random_piecewise_potential(seed, n=n)
    return Potential(qp.samples)


def _tree_error(q, z) -> float:
    """Largest relative deviation, per point, of the tree product from the
    sequential product."""
    got = _propagate_exact(q, z)
    got[..., 0] *= np.exp(1j * q.gamma * z)[..., None]     # terminal value
    got[..., 1] *= np.exp(-1j * q.gamma * z)[..., None]
    got = got.reshape(-1, 4)
    want = propagate_sequential(q, z).reshape(-1, 4)
    return float(np.max(np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)))


# name: (potential, point counts); the sequential oracle is too slow for
# 4001 points at 1024 and 4096 cells
_TREE_CASES = {
    "cells96-s0": (lambda: _cells(0, 96), (1, 3, 4001)),
    "cells96-s9": (lambda: _cells(9, 96), (1, 3, 4001)),
    "cells1024-s1": (lambda: _cells(1, 1024), (1, 3, 17)),
    "cells4096-s2": (lambda: _cells(2, 4096), (1, 3, 17)),
    "pieces8-s0": (lambda: random_piecewise_potential(0, n=1024), (1, 3, 4001)),
    "pieces8-s5": (lambda: random_piecewise_potential(5, n=1024), (1, 3, 4001)),
    "pieces3": (lambda: random_piecewise_potential(6, n=120, n_pieces=3), (1, 3, 4001)),
    "pieces5": (lambda: random_piecewise_potential(7, n=120, n_pieces=5), (1, 3, 4001)),
    "chirped8": (lambda: shift_potential(random_piecewise_potential(8, n=1024), 3.7),
                 (1, 3, 4001)),
    "chirped5": (lambda: shift_potential(
        random_piecewise_potential(4, n=120, n_pieces=5), -2.2), (1, 3, 4001)),
}


class TestTreePropagator:
    @pytest.mark.parametrize("case,count", [(c, k) for c, (_, counts) in _TREE_CASES.items()
                                            for k in counts])
    def test_matches_sequential_product(self, case, count):
        q = _TREE_CASES[case][0]()
        rng = np.random.default_rng(count)
        z = rng.uniform(-25.0, 25.0, count) + 1j * rng.uniform(-3.0, 1.0, count)
        z[0] = complex(z[0].real, -3.0)
        assert _tree_error(q, z) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), pieces=st.integers(1, 9),
           chirp=st.one_of(st.just(0.0), st.floats(-8.0, 8.0)),
           re=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=4),
           im=st.floats(-3.0, 1.0))
    def test_property_matches_sequential_product(self, seed, pieces, chirp, re, im):
        q = random_piecewise_potential(seed, n=16 * pieces, n_pieces=pieces)
        if chirp:
            q = shift_potential(q, chirp)
        z = np.asarray(re) + 1j * im
        assert _tree_error(q, z) < 1e-12
        assert _tree_error(Potential(q.samples), z) < 1e-12

    def test_keeps_the_shape_of_z(self):
        q = random_piecewise_potential(1, n=64)
        z = np.linspace(-3, 3, 6).reshape(2, 3) - 0.5j
        f = _propagate_exact(q, z)
        assert f.shape == (2, 3, 2, 2)
        assert np.array_equal(f[1, 2], _propagate_exact(q, z[1, 2:])[0])

    def test_peak_memory_bounded(self):
        # blocks of 2^13 (cell, z) pairs: the whole stack would be 250 MiB
        # per entry array at 4096 cells and 4001 z
        q = _cells(3, 4096)
        z = np.linspace(-20.0, 20.0, 4001) - 0.7j
        psi_values(q, BoundaryParam(0.3), z[:2])
        tracemalloc.start()
        try:
            psi_values(q, BoundaryParam(0.3), z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def _segment_bound(b00, b01, b10, t) -> float:
    """The |mu| bound on which `_expm_traceless` picks its formula."""
    return float(np.max(t * t)) * (float(np.max(np.abs(b00))) ** 2
                                   + float(np.max(np.abs(b01 * b10))))


def _halvings(bound: float) -> int:
    """The least s with bound / 4^s <= `_SERIES_MU_MAX`: the halvings
    `_expm_traceless` takes at this bound, or more than its cap where it
    takes the closed form."""
    return next(s for s in range(64) if bound <= forward._SERIES_MU_MAX * 4 ** s)


_PSI_CASES = {
    "cells64": lambda: _cells(4, 64), "cells96": lambda: _cells(0, 96),
    "pieces8": lambda: random_piecewise_potential(5, n=1024),
    "chirped8": lambda: shift_potential(random_piecewise_potential(8, n=1024), 3.7),
}
_PSI_CASES.update({f"{name}-wide": _PSI_CASES[name] for name in ("cells64", "pieces8", "chirped8")})
# Re z half-widths of the wide cases' psi calls, each with Im z in [-3, 1]:
# between them the calls take every halving count and the closed form
_WIDE_WINDOWS = (2.0, 8.0, 15.0, 40.0)


def _psi_calls(name):
    """The z of each psi call of a `test_psi_matches_sequential_product` case."""
    rng = np.random.default_rng(7)
    if not name.endswith("-wide"):
        return [rng.uniform(-15.0, 15.0, 300) + 1j * rng.uniform(-1.0, 1.0, 300)]
    return [rng.uniform(-re, re, 100) + 1j * rng.uniform(-3.0, 1.0, 100) for re in _WIDE_WINDOWS]


class TestSegmentExponential:
    @settings(max_examples=80, deadline=None)
    @given(halvings=st.integers(0, forward._HALVINGS_MAX + 2), share=st.floats(0.02, 0.98),
           sign=st.sampled_from([-1.0, 1.0]),
           z=st.lists(st.complex_numbers(max_magnitude=40.0), min_size=1, max_size=4),
           chirp=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
           amp=st.complex_numbers(max_magnitude=3.0))
    def test_matches_mpmath_on_both_sides_of_the_bound(self, halvings, share, sign, z, chirp, amp):
        # t is scaled so that the bound lands in (0.05 4^(s-1), 0.05 4^s] for
        # s = halvings.  Up to the cap the entries match mpmath; with no
        # halving, and above the cap, they are the one-step series' and
        # closed form's bit for bit
        mp = pytest.importorskip("mpmath")
        b00 = 1j * (np.asarray(z) - chirp)
        b01, b10 = np.full(b00.shape, amp), np.full(b00.shape, np.conj(amp))
        scale = _segment_bound(b00, b01, b10, np.ones(1))
        top = forward._SERIES_MU_MAX * 4 ** halvings
        target = top * (share if halvings == 0 else 0.25 + 0.75 * share)
        if scale <= 2.0 * target / np.finfo(float).max:
            # B = 0, or |B|^2 so near underflow that t^2 = target / scale
            # overflows: no finite t puts the bound in the band
            return
        t = sign * np.full(b00.shape, np.sqrt(target / scale))
        assert _halvings(_segment_bound(b00, b01, b10, t)) == halvings
        got = forward._expm_traceless(b00, b01, b10, t)
        if halvings == 0 or halvings > forward._HALVINGS_MAX:
            for g, w in zip(got, expm_traceless_one_step(b00, b01, b10, t)):
                assert np.array_equal(g, w)
        if halvings > forward._HALVINGS_MAX:
            return
        got = np.stack(got, axis=-1)
        mp.mp.dps = 30
        for j in range(b00.size):
            m = mp.expm(mp.matrix([[b00[j], b01[j]], [b10[j], -b00[j]]]) * t[j])
            want = np.array([complex(m[0, 0]), complex(m[0, 1]), complex(m[1, 0]), complex(m[1, 1])])
            assert np.max(np.abs(got[j] - want)) <= 4e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", list(_PSI_CASES))
    def test_psi_matches_sequential_product(self, name):
        # relative to the largest |psi| of the sample, since either product
        # loses about 1e-14 of |psi| where psi is small
        q = _PSI_CASES[name]()
        for z in _psi_calls(name):
            for alpha in (0.0, 0.4):
                f = propagate_sequential(q, z)
                ea = np.exp(-1j * alpha)
                want = ea * f[:, 0, 0] - np.conj(ea) * f[:, 1, 0]
                got = psi_values(q, BoundaryParam(alpha), z)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_wide_cases_take_every_halving_count(self):
        # each psi call of a wide case is one block of segment exponentials
        seen = set()
        for name in (c for c in _PSI_CASES if c.endswith("-wide")):
            lo, hi, amp, k = (x[:, None] for x in forward._segments(_PSI_CASES[name]()))
            for z in _psi_calls(name):
                assert z.size * len(lo) <= forward._PAIRS_PER_BLOCK
                seen.add(_halvings(_segment_bound(1j * (z - k), amp, np.conj(amp), lo - hi)))
        assert seen >= set(range(forward._HALVINGS_MAX + 2)), seen

    @pytest.mark.parametrize("z", [1e160, 1e200, 1.7e308])
    def test_huge_z_refused(self, z):
        # |z|^2 would overflow the exponential's bound: refused, not an
        # OverflowError
        qp = random_piecewise_potential(1, n=64)
        zz = np.array([0.5, z, -0.5j])
        for q in (qp, Potential(qp.samples)):
            for call in (lambda: psi_values(q, BoundaryParam(0.3), zz),
                         lambda: make_psi_evaluator(q, BoundaryParam(0.3))(z),
                         lambda: canonical_values(q, zz)):
                with pytest.raises(ValidationError, match="z out of range"):
                    call()

    def test_large_z_values_unchanged(self, monkeypatch):
        # at |z| = 1e150 every call takes the closed form, as it did before
        # the halvings
        qp = random_piecewise_potential(1, n=64)
        zz = np.array([1e150, -1e150 + 0.5j, 3.0 - 1.0j])
        for q in (qp, Potential(qp.samples)):
            got = psi_values(q, BoundaryParam(0.3), zz), canonical_values(q, zz)
            monkeypatch.setattr(forward, "_expm_traceless", expm_traceless_one_step)
            want = psi_values(q, BoundaryParam(0.3), zz), canonical_values(q, zz)
            monkeypatch.undo()
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            assert np.max(np.abs(got[0][:2] - np.exp(-0.3j))) < 1e-14


class TestJostKernel:
    def test_zero_potential_zero_kernel(self):
        q = constant_potential(0.0, n=1024)
        rep = jost_kernel(q, BoundaryParam(0.3))
        assert np.max(np.abs(rep.g.values)) < 1e-10

    def test_support_reaches_gamma(self):
        q = constant_potential(1.0, n=1024)
        rep = jost_kernel(q, BoundaryParam(0.0))
        from dirachl.core import support_supremum
        assert support_supremum(rep.g) >= 1.0 - 2.0 * q.grid.h

    def test_round_trip_at_z5(self):
        q = constant_potential(1.0, n=1024)
        al = BoundaryParam(0.0)
        rep = jost_kernel(q, al)
        assert abs(rep.psi(5.0 + 0j) - psi_values(q, al, 5.0 + 0j)) < 1e-4

    def test_reconstruction_residual_gate(self, monkeypatch):
        # a jumpy kernel does not reach 1e-9 on the held-out grid; the band
        # is clipped at 0.7 of Nyquist, so only a finer grid can help
        q = random_piecewise_potential(3, n=1024)
        monkeypatch.setattr(forward, "_HELD_OUT_TOL", 1e-9)
        with pytest.raises(NumericalError, match="residual.*refine n") as err:
            jost_kernel(q, BoundaryParam(0.0))
        assert "z_max" not in str(err.value)

    @pytest.mark.parametrize("seed", [0, 23, 26])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_jump_kernels_pass_gate(self, seed, alpha):
        # these kernels show a jump once fitted; the fit must split there too,
        # as JostRep.psi does, to meet the 1e-4 held-out gate
        q = random_piecewise_potential(seed, n=1024)
        al = BoundaryParam(alpha)
        rep = jost_kernel(q, al)
        assert rep._cuts
        held = np.linspace(-1100.0, 1100.0, 201)
        assert np.max(np.abs(rep.psi(held) - psi_values(q, al, held + 0j))) < 1e-4

    @pytest.mark.parametrize("seed", [0, 1])
    def test_psi_samples_match_default(self, seed):
        # samples of psi at the band points are exactly what the default
        # call computes for itself: the same kernel to the last bit
        q = random_piecewise_potential(seed, n=1024)
        al = BoundaryParam(0.3)
        zs = fourier_band(q.gamma, q.grid.h, 400.0 * np.pi / q.gamma, 2 * q.grid.n)
        rep = jost_kernel(q, al, psi_samples=psi_values(q, al, zs.astype(complex)))
        assert np.array_equal(rep.g.values, jost_kernel(q, al).g.values)

    def test_psi_samples_shape_checked(self):
        q = random_piecewise_potential(1, n=256)
        al = BoundaryParam(0.0)
        zs = fourier_band(q.gamma, q.grid.h, 400.0 * np.pi / q.gamma, 2 * q.grid.n)
        psi = psi_values(q, al, zs.astype(complex))
        for bad in (psi[:-1], psi[:, None], np.append(psi, psi[0])):
            with pytest.raises(ValidationError, match="psi_samples must have shape"):
                jost_kernel(q, al, psi_samples=bad)

    def test_band_sums_match_dense(self):
        n, gamma = 1024, 1.0
        zs = fourier_band(gamma, gamma / n, 400.0 * np.pi, 2 * n)
        rng = np.random.default_rng(5)
        g = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        c = rng.normal(size=zs.size) + 1j * rng.normal(size=zs.size)
        phases = np.exp(2j * np.outer(zs, np.linspace(0.0, gamma, n + 1)))
        dense_fwd, dense_adj = phases @ g, np.conj(phases).T @ c
        assert np.max(np.abs(_band_sum(g, zs.size) - dense_fwd)) < 1e-12 * np.max(np.abs(dense_fwd))
        assert np.max(np.abs(_band_adjoint(c, n) - dense_adj)) < 1e-12 * np.max(np.abs(dense_adj))

    def test_peak_memory_bounded(self):
        # no (n+1) x #z phase matrix: at n = 2048 each one is 50 MiB
        q = random_piecewise_potential(3, n=2048)
        jost_kernel(q, BoundaryParam(0.3))      # lazy imports are not the kernel's
        tracemalloc.start()
        try:
            jost_kernel(q, BoundaryParam(0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_matches_direct_kernel_interior(self):
        q = constant_potential(1.0 + 0.5j, n=1024)
        al = BoundaryParam(0.4)
        rep_f = jost_kernel(q, al)
        rep_d = jost_kernel_direct(q, al)
        dif = np.abs(rep_f.g.values - rep_d.g.values)
        assert np.max(dif[64:-64]) < 1e-3

    def test_evaluates_off_axis(self):
        q = constant_potential(1.0, n=1024)
        al = BoundaryParam(0.0)
        rep = jost_kernel_direct(q, al)
        z = -1.0 - 2.0j
        want = psi_constant(1.0, 1.0, 0.0, np.array([z]))[0]
        assert abs(rep.psi(z) - want) < 1e-3

    def test_eval_trivial_cases(self):
        q = constant_potential(0.5, n=512)
        al = BoundaryParam(0.8)
        rep = jost_kernel_direct(q, al)
        zero_rep = jost_kernel_direct(constant_potential(0.0, n=512), al)
        assert abs(zero_rep.psi(3.3) - np.exp(-1j * 0.8)) < 1e-12
        want = np.exp(-1j * 0.8) + np.trapezoid(rep.g.values, dx=rep.g.grid.h)
        assert abs(rep.psi(0.0) - want) < 1e-10


class TestDirectKernel:
    def test_reproduces_psi_on_axis(self):
        q = random_piecewise_potential(9, n=1024)
        al = BoundaryParam(0.2)
        rep = jost_kernel_direct(q, al)
        z = np.linspace(-40, 40, 161)
        resid = np.max(np.abs(rep.psi(z) - psi_values(q, al, z.astype(complex))))
        assert resid < 2e-5

    def test_second_order_convergence(self):
        resids = []
        for n in (256, 512, 1024):
            q = constant_potential(1.0, n=n)
            rep = jost_kernel_direct(q, BoundaryParam(0.0))
            z = np.linspace(-30, 30, 101)
            resids.append(np.max(np.abs(rep.psi(z) - psi_values(q, BoundaryParam(0.0),
                                                                z.astype(complex)))))
        assert resids[0] / resids[1] == pytest.approx(4.0, rel=0.3)
        assert resids[1] / resids[2] == pytest.approx(4.0, rel=0.3)

    @pytest.mark.parametrize("k, tol", [(1.7, 2e-5), (-4.0, 5e-5)])
    def test_chirped_cells(self, k, tol):
        # chirped pieces: the march sees q e^{2ikx} through its cell means
        al = BoundaryParam(0.2)
        z = np.linspace(-40, 40, 161)
        resids = []
        for n in (512, 1024, 2048):
            q = shift_potential(random_piecewise_potential(9, n=n), k)
            rep = jost_kernel_direct(q, al)
            resids.append(np.max(np.abs(rep.psi(z) - psi_values(q, al, z.astype(complex)))))
        assert resids[1] < tol
        assert resids[0] / resids[1] == pytest.approx(4.0, rel=0.05)
        assert resids[1] / resids[2] == pytest.approx(4.0, rel=0.05)

    def test_norm_bound(self):
        # ||g||_1 + ||g||_2 <= e^eta (1 + zeta) - 1 with eta = int_0^gamma |q|
        # and zeta = (int_0^gamma |q|^2)^(1/2)
        for seed in (0, 5):
            q = random_piecewise_potential(seed, n=512)
            rep = jost_kernel_direct(q, BoundaryParam(0.0))
            mags = np.abs(q.samples.values)
            eta = np.trapezoid(mags, dx=q.grid.h)
            zeta = np.sqrt(np.trapezoid(mags ** 2, dx=q.grid.h))
            norm = rep.g.norm_l1() + rep.g.norm_l2()
            assert norm <= np.exp(eta) * (1.0 + zeta) - 1.0 + 1e-6

    @pytest.mark.parametrize("n", [1024, 2048])
    @pytest.mark.parametrize("seed, k", [(1, 0.0), (7, 0.0), (7, 3.3)])
    def test_rounding_against_extended_loop(self, n, seed, k):
        # the blocked march sums in another order than the per-line loop: its
        # rounding error, measured against the loop run in extended precision,
        # is at most 3x the float64 loop's own
        q = random_piecewise_potential(seed, n=n)
        if k:
            q = shift_potential(q, k)
        exact = march_kernel_loop(q, 0.3, np.clongdouble)
        scale = float(np.max(np.abs(exact)))
        err_loop = float(np.max(np.abs(march_kernel_loop(q, 0.3) - exact))) / scale
        err = float(np.max(np.abs(jost_kernel_direct(q, BoundaryParam(0.3)).g.values - exact))) / scale
        assert err <= 3.0 * err_loop

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), alpha=st.floats(0.0, 3.0),
           chirp=st.one_of(st.just(0.0), st.floats(-8.0, 8.0)),
           pieces=st.integers(1, 8), cells=st.integers(1, 256), sampled=st.booleans())
    @example(seed=1, alpha=0.3, chirp=0.0, pieces=1, cells=1, sampled=False)
    @example(seed=1, alpha=0.3, chirp=0.0, pieces=1, cells=31, sampled=True)
    @example(seed=7, alpha=0.3, chirp=3.3, pieces=3, cells=11, sampled=False)
    @example(seed=1455, alpha=0.0, chirp=6.5, pieces=6, cells=256, sampled=True)
    def test_property_rounding_against_extended_loop(self, seed, alpha, chirp, pieces,
                                                     cells, sampled):
        # n from 1 to 2048, below, at and off multiples of the block size;
        # the floor covers n where both errors are a few ulps.  The last
        # example is a sampled chirp whose transfers repeat block after block
        q = random_piecewise_potential(seed, n=pieces * cells, n_pieces=pieces)
        if chirp:
            q = shift_potential(q, chirp)
        if sampled:
            q = Potential(q.samples)
        g = jost_kernel_direct(q, BoundaryParam(alpha)).g.values
        exact = march_kernel_loop(q, alpha, np.clongdouble)
        loop = march_kernel_loop(q, alpha)
        scale = float(np.max(np.abs(exact)))
        err_loop = float(np.max(np.abs(loop - exact))) / scale
        assert float(np.max(np.abs(g - exact))) / scale <= 3.0 * err_loop + 1e-15
        # the s = 0 column is the loop's own scalar sum
        assert g[0] == loop[0]

    def test_steps_per_block_pinned(self, monkeypatch):
        # one vectorised step per level of a block, for all blocks at once,
        # and one for the taps of all levels: a march stepping line by line
        # would make n = 4096 calls
        calls = []
        step = forward._characteristic_step
        monkeypatch.setattr(forward, "_characteristic_step",
                            lambda *args: calls.append(1) or step(*args))
        jost_kernel_direct(random_piecewise_potential(1, n=4096), BoundaryParam(0.3))
        assert 0 < len(calls) <= forward._MARCH_BLOCK + 1

    def test_peak_memory_bounded(self):
        # O(n B) buffers: the whole (n + 1)^2 triangle would be 512 MiB
        q = random_piecewise_potential(3, n=4096)
        jost_kernel_direct(q, BoundaryParam(0.3))
        tracemalloc.start()
        try:
            jost_kernel_direct(q, BoundaryParam(0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
