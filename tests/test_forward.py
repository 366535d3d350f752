import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirachl.core import BoundaryParam, NumericalError, Piece, Potential, ValidationError, quadrature
from dirachl.forward import (
    _band_adjoint,
    _band_sum,
    _propagate_exact,
    fourier_band,
    integrate_jost,
    jost_function,
    jost_kernel,
    jost_kernel_direct,
    kernel_estimate,
    make_psi_evaluator,
    psi_values,
    scattering_value,
)
from dirachl.synth import constant_potential, random_piecewise_potential, sampled_from_pieces
from dirachl.transforms import shift_potential

from oracles import f0_constant, f0_pieces, propagate_sequential, psi_constant


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
    return Potential(qp.gamma, qp.samples)


def _tree_error(q, z) -> float:
    """Largest relative deviation, per point, of the tree product from the
    sequential product."""
    got = _propagate_exact(q, z).reshape(-1, 4)
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
        assert _tree_error(Potential(q.gamma, q.samples), z) < 1e-12

    def test_keeps_the_shape_of_z(self):
        q = random_piecewise_potential(1, n=64)
        z = np.linspace(-3, 3, 6).reshape(2, 3) - 0.5j
        f = _propagate_exact(q, z)
        assert f.shape == (2, 3, 2, 2)
        assert np.array_equal(f[1, 2], _propagate_exact(q, z[1, 2:])[0])

    def test_peak_memory_bounded(self):
        # blocks of 2^16 (cell, z) pairs: the whole stack would be 250 MiB
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


class TestScatteringValue:
    def test_free_is_constant_phase(self):
        q = constant_potential(0.0, n=64)
        for av in (0.0, 0.4, 2.0):
            s = scattering_value(q, BoundaryParam(av), 1.3)
            assert abs(s - np.exp(2j * av)) < 1e-12

    def test_unimodular(self):
        q = random_piecewise_potential(6, n=512)
        s = scattering_value(q, BoundaryParam(0.9), 3.7)
        assert abs(abs(s) - 1.0) < 1e-10
        assert abs(s * np.conj(s) - 1.0) < 5e-13

    def test_constant_oracle_ratio(self):
        q = constant_potential(1.0, n=2048)
        s = scattering_value(q, BoundaryParam(0.0), 2.0)
        psi = psi_constant(1.0, 1.0, 0.0, np.array([2.0]))[0]
        assert abs(s - np.conj(psi) / psi) < 1e-8

    def test_rejects_complex_argument(self):
        q = constant_potential(1.0, n=64)
        with pytest.raises(ValidationError):
            scattering_value(q, BoundaryParam(0.0), 1 + 1j)


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

    def test_insufficient_band_rejected(self):
        q = constant_potential(1.0, n=1024)
        with pytest.raises(ValidationError):
            jost_kernel(q, BoundaryParam(0.0), z_max=10.0)

    def test_reconstruction_residual_gate(self):
        # a jumpy kernel does not reach 1e-9 on the held-out grid; the default
        # band is clipped at 0.7 of Nyquist, so only a finer grid can help
        q = random_piecewise_potential(3, n=1024)
        with pytest.raises(NumericalError, match="residual.*refine n") as err:
            jost_kernel(q, BoundaryParam(0.0), residual_tol=1e-9)
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
        want = np.exp(-1j * 0.8) + quadrature(rep.g)
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
        for seed in (0, 5):
            q = random_piecewise_potential(seed, n=512)
            rep = jost_kernel_direct(q, BoundaryParam(0.0))
            bound = kernel_estimate(q, 0.0).bound
            norm = rep.g.norm_l1() + rep.g.norm_l2()
            assert norm <= bound + 1e-6


class TestKernelEstimate:
    def test_beyond_support_zero(self):
        q = constant_potential(1.0, n=128)
        kb = kernel_estimate(q, 1.5)
        assert kb.bound == 0.0

    def test_zero_potential(self):
        q = constant_potential(0.0, n=128)
        assert kernel_estimate(q, 0.0).bound == pytest.approx(0.0, abs=1e-14)

    def test_unit_constant_hand_value(self):
        q = constant_potential(1.0, n=512)
        kb = kernel_estimate(q, 0.0)
        assert kb.eta == pytest.approx(1.0, abs=1e-10)
        assert kb.zeta == pytest.approx(1.0, abs=1e-10)
        assert kb.bound == pytest.approx(2.0 * np.e - 1.0, abs=1e-9)

    def test_monotone_in_x(self):
        q = random_piecewise_potential(1, n=512)
        xs = np.linspace(0, 1, 9)
        bounds = [kernel_estimate(q, float(x)).bound for x in xs]
        assert all(b0 >= b1 - 1e-12 for b0, b1 in zip(bounds, bounds[1:]))
