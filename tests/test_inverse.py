import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirachl.core import (
    BoundaryParam,
    NumericalError,
    SampledComplexFunction,
    ScatteringRep,
    fourier_eval,
    make_grid,
    validate_class,
)
from dirachl.forward import jost_kernel, jost_kernel_direct, make_psi_evaluator, psi_values
from dirachl.inverse import (
    _solve_glm_line0,
    invert_wiener,
    omega_kernel,
    potential_to_scattering,
    recover_from_jost,
    recover_potential,
    scattering_kernel,
    support_identities,
    unimodularity_tolerance,
)
from dirachl.spectral import SearchRegion, find_resonances
from dirachl.synth import constant_potential, random_piecewise_potential

from conftest import rel_l2
from oracles import recover_dense, solve_glm, wiener_loop


def zero_rep(alpha=0.3, n=512):
    from dirachl.core import JostRep
    return JostRep(BoundaryParam(alpha), 1.0,
                   SampledComplexFunction(make_grid(0, 1, n), np.zeros(n + 1, dtype=complex)))


class TestWiener:
    def test_zero_kernel(self):
        wi = invert_wiener(zero_rep(), 6.0)
        assert np.max(np.abs(wi.h.values)) == 0.0

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2 ** 16), st.floats(0.0, 3.0), st.sampled_from([32, 96, 1024]),
           st.sampled_from([1, 2, 4, 8, 32]))
    def test_matches_loop(self, seed, av, n, pieces):
        # the Toeplitz solve against the node-by-node march it replaced; the
        # tail guard is off, since some drawn potentials need a longer T_h
        q = random_piecewise_potential(seed, n=n, n_pieces=pieces)
        rep = jost_kernel_direct(q, BoundaryParam(av))
        wi = invert_wiener(rep, tail_tol=1.0)
        ref = wiener_loop(rep.g.values, rep.g.grid.h, av, wi.h.grid.n)
        assert np.max(np.abs(wi.h.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_reciprocal_identity(self):
        q = constant_potential(1.0, n=2048)
        for av in (0.0, 0.4):
            rep = jost_kernel_direct(q, BoundaryParam(av))
            wi = invert_wiener(rep, 16.0)
            z = np.linspace(-50, 50, 401)
            prod = (np.exp(-1j * av) + fourier_eval(rep.g, z)) * \
                   (np.exp(1j * av) + fourier_eval(wi.h, z))
            assert np.max(np.abs(prod - 1.0)) < 1e-5

    def test_reciprocal_identity_fine_grid(self):
        q = constant_potential(1.0, n=4096)
        rep = jost_kernel_direct(q, BoundaryParam(0.0))
        wi = invert_wiener(rep, 16.0)
        z = np.linspace(-50, 50, 401)
        prod = (1.0 + fourier_eval(rep.g, z)) * (1.0 + fourier_eval(wi.h, z))
        assert np.max(np.abs(prod - 1.0)) < 1e-6

    def test_matches_fourier_inversion(self):
        # independent route: invert 1/psi - e^{i alpha} through the Fourier
        # extraction machinery and compare kernels in the interior
        q = constant_potential(1.0, n=1024)
        al = BoundaryParam(0.0)
        rep = jost_kernel_direct(q, al)
        wi = invert_wiener(rep, 8.0)
        dz = np.pi / 16.0     # samples for a kernel supported on [0, 8]
        K = 4000
        zs = np.arange(-K, K + 1) * dz
        psi = psi_values(q, al, zs.astype(complex))
        hhat = 1.0 / psi - 1.0
        s = wi.h.grid.nodes()
        w = np.ones_like(zs)
        outer = np.abs(zs) > 0.9 * K * dz
        w[outer] = 0.5 * (1 + np.cos(np.pi * (np.abs(zs[outer]) - 0.9 * K * dz) / (0.1 * K * dz)))
        hv = (dz / np.pi) * (np.exp(-2j * np.outer(s, zs)) @ (w * hhat))
        # the band-limited oracle smears the genuine jump of h at gamma;
        # compare away from it
        interior = (s > 0.05) & (s < 7.0) & (np.abs(s - 1.0) > 0.1)
        assert np.max(np.abs(hv[interior] - wi.h.values[interior])) < 2e-3
        smooth = (s > 1.2) & (s < 7.0)
        assert np.max(np.abs(hv[smooth] - wi.h.values[smooth])) < 1e-4

    def test_tail_guard(self):
        q = constant_potential(1.0, n=512)
        rep = jost_kernel_direct(q, BoundaryParam(0.0))
        with pytest.raises(NumericalError, match="increase T_h"):
            invert_wiener(rep, 2.0, tail_tol=1e-4)


class TestScatteringKernel:
    def test_zero_case(self):
        S = scattering_kernel(zero_rep(0.4), None, 6.0)
        assert np.max(np.abs(S.F.values)) == 0.0
        z = np.linspace(-5, 5, 21)
        assert np.max(np.abs(S.s_values(z) - np.exp(2j * 0.4))) < 1e-12

    def test_support_edge(self):
        q = constant_potential(1.0, n=1024)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=8.0)
        from dirachl.core import support_infimum
        assert abs(support_infimum(S.F) + 1.0) <= S.F.grid.h + 1e-12

    def test_reevaluated_matches_direct(self):
        q = constant_potential(1.0, n=1024)
        for av in (0.0, 0.4):
            al = BoundaryParam(av)
            rep = jost_kernel_direct(q, al)
            S = scattering_kernel(rep, invert_wiener(rep, 12.0), 12.0)
            z = np.linspace(-6, 6, 241)
            psi = psi_values(q, al, z.astype(complex))
            assert np.max(np.abs(S.s_values(z) - np.conj(psi) / psi)) < 1e-5

    def test_winding_zero(self):
        q = random_piecewise_potential(5, n=1024)
        S = potential_to_scattering(q, BoundaryParam(1.2), t_max=10.0)
        report = validate_class(S, tol=1e-3)
        names = {c.name: c.passed for c in report.checks}
        assert names["winding W(S) = 0"]


class TestOmega:
    def test_zero(self):
        S = scattering_kernel(zero_rep(), None, 6.0)
        om = omega_kernel(S)
        assert np.max(np.abs(om.k.values)) == 0.0

    def test_conjugate_symmetry_is_structural(self):
        # entry (2,1) is stored as the conjugate of entry (1,2) by design
        q = constant_potential(0.7 + 0.2j, n=256)
        S = potential_to_scattering(q, BoundaryParam(0.3), t_max=6.0)
        om = omega_kernel(S)
        rows = solve_glm(om, 0.0)
        assert np.array_equal(rows.g21, np.conj(rows.g12))

    def test_vanishes_beyond_gamma(self):
        q = constant_potential(1.0, n=512)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=8.0)
        beyond = S.F.values[:S.F.grid.index_of(-1.0)]
        assert np.max(np.abs(beyond), initial=0.0) < 1e-6


class TestGlm:
    def test_zero_kernel_gives_zero_rows(self):
        S = scattering_kernel(zero_rep(), None, 6.0)
        rows = solve_glm(omega_kernel(S), 0.25)
        assert np.max(np.abs(rows.g11)) == 0.0
        assert np.max(np.abs(rows.g12)) == 0.0

    def test_beyond_support_zero(self):
        q = constant_potential(1.0, n=256)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=6.0)
        rows = solve_glm(omega_kernel(S), 1.5)
        assert np.max(np.abs(rows.g12)) == 0.0

    def test_kernel_identity_at_zero(self):
        # g(s) = e^{-i alpha} G11(0,s) - e^{i alpha} G21(0,s), cross-checked
        # against both kernel constructions
        q = constant_potential(1.0, n=1024)
        al = BoundaryParam(0.4)
        rep_direct = jost_kernel_direct(q, al)
        rep_fourier = jost_kernel(q, al)
        S = scattering_kernel(rep_direct, invert_wiener(rep_direct, 12.0), 12.0)
        rows = solve_glm(omega_kernel(S), 0.0)
        g_glm = np.exp(-1j * 0.4) * rows.g11 - np.exp(1j * 0.4) * rows.g21
        assert np.max(np.abs(g_glm - rep_direct.g.values)) < 1e-4
        interior = slice(64, -64)
        assert np.max(np.abs(g_glm[interior] - rep_fourier.g.values[interior])) < 1e-3

    def test_triangle_vanishing_edge(self):
        # the kernel dies at the triangle edge x + s = gamma: the diagonal
        # entry goes to zero there (the off-diagonal keeps its inside limit)
        q = constant_potential(1.0, n=256)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=8.0)
        rows = solve_glm(omega_kernel(S), 0.25)
        assert abs(rows.g11[-1]) < 1e-2
        assert abs(rows.g11[-1]) < 0.05 * np.max(np.abs(rows.g11))

    def test_residual_enforced(self):
        q = constant_potential(1.0, n=128)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=6.0)
        rows = solve_glm(omega_kernel(S), 0.5)
        assert rows.residual <= 1e-10

    def test_line0_matches_dense(self):
        q = random_piecewise_potential(3, n=256)
        S = potential_to_scattering(q, BoundaryParam(0.4), t_max=8.0)
        om = omega_kernel(S)
        a, b, resid = _solve_glm_line0(om)
        rows = solve_glm(om, 0.0)
        assert resid <= 1e-10
        assert np.max(np.abs(a - rows.g11)) < 1e-10
        assert np.max(np.abs(b - rows.g12)) < 1e-10

    def test_gmres_failure_raises(self, monkeypatch):
        q = constant_potential(1.0, n=128)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=6.0)
        with pytest.raises(NumericalError, match="GMRES info 0, block residual"):
            recover_potential(S, residual_tol=1e-30)
        from dirachl import inverse
        monkeypatch.setattr(inverse.spla, "gmres", lambda op, rhs, **kw: (0.0 * rhs, 7))
        with pytest.raises(NumericalError, match="GMRES info 7"):
            recover_potential(S)


class TestRecovery:
    def test_free_scattering_gives_zero(self):
        S = scattering_kernel(zero_rep(0.7), None, 6.0)
        qhat = recover_potential(S)
        assert np.max(np.abs(qhat.samples.values)) < 1e-12

    def test_constant_round_trip(self):
        q = constant_potential(1.0, n=1024)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=8.0)
        qhat = recover_potential(S)
        assert rel_l2(q, qhat.samples.values) < 1e-2

    def test_random_round_trip(self):
        q = random_piecewise_potential(12, n=1024)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=8.0)
        qhat = recover_potential(S)
        assert rel_l2(q, qhat.samples.values) < 1e-2

    def test_dense_matches_march(self):
        # the march against independent dense solves at every node, on the
        # small grids where the dense route is affordable
        for seed, n, av in itertools.product((0, 1, 2, 101), (32, 64, 96, 128, 192), (0.0, 0.4)):
            q = random_piecewise_potential(seed, n=n)
            S = scattering_kernel(jost_kernel_direct(q, BoundaryParam(av)))
            march = rel_l2(q, recover_potential(S).samples.values)
            dense = rel_l2(q, recover_dense(omega_kernel(S)))
            assert march <= 1.15 * dense, (seed, n, av, march, dense)

    def test_jost_route_trivial(self):
        qhat = recover_from_jost(zero_rep(0.2))
        assert np.max(np.abs(qhat.samples.values)) < 1e-12

    def test_jost_route_round_trip(self):
        q = constant_potential(1.0, n=512)
        rep = jost_kernel_direct(q, BoundaryParam(0.0))
        qhat = recover_from_jost(rep)
        assert rel_l2(q, qhat.samples.values) < 1e-2

    def test_jost_route_short_horizon(self):
        # the Wiener horizon stays at 8 gamma when t_max is shorter, as in
        # scattering_kernel; a horizon of t_max alone fails its tail guard
        q = random_piecewise_potential(0, n=1024)
        rep = jost_kernel_direct(q, BoundaryParam(0.3))
        qhat = recover_from_jost(rep, t_max=2.0)
        direct = recover_potential(scattering_kernel(rep, t_max=2.0))
        assert np.array_equal(qhat.samples.values, direct.samples.values)
        assert rel_l2(q, qhat.samples.values) < 1e-3

    def test_resonances_preserved(self):
        q = constant_potential(1.0, n=1024)
        al = BoundaryParam(0.0)
        rep = jost_kernel_direct(q, al)
        qhat = recover_from_jost(rep)
        region = SearchRegion(-8, 8, -2, 0)
        R_in = find_resonances(make_psi_evaluator(q, al), region, tol=1e-11)
        R_out = find_resonances(make_psi_evaluator(qhat, al), region, tol=1e-11)
        assert R_in.total() == R_out.total()
        outs = R_out.zeros()
        for z1, _ in R_in.entries:
            assert min(abs(z1 - z2) for z2 in outs) < 1e-4

    def test_perturbation_continuity(self):
        # a 1 percent kernel perturbation moves the recovery by O(1 percent)
        q = constant_potential(1.0, n=512)
        al = BoundaryParam(0.0)
        S0 = potential_to_scattering(q, al, t_max=8.0)
        q1 = constant_potential(1.01, n=512)
        S1 = potential_to_scattering(q1, al, t_max=8.0)
        d_f = np.max(np.abs(S1.F.values - S0.F.values))
        qa = recover_potential(S0)
        qb = recover_potential(S1)
        d_q = rel_l2(q, qb.samples.values - qa.samples.values + q.samples.values)
        assert d_f < 0.15
        assert d_q < 0.05


class TestUnimodularityTolerance:
    def test_cut_off_mass_counted_and_scaled_kernel_rejected(self):
        # synth seed 7: |S| - 1 reaches 1.8e-3, above the O(h^2) floor alone
        q = random_piecewise_potential(7, n=1024)
        S = potential_to_scattering(q, BoundaryParam(0.0), t_max=8.0)
        def unimodular(rep):
            report = validate_class(rep, tol=unimodularity_tolerance(rep)[0], n_check=801)
            return next(c.passed for c in report.checks if c.name.startswith("|S| = 1"))

        assert unimodular(S)
        assert unimodularity_tolerance(S)[1]
        assert not unimodular(ScatteringRep(S.alpha, S.gamma, S.t_max, SampledComplexFunction(
            S.F.grid, 1.5 * S.F.values)))

    def test_free_kernel_is_floor(self):
        # no decaying tail to estimate: only the O(h^2) floor remains
        S = scattering_kernel(zero_rep(0.7), None, 6.0)
        tol, decayed = unimodularity_tolerance(S)
        assert tol == pytest.approx(120.0 / 512 ** 2)
        assert not decayed


class TestSupportIdentities:
    def test_full_pipeline(self):
        q = constant_potential(1.0, n=512)
        al = BoundaryParam(0.0)
        rep = jost_kernel_direct(q, al)
        S = scattering_kernel(rep, None, 8.0)
        out = support_identities(q, rep, S)
        assert out["pass"]
        assert out["sup_supp_q"] == pytest.approx(1.0, abs=2 / 512)

    def test_degenerate_zero(self):
        q = constant_potential(0.0, n=128)
        rep = jost_kernel_direct(q, BoundaryParam(0.0))
        S = scattering_kernel(rep, None, 4.0)
        out = support_identities(q, rep, S)
        assert out["degenerate"]

    def test_short_support_detected(self):
        from dirachl.core import Piece
        from dirachl.synth import sampled_from_pieces
        q = sampled_from_pieces(1.0, 512, (Piece(0.0, 0.5, 1.0), Piece(0.5, 1.0, 0.0)))
        al = BoundaryParam(0.0)
        rep = jost_kernel_direct(q, al)
        S = scattering_kernel(rep, None, 8.0)
        out = support_identities(q, rep, S)
        assert out["sup_supp_q"] == pytest.approx(0.5, abs=2 / 512)
        assert out["sup_supp_g"] == pytest.approx(0.5, abs=0.02)
        assert out["neg_inf_supp_F"] == pytest.approx(0.5, abs=0.02)
        report = validate_class(q)
        assert not report.passed
