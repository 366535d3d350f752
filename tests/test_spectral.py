import numpy as np
import pytest

from dirachl.core import (
    BoundaryParam,
    NumericalError,
    ResonanceSet,
    ValidationError,
    make_grid,
    potential_from_values,
)
from dirachl.forward import jost_kernel_direct, make_psi_evaluator, psi_values
from dirachl.inverse import recover_potential, scattering_kernel
from dirachl.spectral import (
    SearchRegion,
    cartwright_type,
    count_in_sector,
    find_resonances,
    forbidden_domain_check,
    hadamard_evaluate,
    levinson_ratio,
    phase_derivative,
    phase_profile,
    winding_number,
)
from dirachl.synth import constant_potential, random_piecewise_potential

from oracles import dense_sweep_zeros, psi_constant


class TestWinding:
    def test_constant_sequence(self):
        vals = np.full(100, np.exp(2j * 0.8))
        assert winding_number(vals) == 0

    def test_arctan_phase_drop(self):
        x = np.linspace(-1e3, 1e3, 400001)
        vals = np.exp(-2j * np.arctan(x))
        assert winding_number(vals) == 1

    def test_forward_scattering_winds_zero(self, unit_potential, alpha0):
        z = np.linspace(-150, 150, 20001)
        psi = psi_values(unit_potential, alpha0, z.astype(complex))
        assert winding_number(np.conj(psi) / psi) == 0

    def test_coarse_grid_rejected(self):
        vals = np.array([1.0, -1.0, 1.0, -1.0, 1.0], dtype=complex)
        with pytest.raises(NumericalError, match="coarse"):
            winding_number(vals)


class TestFindResonances:
    def test_nonvanishing_gives_empty(self):
        q = constant_potential(0.0, n=128)
        ev = make_psi_evaluator(q, BoundaryParam(0.4))
        R = find_resonances(ev, SearchRegion(-5, 5, -3, 0))
        assert R.total() == 0

    def test_polynomial_double_zero(self):
        ev = lambda z: (z - (1 - 1j)) ** 2
        R = find_resonances(ev, SearchRegion(0, 2, -2, 0), tol=1e-11)
        assert R.total() == 2
        (z, m), = R.entries
        assert m == 2
        assert abs(z - (1 - 1j)) < 1e-8

    def test_region_must_be_lower(self):
        with pytest.raises(ValidationError):
            SearchRegion(-1, 1, -1, 0.5)

    def test_unit_constant_against_sweep(self, unit_potential, alpha0):
        ev = make_psi_evaluator(unit_potential, alpha0)
        R = find_resonances(ev, SearchRegion(-30, 30, -6, 0), tol=1e-10)
        oracle = dense_sweep_zeros(
            lambda z: psi_constant(1.0, 1.0, 0.0, z), (-30, 30), (-6, 0), step=0.1)
        assert R.total() == len(R.entries)          # all simple
        assert R.total() == len(oracle)
        for z, m in R.entries:
            assert m == 1
            assert min(abs(z - w) for w in oracle) < 1e-6

    def test_cell_search_work_pinned(self):
        # the search's work on fixed cell samples (synth seed 101, n = 96):
        # a change to the search's sampling or Newton steps shows here
        alpha = BoundaryParam(0.4)
        qp = random_piecewise_potential(101, n=96)
        ev = make_psi_evaluator(potential_from_values(qp.gamma, qp.samples.values), alpha)
        work = {"calls": 0, "points": 0}

        def counted(z):
            work["calls"] += 1
            work["points"] += np.size(z)
            return ev(z)

        box = SearchRegion(-6, 6, -3, 0)
        R = find_resonances(counted, box)
        assert work == {"calls": 296, "points": 9285}
        assert R.total() == 3
        # the same potential recovered by the GLM march, which the
        # benchmark's cell-sampled search uses: its work follows rounding in
        # the recovery, so only its zeros are pinned
        q = recover_potential(scattering_kernel(jost_kernel_direct(qp, alpha)))
        Rq = find_resonances(make_psi_evaluator(q, alpha), box)
        assert Rq.total() == 3
        for z, _ in Rq.entries:
            assert min(abs(z - w) for w, _ in R.entries) < 5e-3


class TestCounting:
    def test_empty(self):
        R = ResonanceSet(())
        assert count_in_sector(R, 2.0, 0.0) == (0, 0)
        assert levinson_ratio(R, 1.0, 5.0) == (0.0, 0.0)

    def test_single_membership(self):
        R = ResonanceSet(((1 - 1j, 1),))
        assert count_in_sector(R, 2.0, 0.0) == (1, 0)
        assert count_in_sector(R, 1.0, 0.0) == (0, 0)   # |z| = sqrt2 > 1
        assert count_in_sector(R, 2.0, 0.5) == (1, 0)   # |arg| = pi/4 < 0.5? no
        # arg(1 - i) = -pi/4, |arg| = pi/4 ~ 0.785 > 0.5: still counted
        assert count_in_sector(R, 2.0, 1.0) == (0, 0)

    def test_sector_thinning(self, unit_resonances):
        n0 = count_in_sector(unit_resonances, 60.0, 0.0)
        n3 = count_in_sector(unit_resonances, 60.0, 0.3)
        assert n3[0] < n0[0] and n3[1] < n0[1]
        # away from the axes the counts stay sublinear: delta-sector holds few
        assert n3[0] <= 0.25 * n0[0]

    def test_levinson_ratios_approach_one(self, unit_resonances):
        r30 = levinson_ratio(unit_resonances, 1.0, 30.0)
        r60 = levinson_ratio(unit_resonances, 1.0, 60.0)
        for pm in (0, 1):
            assert 0.85 <= r60[pm] <= 1.15
            assert abs(r60[pm] - 1.0) < abs(r30[pm] - 1.0)


class TestForbiddenDomain:
    def test_empty(self):
        rep = forbidden_domain_check(ResonanceSet(()), 1.0, 0.1)
        assert rep.c_fit == 0.0 and rep.all_satisfied

    def test_single_zero_inversion(self):
        R = ResonanceSet(((1 - 1j, 1),))
        rep = forbidden_domain_check(R, 1.0, 0.1)
        want = np.sqrt(2.0) * (np.exp(-2.0) - 0.1)
        assert rep.c_fit == pytest.approx(want, rel=1e-12)
        assert rep.all_satisfied

    def test_unit_constant_set(self, unit_resonances):
        rep = forbidden_domain_check(unit_resonances, 1.0, 0.1, strip_depth=1.0)
        assert rep.all_satisfied
        assert rep.strip_count == 2         # only the first pair is shallow
        # depths drift downward with modulus
        zs = unit_resonances.zeros()
        right = sorted([z for z in zs if z.real > 0], key=abs)
        assert right[-1].imag < right[0].imag


class TestHadamard:
    def test_empty_product(self):
        R = ResonanceSet(())
        v = hadamard_evaluate(R, 2.0, 1.0, 1.5 - 0.5j, 10.0)
        assert v == pytest.approx(2.0 * np.exp(1j * (1.5 - 0.5j)), rel=1e-12)

    def test_at_origin_gives_psi0(self, unit_resonances):
        v = hadamard_evaluate(unit_resonances, np.e, 1.0, 0.0, 60.0)
        assert v == pytest.approx(np.e, rel=1e-12)

    def test_rejects_zero_value(self):
        with pytest.raises(ValidationError):
            hadamard_evaluate(ResonanceSet(()), 0.0, 1.0, 1.0, 10.0)

    def test_partial_products_converge(self, unit_potential, alpha0, unit_resonances):
        psi0 = complex(psi_values(unit_potential, alpha0, 0.0 + 0j))
        z = 2.0 - 0.5j
        truth = complex(psi_values(unit_potential, alpha0, z))
        errs = [abs(hadamard_evaluate(unit_resonances, psi0, 1.0, z, rc) - truth)
                for rc in (15.0, 30.0, 60.0)]
        assert errs[0] > errs[1] > errs[2]


class TestPhase:
    def test_derivative_trivial_cases(self):
        assert phase_derivative(ResonanceSet(()), 0.0, 1.3, 10.0) == 0.0
        R = ResonanceSet(((-1j, 1),))
        assert phase_derivative(R, 1.0, 0.0, 10.0) == pytest.approx(0.0, abs=1e-14)

    def test_derivative_matches_finite_difference(self, unit_potential, alpha0, unit_resonances):
        ev = make_psi_evaluator(unit_potential, alpha0)
        grid = make_grid(-1, 1, 2)
        prof = phase_profile(unit_resonances, 1.0, alpha0, grid, 60.0, 54.0)
        dz = 1e-4
        for zz in (0.7, 3.3):
            fd = np.angle(ev(np.array([zz + dz]))[0] / ev(np.array([zz - dz]))[0]) / (2 * dz)
            model = (phase_derivative(unit_resonances, 1.0, zz, 60.0)
                     + prof.dphi[0] - (phase_derivative(unit_resonances, 1.0, grid.nodes()[0], 60.0)))
            # compare through the profile machinery instead: evaluate dphi on a
            # grid through zz
            g2 = make_grid(zz - 0.01, zz + 0.01, 2)
            p2 = phase_profile(unit_resonances, 1.0, alpha0, g2, 60.0, 54.0)
            assert abs(p2.dphi[1] - fd) < 3e-3

    def test_summands_negative(self, unit_resonances):
        raw = phase_derivative(unit_resonances, 1.0, 1.7, 60.0)
        assert raw < 1.0     # every zero term pulls below gamma

    def test_truncated_sum_monotone_in_radius(self, unit_resonances):
        for z in (0.4, 2.9):
            vals = [phase_derivative(unit_resonances, 1.0, z, rc)
                    for rc in (30.0, 60.0, 120.0)]
            assert vals[0] >= vals[1] >= vals[2]

    def test_free_phase_is_minus_alpha(self):
        R = ResonanceSet(())
        grid = make_grid(-5, 5, 50)
        prof = phase_profile(R, 0.0, BoundaryParam(0.8), grid, 10.0, 40.0)
        assert np.max(np.abs(prof.phi + 0.8)) < 1e-12

    def test_profile_reproduces_scattering(self, unit_potential, alpha0, unit_resonances):
        grid = make_grid(-10, 10, 200)
        z = grid.nodes()
        psi = psi_values(unit_potential, alpha0, z.astype(complex))
        s_direct = np.conj(psi) / psi
        dev = {}
        for rc in (60.0, 120.0):
            prof = phase_profile(unit_resonances, 1.0, alpha0, grid, rc, 0.9 * rc)
            dev[rc] = np.max(np.abs(np.exp(-2j * prof.phi) - s_direct))
        assert dev[60.0] < 1e-2
        assert dev[120.0] < dev[60.0]

    def test_profile_integral_consistency(self, unit_resonances):
        grid = make_grid(-4, 4, 800)
        prof = phase_profile(unit_resonances, 1.0, 0.0, grid, 60.0, 54.0)
        h = grid.h
        cum = np.concatenate([[0.0], np.cumsum(0.5 * h * (prof.dphi[1:] + prof.dphi[:-1]))])
        rebuilt = prof.phi[0] + cum
        assert np.max(np.abs(rebuilt - prof.phi)) < 1e-4

    def test_two_sided_limits_agree(self, unit_resonances):
        # calibration residuals balance at both ends
        grid = make_grid(-1, 1, 2)
        prof = phase_profile(unit_resonances, 1.0, 0.0, grid, 120.0, 108.0)
        assert prof.endpoint_spread < 5e-2

    def test_zero_sum_tail(self, unit_resonances):
        zs = unit_resonances.zeros()
        terms = np.abs(zs.imag) / np.abs(zs) ** 2
        order = np.argsort(np.abs(zs))
        total = terms[order].cumsum()
        assert total[-1] < 2.0
        tail_half = total[-1] - total[len(order) // 2]
        tail_quarter = total[-1] - total[3 * len(order) // 4]
        assert tail_quarter < tail_half


class TestCartwright:
    def test_constant_function_has_zero_type(self):
        ev = lambda z: np.full(np.shape(z), np.exp(-1j * 0.3))
        tp, tm = cartwright_type(ev, 1.0)
        assert abs(tp) < 1e-12 and abs(tm) < 1e-12

    def test_unit_constant_types(self, unit_potential, alpha0):
        ev = make_psi_evaluator(unit_potential, alpha0)
        tp, tm = cartwright_type(ev, 1.0)
        assert abs(tp) < 0.05
        assert abs(tm - 2.0) < 0.1

    def test_longer_ladder_improves(self, unit_potential, alpha0):
        ev = make_psi_evaluator(unit_potential, alpha0)
        _, tm_short = cartwright_type(ev, 1.0, im_cap=12.0)
        _, tm_long = cartwright_type(ev, 1.0, im_cap=50.0)
        assert abs(tm_long - 2.0) < abs(tm_short - 2.0)
