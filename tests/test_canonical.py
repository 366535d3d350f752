import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirachl.canonical import (
    Hamiltonian,
    _t_conjugate,
    boundary_solution,
    canonical_values,
    fundamental_matrix,
    hamiltonian_from_potential,
    hermite_biehler,
    make_hermite_evaluator,
    potential_from_hamiltonian,
)
from dirachl.core import (
    BoundaryParam,
    NumericalError,
    Piece,
    ValidationError,
    make_grid,
    potential_from_values,
)
from dirachl.forward import _propagate_exact, make_psi_evaluator, psi_values
from dirachl.spectral import SearchRegion, find_resonances
from dirachl.synth import constant_potential, random_piecewise_potential, sampled_from_pieces
from oracles import f0_constant, propagate_sequential, transfer_prefix


T_FRAME = np.array([[1j, -1j], [1.0, 1.0]]) / np.sqrt(2.0)


def smooth_potential(n=2048, gamma=1.0):
    x = np.linspace(0.0, gamma, n + 1)
    vals = (0.8 + 0.3j) * np.exp(1j * x) * (1.0 + 0.5 * x ** 2)
    return potential_from_values(gamma, vals)


def cell_sampled_potential(n=512):
    # node samples only: the integrators see one constant value per cell
    return potential_from_values(1.0, random_piecewise_potential(5, n=n).samples.values)


def chirped_potential(n=1024):
    return sampled_from_pieces(1.0, n, (Piece(0.0, 0.375, 1.1 - 0.4j, 3.0),
                                        Piece(0.375, 1.0, -0.6 + 0.8j, -2.5)))


class TestFundamentalMatrix:
    def test_zero_potential_zero_energy(self):
        M = fundamental_matrix(constant_potential(0.0, n=128), 0.0)
        assert np.max(np.abs(M.values - np.eye(2))) < 1e-14

    def test_free_rotation(self):
        # V = 0: M(x, z) = exp(-x z J), a rotation by angle -x z
        q = constant_potential(0.0, n=512)
        z = 1.3
        M = fundamental_matrix(q, z)
        x = q.grid.nodes()
        want = np.empty((len(x), 2, 2), dtype=complex)
        want[:, 0, 0] = want[:, 1, 1] = np.cos(z * x)
        want[:, 0, 1] = -np.sin(z * x)
        want[:, 1, 0] = np.sin(z * x)
        assert np.max(np.abs(M.values - want)) < 1e-9

    def test_frame_conjugation(self, unit_potential):
        # M(gamma, z) = T f(gamma, z) f(0, z)^{-1} T^{-1}, with f(0, z) from
        # the sequential product of the test oracles
        for q in (unit_potential, cell_sampled_potential(), chirped_potential()):
            for z in (0.7, 1.5 - 0.5j):
                f0 = propagate_sequential(q, np.array([complex(z)]))[0]
                fg = np.diag([np.exp(1j * z), np.exp(-1j * z)])
                want = T_FRAME @ fg @ np.linalg.inv(f0) @ np.conj(T_FRAME).T
                got = canonical_values(q, np.array([complex(z)]))[0]
                assert np.max(np.abs(got - want)) < 1e-8
                got4 = fundamental_matrix(q, z).values[-1]
                assert np.max(np.abs(got4 - want)) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(64, 512), data=st.data(),
           z_re=st.floats(-10.0, 10.0), z_im=st.floats(-3.0, 1.0))
    def test_piece_layout_sweep(self, n, data, z_re, z_im):
        # random chirped piece layouts against a per-cell expm prefix
        # product at every piece-boundary node, where interior nodes of a
        # non-zero potential are checked
        cuts = sorted(set(data.draw(st.lists(st.integers(1, n - 1), max_size=5))))
        bounds = [0] + cuts + [n]
        pieces = []
        for j0, j1 in zip(bounds[:-1], bounds[1:]):
            r = data.draw(st.floats(0.0, 2.0))
            phase = data.draw(st.floats(0.0, 2.0 * np.pi))
            pieces.append(Piece(j0 / n, j1 / n, r * np.exp(1j * phase),
                                data.draw(st.floats(-4.0, 4.0))))
        q = sampled_from_pieces(1.0, n, tuple(pieces))
        z = complex(z_re, z_im)
        M = fundamental_matrix(q, z)
        want = T_FRAME @ transfer_prefix(q, z, bounds) @ np.conj(T_FRAME).T
        for got, ref in zip(M.values[bounds], want):
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert M.det_drift() < 1e-12
        edge = canonical_values(q, np.array([z]))[0]
        assert np.max(np.abs(edge - M.values[-1])) <= 1e-10 * np.max(np.abs(M.values[-1]))

    def test_determinant_drift(self):
        # M is a product of unit-determinant exponentials
        for q in (smooth_potential(n=1024), cell_sampled_potential(), chirped_potential()):
            M = fundamental_matrix(q, 0.8 - 0.3j)
            assert M.det_drift() < 1e-12

    def test_closed_form_conjugation(self, unit_potential):
        # the entrywise T-conjugation equals the matmul form T X T^H
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 2, 2)) + 1j * rng.standard_normal((50, 2, 2))
        got = _t_conjugate(X[:, 0, 0], X[:, 0, 1], X[:, 1, 0], X[:, 1, 1])
        want = T_FRAME @ X @ np.conj(T_FRAME).T
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        z = np.linspace(-20.0, 20.0, 41) + 0.4j
        for q in (unit_potential, cell_sampled_potential(), chirped_potential()):
            p = _propagate_exact(q, z)      # f(0, z) e^{-i gamma z sigma3}
            X = np.stack((p[:, 1, 1], -p[:, 0, 1], -p[:, 1, 0], p[:, 0, 0]), -1).reshape(-1, 2, 2)
            want = T_FRAME @ X @ np.conj(T_FRAME).T
            scale = np.max(np.abs(want), axis=(1, 2))[:, None, None]
            assert np.max(np.abs(canonical_values(q, z) - want) / scale) <= 1e-14


class TestHamiltonian:
    def test_free_is_identity(self):
        H = hamiltonian_from_potential(constant_potential(0.0, n=128))
        assert np.allclose(H.a, 1.0) and np.max(np.abs(H.b)) < 1e-14

    def test_class_properties(self):
        H = hamiltonian_from_potential(smooth_potential(n=512))
        assert H.a[0] == pytest.approx(1.0, abs=1e-12)
        assert H.b[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(H.a > 0)
        mats = H.matrices()
        dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] ** 2
        assert np.max(np.abs(dets - 1.0)) < 1e-12   # determinant one by storage

    def test_constant_potential_oracle(self):
        # r = M(., 0) from scipy's expm in the original frame
        q = constant_potential(1.0, n=2048)
        H = hamiltonian_from_potential(q)
        f0 = f0_constant(1.0, 1.0, 0.0)
        fg = np.eye(2)
        r = (T_FRAME @ fg @ np.linalg.inv(f0) @ np.conj(T_FRAME).T).real
        a_want = r[0, 0] ** 2 + r[1, 0] ** 2
        b_want = r[0, 0] * r[0, 1] + r[1, 0] * r[1, 1]
        assert H.a[-1] == pytest.approx(a_want, abs=1e-8)
        assert H.b[-1] == pytest.approx(b_want, abs=1e-8)

    def test_distinct_potentials_distinct_hamiltonians(self):
        h1 = hamiltonian_from_potential(constant_potential(1.0, n=256))
        h2 = hamiltonian_from_potential(constant_potential(0.5 + 0.2j, n=256))
        dist = np.max(np.abs(h1.a - h2.a)) + np.max(np.abs(h1.b - h2.b))
        assert dist > 1e-2

    def test_entries_are_read_only_copies(self):
        # the a > 0 check in the constructor holds for the object's life:
        # the inputs can change afterwards, the entries cannot
        a, b = np.ones(5), np.zeros(5)
        H = Hamiltonian(1.0, make_grid(0.0, 1.0, 4), a, b)
        a[0], b[0] = -1.0, 3.0
        assert np.array_equal(H.a, np.ones(5)) and np.array_equal(H.b, np.zeros(5))
        with pytest.raises(ValueError, match="read-only"):
            H.a[0] = -1
        with pytest.raises(ValidationError, match="positive"):
            Hamiltonian(1.0, make_grid(0.0, 1.0, 4), a, b)

    @pytest.mark.parametrize("gamma, left, right", [(2.0, 0.0, 1.0), (np.nan, 0.0, 1.0),
                                                    (1.0, -0.5, 1.0)])
    def test_grid_must_be_zero_to_gamma(self, gamma, left, right):
        # a [0, 1] grid under gamma = 2 was once accepted, and its JSON round
        # trip came back on [0, 2]
        with pytest.raises(ValidationError, match=r"must be \[0, gamma\]"):
            Hamiltonian(gamma, make_grid(left, right, 8), np.ones(9), np.zeros(9))

    def test_json_cell_count_whole(self):
        obj = {"gamma": 1.0, "n": 2.5, "a": [1.0] * 3, "b": [0.0] * 3}
        with pytest.raises(ValidationError, match="whole number"):
            Hamiltonian.from_json(obj)
        assert Hamiltonian.from_json({**obj, "n": 2}).grid.n == 2


class TestInverseDirection:
    def test_identity_gives_zero(self):
        g = make_grid(0, 1, 128)
        H = Hamiltonian(1.0, g, np.ones(129), np.zeros(129))
        q = potential_from_hamiltonian(H)
        assert np.max(np.abs(q.samples.values)) < 1e-12

    def test_diagonal_special_case(self):
        n = 1024
        g = make_grid(0, 1, n)
        x = g.nodes()
        a = np.exp(0.3 * np.sin(np.pi * x))
        H = Hamiltonian(1.0, g, a, np.zeros(n + 1))
        q = potential_from_hamiltonian(H)
        ap = np.gradient(a, x, edge_order=2)
        assert np.max(np.abs(q.samples.values.imag)) < 1e-12
        assert np.max(np.abs(-q.samples.values.real - ap / (2 * a))) < 1e-6

    def test_rejects_nonpositive_entry(self):
        g = make_grid(0, 1, 16)
        with pytest.raises(ValidationError):
            Hamiltonian(1.0, g, np.linspace(1, -0.5, 17), np.zeros(17))

    def test_round_trip_smooth(self):
        q = smooth_potential(n=2048)
        H = hamiltonian_from_potential(q)
        qhat = potential_from_hamiltonian(H)
        assert np.max(np.abs(qhat.samples.values - q.samples.values)) < 1e-4

    def test_round_trip_refines(self):
        errs = []
        for n in (256, 512, 1024):
            q = smooth_potential(n=n)
            qhat = potential_from_hamiltonian(hamiltonian_from_potential(q))
            errs.append(np.max(np.abs(qhat.samples.values - q.samples.values)))
        assert errs[0] > errs[1] > errs[2]


class TestBoundaryCombination:
    def test_dirichlet_neumann_reductions(self, unit_potential):
        q = unit_potential
        z = 1.5
        M = canonical_values(q, np.array([complex(z)]))[0]
        theta, phi = M[:, 0], M[:, 1]
        u1, u2 = boundary_solution(q, BoundaryParam(0.0), z)
        assert abs(u1 - phi[0]) < 1e-12 and abs(u2 - phi[1]) < 1e-12
        u1, u2 = boundary_solution(q, BoundaryParam(np.pi / 2), z)
        assert abs(u1 + theta[0]) < 1e-12 and abs(u2 + theta[1]) < 1e-12

    def test_jost_identity_across_alpha(self, unit_potential):
        q = unit_potential
        for av in (0.0, 0.4, np.pi / 2, 3.0):
            al = BoundaryParam(av)
            for z in (0.5, 2.0 - 0.4j, -1.2):
                u1, u2 = boundary_solution(q, al, z)
                psi = complex(psi_values(q, al, complex(z)))
                assert abs(psi - np.exp(1j * z) * (u2 + 1j * u1)) < 1e-8


class TestHermiteBiehler:
    def test_identity_with_dirichlet_jost(self, unit_potential):
        q = unit_potential
        for z in (0.5, 2.0 - 0.4j, -3.0 + 0.2j):
            E = hermite_biehler(q, z)
            psi0 = complex(psi_values(q, BoundaryParam(0.0), complex(z)))
            assert abs(E + 1j * np.exp(-1j * z) * psi0) < 1e-8

    def test_identity_on_a_lattice(self, unit_potential):
        # a (2, 3) z once gave a (2, 2) array: the entries were read as
        # M[:, 0, 1] and M[:, 1, 1]
        q = unit_potential
        z = np.array([-3.0, 0.5, 2.0]) + 1j * np.array([[0.2], [-0.4]])
        E = make_hermite_evaluator(q)(z)
        psi0 = psi_values(q, BoundaryParam(0.0), z)
        assert E.shape == z.shape
        assert np.max(np.abs(E + 1j * np.exp(-1j * q.gamma * z) * psi0)) < 1e-8

    def test_modulus_inequality(self, unit_potential):
        ev = make_hermite_evaluator(unit_potential)
        zs = (np.linspace(-4, 4, 9)[:, None] + 1j * np.linspace(0.2, 3, 5)[None, :]).ravel()
        upper = np.abs(ev(zs))
        lower = np.abs(ev(np.conj(zs)))
        assert np.all(upper > lower)

    def test_zeros_are_dirichlet_resonances(self, unit_potential):
        q = unit_potential
        region = SearchRegion(-8, 8, -2.5, 0)
        R_jost = find_resonances(make_psi_evaluator(q, BoundaryParam(0.0)), region,
                                 tol=1e-10)
        R_e = find_resonances(make_hermite_evaluator(q), region, tol=1e-10)
        assert R_jost.total() == R_e.total()
        for (z1, _), (z2, _) in zip(R_jost.entries, R_e.entries):
            assert abs(z1 - z2) < 1e-6

    def test_growth_cap_raises_instead_of_nan(self):
        # beyond the cap the product overflows; psi_values raises there too
        q = constant_potential(1.0, n=256)
        for z in (-800j, -2000j):
            with pytest.raises(NumericalError, match=r"\|Im z\|"):
                psi_values(q, BoundaryParam(0.0), z)
            with pytest.raises(NumericalError, match=r"\|Im z\|"):
                make_hermite_evaluator(q)(np.array([1.0, z]))
            with pytest.raises(NumericalError, match=r"\|Im z\|"):
                hermite_biehler(q, z)
            with pytest.raises(NumericalError, match=r"\|Im z\|"):
                boundary_solution(q, BoundaryParam(0.4), z)
