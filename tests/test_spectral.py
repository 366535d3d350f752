import re
import tracemalloc

import numpy as np
import pytest

from dirachl import forward, spectral
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
    _PER_EDGE,
    SearchRegion,
    _polish,
    _truncated,
    _zero_sums,
    cartwright_type,
    count_in_sector,
    find_resonances,
    forbidden_domain_check,
    hadamard_evaluate,
    levinson_ratio,
    phase_profile,
    winding_number,
)
from dirachl.synth import constant_potential, random_piecewise_potential
from dirachl.transforms import shift_potential

from oracles import (
    dense_sweep_zeros,
    hadamard_loop,
    phase_derivative_loop,
    phase_profile_loop,
    psi_constant,
)


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

    def test_zero_at_box_centre_is_simple(self):
        # m-fold Newton from the region's centre would land on the simple
        # zero there at once; the box's count of 3 belongs to three zeros
        ev = lambda z: (z + 1.5j) * (z - 2 + 0.5j) * (z + 3 + 2.5j)
        R = find_resonances(ev, SearchRegion(-6, 6, -3, 0))
        assert R.multiplicities().tolist() == [1, 1, 1]
        for z, w in zip(sorted(R.zeros(), key=abs), (-1.5j, 2 - 0.5j, -3 - 2.5j)):
            assert abs(z - w) < 1e-8

    def test_polish_unconverged_is_none(self):
        # 2-fold Newton between two simple zeros cycles and never converges
        ev = lambda z: (z - (1 - 1j)) * (z - (1.2 - 1j))
        assert _polish(ev, [1.13 - 1j], 1e-10, [2], [np.inf]) == [None]

    def test_polish_propagates_evaluator_bugs(self):
        def ev(z):
            raise KeyError("not a numerical failure")
        with pytest.raises(KeyError):
            _polish(ev, [1 - 1j], 1e-10, [1], [np.inf])

    def test_polish_one_call_per_step(self):
        # polishing starts together costs one evaluator call per Newton
        # step, on three points per live iterate, and finds what polishing
        # each start alone finds
        ev = lambda z: (z + 1.5j) * (z - 2 + 0.5j) * (z + 3 + 2.5j)
        starts = [-0.1 - 1.4j, 2.3 - 0.7j, -2.5 - 2.2j, 1.13 - 1j]

        def run(z0):
            sizes = []

            def counted(z):
                sizes.append(np.size(z))
                return ev(z)
            return _polish(counted, z0, 1e-10, [1] * len(z0), [np.inf] * len(z0)), sizes

        roots, sizes = run(starts)
        alone = [run(starts[i:i + 1]) for i in range(len(starts))]
        steps = [len(s) for _, s in alone]
        assert sizes == [3 * sum(n > k for n in steps) for k in range(max(steps))]
        assert roots == [r for (r,), _ in alone]
        for z in roots:
            assert min(abs(z - w) for w in (-1.5j, 2 - 0.5j, -3 - 2.5j)) < 1e-9

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
        counted, sizes, points = _counting(ev)
        box = SearchRegion(-6, 6, -3, 0)
        R = find_resonances(counted, box)
        assert (len(sizes), sum(sizes)) == (5, 1060)
        _each_point_once(sizes, points)
        assert R.total() == 3
        # the same potential recovered by the GLM march, which the
        # benchmark's cell-sampled search uses: its work follows rounding in
        # the recovery, so only its zeros are pinned
        q = recover_potential(scattering_kernel(jost_kernel_direct(qp, alpha)))
        Rq = find_resonances(make_psi_evaluator(q, alpha), box)
        assert Rq.total() == 3
        for z, _ in Rq.entries:
            assert min(abs(z - w) for w, _ in R.entries) < 5e-3

    def test_exact_search_work_pinned(self):
        # the search's work on exact pieces (synth seed 3): the contour
        # calls, then one polish sweep of the four zeros in three steps
        ev = make_psi_evaluator(random_piecewise_potential(3, n=1024), BoundaryParam(0.3))
        counted, sizes, points = _counting(ev)
        R = find_resonances(counted, SearchRegion(-6, 6, -3, 0))
        assert (len(sizes), sum(sizes)) == (5, 1565)
        _each_point_once(sizes, points)
        assert sizes[-3:] == [12, 12, 12]
        assert R.multiplicities().tolist() == [1, 1, 1, 1]

    def test_evaluator_failure_below_region_splits(self):
        # psi "overflows" below Im z = -1.0001, just under the region; the
        # zero z1 near the bottom side has a triple zero 0.041 beneath it.
        # The region's pencil reads the close pair 0.891 - 0.619i,
        # 0.786 - 0.658i as one double zero, and the iterate from the start
        # near z1 is drawn across the threshold in the fifth Newton step.
        # The sweep's live iterates fail and the region splits: every zero
        # is located
        z1, z2 = 0.526 - 0.982j, 0.535 - 1.023j
        raised, sizes = [], []

        def ev(z):
            z = np.asarray(z)
            sizes.append(z.size)
            below = z.imag < -1.0001
            if below.any():
                raised.append(int(below.sum()))
                raise NumericalError("psi overflowed")
            return (z - (0.891 - 0.619j)) * (z - (0.786 - 0.658j)) * (z - z1) * (z - z2) ** 3

        R = find_resonances(ev, SearchRegion(0, 2, -1, 0))
        assert raised == [3]                        # one iterate, once
        assert sizes[:6] == [4 * _PER_EDGE] + [6] * 5 and sizes[6] > 9
        assert R.multiplicities().tolist() == [1, 1, 1]
        for z, w in zip(R.zeros(), (0.786 - 0.658j, 0.891 - 0.619j, z1)):
            assert abs(z - w) < 1e-8

    @pytest.mark.parametrize("case", [f"exact-{s}" for s in range(1, 11)] + ["cell-0", "cell-1.3"])
    def test_complete_against_sweep(self, case):
        # shifted exact-piece potentials (psi(z, e_k q) = psi(z - k, q)) and
        # the cell-sampled potential the GLM recovers at n = 96: the search
        # finds each zero a brute-force sweep finds, and no other
        kind, arg = case.split("-")
        if kind == "exact":
            seed = int(arg)
            k = 3.7 * seed - 18.0
            q = shift_potential(random_piecewise_potential(seed, n=1024), k)
            ev = make_psi_evaluator(q, BoundaryParam(0.15 * (seed - 1)))
        else:
            k, alpha = float(arg), BoundaryParam(0.4)
            qp = random_piecewise_potential(101, n=96)
            q = recover_potential(scattering_kernel(jost_kernel_direct(qp, alpha)))
            ev = make_psi_evaluator(q, alpha)
        R = find_resonances(ev, SearchRegion(-6 + k, 6 + k, -3, 0))
        oracle = dense_sweep_zeros(ev, (-6 + k, 6 + k), (-3, 0))
        assert R.multiplicities().tolist() == [1] * len(oracle)
        for z in R.zeros():
            assert min(abs(z - w) for w in oracle) < 1e-6
        for w in oracle:
            assert min(abs(z - w) for z in R.zeros()) < 1e-6

    @pytest.mark.parametrize("case", ["pinned", "double"])
    def test_each_point_evaluated_once(self, case):
        # boxes take their outer sides from the parent and share split
        # lines, and a doubled side is evaluated at its midpoints only: no
        # point of any call repeats one evaluated before
        if case == "pinned":
            qp = random_piecewise_potential(101, n=96)
            ev = make_psi_evaluator(potential_from_values(qp.gamma, qp.samples.values),
                                    BoundaryParam(0.4))
            region, tol, mults = SearchRegion(-6, 6, -3, 0), 1e-9, [1, 1, 1]
        else:
            ev = lambda z: (z - (1 - 1j)) ** 2
            region, tol, mults = SearchRegion(0, 2, -2, 0), 1e-11, [2]
        seen = []

        def recording(z):
            seen.extend(np.atleast_1d(z).tolist())
            return ev(z)

        R = find_resonances(recording, region, tol=tol)
        assert len(set(seen)) == len(seen)
        assert R.multiplicities().tolist() == mults

    def test_doubled_split_line_taken_once(self):
        # a zero 1e-5 right of the region's first split line keeps both
        # halves' counts from settling, so both double the line they share
        # in the same rounds: each call takes its midpoints once.  The
        # split then moves to the next fraction, whose doubled outer sides
        # repeat 244 midpoints of the failed attempt (past calls only)
        line = np.linspace(0, 2, _PER_EDGE + 1)[131]
        zs = (line + 1e-5 - 1j, 0.3 - 0.4j, 0.35 - 1.5j, 1.7 - 0.3j, 1.6 - 1.6j, 0.5 - 0.5j)
        calls = []

        def recording(z):
            calls.append(np.atleast_1d(z).tolist())
            return np.prod([z - w for w in zs], axis=0)

        R = find_resonances(recording, SearchRegion(0, 2, -2, 0))
        assert all(len(set(c)) == len(c) for c in calls)
        assert sum(map(len, calls)) == 98475
        assert R.multiplicities().tolist() == [1] * 6
        for z in R.zeros():
            assert min(abs(z - w) for w in zs) < 1e-8

    def test_zero_on_region_boundary_is_ambiguous(self):
        # the zero sits on a node of the region's bottom side
        ev = lambda z: z - (0.5 - 1j)
        with pytest.raises(NumericalError, match="boundary-ambiguous"):
            find_resonances(ev, SearchRegion(0, 1, -1, 0))

    def test_deep_region_of_long_support(self):
        # at gamma = 3 |psi| grows like e^(6 |Im z|) down the region, so its
        # contour spans 13 decades: a zero test at 1e-12 of the contour's
        # largest value took the O(1) values on the real axis for zeros on
        # the boundary, and the search stopped as boundary-ambiguous
        ev = make_psi_evaluator(random_piecewise_potential(1, gamma=3.0, n=1024),
                                BoundaryParam(0.0))
        R = find_resonances(ev, SearchRegion(-20, 20, -5, 0))
        assert R.total() == 37                  # (gamma / pi) 40 = 38.2 by the counting law
        z = R.zeros()
        assert np.all(np.abs(ev(z)) <= 1e-11 * np.abs(ev(z + 1e-3)))


def _counting(ev):
    """ev, the sizes of its calls and the points they took."""
    sizes, points = [], []

    def counted(z):
        sizes.append(np.size(z))
        points.extend(np.atleast_1d(z).tolist())
        return ev(z)
    return counted, sizes, points


def _each_point_once(sizes, points):
    """No point reached the evaluator twice over the search, and its first
    call took the region's boundary, each of its nodes once."""
    assert len(set(points)) == len(points)
    assert sizes[0] == 4 * _PER_EDGE


_THREE = lambda z: (z + 1.5j) * (z - 2 + 0.5j) * (z + 3 + 2.5j)


class TestMomentPencil:
    # a box counting 2 to _PENCIL_MAX zeros takes them from the Hankel
    # pencil of its contour moments: one contour call for the region, then
    # Newton calls of three points per start, and no split

    def test_double_zero_from_root_box(self):
        # the split route (_PENCIL_MAX = 1) takes 41 calls and 26,990
        # points here
        counted, sizes, points = _counting(lambda z: (z - (1 - 1j)) ** 2)
        R = find_resonances(counted, SearchRegion(0, 2, -2, 0), tol=1e-11)
        (z, m), = R.entries
        assert m == 2 and abs(z - (1 - 1j)) < 1e-14
        assert (len(sizes), sum(sizes)) == (2, 1027)
        _each_point_once(sizes, points)

    def test_close_simple_pair(self):
        counted, sizes, _ = _counting(lambda z: (z - (1 - 1j)) * (z - (1.2 - 1j)))
        R = find_resonances(counted, SearchRegion(0, 2, -2, 0), tol=1e-11)
        assert R.multiplicities().tolist() == [1, 1]
        for z, w in zip(R.zeros(), (1 - 1j, 1.2 - 1j)):
            assert abs(z - w) < 1e-14
        assert sizes[0] == 4 * _PER_EDGE and set(sizes[1:]) == {6}

    def test_three_zero_box_unsplit(self):
        counted, sizes, _ = _counting(_THREE)
        R = find_resonances(counted, SearchRegion(-6, 6, -3, 0))
        assert R.multiplicities().tolist() == [1, 1, 1]
        for z, w in zip(R.zeros(), (-1.5j, 2 - 0.5j, -3 - 2.5j)):
            assert abs(z - w) < 1e-14
        assert sizes[0] == 4 * _PER_EDGE and set(sizes[1:]) == {9}

    def test_double_beside_simple(self):
        # one start per distinct zero, each with its multiplicity
        z1, z2 = 0.9731 - 1.0417j, 1.0731 - 1.0417j
        counted, sizes, _ = _counting(lambda z: (z - z1) ** 2 * (z - z2))
        R = find_resonances(counted, SearchRegion(0, 2, -2, 0), tol=1e-11)
        assert R.entries[0][1] == 2 and R.entries[1][1] == 1
        assert abs(R.entries[0][0] - z1) < 1e-12 and abs(R.entries[1][0] - z2) < 1e-12
        assert sizes[0] == 4 * _PER_EDGE and sizes[1] == 6

    @pytest.mark.parametrize("d", [3e-2, 1e-4])
    def test_no_triple_from_a_cluster(self, d):
        # a double zero d from a simple one has moments close to a triple
        # zero's, and 3-fold Newton settles on the double: the pencil takes
        # no triple, and the boxes split until the two come apart
        z1 = 0.9731 - 1.0417j
        R = find_resonances(lambda z: (z - z1) ** 2 * (z - z1 - d), SearchRegion(0, 2, -2, 0),
                            tol=1e-11)
        assert R.multiplicities().tolist() == [2, 1]
        for z, w in zip(R.zeros(), (z1, z1 + d)):
            assert abs(z - w) < 1e-10

    def test_fourfold_zero_reaches_cluster_branch(self, monkeypatch):
        # a count above _PENCIL_MAX splits down to the cluster radius, whose
        # box is polished with the count as multiplicity
        polished = []
        real = spectral._polish

        def recording(ev, z0, tol, mult, max_radius):
            polished.extend(zip(mult, max_radius))
            return real(ev, z0, tol, mult, max_radius)

        monkeypatch.setattr(spectral, "_polish", recording)
        R = find_resonances(lambda z: (z - (0.9 - 1.1j)) ** 4, SearchRegion(0, 2, -2, 0))
        (z, m), = R.entries
        assert m == 4 and abs(z - (0.9 - 1.1j)) < 1e-7
        cluster = 64 * max(1e-9, spectral._MERGE_TOL)
        assert polished and all(m == 4 and radius < 2 * cluster for m, radius in polished)

    @pytest.mark.parametrize("where", ["starts", "roots"])
    def test_rejected_pencil_splits(self, monkeypatch, where):
        # a pencil whose starts leave the box, or whose polished roots do,
        # has its box split at once, with no second count; the halves find
        # every zero
        events = []
        real_settle, real_halves = spectral._settle, spectral._halves
        monkeypatch.setattr(spectral, "_settle", lambda ev, boxes: events.append(
            ("count", [b.xs.size for b in boxes])) or real_settle(ev, boxes))
        monkeypatch.setattr(spectral, "_halves", lambda ev, box, cnt, depth: events.append(
            ("split", cnt)) or real_halves(ev, box, cnt, depth))
        if where == "starts":
            real = spectral._pencil

            def off(mom, m):
                u, mults = real(mom, m)
                return (u + 3.0 if m == 3 else u), mults
            monkeypatch.setattr(spectral, "_pencil", off)
        else:
            real = spectral._polish
            sweeps = []

            def off(ev, z0, tol, mult, max_radius):
                sweeps.append(len(z0))
                out = real(ev, z0, tol, mult, max_radius)
                return [z + 20.0 for z in out] if len(sweeps) <= 2 else out
            monkeypatch.setattr(spectral, "_polish", off)
        R = find_resonances(_THREE, SearchRegion(-6, 6, -3, 0))
        assert R.multiplicities().tolist() == [1, 1, 1]
        for z, w in zip(R.zeros(), (-1.5j, 2 - 0.5j, -3 - 2.5j)):
            assert abs(z - w) < 1e-8
        assert events[:2] == [("count", [_PER_EDGE + 1]), ("split", 3)]

    @pytest.mark.parametrize("d, mults", [(1e-6, [2, 1]), (1e-6j, [2, 1]), (3e-7j, [2, 1]),
                                          (1e-7, [3])])
    def test_double_zero_closer_than_difference_step(self, d, mults):
        # a double zero d from a simple one, closer than the polish's
        # difference step 1e-7 max(1, |z|) ~ 1.4e-7 would be without its
        # cap at 1e-3 of the max radius: the pair is located as a double
        # and a simple zero, and at d = 1e-7 as one triple inside the
        # cluster radius
        a = 0.9731 - 1.0417j
        R = find_resonances(lambda z: (z - a) ** 2 * (z - a - d), SearchRegion(0, 2, -2, 0),
                            tol=1e-11)
        got = {m: z for z, m in R.entries}
        assert sorted(got, reverse=True) == mults
        assert abs(got[mults[0]] - a) < 1e-10
        if 1 in got:
            assert abs(got[1] - (a + d)) < 1e-14

    def test_failed_double_hands_no_double_to_halves(self):
        # two simple zeros 1e-4 apart have moments close to a double
        # zero's; once its double fails, the boxes split from it take no
        # double from their pencils, and the pair comes apart in 102 calls
        # (1,622 when the halves may take a double again)
        a = 0.9731 - 1.0417j
        counted, sizes, points = _counting(lambda z: (z - a) * (z - a - 1e-4j))
        R = find_resonances(counted, SearchRegion(0, 2, -2, 0), tol=1e-11)
        assert R.multiplicities().tolist() == [1, 1]
        for z, w in zip(R.zeros(), (a + 1e-4j, a)):
            assert abs(z - w) < 1e-14
        assert len(sizes) == 102
        _each_point_once(sizes, points)

    @pytest.mark.parametrize("case", [f"exact-{s}" for s in range(1, 7)]
                             + ["cell", "double", "double-simple", "pair"])
    def test_matches_split_route(self, monkeypatch, case):
        # with _PENCIL_MAX = 1 every box counting 2 or more splits, as
        # before the pencil: the same multiplicities, simple zeros within
        # 1e-14 relative; a multiple zero's Newton iterate stops within a
        # few 1e-14 of it, so those are held to 1e-13
        kind, _, arg = case.partition("-")
        region, tol = SearchRegion(0, 2, -2, 0), 1e-11
        if kind == "exact":
            seed = int(arg)
            k = 3.7 * seed - 18.0
            q = shift_potential(random_piecewise_potential(seed, n=1024), k)
            ev = make_psi_evaluator(q, BoundaryParam(0.15 * (seed - 1)))
            region, tol = SearchRegion(-6 + k, 6 + k, -3, 0), 1e-9
        elif kind == "cell":
            qp = random_piecewise_potential(101, n=96)
            ev = make_psi_evaluator(potential_from_values(qp.gamma, qp.samples.values),
                                    BoundaryParam(0.4))
            region, tol = SearchRegion(-6, 6, -3, 0), 1e-9
        elif case == "double":
            ev = lambda z: (z - (1.0731 - 0.6417j)) ** 2
        elif case == "double-simple":
            ev = lambda z: (z - (0.97 - 1.04j)) ** 2 * (z - (1.27 - 1.04j))
        else:
            ev = lambda z: (z - (0.9 - 0.9j)) * (z - (1.05 - 1.1j))
        R = find_resonances(ev, region, tol=tol)
        monkeypatch.setattr(spectral, "_PENCIL_MAX", 1)
        R_split = find_resonances(ev, region, tol=tol)
        assert R.multiplicities().tolist() == R_split.multiplicities().tolist()
        drift = np.abs(R.zeros() - R_split.zeros()) / np.abs(R_split.zeros())
        assert np.all(drift <= np.where(R.multiplicities() == 1, 1e-14, 1e-13))

    def test_random_double_zeros(self):
        # 100 double zeros drawn with numpy seed 5; on the split route
        # (_PENCIL_MAX = 1) 3 of them end in "could not place a split
        # line" (a box beside the zero counts it)
        rng = np.random.default_rng(5)
        for _ in range(100):
            z0 = complex(rng.uniform(0.3, 1.7), rng.uniform(-1.7, -0.3))
            R = find_resonances(lambda z: (z - z0) ** 2, SearchRegion(0, 2, -2, 0), tol=1e-11)
            (z, m), = R.entries
            assert m == 2 and abs(z - z0) < 1e-12


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


_ONE_ZERO = ResonanceSet(((1 - 1j, 1),))

# calls that once returned quietly or raised something other than a
# ValidationError, with the argument their message names: count_in_sector
# with r = nan counted every zero, forbidden_domain_check with eps = nan
# returned a report, hadamard_evaluate at z = nan returned NaN,
# winding_number of a NaN raised ValueError and cartwright_type at
# gamma = 0 ZeroDivisionError
_REFUSED = {
    "count_in_sector r=nan": (lambda: count_in_sector(_ONE_ZERO, np.nan, 0.0), "r must"),
    "levinson_ratio r=0": (lambda: levinson_ratio(_ONE_ZERO, 1.0, 0.0), "r must"),
    "forbidden_domain_check eps=nan": (lambda: forbidden_domain_check(_ONE_ZERO, 1.0, np.nan),
                                       "eps must"),
    "forbidden_domain_check eps=0": (lambda: forbidden_domain_check(_ONE_ZERO, 1.0, 0.0),
                                     "eps must"),
    "hadamard_evaluate z=nan": (lambda: hadamard_evaluate(_ONE_ZERO, 1.0, 1.0, np.nan, 10.0),
                                "z must be finite"),
    "winding_number nan": (lambda: winding_number([1.0, np.nan]), "values must"),
    "cartwright_type gamma=0": (lambda: cartwright_type(lambda z: np.exp(-1j * z), 0.0),
                                "gamma must"),
}


@pytest.mark.parametrize("call", sorted(_REFUSED))
def test_refused_arguments(call):
    fn, names = _REFUSED[call]
    with pytest.raises(ValidationError, match=names):
        fn()


def three_values(z):
    return np.ones(3, dtype=complex)


def no_values(z):
    return None


def two_columns(z):
    return np.ones((z.size, 2), dtype=complex)


_BAD_OUTPUTS = {three_values: (3,), no_values: (), two_columns: (4 * _PER_EDGE, 2)}


@pytest.mark.parametrize("evaluator", list(_BAD_OUTPUTS), ids=lambda ev: ev.__name__)
def test_evaluator_gives_one_value_per_point(evaluator):
    # these once raised ValueError, IndexError and ValueError from inside
    # the search; the message names the evaluator and both shapes
    want = (f"evaluator .*{evaluator.__name__}.* returned shape "
            f"{re.escape(str(_BAD_OUTPUTS[evaluator]))} for z of shape \\({4 * _PER_EDGE},\\)")
    with pytest.raises(ValidationError, match=want):
        find_resonances(evaluator, SearchRegion(-2, 2, -2, 0))


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


# a double zero among a lattice-like set, so the tail fit sees >= 4 outer zeros
_DOUBLE = ResonanceSet(tuple((sign * (np.pi * k + 0.4) - 1j * (0.3 + 0.2 * np.log(k + 1.0)),
                              2 if (k, sign) == (2, 1) else 1)
                             for k in range(4) for sign in (1, -1)))
# fewer than 4 zeros in [0.45, 1] r_cut: the tail takes the fallback depth
_FEW_OUTER = ResonanceSet(((1.0 - 0.5j, 1), (-2.5 - 0.3j, 1), (6.0 - 0.8j, 1), (30.0 - 2.0j, 1)))


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

    @pytest.mark.parametrize("r_cut", [15.0, 60.0, 120.0])
    def test_matches_factor_loop(self, unit_resonances, r_cut):
        for R in (unit_resonances, _DOUBLE):
            for z in (0.0, 2.0 - 0.5j, -7.3 + 0.1j, 40.0 - 1.0j):
                want = hadamard_loop(R, 1.3 - 0.2j, 1.0, z, r_cut)
                assert hadamard_evaluate(R, 1.3 - 0.2j, 1.0, z, r_cut) == pytest.approx(
                    want, rel=1e-12)

    def test_partial_products_converge(self, unit_potential, alpha0, unit_resonances):
        psi0 = complex(psi_values(unit_potential, alpha0, 0.0 + 0j))
        z = 2.0 - 0.5j
        truth = complex(psi_values(unit_potential, alpha0, z))
        errs = [abs(hadamard_evaluate(unit_resonances, psi0, 1.0, z, rc) - truth)
                for rc in (15.0, 30.0, 60.0)]
        assert errs[0] > errs[1] > errs[2]


def _dphi(R, gamma, z, r_cut):
    """phi'(z) = gamma + sum over |z_n| <= r_cut of Im z_n / |z - z_n|^2,
    read from the zero sum that phase_profile uses."""
    return float(_zero_sums(*_truncated(R, r_cut), gamma, np.array([z]), 0)[1][0])


class TestPhase:
    def test_derivative_trivial_cases(self):
        assert _dphi(ResonanceSet(()), 0.0, 1.3, 10.0) == 0.0
        R = ResonanceSet(((-1j, 1),))
        assert _dphi(R, 1.0, 0.0, 10.0) == pytest.approx(0.0, abs=1e-14)

    def test_derivative_matches_finite_difference(self, unit_potential, alpha0, unit_resonances):
        ev = make_psi_evaluator(unit_potential, alpha0)
        dz = 1e-4
        for zz in (0.7, 3.3):
            fd = np.angle(ev(np.array([zz + dz]))[0] / ev(np.array([zz - dz]))[0]) / (2 * dz)
            # evaluate dphi through the profile on a grid through zz
            g2 = make_grid(zz - 0.01, zz + 0.01, 2)
            p2 = phase_profile(unit_resonances, 1.0, alpha0, g2, 60.0, 54.0)
            assert abs(p2.dphi[1] - fd) < 3e-3

    def test_summands_negative(self, unit_resonances):
        raw = _dphi(unit_resonances, 1.0, 1.7, 60.0)
        assert raw < 1.0     # every zero term pulls below gamma

    def test_truncated_sum_monotone_in_radius(self, unit_resonances):
        for z in (0.4, 2.9):
            vals = [_dphi(unit_resonances, 1.0, z, rc)
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

    @pytest.mark.parametrize("case,gamma,r_cut", [
        ("unit", 1.0, 30.0), ("unit", 1.0, 60.0), ("unit", 1.0, 120.0),
        ("double", 1.0, 12.0), ("few_outer", 1.0, 10.0), ("empty", 1.0, 20.0),
        ("unit", 0.0, 60.0),
    ])
    def test_profile_matches_zero_loop(self, unit_resonances, alpha0, case, gamma, r_cut):
        R = {"unit": unit_resonances, "double": _DOUBLE, "few_outer": _FEW_OUTER,
             "empty": ResonanceSet(())}[case]
        grid = make_grid(-10, 10, 400)
        prof = phase_profile(R, gamma, alpha0, grid, r_cut, 0.9 * r_cut)
        phi, dphi, phi0, slope, spread = phase_profile_loop(
            R, gamma, alpha0.alpha, grid.nodes(), r_cut, 0.9 * r_cut)
        for got, want in ((prof.phi, phi), (prof.dphi, dphi), (prof.phi0, phi0),
                          (prof.tail_slope, slope), (prof.endpoint_spread, spread)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert _dphi(R, gamma, 1.7, r_cut) == pytest.approx(
            phase_derivative_loop(R, gamma, 1.7, r_cut), rel=0, abs=1e-12)

    def test_tail_reads_located_zeros_only(self, alpha0):
        # zeros beyond r_cut set neither the tail depth nor, with no zero
        # inside r_cut, whether there is a tail at all
        grid = make_grid(-10, 10, 400)
        shallow = ResonanceSet(_FEW_OUTER.entries[:3] + ((30.0 - 0.2j, 1),))
        for a, b in ((_FEW_OUTER, shallow),
                     (ResonanceSet(((30.0 - 2.0j, 1),)), ResonanceSet(()))):
            pa, pb = (phase_profile(R, 1.0, alpha0, grid, 10.0, 9.0) for R in (a, b))
            np.testing.assert_array_equal(pa.phi, pb.phi)
            np.testing.assert_array_equal(pa.dphi, pb.dphi)

    def test_profile_memory_bounded(self, unit_resonances, alpha0):
        # ~23,000 modeled tail zeros at r_cut = 120: a #z x #zeros complex
        # array over the 529 evaluation points would take 185 MiB
        grid = make_grid(-10, 10, 400)
        tracemalloc.start()
        try:
            phase_profile(unit_resonances, 1.0, alpha0, grid, 120.0, 108.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

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

    def test_longer_ladder_improves(self, monkeypatch, unit_potential, alpha0):
        ev = make_psi_evaluator(unit_potential, alpha0)
        _, tm_long = cartwright_type(ev, 1.0)
        # the ladder runs to 0.9 of the growth cap, 50/gamma; a cap of 12
        # shortens it
        monkeypatch.setattr(forward, "DEFAULT_IM_CAP_SCALE", 12.0)
        _, tm_short = cartwright_type(ev, 1.0)
        assert abs(tm_long - 2.0) < abs(tm_short - 2.0)
