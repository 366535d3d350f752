import json
import math
import tracemalloc
from decimal import Decimal, localcontext
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import median_filter

from dirachl import core
from dirachl.core import (
    BoundaryParam,
    Grid,
    JostRep,
    Piece,
    Potential,
    ResonanceSet,
    SampledComplexFunction,
    ScatteringRep,
    ValidationError,
    make_grid,
    support_supremum,
    validate_class,
)
from dirachl.forward import jost_kernel_direct
from dirachl.inverse import invert_wiener, scattering_kernel
from dirachl.synth import constant_potential, random_piecewise_potential

from oracles import brute_transform, dense_plain_sum, dense_transform, segment_transform


def sampled(left, right, n, fn):
    g = make_grid(left, right, n)
    return SampledComplexFunction(g, fn(g.nodes()).astype(complex))


class TestGrid:
    def test_nodes(self):
        g = make_grid(0, 1, 4)
        assert np.allclose(g.nodes(), [0, 0.25, 0.5, 0.75, 1.0])

    def test_symmetric(self):
        g = make_grid(-1, 1, 2)
        assert np.allclose(g.nodes(), [-1, 0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_grid(0, 1, 0)
        with pytest.raises(ValidationError):
            make_grid(0, np.inf, 4)
        with pytest.raises(ValidationError):
            make_grid(1, 0, 4)

    def test_rejects_fractional_cell_count(self):
        # int() would cut 2.5 cells to 2, also in a file's "n"
        for n in (2.5, np.nan):
            with pytest.raises(ValidationError, match="whole number"):
                make_grid(0, 1, n)
        with pytest.raises(ValidationError, match="whole number"):
            Potential.from_json({"gamma": 1.0, "n": 2.5, "samples": [[0, 0], [1, 0], [0, 0]]})
        assert make_grid(0, 1, 4.0).n == 4

    def test_strided_samples(self):
        # a strided complex array is as good as a contiguous one, and
        # non-finite values in it are still refused
        x = np.arange(10, dtype=complex) * (1 - 1j)
        assert np.array_equal(SampledComplexFunction(make_grid(0, 1, 4), x[::2]).values, x[::2])
        x[4] = complex(0.0, np.inf)
        with pytest.raises(ValidationError, match="finite"):
            SampledComplexFunction(make_grid(0, 1, 4), x[::2])


def quadrature(f):
    """The trapezoid rule by `core._trapezoid_weights`, the weights of the
    kernel norms and of the inverse layer's sums."""
    return complex(np.dot(core._trapezoid_weights(f.grid), f.values))


class TestQuadrature:
    def test_constant(self):
        for n in (1, 7, 64):
            f = sampled(0, 1, n, lambda x: np.ones_like(x))
            assert quadrature(f) == pytest.approx(1.0, abs=1e-14)

    def test_affine_exact(self):
        f = sampled(0, 1, 10, lambda x: x)
        assert quadrature(f) == pytest.approx(0.5, abs=1e-14)

    def test_oscillatory_closed_form(self):
        f = sampled(0, 1, 4096, lambda x: np.exp(2j * x))
        exact = (np.exp(2j) - 1) / 2j
        assert abs(quadrature(f) - exact) < 1e-6

    def test_second_order_refinement(self):
        exact = (np.exp(4j) - 1) / 4j
        errs = []
        for n in (64, 128, 256):
            f = sampled(0, 1, n, lambda x: np.exp(4j * x))
            errs.append(abs(quadrature(f) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_fft_len_is_least_5_smooth():
    def smooth(j):
        for p in (2, 3, 5):
            while j % p == 0:
                j //= p
        return j == 1

    want = 1
    for k in range(1, 20001):
        while want < k or not smooth(want):
            want += 1
        assert core._fft_len(k) == want, k


class TestFourierEval:
    def test_matches_fine_trapezoid(self):
        n = 256
        g = make_grid(0, 1, n)
        vals = np.exp(-3 * g.nodes()) * (1 + 1j * g.nodes())
        f = SampledComplexFunction(g, vals)
        z = np.array([0.0, 1.7, -12.3, 40.0])
        # brute: very fine trapezoid on the linear interpolant
        fine = make_grid(0, 1, 65536)
        vf = np.interp(fine.nodes(), g.nodes(), vals.real) + \
            1j * np.interp(fine.nodes(), g.nodes(), vals.imag)
        ref = brute_transform(vf, 0.0, fine.h, z)
        got = core._transform(f, z, ())
        assert np.max(np.abs(got - ref)) < 2e-8

    @pytest.mark.parametrize("seed", [0, 2])
    def test_cut_model_matches_segment_sum(self, seed):
        # kernels of a jumpy potential: g splits at detected jumps, F also
        # at the structural nodes s = 0 and s = gamma
        q = random_piecewise_potential(seed, n=512)
        rep = jost_kernel_direct(q, BoundaryParam(0.3))
        S = scattering_kernel(rep)
        n_g = q.grid.n
        z = np.concatenate([np.linspace(-40.0, 40.0, 161), np.linspace(-20.0, 20.0, 41) - 1.5j])
        assert rep._cuts and {n_g, 2 * n_g} <= set(S._cuts) and len(S._cuts) > 2
        for got, phase, f, structural in (
                (rep.psi(z), np.exp(-0.3j), rep.g, ()),
                (S.s_values(z), np.exp(0.6j), S.F, (n_g, 2 * n_g))):
            ref = phase + segment_transform(f, z, structural)
            assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-12

    def test_cuts_detected_once(self, monkeypatch):
        calls = []
        detect = core._detect_jump_nodes
        monkeypatch.setattr(core, "_detect_jump_nodes", lambda v: calls.append(1) or detect(v))
        rep = jost_kernel_direct(random_piecewise_potential(1, n=256), BoundaryParam(0.0))
        S = scattering_kernel(rep)
        for _ in range(2):
            rep.psi(1.5)
            S.s_values(1.5)
        assert len(calls) == 2

    def test_lattice_keeps_its_shape(self):
        # a 2-D z is evaluated raveled and returned in its own shape
        rep, S = _kernels(1, 1024, 0.3)
        for rows, cols in ((33, 81), (3, 20)):
            z = np.linspace(-12.0, 12.0, cols)[None, :] + 1j * np.linspace(0.0, 12.0, rows)[:, None]
            for ev in (rep.psi, S.s_values):
                got = ev(z)
                assert got.shape == (rows, cols)
                assert np.array_equal(got, ev(z.ravel()).reshape(rows, cols))

    @pytest.mark.parametrize("size", [15, 16, 17, 64, 65, 66, 1025, 32769])
    def test_running_median_matches_scipy(self, size):
        rng = np.random.default_rng(size)
        # ties and wide magnitudes, as in second differences of a kernel
        d = np.abs(rng.standard_normal(size)) * rng.choice([1.0, 1e-6], size)
        d[rng.integers(0, size, size // 4)] = 0.5
        ref = median_filter(d, size=65, mode="nearest")
        np.testing.assert_array_equal(core._running_median(d), ref)

    @pytest.mark.parametrize("seed", [0, 1, 3, 7, 101])
    def test_jump_nodes_match_scipy_median(self, monkeypatch, seed):
        q = random_piecewise_potential(seed, n=1024)
        rep = jost_kernel_direct(q, BoundaryParam(0.3))
        kernels = (q.samples.values, rep.g.values, scattering_kernel(rep).F.values)
        got = [core._detect_jump_nodes(v) for v in kernels]
        monkeypatch.setattr(core, "_running_median",
                            lambda d: median_filter(d, size=65, mode="nearest"))
        assert got == [core._detect_jump_nodes(v) for v in kernels]
        assert got[1] and got[2]


@lru_cache(maxsize=8)
def _kernels(seed, n, alpha):
    rep = jost_kernel_direct(random_piecewise_potential(seed, n=n), BoundaryParam(alpha))
    return rep, scattering_kernel(rep)


def _max_rel(got, ref):
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def _pi_decimal():
    """pi to the current decimal precision (the decimal module's recipe)."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), Decimal(3), 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


class TestChirpSums:
    """Arithmetic runs of z go through the chirp-z plain sum; the dense
    oracle forms every phase."""

    def test_long_run_matches_dense_n4096(self):
        rep, S = _kernels(0, 4096, 0.3)
        z = np.linspace(-40.0, 40.0, 4001)
        assert _max_rel(S.s_values(z), np.exp(0.6j) + dense_transform(S.F, z, S._cuts)) < 1e-12
        assert _max_rel(rep.psi(z), np.exp(-0.3j) + dense_transform(rep.g, z, rep._cuts)) < 1e-12

    @pytest.mark.parametrize("gamma, n, points, im", [(1.0, 32, 513, -6.0), (1.0, 32, 1024, -6.0),
                                                      (8.0, 128, 257, -45.0 / 8.0)])
    def test_short_kernel_far_below_real_axis(self, gamma, n, points, im):
        # a kernel with fewer nodes than one node block: the block is mostly
        # zero padding, whose phases e^{2iz jh} would overflow there (the
        # last is a row of the resonance search's bottom side at gamma = 8)
        rep = jost_kernel_direct(random_piecewise_potential(0, gamma=gamma, n=n), BoundaryParam(0.3))
        z = np.linspace(-10.0, 10.0, points) + 1j * im
        a, b, _ = core._arithmetic_runs(z, rep.g.grid.h)
        assert list(zip(a, b)) == [(0, points)]
        assert _max_rel(rep.psi(z), np.exp(-0.3j) + dense_transform(rep.g, z, rep._cuts)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 9), alpha=st.floats(0.0, 3.0), n=st.integers(8, 512).map(lambda m: 8 * m),
           length=st.one_of(st.sampled_from([core._RUN_MIN - 1, core._RUN_MIN, core._RUN_MIN + 1]),
                            st.integers(2, 3000)),
           start=st.floats(-40.0, 40.0), step=st.floats(1e-3, 0.5), descending=st.booleans(),
           im=st.floats(0.0, 12.0))
    def test_runs_match_dense(self, seed, alpha, n, length, start, step, descending, im):
        rep, S = _kernels(seed, n, alpha)
        k = np.arange(length)
        z = start + (-step if descending else step) * k
        zc = complex(start, im) + (-step if descending else step) * k
        if length >= core._RUN_MIN:
            # the sweep exercises the chirp route, not the dense remainder
            for f, zz in ((S.F, z), (rep.g, zc)):
                a, b, _ = core._arithmetic_runs(zz.astype(complex), f.grid.h)
                assert list(zip(a, b)) == [(0, length)]
        assert _max_rel(S.s_values(z), np.exp(2j * alpha) + dense_transform(S.F, z, S._cuts)) < 1e-12
        assert _max_rel(rep.psi(zc), np.exp(-1j * alpha) + dense_transform(rep.g, zc, rep._cuts)) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 9), alpha=st.floats(0.0, 3.0), n=st.integers(8, 512).map(lambda m: 8 * m),
           rows=st.integers(1, 12), cols=st.integers(16, 90), start=st.floats(-40.0, 40.0),
           step=st.floats(1e-3, 0.5), ims=st.lists(st.floats(-3.0, 12.0), min_size=2, max_size=2),
           shuffle=st.integers(0, 2 ** 32 - 1))
    def test_permuted_lattices_match_dense(self, seed, alpha, n, rows, cols, start, step, ims, shuffle):
        # a lattice in any order: its rows are runs once sorted by (Im z, Re z)
        rep, S = _kernels(seed, n, alpha)
        im = np.linspace(min(ims), max(ims), rows)
        z = (start + step * np.arange(cols)[None, :] + 1j * im[:, None]).ravel()
        z = np.random.default_rng(shuffle).permutation(z)
        assert _max_rel(rep.psi(z), np.exp(-1j * alpha) + dense_transform(rep.g, z, rep._cuts)) < 1e-12
        # S takes the lattice moved up by 3i: below the real axis F's sum
        # grows like e^{2 |Im z| t_max} (e^48 at Im z = -3) and cancels, and
        # the chirp and dense sums differ by up to 3e-12 relative to |S| there
        z = z + 3j
        assert _max_rel(S.s_values(z), np.exp(2j * alpha) + dense_transform(S.F, z, S._cuts)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 9), alpha=st.floats(0.0, 3.0), n=st.integers(8, 512).map(lambda m: 8 * m),
           lattices=st.lists(st.tuples(
               # L = max(256, the power of two >= 4 cols) on both sides of 512, 1024 and 2048
               st.one_of(st.sampled_from([core._RUN_MIN, 17, 63, 64, 65, 127, 128, 129, 257, 511, 513]),
                         st.integers(core._RUN_MIN, 300)),
               st.floats(1e-3, 0.5), st.floats(-3.0, 0.0), st.floats(0.5, 12.0), st.integers(1, 3),
               st.sampled_from(["rows", "columns", "shuffled"])), min_size=1, max_size=3),
           start=st.floats(-40.0, 40.0), shuffle=st.integers(0, 2 ** 32 - 1))
    def test_grouped_lattices_match_dense(self, seed, alpha, n, lattices, start, shuffle):
        # lattices of several row lengths and steps, reaching Im z = -3 and
        # each in its own ravel order, share one call: every point is
        # chirped, and the first lattice's group spans several capped batches
        rep, S = _kernels(seed, n, alpha)
        rng = np.random.default_rng(shuffle)

        def batches(z):
            # the (rows, node blocks, L) shapes of the batched FFTs psi makes
            with mock.patch.object(core.np.fft, "fft", wraps=core.np.fft.fft) as fft:
                got = rep.psi(z)
            return got, [c.args[0].shape[:2] + c.args[1:2] for c in fft.call_args_list
                         if c.args[0].ndim == 3]

        # one row of the first lattice shows its node blocks and L; a batch
        # holds at most core._CHIRP_BATCH entries, and the first lattice
        # takes that many rows on top of those drawn, so it spans two batches
        cols, step = lattices[0][:2]
        _, blocks, length = batches(start + step * np.arange(cols))[1][0]
        parts = []
        for i, (cols, step, lo, hi, rows, order) in enumerate(lattices):
            rows += max(1, core._CHIRP_BATCH // (blocks * length)) if i == 0 else 0
            re = start + step * np.arange(cols)
            start = re[-1] + 1.0        # apart in Re z: sorted, two lattices' rows never interleave
            z = re[None, :] + 1j * np.linspace(lo, hi, rows)[:, None]
            parts.append({"rows": z.ravel(), "columns": z.T.ravel(),
                          "shuffled": rng.permutation(z.ravel())}[order])
        z = np.concatenate(parts)
        with mock.patch.object(core, "_chirp_sums", wraps=core._chirp_sums) as chirp:
            got, shapes = batches(z)
        groups = [c.args[3].shape for c in chirp.call_args_list]
        assert sum(r * c for r, c in groups) == z.size
        assert len(shapes) > len(groups)
        assert _max_rel(got, np.exp(-1j * alpha) + dense_transform(rep.g, z, rep._cuts)) < 1e-12
        # S above the real axis, as in the permuted lattices; F has 9n + 1
        # nodes, so its node blocks can outnumber a batch's rows, and the
        # dense oracle takes 300 of the points
        z = z + 3j
        pick = rng.choice(z.size, min(z.size, 300), replace=False)
        ref = np.exp(2j * alpha) + dense_transform(S.F, z[pick], S._cuts)
        assert _max_rel(S.s_values(z)[pick], ref) < 1e-12

    def test_run_values_independent_of_neighbours(self):
        # the given-order pass sees a run alone or among other points alike:
        # its sums are bit-identical, and a NaN falls to the dense product
        rep, _ = _kernels(1, 1024, 0.3)
        run = np.linspace(-10.0, 10.0, 200) + 0.5j
        alone = core._plain_sum(rep.g, run)
        rng = np.random.default_rng(2)
        scattered = rng.uniform(-30.0, 30.0, 40) + 1j * rng.uniform(-2.0, 3.0, 40)
        for before, after in ((scattered, scattered[::-1]),
                              (np.full(20, np.nan + 0j), np.append(scattered[:5], 1.0 + np.nan * 1j)),
                              (run[::7], rng.permutation(run))):
            got = core._plain_sum(rep.g, np.concatenate([before, run, after]))
            assert np.array_equal(got[before.size:before.size + run.size], alone)
            others = np.concatenate([before, after])
            rest = np.concatenate([got[:before.size], got[before.size + run.size:]])
            ref = dense_plain_sum(rep.g, others)
            finite = np.isfinite(others)
            assert np.all(np.isnan(rest[~finite]))
            assert _max_rel(rest[finite], ref[finite]) < 1e-12

    @pytest.mark.parametrize("t", [0.02 / 1024, -0.3 / 96, 0.04 * 9.0 / 4096, 1.0, -1.0,
                                   math.pi / 7, 0.7390851332151607, 2.0 ** -40 * 3.0])
    def test_chirp_phases_exact(self, t):
        # t n^2 mod 2 pi against exact decimal arithmetic, n up to 65,535
        n = np.arange(65536)
        n = n if abs(t) >= 0.1 else n[(n < 300) | (n % 97 == 0) | (n > 65400)]
        got = core._chirp_phases(t, 65536)[n]
        with localcontext() as ctx:
            ctx.prec = 90
            tau = 2 * _pi_decimal()
            tt = Decimal(t)
            ref = []
            for m in n.tolist():
                x = tt * (m * m)
                ref.append(float(x - tau * (x / tau).to_integral_value()))
        diff = got - np.array(ref)
        diff -= 2.0 * np.pi * np.rint(diff / (2.0 * np.pi))     # +-pi are one phase
        assert np.max(np.abs(diff)) <= 1e-15

    def test_s_values_memory_bounded(self):
        # the end and cut corrections are blocked like the plain sum: one
        # #z x (2 + #cuts) phase matrix over 16,001 z would take 7.6 MiB
        _, S = _kernels(0, 4096, 0.3)
        z = np.linspace(-40.0, 40.0, 16001)
        S.s_values(z[:2])                   # cut detection is cached on the rep
        tracemalloc.start()
        try:
            S.s_values(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_validate_class_rectangle_minimum(self, seed):
        # rows of constant Im z change the order of the psi samples, not
        # their minimum: the reference takes the columns, densely
        rep, _ = _kernels(seed, 1024, 0.3)
        re, im = np.linspace(-12.0, 12.0, 81), np.linspace(0.0, 12.0, 33)
        cols = (re[:, None] + 1j * im[None, :]).ravel()
        ref = float(np.min(np.abs(np.exp(-0.3j) + dense_transform(rep.g, cols, rep._cuts))))
        got = {c.name: c.measured for c in validate_class(rep).checks}
        assert abs(got["psi nonvanishing on closed UHP sample"] - ref) <= 1e-12 * ref
        assert got["sup supp g = gamma"] == support_supremum(rep.g)


class TestValidators:
    def test_zero_potential_fails_strict_support(self):
        q = Potential(SampledComplexFunction(make_grid(0, 1, 64), np.zeros(65, dtype=complex)))
        report = validate_class(q)
        assert not report.passed
        names = {c.name: c.passed for c in report.checks}
        assert names["sup supp q = gamma"] is False

    def test_constant_kernel_rep_passes(self):
        rep = JostRep(BoundaryParam(0.3),
                      SampledComplexFunction(make_grid(0, 1, 64),
                                             np.zeros(65, dtype=complex)))
        names = {c.name: c.passed for c in validate_class(rep).checks}
        # psi = e^{-i alpha} never vanishes; a zero kernel has no support
        # reaching gamma, and that is the only check it fails
        assert names == {"sup supp g = gamma": False,
                         "psi nonvanishing on closed UHP sample": True}

    def test_forward_pipeline_scattering_class(self):
        q = constant_potential(1.0, n=2048)
        rep = jost_kernel_direct(q, BoundaryParam(0.0))
        wi = invert_wiener(rep, 16.0)
        S = scattering_kernel(rep, wi, 16.0)
        report = validate_class(S, tol=1e-6)
        assert report.passed, report.lines()


class TestDomainObjects:
    def test_boundary_param_range(self):
        with pytest.raises(ValidationError):
            BoundaryParam(np.pi)
        with pytest.raises(ValidationError):
            BoundaryParam(-0.1)

    def test_resonance_set_sorted_and_validated(self):
        R = ResonanceSet(((3 - 1j, 1), (1 - 1j, 2)))
        assert abs(R.entries[0][0]) < abs(R.entries[1][0])
        assert R.total() == 3
        with pytest.raises(ValidationError):
            ResonanceSet(((1 + 1j, 1),))
        with pytest.raises(ValidationError):
            ResonanceSet(((1 - 1j, 0),))

    def test_modulus_ties_ordered_by_real_part(self):
        # z and -conj(z) of a symmetric psi tie in |z| up to rounding; a
        # last-bit difference must not decide their order
        w = 2.5788 - 0.7149j
        z = complex(-np.nextafter(2.5788, 3.0), -0.7149)
        assert abs(z) > abs(w)
        far = 2.9 - 1j                      # |far| < |-3 - 1j| despite Re order
        for entries in ((z, w, -3 - 1j, far), (far, -3 - 1j, w, z)):
            R = ResonanceSet(tuple((v, 1) for v in entries))
            assert [v for v, _ in R.entries] == [z, w, far, -3 - 1j]

    def test_merge(self):
        R = ResonanceSet(((1 - 1j, 1), (1 - 1j + 1e-12, 1)))
        assert R.merged(1e-9).entries[0][1] == 2

    def test_potential_json_round_trip(self, tmp_path):
        q = constant_potential(0.5 + 0.25j, n=32)
        obj = q.to_json()
        q2 = Potential.from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(q2.samples.values, q.samples.values)
        assert q2.pieces == q.pieces

    # pieces of synth seed 1 at n = 64 that fail to tile [0, 1]: one extra
    # piece over the first four, the first piece left out, an empty piece.
    # With the extra piece psi_values and jost_kernel_direct(...).psi once
    # differed by 2.8 on [-10, 10], each route reading its own q
    _UNTILED = {"overlap": lambda ps: ps + [[0.0, 0.5, 1.0, 0.0, 0.0]],
                "leave a gap": lambda ps: ps[1:],
                "spans no cell": lambda ps: ps + [[0.5, 0.5, 1.0, 0.0, 0.0]]}

    @pytest.mark.parametrize("what", sorted(_UNTILED))
    def test_pieces_must_tile(self, what):
        obj = random_piecewise_potential(1, n=64).to_json()
        obj["pieces"] = self._UNTILED[what](obj["pieces"])
        with pytest.raises(ValidationError, match=what):
            Potential.from_json(obj)
        q = random_piecewise_potential(1, n=64)
        pieces = tuple(Piece(lo, hi, complex(ar, ai), ch) for lo, hi, ar, ai, ch in obj["pieces"])
        with pytest.raises(ValidationError, match=what):
            Potential(q.samples, pieces)

    def test_samples_must_be_node_values_of_pieces(self):
        # zero samples under seed 1's pieces once loaded: psi came from the
        # pieces, norm_l2 (0.0) and validate_class from the zeros
        obj = random_piecewise_potential(1, n=64).to_json()
        obj["samples"] = [[0.0, 0.0]] * len(obj["samples"])
        with pytest.raises(ValidationError, match="node values of its pieces"):
            Potential.from_json(obj)

    def test_scattering_grid_has_a_node_at_zero(self):
        # with t_max = 8.1 the step is 9.1 / 576 and s = 0 falls between
        # nodes; such a file once inverted to a wrong potential, quietly
        rep = jost_kernel_direct(random_piecewise_potential(1, n=64), BoundaryParam(0.3))
        obj = scattering_kernel(rep).to_json()
        S = ScatteringRep.from_json(obj)
        assert (S.gamma, S.t_max, S.F.grid.nodes()[S.zero_node]) == (1.0, 8.0, 0.0)
        with pytest.raises(ValidationError, match="0.0 is not a node"):
            ScatteringRep.from_json({**obj, "t_max": 8.1})

    @pytest.mark.parametrize("field", ["amp_re", "chirp"])
    def test_pieces_must_be_finite(self, field):
        # a NaN amplitude once loaded, and psi_values at z = 1 then raised
        # the misleading "Jost propagation overflowed; reduce |Im z|"
        obj = constant_potential(1.0, n=16).to_json()
        obj["pieces"][0][{"amp_re": 2, "chirp": 4}[field]] = math.nan
        with pytest.raises(ValidationError, match=r"piece \[0\.0, 1\.0\) must have a finite"):
            Potential.from_json(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("z", [math.nan, math.inf, [0.5, complex(0.0, math.nan)]])
    def test_transforms_refuse_nonfinite_z(self, z):
        # both once returned NaN with numpy warnings
        rep, S = _kernels(1, 256, 0.3)
        for transform in (rep.psi, S.s_values):
            with pytest.raises(ValidationError, match="z must be finite"):
                transform(z)

    def test_cell_values_of_pieces_read_only(self):
        # the cells are expanded once, in Potential, and shared
        q = random_piecewise_potential(1, n=64)
        amps, chirps = q.cell_values()
        assert q.cell_values()[0] is amps
        assert not (amps.flags.writeable or chirps.flags.writeable)

    def test_support_supremum_floor(self):
        g = make_grid(0, 1, 100)
        vals = np.where(g.nodes() <= 0.5, 1.0, 0.0).astype(complex)
        f = SampledComplexFunction(g, vals)
        assert support_supremum(f) == pytest.approx(0.5)
