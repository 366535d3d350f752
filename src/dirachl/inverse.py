"""Inverse scattering: Wiener inversion, scattering kernel, GLM recovery.

Given the Jost kernel g (psi = e^{-i alpha} + Fourier transform of g), the
reciprocal kernel h with psi^{-1} = e^{i alpha} + Fourier transform of h
follows from expanding psi * psi^{-1} = 1 into the causal convolution
identity

    e^{-i alpha} h(s) + e^{i alpha} g(s) + (g*h)(s) = 0,   s >= 0,

which is a Volterra recursion because supp g, supp h lie in [0, inf).
The scattering kernel is then

    F = e^{i alpha} (h + r) + r*h,      r(s) = conj(g(-s)),

so that S = conj(psi) psi^{-1} = e^{2i alpha} + Fourier transform of F.
(Expanding (e^{i alpha} + r^)(e^{i alpha} + h^) forces the e^{+i alpha}
prefactor; the opposite sign fails the S agreement check for alpha != 0.)

Recovery runs the Gelfand-Levitan-Marchenko equation

    G(x, s) + Omega(x+s) + int_0^inf G(x, t) Omega(x+t+s) dt = 0,

with Omega built from F(-x), and reads off q(x) = -G12(x, 0).  The 2x2
system splits into two-component rows, and the second row is the
conjugate of the first, so only (G11, G12) is ever solved for.  The x = 0
line is solved once, by GMRES with FFT convolution mat-vecs, and
continued upward along characteristics with the trapezoid step of the
forward transformation-kernel march (`forward._characteristic_step`),
reading q(x) from the boundary as it goes.
The Wiener identity above is one lower-triangular Toeplitz solve, by a
power-series inverse with FFT products.  No step forms an n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .core import (
    BoundaryParam,
    JostRep,
    NumericalError,
    Potential,
    SampledComplexFunction,
    ScatteringRep,
    ValidationError,
    make_grid,
    support_infimum,
    support_supremum,
)
from .core import SUPPORT_FLOOR_REL, _convolve, _trapezoid_weights
from .forward import _characteristic_step, jost_kernel_direct

__all__ = [
    "WienerInverse",
    "OmegaKernel",
    "RecoveryReport",
    "invert_wiener",
    "scattering_kernel",
    "unimodularity_tolerance",
    "potential_to_scattering",
    "omega_kernel",
    "recover_potential",
    "recover_from_jost",
    "support_identities",
]


@dataclass(frozen=True)
class WienerInverse:
    """Kernel h of psi^{-1} on [0, T_h], with the relative tail mass of the
    last quarter of the window as a truncation diagnostic."""

    alpha: BoundaryParam
    h: SampledComplexFunction
    tail_mass: float


@dataclass(frozen=True)
class OmegaKernel:
    """Off-diagonal GLM kernel: entry (1,2) is F(-x) sampled on [0, gamma],
    entry (2,1) its conjugate; both vanish beyond gamma."""

    gamma: float
    k: SampledComplexFunction


@dataclass(frozen=True)
class RecoveryReport:
    support: float
    clamp_magnitude: float
    init_residual: float


def _series_inverse(c: np.ndarray, m: int) -> np.ndarray:
    """First m terms of the power series 1/c, by Newton's iteration
    b <- b (2 - c b), which doubles the correct terms per step (Brent &
    Kung 1978)."""
    b = np.array([1.0 / c[0]])
    while b.size < m:
        k = min(2 * b.size, m)
        b = np.pad(b, (0, k - b.size))
        e = _convolve(c, b, k)
        e[0] -= 1.0
        b = b - _convolve(b, e, k)
    return b


def invert_wiener(rep: JostRep, t_h: float | None = None,
                  tail_tol: float = 0.1) -> WienerInverse:
    """Solve the causal convolution identity for h as one lower-triangular
    Toeplitz system.

    With trapezoid weights, g~ = g with g_0 and g_{n_g} halved and h~ = h
    with h_0 halved, the sampled identity reads c * h~ = r for
    c = e^{-i alpha} delta + h_step g~ and r_j = -e^{i alpha} g_j, so
    h~ = (1/c) * r with 1/c from `_series_inverse`.  Row 0 carries the
    known h_0 = -e^{2i alpha} g_0.  Row n_g carries the full endpoint
    weight of g_{n_g} h_0 and the midpoint stored where h jumps with g at
    gamma.
    """
    gamma = rep.gamma
    if t_h is None:
        t_h = 8.0 * gamma
    h_step = rep.g.grid.h
    n_g = rep.g.grid.n
    n_h = int(round(t_h / h_step))
    if n_h < n_g:
        raise ValidationError("T_h must cover at least [0, gamma]")
    g = rep.g.values
    ea = np.exp(1j * rep.alpha.alpha)
    h0 = -ea * ea * g[0]
    c = h_step * g
    c[[0, n_g]] *= 0.5
    c[0] += np.conj(ea)
    if abs(c[0]) < 1e-12:
        raise NumericalError("Wiener recursion pivot vanished; kernel is singular")
    r = -ea * g
    r[0] = 0.5 * c[0] * h0
    r[n_g] += g[n_g] * (0.5 * c[0] * ea * ea - 0.25 * h_step * h0)
    hv = _convolve(_series_inverse(c, n_h + 1), r, n_h + 1)
    hv[0] = h0
    hfun = SampledComplexFunction(make_grid(0.0, n_h * h_step, n_h), hv)
    tail_start = 3 * (n_h + 1) // 4
    total = float(np.linalg.norm(hv)) or 1.0
    tail = float(np.linalg.norm(hv[tail_start:])) / total
    if tail > tail_tol:
        raise NumericalError(
            f"tail mass {tail:.3e} of the reciprocal kernel at T_h = {t_h:.3g} "
            f"exceeds {tail_tol:.1e}; increase T_h")
    return WienerInverse(rep.alpha, hfun, tail)


def scattering_kernel(rep: JostRep, wi: WienerInverse | None = None,
                      t_max: float | None = None,
                      check_tol: float | None = None) -> ScatteringRep:
    """Assemble F = e^{i alpha}(h + r) + r*h on [-gamma, t_max].

    r(s) = conj(g(-s)) lives on [-gamma, 0].  Interior-jump samples follow
    the midpoint convention, so the s = 0 node carries half of each
    one-sided limit.  With check_tol set, the re-evaluated S is compared
    against conj(psi)/psi from the kernel representation on real samples.
    """
    gamma = rep.gamma
    if t_max is None:
        t_max = 8.0 * gamma
    if wi is None:
        wi = invert_wiener(rep, max(t_max, 8.0 * gamma))
    hstep = rep.g.grid.h
    n_g = rep.g.grid.n
    n_t = int(round(t_max / hstep))
    n_h = wi.h.grid.n
    if n_h < n_t:
        raise ValidationError("Wiener inverse horizon shorter than t_max")
    ea = np.exp(1j * rep.alpha.alpha)

    hv = wi.h.values
    rv = np.conj(rep.g.values[::-1])          # r on [-gamma, 0], node j <-> -gamma + j h

    # r*h by trapezoid in t over [-gamma, 0]; result on [-gamma, t_max + ...].
    # Where the integrand crosses h's jump at 0 that node is interior, so the
    # convolution sees the midpoint value there (h vanishes on s < 0).
    wr = _trapezoid_weights(rep.g.grid)
    total = n_g + n_t                          # nodes on [-gamma, t_max]
    h_conv = hv.copy()
    h_conv[0] *= 0.5
    conv = _convolve(wr * rv, h_conv, total + 1)   # index k <-> s = -gamma + k h
    # at s = 0 the h(0) factor is the t = 0 integration endpoint, not an
    # interior crossing: restore its full value there
    conv[n_g] += wr[-1] * rv[-1] * (hv[0] - h_conv[0])

    F = np.zeros(total + 1, dtype=complex)
    F[: n_g + 1] += ea * rv                    # supp r = [-gamma, 0]
    F[n_g:] += ea * hv[: n_t + 1]              # supp h = [0, ...)
    F[n_g] -= 0.5 * ea * (rv[-1] + hv[0])      # midpoint convention at the s = 0 jump
    F += conv

    sr = ScatteringRep(rep.alpha, gamma, n_t * hstep,
                       SampledComplexFunction(make_grid(-gamma, n_t * hstep, total), F))
    inf_sup = support_infimum(sr.F)
    if inf_sup < -gamma - hstep - 1e-12:
        raise NumericalError("scattering kernel support extends below -gamma")
    if check_tol is not None:
        z = np.linspace(-6.0, 6.0, 241)
        psi = rep.psi(z)
        direct = np.conj(psi) / psi
        dev = float(np.max(np.abs(sr.s_values(z) - direct)))
        if dev > check_tol:
            raise NumericalError(
                f"re-evaluated S deviates from conj(psi)/psi by {dev:.3e} > {check_tol:.1e}")
    return sr


def unimodularity_tolerance(S: ScatteringRep) -> tuple[float, bool]:
    """(tolerance, decayed) for |S| = 1 on the real axis: the O(h^2 z) floor
    of the sampled kernel plus the mass of F cut off at t_max, estimated from
    the geometric decay of |F| over its last two eighths.  Without decay
    there is no estimate, and the floor stands alone."""
    h = S.F.grid.h
    floor = max(1e-6, 3.0 * h * h * 40.0 * max(1.0, S.F.norm_l1() ** 2))
    mag = np.abs(S.F.values)
    k = max(1, mag.size // 8)
    end, before = float(mag[-k:].mean()), float(mag[-2 * k:-k].mean())
    if not 0.0 < end < before:
        return floor, False
    return floor + end * k * h / math.log(before / end), True


def potential_to_scattering(q: Potential, alpha: BoundaryParam,
                            t_max: float | None = None) -> ScatteringRep:
    """Forward pipeline q -> g -> h -> F with the transformation-kernel route
    (second order up to the support edges)."""
    rep = jost_kernel_direct(q, alpha)
    return scattering_kernel(rep, None, t_max)


def omega_kernel(S: ScatteringRep) -> OmegaKernel:
    """GLM kernel entry (1,2): Omega12(x) = F(-x) on [0, gamma].

    The GLM only ever evaluates F on the closed negative side, so the u = 0
    sample must be the one-sided limit F(0-): the stored F sample at s = 0
    follows the jump-midpoint convention and is replaced by a short
    extrapolation from inside (-gamma, 0).
    """
    n_g = int(round(S.gamma / S.F.grid.h))
    kv = S.F.values[: n_g + 1][::-1].copy()    # F(-u) for u = 0..gamma
    if n_g >= 3:
        kv[0] = 3.0 * kv[1] - 3.0 * kv[2] + kv[3]
    return OmegaKernel(S.gamma, SampledComplexFunction(make_grid(0.0, S.gamma, n_g), kv))


def _solve_glm_line0(om: OmegaKernel, residual_tol: float = 1e-10):
    """GLM row (G11, G12)(0, .) from the composed single-unknown equation
    b - A conj(A) b = -k0, solved by GMRES.  A is the trapezoid-weighted
    Hankel operator (A v)_i = sum_j w_j k(s_i + t_j) v_j, applied as one
    FFT convolution (`_convolve`).  Raises NumericalError when GMRES stops
    without converging or the block residual exceeds residual_tol."""
    kv = om.k.values
    n = om.k.grid.n
    w = _trapezoid_weights(om.k.grid)

    def apply_A(v: np.ndarray, kern: np.ndarray) -> np.ndarray:
        u = w * v
        c = _convolve(kern[::-1], u, n + 1)[::-1]
        # halve the entries whose kernel argument sits exactly at gamma
        c[1:] -= 0.5 * kern[n] * u[-2::-1]
        return c

    def matvec(v: np.ndarray) -> np.ndarray:
        return v - apply_A(apply_A(v, np.conj(kv)), kv)

    op = spla.LinearOperator((n + 1, n + 1), matvec=matvec, dtype=complex)
    b, info = spla.gmres(op, -kv, rtol=1e-13, atol=0.0, maxiter=400, restart=80)
    a = -apply_A(b, np.conj(kv))
    # verify the block-system residual
    r1 = np.max(np.abs(a + apply_A(b, np.conj(kv))))
    r2 = np.max(np.abs(b + apply_A(a, kv) + kv))
    resid = float(max(r1, r2) / max(1.0, float(np.max(np.abs(kv)))))
    if info != 0 or resid > residual_tol:
        raise NumericalError(
            f"GLM line solve at x = 0 failed: GMRES info {info}, block residual "
            f"{resid:.3e} (tolerance {residual_tol:.1e})")
    return a, b, resid


def _march_recovery(om: OmegaKernel, a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Continue the x = 0 GLM line upward along characteristics, reading
    q(x) = -G12(x, 0) from the boundary at every step.

    The pair (d, o) = (G22, G12) = (conj G11, G12) obeys

        d/dx d = conj(q) o,   (d/dx - d/ds) o = q d,

    the forward kernel's pair run the other way, and is marched with the
    same `_characteristic_step`.  The cell value of q is corrected once per
    step: a predictor pass at the s = 0 node alone gives q at the next
    node, and the full line is then stepped with the mean of the two.
    """
    n = om.k.grid.n
    h = om.k.grid.h
    d = np.conj(a0)
    o = b0
    qhat = np.empty(n + 1, dtype=complex)
    qhat[0] = -o[0]
    for i in range(n):
        b = 0.5 * h * qhat[i]
        _, o0 = _characteristic_step(d[0], o[0], d[1], o[1], np.conj(b), b)
        b = 0.5 * h * (0.5 * (qhat[i] - o0))    # h/2 times the corrected cell value
        d, o = _characteristic_step(d[:-1], o[:-1], d[1:], o[1:], np.conj(b), b)
        qhat[i + 1] = -o[0]
    return qhat


def recover_potential(S: ScatteringRep, residual_tol: float = 1e-10,
                      with_report: bool = False):
    """Recover q(x) = -G12(x, 0) on [0, gamma] from a scattering representation.

    The GLM is solved once at x = 0 and the kernel continued upward along
    characteristics.  Values below the support floor at the far end are
    clamped to zero and the clamp magnitude reported.
    """
    om = omega_kernel(S)
    n = om.k.grid.n
    a0, b0, resid = _solve_glm_line0(om, residual_tol)
    qv = _march_recovery(om, a0, b0)

    sf = SampledComplexFunction(make_grid(0.0, S.gamma, n), qv)
    sup = support_supremum(sf)
    floor = SUPPORT_FLOOR_REL * float(np.max(np.abs(qv)) or 1.0)
    clamp = 0.0
    mask = np.abs(qv) <= floor
    if mask.any():
        clamp = float(np.max(np.abs(qv[mask])))
        qv = qv.copy()
        qv[mask] = 0.0
        sf = SampledComplexFunction(sf.grid, qv)
    pot = Potential(S.gamma, sf)
    if with_report:
        return pot, RecoveryReport(sup, clamp, resid)
    return pot


def recover_from_jost(rep: JostRep, t_max: float | None = None) -> Potential:
    """Compose Wiener inversion, the scattering kernel and GLM recovery."""
    return recover_potential(scattering_kernel(rep, t_max=t_max))


def support_identities(q: Potential, rep: JostRep, S: ScatteringRep) -> dict:
    """Measured support numbers sup supp q, sup supp g, -inf supp F and their
    pairwise differences; pass when all agree within one grid cell."""
    h = q.grid.h
    sq = support_supremum(q.samples)
    sg = support_supremum(rep.g)
    sF = -support_infimum(S.F)
    diffs = {
        "q_vs_g": abs(sq - sg),
        "q_vs_F": abs(sq - sF),
        "g_vs_F": abs(sg - sF),
    }
    return {
        "sup_supp_q": sq,
        "sup_supp_g": sg,
        "neg_inf_supp_F": sF,
        "differences": diffs,
        "pass": all(d <= h + 1e-12 for d in diffs.values()),
        "degenerate": bool(np.max(np.abs(q.samples.values)) == 0.0),
    }
