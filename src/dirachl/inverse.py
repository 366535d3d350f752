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

with Omega built from F(-x), and reads off q(x) = -G12(x, 0).  That is F
on [-gamma, 0] only, so recovery, from either representation, takes no
horizon.  The 2x2 system splits into two-component rows, and the second
row is the conjugate of the first, so only (G11, G12) is ever solved for.
The x = 0 line is solved once, by conjugate gradients (`_cg`) in the
trapezoid inner product, where the GLM operator is positive definite for
data in the class (a non-positive curvature raises), with one FFT pair
per Hankel product.  It is then continued upward along characteristics
with the trapezoid step of the forward transformation-kernel march
(`forward._characteristic_step`), reading q(x) from the boundary.  Each
step's coefficients come from the q just read, so this march goes one
line at a time, in place on preallocated line buffers.
The Wiener identity above is one banded lower-triangular Toeplitz solve,
in overlap-save blocks as long as g with FFT products.  No step forms an
n x n matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
from .core import (SUPPORT_FLOOR_REL, _check_t_max, _convolve, _fft_len,
                   _trapezoid_weights)
from .forward import _MARCH_BLOCK, _characteristic_step, jost_kernel_direct

__all__ = [
    "WienerInverse",
    "RecoveryReport",
    "invert_wiener",
    "scattering_kernel",
    "unimodularity_tolerance",
    "potential_to_scattering",
    "omega_kernel",
    "recover_potential",
    "support_identities",
]


@dataclass(frozen=True)
class WienerInverse:
    """Kernel h of psi^{-1} on [0, T_h] and the JostRep `rep` whose psi it
    inverts: `invert_wiener(rep)` made it, and only that same object may
    be given with it to `scattering_kernel`."""

    rep: JostRep
    h: SampledComplexFunction


@dataclass(frozen=True)
class RecoveryReport:
    support: float
    clamp_magnitude: float
    init_residual: float
    glm_iterations: int


def _series_inverse(c: np.ndarray) -> np.ndarray:
    """First m = len(c) terms of the power series 1/c, by Newton's iteration
    b <- b (2 - c b), which doubles the correct terms per step (Brent &
    Kung 1978)."""
    b = np.array([1.0 / c[0]])
    while b.size < c.size:
        k = min(2 * b.size, c.size)
        b = np.pad(b, (0, k - b.size))
        e = _convolve(c, b, k)
        e[0] -= 1.0
        b = b - _convolve(b, e, k)
    return b


def _banded_solve(c: np.ndarray, r: np.ndarray, n: int) -> np.ndarray:
    """First n terms of the series r/c for r, c of length m, in blocks of m
    by overlap-save (Stockham 1966): x_0 = (b*r)[:m] with b = 1/c to m
    terms, then x_k = -(b*y_k)[:m] with y_k = (c*x_{k-1})[m:2m], the part of
    the previous block that spills into this one.  Every product runs at
    `_fft_len`(2m - 1) points against the spectra of b and c."""
    m = c.size
    size = _fft_len(2 * m - 1)
    fb, fc = np.fft.fft(_series_inverse(c), size), np.fft.fft(c, size)
    x = np.empty(-(-n // m) * m, dtype=complex)
    x[:m] = np.fft.ifft(fb * np.fft.fft(r, size))[:m]
    for lo in range(m, n, m):
        y = np.fft.ifft(fc * np.fft.fft(x[lo - m:lo], size))[m:2 * m]
        x[lo:lo + m] = -np.fft.ifft(fb * np.fft.fft(y, size))[:m]
    return x[:n]


_TAIL_TOL = 0.1    # largest relative tail mass of h accepted at T_h
_HORIZON = 8.0     # default Wiener and scattering-kernel horizon, in units of gamma


def invert_wiener(rep: JostRep, t_h: float | None = None) -> WienerInverse:
    """Solve the causal convolution identity for h as one banded
    lower-triangular Toeplitz system.

    With trapezoid weights, g~ = g with g_0 and g_{n_g} halved and h~ = h
    with h_0 halved, the sampled identity reads c * h~ = r for
    c = e^{-i alpha} delta + h_step g~ and r_j = -e^{i alpha} g_j, so
    h~ = r/c.  c and r have the n_g + 1 terms of g, so `_banded_solve`
    marches h~ in blocks of n_g + 1 with 1/c to n_g + 1 terms only.  Row 0
    carries the known h_0 = -e^{2i alpha} g_0.  Row n_g carries the full
    endpoint weight of g_{n_g} h_0 and the midpoint stored where h jumps
    with g at gamma.
    """
    if t_h is None:
        t_h = _HORIZON * rep.gamma
    h_step = rep.g.grid.h
    n_g = rep.g.grid.n
    if not (math.isfinite(t_h) and round(t_h / h_step) >= n_g):
        raise ValidationError(f"t_h must be finite and cover at least [0, gamma], got {t_h!r}")
    n_h = int(round(t_h / h_step))
    g = rep.g.values
    ea = np.exp(1j * rep.alpha.alpha)
    h0 = -ea * ea * g[0]
    c = _trapezoid_weights(rep.g.grid) * g
    c[0] += np.conj(ea)
    if abs(c[0]) < 1e-12:
        raise NumericalError("Wiener recursion pivot vanished; kernel is singular")
    r = -ea * g
    r[0] = 0.5 * c[0] * h0
    r[n_g] += g[n_g] * (0.5 * c[0] * ea * ea - 0.25 * h_step * h0)
    hv = _banded_solve(c, r, n_h + 1)
    hv[0] = h0
    # relative mass of the last quarter of the window
    tail = float(np.linalg.norm(hv[3 * (n_h + 1) // 4:])) / (float(np.linalg.norm(hv)) or 1.0)
    if tail > _TAIL_TOL:
        raise NumericalError(
            f"tail mass {tail:.3e} of the reciprocal kernel at T_h = {t_h:.3g} "
            f"exceeds {_TAIL_TOL:.1e}; increase T_h")
    return WienerInverse(rep, SampledComplexFunction(make_grid(0.0, n_h * h_step, n_h), hv))


def scattering_kernel(rep: JostRep, wi: WienerInverse | None = None,
                      t_max: float | None = None) -> ScatteringRep:
    """Assemble F = e^{i alpha}(h + r) + r*h on [-gamma, t_max].

    r(s) = conj(g(-s)) lives on [-gamma, 0].  Interior-jump samples follow
    the midpoint convention, so the s = 0 node carries half of each
    one-sided limit.  A given `wi` must be `invert_wiener(rep)` of this
    same rep object (`wi.rep is rep`); an inverse of any other JostRep,
    equal or not, raises ValidationError.
    """
    gamma = rep.gamma
    if t_max is None:
        t_max = _HORIZON * gamma
    _check_t_max(t_max)
    if wi is None:
        wi = invert_wiener(rep, max(t_max, _HORIZON * gamma))
    elif wi.rep is not rep:
        raise ValidationError("the Wiener inverse belongs to another Jost kernel; "
                              "pass invert_wiener(rep) of this rep")
    hstep = rep.g.grid.h
    n_g = rep.g.grid.n
    n_t = int(round(t_max / hstep))
    ea = np.exp(1j * rep.alpha.alpha)
    hv = wi.h.values
    if wi.h.grid.n < n_t:
        raise ValidationError("Wiener inverse horizon shorter than t_max")

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

    return ScatteringRep(rep.alpha, SampledComplexFunction(make_grid(-gamma, n_t * hstep, total), F))


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


def omega_kernel(S: ScatteringRep) -> SampledComplexFunction:
    """GLM kernel entry (1,2): Omega12(x) = F(-x) on [0, gamma].  Entry
    (2,1) is its conjugate, and both vanish beyond gamma.

    The GLM only ever evaluates F on the closed negative side, so the u = 0
    sample must be the one-sided limit F(0-): the stored F sample at s = 0
    follows the jump-midpoint convention and is replaced by a short
    extrapolation from inside (-gamma, 0).
    """
    n_g = S.zero_node
    kv = S.F.values[: n_g + 1][::-1].copy()    # F(-u) for u = 0..gamma
    if n_g >= 3:
        kv[0] = 3.0 * kv[1] - 3.0 * kv[2] + kv[3]
    return SampledComplexFunction(make_grid(0.0, S.gamma, n_g), kv)


_KRYLOV_MAX = 80    # CG steps before the line solve gives up
_GLM_RESIDUAL_TOL = 1e-10    # largest block residual of the x = 0 line solve


def _cg(matvec, rhs: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """(x, iterations, converged) for matvec(x) = rhs by conjugate gradients
    from x = 0 (Hestenes & Stiefel 1952) in the inner product
    <u, v> = sum w conj(u) v, stopping once |r| <= 1e-13 |rhs| in its norm
    or after _KRYLOV_MAX steps.  matvec must be self-adjoint and positive
    definite there; a step of curvature <p, matvec(p)> <= 0 raises
    NumericalError instead of returning x."""
    x, r, p = np.zeros_like(rhs), rhs.copy(), rhs.copy()
    rho = np.vdot(r, w * r).real
    stop = 1e-26 * rho
    for its in range(_KRYLOV_MAX):
        if rho <= stop:
            return x, its, True
        tp = matvec(p)
        curvature = np.vdot(p, w * tp)
        if not curvature.real > 0.0:
            raise NumericalError(
                f"GLM line solve at x = 0 failed: the GLM operator is not positive definite "
                f"(curvature {curvature.real:.3e} at CG step {its + 1}): the data lie outside "
                f"the class or the grid does not resolve them; run `dirachl check` or refine n")
        step = rho / curvature
        x += step * p
        r -= step * tp
        rho, last = np.vdot(r, w * r).real, rho
        p = r + (rho / last) * p
    return x, _KRYLOV_MAX, bool(rho <= stop)


def _solve_glm_line0(k: SampledComplexFunction):
    """(a, b, block residual, CG iterations) for the GLM row (G11, G12)(0, .)
    from the composed single-unknown equation b - A conj(A) b = -k0, solved
    by `_cg` in the trapezoid inner product.  A is the weighted Hankel
    operator (A v)_i = sum_j w_j k(s_i + t_j) v_j, one FFT pair at
    `_fft_len`(2n + 1) points against the spectrum of the reversed k, taken
    once per solve; conj(A) v = conj(A conj(v)).  k(s + t) is symmetric in
    (s, t), so I - A conj(A) is self-adjoint in that product.  Raises
    NumericalError, with the iteration count and the block residual
    |b + A a + k0|, when CG stops without converging or the residual
    exceeds `_GLM_RESIDUAL_TOL`."""
    kv = k.values
    n = k.grid.n
    w = _trapezoid_weights(k.grid)
    size = _fft_len(2 * n + 1)
    spectrum = np.fft.fft(kv[::-1], size)
    edge = 0.5 * kv[n]

    def A(v: np.ndarray) -> np.ndarray:
        u = w * v
        c = np.fft.ifft(spectrum * np.fft.fft(u, size))[n::-1]
        # halve the entries whose kernel argument sits exactly at gamma
        c[1:] -= edge * u[-2::-1]
        return c

    b, its, converged = _cg(lambda v: v - A(np.conj(A(np.conj(v)))), -kv, w)
    a = -np.conj(A(np.conj(b)))    # the row a + conj(A) b = 0 holds by construction
    resid = float(np.max(np.abs(b + A(a) + kv)) / max(1.0, float(np.max(np.abs(kv)))))
    if not converged or resid > _GLM_RESIDUAL_TOL:
        state = "converged" if converged else "did not converge"
        raise NumericalError(
            f"GLM line solve at x = 0 failed: CG {state} in {its} iterations, "
            f"block residual {resid:.3e} (tolerance {_GLM_RESIDUAL_TOL:.1e})")
    return a, b, resid, its


def _march_recovery(k: SampledComplexFunction, a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Continue the x = 0 GLM line upward along characteristics, reading
    q(x) = -G12(x, 0) from the boundary at every step.

    The pair (d, o) = (G22, G12) = (conj G11, G12) obeys

        d/dx d = conj(q) o,   (d/dx - d/ds) o = q d,

    the forward kernel's pair run the other way, and is marched with the
    closed form of `_characteristic_step`.  The cell value of q is corrected
    once per step: a predictor `_characteristic_step` at the s = 0 node
    alone, on Python complex numbers, gives q at the next node, and the full
    line is then stepped with the mean of the two.  q comes from the line
    itself, so the coefficients are not known ahead and the march goes one
    line at a time; it runs in place, on two line buffers and two work
    buffers with `out=` arithmetic and one 1/(1 - ab) per step.  The views
    on them are taken once per block of `forward._MARCH_BLOCK` levels, over
    the block's first (longest) new line; the entries a later level adds
    past its own line end are never read by one inside it.
    """
    n = k.grid.n
    h = k.grid.h
    d = np.conj(a0)
    o = np.array(b0, dtype=complex)
    p = np.empty(n, dtype=complex)
    r = np.empty(n, dtype=complex)
    qhat = np.empty(n + 1, dtype=complex)
    q_i = -o.item(0)
    qhat[0] = q_i
    for start in range(0, n, _MARCH_BLOCK):
        m = n - start                            # nodes on the block's first new line
        p_m, r_m, d_m, o_m, d_sh, o_sh = p[:m], r[:m], d[:m], o[:m], d[1:m + 1], o[1:m + 1]
        for i in range(start, min(start + _MARCH_BLOCK, n)):
            b = 0.5 * h * q_i
            _, o_pred = _characteristic_step(d.item(0), o.item(0), d.item(1), o.item(1),
                                             b.conjugate(), b)
            b = 0.5 * h * (0.5 * (q_i - o_pred))     # h/2 times the corrected cell value
            a = b.conjugate()
            # _characteristic_step(d[:m], o[:m], d[1:], o[1:], a, b), written
            # over the old line: p = d + a o, r = o_sh + b d_sh,
            # d' = (p + a r) / (1 - a b), o' = r + b d'
            np.multiply(o_m, a, out=p_m)
            p_m += d_m
            np.multiply(d_sh, b, out=r_m)
            r_m += o_sh
            np.multiply(r_m, a, out=d_m)
            d_m += p_m
            d_m *= 1.0 / (1.0 - a * b)
            np.multiply(d_m, b, out=o_m)
            o_m += r_m
            q_i = -o.item(0)
            qhat[i + 1] = q_i
    return qhat


def recover_potential(S: ScatteringRep | JostRep, with_report: bool = False):
    """Recover q(x) = -G12(x, 0) on [0, gamma] from a ScatteringRep or a
    JostRep, whose F is built on [-gamma, 0] only (the Wiener inverse
    behind it keeps its own window and tail guard).

    The GLM is solved once at x = 0 and the kernel continued upward along
    characteristics.  Values below the support floor at the far end are
    clamped to zero and the clamp magnitude reported.
    """
    if isinstance(S, JostRep):
        S = scattering_kernel(S, t_max=0.0)
    k = omega_kernel(S)
    a0, b0, resid, its = _solve_glm_line0(k)
    qv = _march_recovery(k, a0, b0)

    sf = SampledComplexFunction(k.grid, qv)
    sup = support_supremum(sf)
    floor = SUPPORT_FLOOR_REL * float(np.max(np.abs(qv)) or 1.0)
    clamp = 0.0
    mask = np.abs(qv) <= floor
    if mask.any():
        clamp = float(np.max(np.abs(qv[mask])))
        qv = qv.copy()
        qv[mask] = 0.0
        sf = SampledComplexFunction(sf.grid, qv)
    pot = Potential(sf)
    if with_report:
        return pot, RecoveryReport(sup, clamp, resid, its)
    return pot


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
