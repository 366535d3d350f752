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
conjugate of the first, so only (G11, G12) is ever solved for.  Per-x
dense Nystrom solves (`solve_glm`) are exact but O(n^3) each, so
`recover_potential` uses them only on small grids; otherwise it solves the
x = 0 line once and continues it upward with the same characteristics
marching the forward transformation kernel uses, reading q(x) from the
boundary as it goes.  Both agree to O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .core import (
    BoundaryParam,
    Grid,
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
from .core import SUPPORT_FLOOR_REL

__all__ = [
    "WienerInverse",
    "OmegaKernel",
    "GlmRows",
    "RecoveryReport",
    "invert_wiener",
    "scattering_kernel",
    "unimodularity_tolerance",
    "potential_to_scattering",
    "omega_kernel",
    "solve_glm",
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
class GlmRows:
    """Solution rows of the GLM equation at one x: G11, G12 on [0, gamma-x]
    (rows 2 follow by conjugation: G21 = conj(G12), G22 = conj(G11))."""

    x: float
    grid: Grid
    g11: np.ndarray
    g12: np.ndarray
    residual: float

    @property
    def g21(self) -> np.ndarray:
        return np.conj(self.g12)

    @property
    def g22(self) -> np.ndarray:
        return np.conj(self.g11)


@dataclass(frozen=True)
class RecoveryReport:
    support: float
    clamp_magnitude: float
    init_residual: float


def invert_wiener(rep: JostRep, t_h: float | None = None,
                  tail_tol: float = 0.1) -> WienerInverse:
    """Solve the causal convolution identity for h by forward marching.

    Trapezoid weights make each step implicit in h(s_j) only through the
    g(0) endpoint, so the recursion is explicit after one division.
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
    hv = np.zeros(n_h + 1, dtype=complex)
    hv[0] = -ea * ea * g[0]
    denom = np.conj(ea) + 0.5 * h_step * g[0]
    if abs(denom) < 1e-12:
        raise NumericalError("Wiener recursion pivot vanished; kernel is singular")
    for j in range(1, n_h + 1):
        jmax = min(j, n_g)
        # trapezoid of int_0^{s_j} g(t) h(s_j - t) dt, unknown h_j appears
        # only through the t = 0 endpoint
        acc = 0.5 * g[jmax] * hv[j - jmax] if jmax == n_g and j > n_g else 0.0
        if jmax >= 1:
            t_idx = np.arange(1, jmax + (0 if (jmax == n_g and j > n_g) else 1))
            if t_idx.size:
                w = np.ones(t_idx.size)
                if t_idx[-1] == j:       # t = s_j endpoint (only when j <= n_g)
                    w[-1] = 0.5
                acc = acc + np.dot(w * g[t_idx], hv[j - t_idx])
        gj = g[j] if j <= n_g else 0.0
        hv[j] = -(ea * gj + h_step * acc) / denom
        if j == n_g:
            # h jumps at gamma along with g; later rows and all consumers
            # see this node as an interior jump, so store the midpoint
            hv[j] += 0.5 * ea * ea * g[n_g]
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
    wr = np.full(n_g + 1, hstep)
    wr[0] = wr[-1] = 0.5 * hstep
    h_conv = hv.copy()
    h_conv[0] *= 0.5
    conv = np.convolve(wr * rv, h_conv)       # index k <-> s = -gamma + k h
    # at s = 0 the h(0) factor is the t = 0 integration endpoint, not an
    # interior crossing: restore its full value there
    conv[n_g] += wr[-1] * rv[-1] * (hv[0] - h_conv[0])

    total = n_g + n_t                          # nodes on [-gamma, t_max]
    F = np.zeros(total + 1, dtype=complex)
    F[: n_g + 1] += ea * rv                    # supp r = [-gamma, 0]
    F[n_g:] += ea * hv[: n_t + 1]              # supp h = [0, ...)
    F[n_g] -= 0.5 * ea * (rv[-1] + hv[0])      # midpoint convention at the s = 0 jump
    F += conv[: total + 1]

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
    from .forward import jost_kernel_direct

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


def _glm_matrix(om: OmegaKernel, jx: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Nystrom matrix A[i, j] = w_j k(x + s_i + t_j) and the data
    vector k(x + s) on the row grid [0, gamma - x], with the support cutoff
    at argument gamma handled by the jump-midpoint convention."""
    kv = om.k.values
    n = om.k.grid.n
    h = om.k.grid.h
    m = n - jx
    w = np.full(m + 1, h)
    w[0] = w[-1] = 0.5 * h
    idx = jx + np.add.outer(np.arange(m + 1), np.arange(m + 1))
    kmat = np.zeros_like(idx, dtype=complex)
    inside = idx <= n
    kmat[inside] = kv[idx[inside]]
    # argument hits gamma strictly inside the t-range for rows i >= 1
    anti = idx == n
    anti[0, :] = False
    kmat[anti] *= 0.5
    A = kmat * w[None, :]
    kx = np.zeros(m + 1, dtype=complex)
    kx[: n - jx + 1] = kv[jx:]                 # data term; the corner value at
    return A, kx                               # argument gamma is the inside limit


def solve_glm(om: OmegaKernel, x: float, grid: Grid | None = None,
              residual_tol: float = 1e-10) -> GlmRows:
    """Dense LU solve of the two-component row system at one x.

    Unknowns a = G11(x, .), b = G12(x, .) satisfy a + conj(A) b = 0 and
    b + A a = -k_x; the stacked system is solved directly and the linear
    residual is verified.
    """
    n = om.k.grid.n
    h = om.k.grid.h
    if x < -1e-12:
        raise ValidationError("x must be nonnegative")
    jx = int(round(x / h))
    if abs(jx * h - x) > 1e-9 * max(1.0, abs(x)):
        raise ValidationError("x must be a node of the kernel grid")
    if jx == n:
        # single-point row: the integral term is empty and b(0) = -k(gamma)
        g = make_grid(0.0, h, 1)
        b = np.array([-om.k.values[-1], 0.0])
        return GlmRows(x, g, np.zeros(2, dtype=complex), b, 0.0)
    if jx > n:
        g = grid or make_grid(0.0, h, 1)
        zero = np.zeros(g.n + 1, dtype=complex)
        return GlmRows(x, g, zero, zero, 0.0)
    A, kx = _glm_matrix(om, jx)
    m = A.shape[0] - 1
    M = np.block([[np.eye(m + 1), np.conj(A)], [A, np.eye(m + 1)]])
    rhs = np.concatenate([np.zeros(m + 1), -kx])
    try:
        sol = sla.solve(M, rhs)
    except sla.LinAlgError as exc:
        cond = np.linalg.cond(M)
        raise NumericalError(f"GLM system singular (cond ~ {cond:.3e})") from exc
    resid = float(np.max(np.abs(M @ sol - rhs)) / max(1.0, np.max(np.abs(rhs))))
    if resid > residual_tol:
        cond = np.linalg.cond(M)
        raise NumericalError(
            f"GLM residual {resid:.3e} exceeds {residual_tol:.1e} (cond ~ {cond:.3e})")
    a = sol[: m + 1]
    b = sol[m + 1:]
    return GlmRows(x, make_grid(0.0, m * h, m), a, b, resid)


def _solve_glm_line0(om: OmegaKernel, residual_tol: float = 1e-10):
    """GLM row at x = 0 via the composed single-unknown equation
    b - A conj(A) b = -k0, solved by GMRES with convolution matvecs and a
    dense fallback."""
    kv = om.k.values
    n = om.k.grid.n
    h = om.k.grid.h
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    kg = kv[-1]

    def apply_A(v: np.ndarray, kern: np.ndarray) -> np.ndarray:
        u = w * v
        c = np.convolve(kern, u[::-1])[n: 2 * n + 1]
        # halve the entries whose kernel argument sits exactly at gamma
        i = np.arange(1, n + 1)
        c[i] -= 0.5 * w[n - i] * kern[n] * v[n - i]
        return c

    def matvec(v: np.ndarray) -> np.ndarray:
        return v - apply_A(apply_A(v, np.conj(kv)), kv)

    kx = kv.copy()
    op = spla.LinearOperator((n + 1, n + 1), matvec=matvec, dtype=complex)
    b, info = spla.gmres(op, -kx, rtol=1e-13, atol=0.0, maxiter=400, restart=80)
    a = -apply_A(b, np.conj(kv))
    # verify the block-system residual
    r1 = np.max(np.abs(a + apply_A(b, np.conj(kv))))
    r2 = np.max(np.abs(b + apply_A(a, kv) + kx))
    resid = float(max(r1, r2) / max(1.0, float(np.max(np.abs(kx)))))
    if info != 0 or resid > residual_tol:
        rows = solve_glm(om, 0.0, residual_tol=residual_tol)
        return rows.g11, rows.g12, rows.residual
    return a, b, resid


def _march_recovery(om: OmegaKernel, a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Continue the x = 0 GLM line upward along characteristics, reading
    q(x) = -G12(x, 0) from the boundary at every step.

    The pair (d2, o1) = (G22, G12) = (conj G11, G12) obeys

        d/dx d2 = conj(q) o1,   (d/dx - d/ds) o1 = q d2,

    marched with trapezoid predictor-corrector steps; the cell value of q
    is itself corrected once per step.
    """
    n = om.k.grid.n
    h = om.k.grid.h
    d2 = np.conj(a0).copy()
    o1 = b0.copy()
    qhat = np.empty(n + 1, dtype=complex)
    qhat[0] = -o1[0]
    for i in range(n):
        m_new = n - i - 1
        qc = qhat[i]
        for _ in range(2):
            c1 = 0.5 * h * qc
            c2c = 0.5 * h * np.conj(qc)
            denom = 1.0 - c1 * c2c
            j = np.arange(m_new + 1)
            P = d2[j] + c2c * o1[j]
            R = o1[j + 1] + c1 * d2[j + 1]
            o_new = (R + c1 * P) / denom
            d_new = P + c2c * o_new
            q_next = -o_new[0]
            qc = 0.5 * (qhat[i] + q_next)
        d2, o1 = d_new, o_new
        qhat[i + 1] = q_next
    return qhat


def recover_potential(S: ScatteringRep, grid: Grid | None = None,
                      residual_tol: float = 1e-10, with_report: bool = False):
    """Recover q(x) = -G12(x, 0) on [0, gamma] from a scattering representation.

    Grids with at most 192 cells run an independent Nystrom
    solve at every node (O(n^3) each); larger grids solve the GLM once at
    x = 0 and continue the kernel upward.  Values below the support floor
    at the far end are clamped to zero and the clamp magnitude reported.
    """
    om = omega_kernel(S)
    n = om.k.grid.n
    h = om.k.grid.h
    if grid is not None:
        if grid.n != n or abs(grid.h - h) > 1e-12 * h:
            raise ValidationError("target grid must match the kernel grid on [0, gamma]")
    if n <= 192:
        qv = np.empty(n + 1, dtype=complex)
        resid = 0.0
        for j in range(n + 1):
            rows = solve_glm(om, j * h, residual_tol=residual_tol)
            qv[j] = -rows.g12[0]
            resid = max(resid, rows.residual)
    else:
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


def recover_from_jost(rep: JostRep, grid: Grid | None = None,
                      t_max: float | None = None) -> Potential:
    """Compose Wiener inversion, the scattering kernel and GLM recovery."""
    wi = invert_wiener(rep, t_max if t_max is not None else 8.0 * rep.gamma)
    S = scattering_kernel(rep, wi, t_max)
    return recover_potential(S, grid)


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
