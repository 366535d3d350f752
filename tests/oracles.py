"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's propagators: matrix
exponentials come from scipy.linalg.expm or an eigendecomposition written
directly from the 2x2 structure, zero hunting uses a brute-force grid
sweep refined by mpmath's Muller iteration, and integrals fall back to
very fine trapezoid sums.  The GLM reference solves each row system
densely (O(n^3) per node), and the Wiener reference marches node by node.
The scattering-phase reference sums the zeros one at a time in Python
loops, with the modeled tail in fixed 256-row blocks.  Kernel transforms
form every phase e^{2izs} explicitly, with no chirp-z route.  The two
characteristic marches are the per-line loops the library once ran, on
its one step formula `forward._characteristic_step`; the kernel loop also
runs in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.linalg as sla


def coefficient_matrix(c: complex, z: complex) -> np.ndarray:
    return np.array([[1j * z, c], [np.conj(c), -1j * z]])


def f0_constant(c: complex, gamma: float, z: complex) -> np.ndarray:
    """f(0, z) = expm(-A gamma) e^{i z gamma sigma3} for constant c."""
    term = np.diag([np.exp(1j * z * gamma), np.exp(-1j * z * gamma)])
    return sla.expm(-coefficient_matrix(c, z) * gamma) @ term


def f0_pieces(pieces, z: complex) -> np.ndarray:
    """Product of expm factors for a piecewise-constant potential given as
    (lo, hi, amplitude) triples tiling [0, gamma]; rightmost factor acts
    first when integrating backward from gamma."""
    gamma = pieces[-1][1]
    term = np.diag([np.exp(1j * z * gamma), np.exp(-1j * z * gamma)])
    out = term
    for lo, hi, amp in reversed(pieces):
        out = sla.expm(-coefficient_matrix(amp, z) * (hi - lo)) @ out
    return out


def psi_constant(c: complex, gamma: float, alpha: float, z) -> np.ndarray:
    """Jost function for a constant potential via the eigendecomposition
    mu = sqrt(|c|^2 - z^2) of the coefficient matrix (vectorized)."""
    z = np.asarray(z, dtype=complex)
    mu = np.sqrt(abs(c) ** 2 - z * z)
    small = np.abs(mu) < 1e-12
    mu_safe = np.where(small, 1.0, mu)
    ch = np.cosh(gamma * mu)
    sh = np.where(small, gamma, np.sinh(gamma * mu_safe) / mu_safe)
    f11 = (ch - 1j * z * sh) * np.exp(1j * z * gamma)
    f21 = -np.conj(c) * sh * np.exp(1j * z * gamma)
    ea = np.exp(-1j * alpha)
    return ea * f11 - np.conj(ea) * f21


def moved_psi(psi, moves):
    """z -> psi(z) prod (z - target) / (z - source) over the resonance
    moves: the Jost function a Blaschke update is exact for, by the
    rational factors themselves."""
    def moved(z):
        z = np.asarray(z, dtype=complex)
        fac = np.ones_like(z)
        for mv in moves:
            fac = fac * (z - mv.target) / (z - mv.source)
        return psi(z) * fac
    return moved


def dense_sweep_zeros(fn, re_lim, im_lim, step=0.05, refine_tol=1e-12):
    """Brute-force zero sweep: locate local minima of |fn| on a dense grid,
    then refine each candidate with mpmath's derivative-free Muller method."""
    res = np.arange(re_lim[0], re_lim[1] + step, step)
    ims = np.arange(im_lim[0], im_lim[1] + step, step)
    Z = res[None, :] + 1j * ims[:, None]
    vals = np.abs(fn(Z.ravel())).reshape(Z.shape)
    cands = []
    for i in range(1, vals.shape[0] - 1):
        for j in range(1, vals.shape[1] - 1):
            v = vals[i, j]
            if v < 0.5 and v <= vals[i - 1:i + 2, j - 1:j + 2].min():
                cands.append(Z[i, j])
    zeros = []
    for z0 in cands:
        try:
            root = mpmath.findroot(lambda t: complex(fn(np.array([complex(t)]))[0]),
                                   complex(z0), solver="muller", tol=refine_tol)
        except (ValueError, ZeroDivisionError):
            continue
        root = complex(root)
        if abs(fn(np.array([root]))[0]) > 1e-6:
            continue
        if not (re_lim[0] - 1e-9 <= root.real <= re_lim[1] + 1e-9
                and im_lim[0] - 1e-9 <= root.imag <= im_lim[1] + 1e-9):
            continue
        if all(abs(root - w) > 1e-6 for w in zeros):
            zeros.append(root)
    return sorted(zeros, key=abs)


def brute_transform(values: np.ndarray, grid_left: float, h: float, z) -> np.ndarray:
    """Plain fine trapezoid of int f(s) e^{2izs} ds."""
    s = grid_left + h * np.arange(len(values))
    w = np.full(len(values), h)
    w[0] = w[-1] = 0.5 * h
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return np.exp(2j * np.outer(z, s)) @ (w * values)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as hi + lo, each of at most 26 significant bits (Veltkamp)."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _phases(z: np.ndarray, s: np.ndarray) -> np.ndarray:
    """e^{2i z_k s_j} for every z_k and s_j.  The oscillating argument
    2 Re z s is taken as its rounded product plus the product's exact
    rounding error (Dekker), so the phase stays within a few rounding
    errors where 2 |Re z s| is large: the rounded product alone is off by
    up to half an ulp of it, 2.3e-13 at 2 |Re z s| = 3,600."""
    a, b = 2.0 * z.real[:, None], s[None, :]
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return np.exp(1j * p) * np.exp(1j * err) * np.exp(-2.0 * z.imag[:, None] * b)


def dense_plain_sum(f, z) -> np.ndarray:
    """Σ_j v_j e^{2iz s_j} over the nodes of f, every phase formed
    explicitly (`_phases`), in blocks of z of about 2^14 phase entries."""
    s = f.grid.nodes()
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    step = max(1, 2 ** 14 // s.size)
    return np.concatenate([_phases(zz[i:i + step], s) @ f.values
                           for i in range(0, zz.size, step)])


def dense_transform(f, z, cuts=()) -> np.ndarray:
    """The library's cut-node model of int f(s) e^{2izs} ds: the
    transform `core._linear_transform` builds for (grid, z, cuts), applied
    to the values of f and their plain sum from `dense_plain_sum`."""
    from dirachl.core import _linear_transform

    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    return _linear_transform(f.grid, zz, cuts)(f.values, dense_plain_sum(f, zz))


def segment_transform(f, z, structural=()) -> np.ndarray:
    """int f(s) e^{2izs} ds as a sum of per-segment piecewise-linear
    transforms: the samples are split at the structural nodes plus the
    detected jump nodes (3 <= j <= n-3, at least 4 apart), each split node
    replaced in each segment by that side's cubic extrapolation."""
    from dirachl.core import Grid, SampledComplexFunction, _detect_jump_nodes

    n = f.grid.n
    raw = sorted({j for j in list(structural) + _detect_jump_nodes(f.values)
                  if 3 <= j <= n - 3})
    cuts = []
    for j in raw:
        if not cuts or j - cuts[-1] >= 4:
            cuts.append(j)
    bounds = [0] + cuts + [n]
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    total = np.zeros(zz.shape, dtype=complex)
    nodes = f.grid.nodes()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg = f.values[lo: hi + 1].copy()
        if lo != 0:
            seg[0] = 3.0 * seg[1] - 3.0 * seg[2] + seg[3]
        if hi != n:
            seg[-1] = 3.0 * seg[-2] - 3.0 * seg[-3] + seg[-4]
        total += dense_transform(SampledComplexFunction(Grid(nodes[lo], nodes[hi], hi - lo), seg), zz)
    return total


def _expm_traceless_stack(B: np.ndarray, t) -> np.ndarray:
    """exp(t*B) for traceless 2x2 stacks via the cosh/sinh closed form."""
    lam2 = B[..., 0, 0] ** 2 + B[..., 0, 1] * B[..., 1, 0]
    lam = np.sqrt(lam2.astype(complex))
    tl = t * lam
    ch = np.cosh(tl)
    small = np.abs(tl) < 1e-6
    lam_safe = np.where(small, 1.0, lam)
    sh_over = np.where(small, t * (1.0 + tl ** 2 / 6.0), np.sinh(tl) / lam_safe)
    out = sh_over[..., None, None] * B
    out[..., 0, 0] += ch
    out[..., 1, 1] += ch
    return out


def expm_traceless_one_step(b00, b01, b10, t):
    """exp(t B) for B = [[b00, b01], [b10, -b00]] as the library formed it
    before it halved t: the six-term Horner series in mu = (t lam)^2 where
    max|t|^2 (max|b00|^2 + max|b01 b10|) <= 0.05, else cosh and sinh of
    t lam.  With no halving, and above the halving cap, the library's
    entries (e00, e01, e10, e11) must equal these bit for bit."""
    def horner(coeffs, mu):
        acc = coeffs[0] * mu
        for c in coeffs[1:-1]:
            acc += c
            acc *= mu
        acc += coeffs[-1]
        return acc

    lam2 = b00 * b00 + b01 * b10
    bound = float(np.max(t * t)) * (float(np.max(np.abs(b00))) ** 2
                                    + float(np.max(np.abs(b01 * b10))))
    if bound <= 0.05:
        mu = (t * t) * lam2
        ch = horner([1.0 / math.factorial(2 * j) for j in reversed(range(6))], mu)
        sh_over = horner([1.0 / math.factorial(2 * j + 1) for j in reversed(range(6))], mu)
        sh_over *= t
    else:
        lam = np.sqrt(lam2 + 0j)
        tl = t * lam
        ch = np.cosh(tl)
        small = np.abs(tl) < 1e-6
        lam_safe = np.where(small, 1.0, lam)
        sh_over = np.where(small, t * (1.0 + tl ** 2 / 6.0), np.sinh(tl) / lam_safe)
    e01, e10 = sh_over * b01, sh_over * b10
    sh_over *= b00
    e00 = ch + sh_over
    ch -= sh_over
    return e00, e01, e10, ch


def _sigma3_phase(theta: np.ndarray) -> np.ndarray:
    """diag(e^{i theta}, e^{-i theta}) as a batched matrix."""
    out = np.zeros(np.shape(theta) + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(1j * theta)
    out[..., 1, 1] = np.exp(-1j * theta)
    return out


def propagate_sequential(q, z: np.ndarray) -> np.ndarray:
    """f(0, z) by multiplying the exact per-segment propagators one segment
    at a time, backward from gamma, with batched 2x2 matmuls: one factor
    per exact piece (chirp gauged by e^{-ikx sigma3}), else one per cell."""
    z = np.asarray(z, dtype=complex)
    if q.pieces is not None:
        segs = [(p.lo, p.hi, complex(p.amp), float(p.chirp)) for p in q.pieces]
    else:
        amps, _ = q.cell_values()
        nodes = q.grid.nodes()
        segs = [(nodes[j], nodes[j + 1], amps[j], 0.0) for j in range(q.grid.n)]
    f = _sigma3_phase(z * q.gamma)
    for lo, hi, amp, k in reversed(segs):
        B = np.empty(z.shape + (2, 2), dtype=complex)
        B[..., 0, 0] = 1j * (z - k)
        B[..., 0, 1] = amp
        B[..., 1, 0] = np.conj(amp)
        B[..., 1, 1] = -1j * (z - k)
        step = _expm_traceless_stack(B, -(hi - lo))
        if k != 0.0:
            step = (_sigma3_phase(np.full(z.shape, k * lo)) @ step
                    @ _sigma3_phase(np.full(z.shape, -k * hi)))
        f = step @ f
    return f


def transfer_prefix(q, z: complex, at) -> np.ndarray:
    """f(x_j, z) f(0, z)^{-1} at the node indices `at`, by multiplying the
    per-cell forward steps one cell at a time from x = 0: each cell's
    constant coefficient (after the chirp gauge e^{-ikx sigma3}) is
    exponentiated by scipy.linalg.expm."""
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    want = set(int(j) for j in at)
    P = np.eye(2, dtype=complex)
    out = {}
    for j in range(q.grid.n + 1):
        if j in want:
            out[j] = P.copy()
        if j == q.grid.n:
            break
        lo, hi, k = nodes[j], nodes[j + 1], chirps[j]
        step = sla.expm(coefficient_matrix(amps[j], z - k) * (hi - lo))
        P = _sigma3_phase(k * hi) @ step @ _sigma3_phase(-k * lo) @ P
    return np.array([out[int(j)] for j in at])


def wiener_loop(g: np.ndarray, h_step: float, alpha: float, n_h: int) -> np.ndarray:
    """Reciprocal kernel h by forward marching the trapezoid-discretised
    identity e^{-i alpha} h + e^{i alpha} g + g*h = 0 one node at a time
    (O(n_g n_h)); h_j enters row j only through the g(0) endpoint."""
    n_g = g.size - 1
    ea = np.exp(1j * alpha)
    hv = np.zeros(n_h + 1, dtype=complex)
    hv[0] = -ea * ea * g[0]
    denom = np.conj(ea) + 0.5 * h_step * g[0]
    for j in range(1, n_h + 1):
        jmax = min(j, n_g)
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
            # h jumps at gamma along with g: the node stores the midpoint
            hv[j] += 0.5 * ea * ea * g[n_g]
    return hv


@dataclass(frozen=True)
class GlmRows:
    """Solution rows of the GLM equation at one x: G11, G12 on [0, gamma-x]
    (row 2 follows by conjugation: G21 = conj(G12), G22 = conj(G11))."""

    g11: np.ndarray
    g12: np.ndarray
    residual: float

    @property
    def g21(self) -> np.ndarray:
        return np.conj(self.g12)


def glm_matrix(k, jx: int) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Nystrom matrix A[i, j] = w_j k(x + s_i + t_j) and the data
    vector k(x + s) on the row grid [0, gamma - x], with the support cutoff
    at argument gamma handled by the jump-midpoint convention."""
    kv = k.values
    n = k.grid.n
    h = k.grid.h
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
    # data term; the corner value at argument gamma is the inside limit
    return kmat * w[None, :], kv[jx:].copy()


def solve_glm(k, x: float, residual_tol: float = 1e-10) -> GlmRows:
    """Dense LU solve of the two-component row system at the node x.

    Unknowns a = G11(x, .), b = G12(x, .) satisfy a + conj(A) b = 0 and
    b + A a = -k_x; b solves the dense Schur complement (I - A conj(A)) b
    = -k_x, and the block residual is checked against residual_tol.
    """
    n = k.grid.n
    jx = int(round(x / k.grid.h))
    if jx == n:
        # single-point row: the integral term is empty and b(0) = -k(gamma)
        return GlmRows(np.zeros(2, dtype=complex), np.array([-k.values[-1], 0.0]), 0.0)
    if jx > n:
        return GlmRows(np.zeros(2, dtype=complex), np.zeros(2, dtype=complex), 0.0)
    A, kx = glm_matrix(k, jx)
    Ac = np.conj(A)
    b = sla.solve(np.eye(kx.size) - A @ Ac, -kx)
    a = -Ac @ b
    resid = float(max(np.max(np.abs(a + Ac @ b)), np.max(np.abs(b + A @ a + kx)))
                  / max(1.0, np.max(np.abs(kx))))
    assert resid <= residual_tol, f"dense GLM residual {resid:.3e}"
    return GlmRows(a, b, resid)


def recover_dense(k) -> np.ndarray:
    """q(x_j) = -G12(x_j, 0) from an independent dense solve at every node."""
    h = k.grid.h
    return np.array([-solve_glm(k, j * h).g12[0] for j in range(k.grid.n + 1)])


# ---------------------------------------------------------------------------
# characteristic marches one line at a time: the per-level loops the library
# once used, with fresh line arrays per step
# ---------------------------------------------------------------------------

def march_kernel_loop(q, alpha: float, dtype=complex) -> np.ndarray:
    """Jost kernel g by the transformation-kernel march, one
    `_characteristic_step` per line from x = gamma down.  The coefficients
    and boundary data are formed in float64; with dtype=np.clongdouble the
    march itself runs in extended precision, which measures the rounding
    of the float64 march."""
    from dirachl.core import _node_values
    from dirachl.forward import _characteristic_step

    n, h = q.grid.n, q.grid.h
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    cell_at = amps * np.exp(2j * chirps * 0.5 * (nodes[:-1] + nodes[1:]))
    a_cell = (-0.5 * h * cell_at).astype(dtype)
    b_cell = np.conj(a_cell)
    o_edge = (-np.conj(_node_values(q.grid, amps, chirps))).astype(dtype)

    d = np.zeros(1, dtype=dtype)
    o = o_edge[-1:]
    for i in range(n - 1, -1, -1):
        a, b = a_cell[i], b_cell[i]
        d_new = np.empty(d.size + 1, dtype=dtype)
        o_new = np.empty(d.size + 1, dtype=dtype)
        d_new[1:-1], o_new[1:-1] = _characteristic_step(d[1:], o[1:], d[:-1], o[:-1], a, b)
        o_new[0] = o_edge[i]
        d_new[0] = d[0] + a * (o[0] + o_new[0])
        d_new[-1] = 0.0
        o_new[-1] = o[-1] + b * d[-1]
        d, o = d_new, o_new
    ea = np.exp(-1j * np.asarray(alpha, dtype=dtype))
    return ea * d - np.conj(ea) * o


def march_recovery_loop(k, a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """q(x) = -G12(x, 0) by continuing the x = 0 GLM line upward one
    `_characteristic_step` at a time: a predictor step of the s = 0 node
    alone, then the full line with the corrected cell value."""
    from dirachl.forward import _characteristic_step

    n = k.grid.n
    h = k.grid.h
    d = np.conj(a0)
    o = b0
    qhat = np.empty(n + 1, dtype=complex)
    qhat[0] = -o[0]
    for i in range(n):
        b = 0.5 * h * qhat[i]
        _, o0 = _characteristic_step(d[0], o[0], d[1], o[1], np.conj(b), b)
        b = 0.5 * h * (0.5 * (qhat[i] - o0))
        d, o = _characteristic_step(d[:-1], o[:-1], d[1:], o[1:], np.conj(b), b)
        qhat[i + 1] = -o[0]
    return qhat


# ---------------------------------------------------------------------------
# scattering phase, zero by zero: the per-zero Python loops, the per-node
# derivative loop and the 256-row tail closures the library once used
# ---------------------------------------------------------------------------

def hadamard_loop(R, psi0: complex, gamma: float, z: complex, r_cut: float) -> complex:
    """psi(0) e^{i gamma z} prod_{|z_n| <= r_cut} (1 - z/z_n)^m, one factor
    at a time in modulus order."""
    out = complex(psi0) * np.exp(1j * gamma * complex(z))
    for z_n, m in R.entries:
        if abs(z_n) > r_cut:
            break
        out *= (1.0 - complex(z) / z_n) ** m
    return out


def phase_derivative_loop(R, gamma: float, z: float, r_cut: float) -> float:
    """gamma + sum over |z_n| <= r_cut of m Im z_n / |z - z_n|^2."""
    acc = gamma
    for z_n, m in R.entries:
        if abs(z_n) > r_cut:
            break
        acc += m * z_n.imag / abs(z - z_n) ** 2
    return float(acc)


def _phase_sum_loop(R, gamma: float, z: np.ndarray, r_cut: float) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    acc = gamma * z.astype(complex).real.copy()
    for z_n, m in R.entries:
        if abs(z_n) > r_cut:
            break
        acc = acc + m * (np.angle(z - z_n) - np.angle(-z_n))
    return acc


def _tail_closures(R, gamma: float, r_cut: float):
    """(Phi, Phi') of the modeled zeros beyond r_cut: a lattice of spacing
    pi/gamma from the last located zero on each side out to 300 r_cut, with
    depths a + b ln|t| fitted to the outer located zeros (|z_n| <= r_cut),
    or the deepest located zero's depth when fewer than 4 are outer.  No
    located zero: no tail."""
    located = [(z, m) for z, m in R.entries if abs(z) <= r_cut]
    if not located or gamma <= 0.0:
        zero = lambda z: np.zeros(np.shape(np.atleast_1d(z)))
        return zero, zero
    outer = [(abs(z), -z.imag) for z, m in located
             for _ in range(m) if 0.45 * r_cut <= abs(z)]
    if len(outer) >= 4:
        b, a = np.polyfit(np.log([t for t, _ in outer]), [d for _, d in outer], 1)
    else:
        a, b = max(-z.imag for z, _ in located), 0.0
    spacing = np.pi / gamma
    horizon = max(300.0 * r_cut, 3000.0)
    lattices = []
    for sign in (+1.0, -1.0):
        side = [abs(z) for z, _ in located if (z.real >= 0) == (sign > 0)]
        t_last = max(side) if side else r_cut - 0.5 * spacing
        k = np.arange(1, int((horizon - t_last) / spacing) + 1)
        lattices.append(sign * (t_last + spacing * k))
    t_all = np.concatenate(lattices)
    zeros = t_all - 1j * np.maximum(a + b * np.log(np.abs(t_all)), 1e-3)
    base = np.angle(-zeros)

    def tail_phi(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.empty(z.shape)
        for lo in range(0, z.size, 256):
            blk = z[lo: lo + 256, None]
            out[lo: lo + 256] = np.sum(np.angle(blk - zeros) - base, axis=1)
        return out

    def tail_dphi(z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.empty(z.shape)
        for lo in range(0, z.size, 256):
            blk = z[lo: lo + 256, None]
            out[lo: lo + 256] = np.sum(zeros.imag / np.abs(blk - zeros) ** 2, axis=1)
        return out

    return tail_phi, tail_dphi


def phase_profile_loop(R, gamma: float, alpha: float, nodes: np.ndarray,
                       r_cut: float, z_limit: float):
    """(phi, dphi, phi0, slope, spread) of the tail-restored phase with the
    offset and drift fitted on window-weighted calibration points in
    [z_limit/2, z_limit] on both sides (capped at 0.9 r_cut)."""
    zcal = min(z_limit, 0.9 * r_cut)
    tail_phi, tail_dphi = _tail_closures(R, gamma, r_cut)
    npts = 64
    zplus = np.linspace(0.5 * zcal, zcal, npts)
    wts = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(npts) / (npts - 1)))
    zboth = np.concatenate([zplus, -zplus])
    wboth = np.sqrt(np.concatenate([wts, wts]))
    vals = _phase_sum_loop(R, gamma, zboth, r_cut) + tail_phi(zboth)
    design = np.stack([zboth, np.ones_like(zboth), 1.0 / zboth], axis=1)
    sol, *_ = np.linalg.lstsq(design * wboth[:, None], (vals + alpha) * wboth, rcond=None)
    slope, c0 = float(sol[0]), float(sol[1])
    spread = float(np.max(np.abs((vals + alpha - design @ sol) * wboth)))
    phi = _phase_sum_loop(R, gamma, nodes, r_cut) + tail_phi(nodes) - slope * nodes - c0
    dphi = (np.array([phase_derivative_loop(R, gamma, x, r_cut) for x in nodes])
            + tail_dphi(nodes) - slope)
    phi0 = float(_phase_sum_loop(R, gamma, np.array([0.0]), r_cut)[0] + tail_phi(0.0)[0] - c0)
    return phi, dphi, phi0, slope, spread
