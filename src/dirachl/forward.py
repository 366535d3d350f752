"""Forward scattering: Jost solutions, Jost function, scattering matrix.

The first-order system is f' = (Q(x) + i z sigma3) f with Q = [[0, q],
[conj q, 0]] and the terminal condition f(x, z) = e^{i z x sigma3} for
x >= gamma.  The boundary combination psi(z) = e^{-i alpha} f11(0, z) -
e^{i alpha} f21(0, z) is entire, has no zeros in the closed upper
half-plane, and S(z) = conj(psi(z)) / psi(z) on the real axis.

`psi_values` multiplies exact per-segment propagators: each piece (or,
for a bare sampled potential, each cell) has a constant coefficient matrix
after a chirp gauge, so its exponential has a closed 2x2 form.  For z in
blocks of at most 2^16 (segment, z) pairs, the exponentials of all
segments are formed at once as four entry arrays and multiplied pairwise
in a log-depth tree of elementwise 2x2 products, so a call costs no
Python step per segment.  The exact product has no z*h stability ceiling,
which matters when psi is sampled far out on the real axis for Fourier
inversion of the kernel.  The classical fourth-order one-step scheme on
the potential grid (`integrate_jost`, `jost_function`,
`psi_values(method="rk4")`) is kept as the independently derived
reference the acceptance suite pins against the closed-form oracle.

The kernel g with psi(z) = e^{-i alpha} + int_0^gamma g(s) e^{2izs} ds is
produced two ways: `jost_kernel` fits g to real-axis psi values by FFT
passes in the transform model `JostRep.psi` evaluates (band-limited, so
support edges smear at the 1/z_max scale), and `jost_kernel_direct`
marches the transformation kernel along characteristics, which keeps
O(h^2) accuracy up to the support edges and feeds the inverse pipeline.
Its trapezoid step, `_characteristic_step`, is the one step of the
characteristic pair in the package: the GLM continuation in `inverse`
marches the same pair upward with it.
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
    ValidationError,
)
from .core import _cut_nodes, _linear_transform

__all__ = [
    "KernelBound",
    "integrate_jost",
    "jost_function",
    "psi_values",
    "make_psi_evaluator",
    "scattering_value",
    "jost_kernel",
    "jost_kernel_direct",
    "kernel_estimate",
]

DEFAULT_IM_CAP_SCALE = 50.0


@dataclass(frozen=True)
class KernelBound:
    """Tail integrals of the potential and the transformation-kernel bound."""

    x: float
    eta: float
    zeta: float

    @property
    def bound(self) -> float:
        return math.exp(self.eta) * (1.0 + self.zeta) - 1.0


def _growth_cap(gamma: float, im_cap: float | None = None) -> float:
    """Largest |Im z| at which solutions are evaluated (default 50/gamma)."""
    return DEFAULT_IM_CAP_SCALE / gamma if im_cap is None else im_cap


def _check_im_cap(gamma: float, z, im_cap: float | None = None) -> None:
    cap = _growth_cap(gamma, im_cap)
    worst = float(np.max(np.abs(np.imag(z)), initial=0.0))
    if worst > cap:
        raise NumericalError(
            f"|Im z| = {worst:.3g} exceeds the growth cap {cap:.3g} "
            f"(= {DEFAULT_IM_CAP_SCALE}/gamma by default); e^(2 gamma |Im z|) would overflow")


def _expm_traceless(b00, b01, b10, t):
    """exp(t B) for B = [[b00, b01], [b10, -b00]] by the cosh/sinh closed
    form, elementwise over broadcast entry arrays; returns its four entries
    (e00, e01, e10, e11)."""
    # for traceless B, -det(B) = b00^2 + b01 b10
    lam = np.sqrt(b00 * b00 + b01 * b10 + 0j)
    tl = t * lam
    ch = np.cosh(tl)
    small = np.abs(tl) < 1e-6
    lam_safe = np.where(small, 1.0, lam)
    sh_over = np.where(small, t * (1.0 + tl ** 2 / 6.0), np.sinh(tl) / lam_safe)
    shb = sh_over * b00
    return ch + shb, sh_over * b01, sh_over * b10, ch - shb


def _mul2(m, r):
    """Elementwise 2x2 product m r of entry tuples (m00, m01, m10, m11)."""
    a, b, c, d = m
    e, f, g, h = r
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _tree_product(m):
    """Ordered product m[0] m[1] ... m[-1] of 2x2 factors given as entry
    tuples with the factor index first, multiplied pairwise in a log-depth
    tree; an odd count carries its last factor to the next level."""
    while len(m[0]) > 1:
        even = len(m[0]) - len(m[0]) % 2
        prod = _mul2([x[0:even:2] for x in m], [x[1:even:2] for x in m])
        if even < len(m[0]):
            prod = [np.concatenate((p, x[-1:])) for p, x in zip(prod, m)]
        m = prod
    return tuple(x[0] for x in m)


def _segments(q: Potential) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constant-or-chirped integration segments as arrays (lo, hi, amp, chirp):
    the exact pieces when present, otherwise one segment per grid cell."""
    if q.pieces is not None:
        lo, hi, amp, k = zip(*((p.lo, p.hi, p.amp, p.chirp) for p in q.pieces))
        return (np.array(lo, dtype=float), np.array(hi, dtype=float),
                np.array(amp, dtype=complex), np.array(k, dtype=float))
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    return nodes[:-1], nodes[1:], amps, chirps


_PAIRS_PER_BLOCK = 1 << 16     # (segment, z) pairs held at once


def _segment_product(z: np.ndarray, count: int, factors) -> np.ndarray:
    """Ordered product of `count` per-segment 2x2 factors at every z, as a
    (#z, 2, 2) array over the flattened z.  `factors(zb)` returns the four
    entry arrays, shaped (count, #zb), for one block zb of z; a block holds
    at most 2^16 (segment, z) pairs and is reduced by `_tree_product`."""
    zf = np.ravel(z)
    out = np.empty((zf.size, 2, 2), dtype=complex)
    step = max(1, _PAIRS_PER_BLOCK // count)
    for b0 in range(0, zf.size, step):
        blk = out[b0: b0 + step]
        blk[:, 0, 0], blk[:, 0, 1], blk[:, 1, 0], blk[:, 1, 1] = \
            _tree_product(factors(zf[b0: b0 + step]))
    return out


def _propagate_exact(q: Potential, z: np.ndarray) -> np.ndarray:
    """f(0, z): the ordered product of exact per-segment propagators times
    the terminal value e^{i z gamma sigma3}.

    A segment with value a e^{2ikx} on [lo, hi] is gauged by e^{-ikx sigma3}
    to a constant segment at spectral parameter z - k, whose exponential is
    in closed 2x2 form; undoing the gauge multiplies its diagonal entries by
    e^{-+ik(hi-lo)} and its off-diagonal ones by e^{+-ik(lo+hi)}.  All
    segment exponentials of a block of z are formed at once and multiplied
    in a pairwise tree, so an exactly piecewise potential costs one
    exponential per piece and a sampled one one per cell, with no Python
    step per segment.
    """
    lo, hi, amp, k = (x[:, None] for x in _segments(q))
    chirped = bool(np.any(k != 0.0))
    if chirped:
        diag, off = np.exp(-1j * k * (hi - lo)), np.exp(1j * k * (lo + hi))

    def factors(zb):
        e00, e01, e10, e11 = _expm_traceless(1j * (zb - k), amp, np.conj(amp), lo - hi)
        if chirped:
            return e00 * diag, e01 * off, e10 * np.conj(off), e11 * np.conj(diag)
        return e00, e01, e10, e11

    f = _segment_product(z, len(lo), factors)
    zf = np.ravel(z)
    f[:, :, 0] *= np.exp(1j * q.gamma * zf)[:, None]
    f[:, :, 1] *= np.exp(-1j * q.gamma * zf)[:, None]
    if not np.all(np.isfinite(f.view(float))):
        raise NumericalError("Jost propagation overflowed; reduce |Im z|")
    return f.reshape(np.shape(z) + (2, 2))


def _propagate_rk4(q: Potential, z: np.ndarray) -> np.ndarray:
    """Classical fourth-order one-step scheme, one step per potential cell.

    Integrates the gauged system u' = e^{-izx s3} Q e^{izx s3} u backward
    from u(gamma) = I; then f(0, z) = u(0).  In this frame free evolution
    is exactly the identity and the oscillatory phase enters only through
    the coefficients.
    """
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    h = q.grid.h
    u = np.broadcast_to(np.eye(2, dtype=complex), z.shape + (2, 2)).copy()

    def rhs(x: float, j: int, umat: np.ndarray) -> np.ndarray:
        # gauged coefficients: (1,2) = q e^{-2izx}, (2,1) = conj(q) e^{+2izx};
        # for complex z these are not conjugates of each other
        a12 = amps[j] * np.exp(2j * (chirps[j] - z) * x)
        a21 = np.conj(amps[j]) * np.exp(2j * (z - chirps[j]) * x)
        out = np.empty_like(umat)
        out[..., 0, :] = a12[..., None] * umat[..., 1, :]
        out[..., 1, :] = a21[..., None] * umat[..., 0, :]
        return out

    for j in range(q.grid.n - 1, -1, -1):
        x1, x0 = nodes[j + 1], nodes[j]
        xm = 0.5 * (x0 + x1)
        k1 = rhs(x1, j, u)
        k2 = rhs(xm, j, u - 0.5 * h * k1)
        k3 = rhs(xm, j, u - 0.5 * h * k2)
        k4 = rhs(x0, j, u - h * k3)
        u = u - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(u.view(float))):
        raise NumericalError("Jost propagation overflowed; reduce |Im z|")
    return u


def integrate_jost(q: Potential, z: complex, im_cap: float | None = None) -> np.ndarray:
    """f(0, z) as a 2x2 array, by fourth-order backward integration from
    x = gamma."""
    zz = np.array([complex(z)])
    _check_im_cap(q.gamma, zz, im_cap)
    return _propagate_rk4(q, zz)[0]


def _psi_from_f(f: np.ndarray, alpha: BoundaryParam) -> np.ndarray:
    ea = np.exp(-1j * alpha.alpha)
    return ea * f[..., 0, 0] - np.conj(ea) * f[..., 1, 0]


_PROPAGATORS = {"exact": _propagate_exact, "rk4": _propagate_rk4}


def psi_values(q: Potential, alpha: BoundaryParam, z,
               method: str = "exact") -> np.ndarray | complex:
    """Vectorized Jost function.  method 'exact' multiplies closed-form
    segment exponentials; 'rk4' is the fourth-order reference scheme."""
    if method not in _PROPAGATORS:
        raise ValidationError(f"unknown method {method!r}")
    scalar = np.isscalar(z)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_im_cap(q.gamma, zz)
    vals = _psi_from_f(_PROPAGATORS[method](q, zz), alpha)
    return complex(vals[0]) if scalar else vals


def make_psi_evaluator(q: Potential, alpha: BoundaryParam):
    """Callable z -> psi(z) accepting scalars or arrays."""
    def ev(z):
        return psi_values(q, alpha, z)
    return ev


def jost_function(q: Potential, alpha: BoundaryParam, z: complex,
                  im_cap: float | None = None) -> complex:
    return complex(_psi_from_f(integrate_jost(q, z, im_cap=im_cap), alpha))


def scattering_value(q: Potential, alpha: BoundaryParam, z: float) -> complex:
    """S(z) = conj(psi(z)) / psi(z) for real z; unimodular by construction."""
    if abs(np.imag(complex(z))) > 1e-12:
        raise ValidationError("scattering matrix is defined on the real axis")
    psi = psi_values(q, alpha, float(np.real(z)))
    if abs(psi) < 1e-13:
        raise NumericalError("psi vanishes on the real axis: input violates the Jost class")
    return complex(np.conj(psi) / psi)


# ---------------------------------------------------------------------------
# Fourier kernel of psi
# ---------------------------------------------------------------------------

_BAND_CLIP = 0.7        # share of the grid's Nyquist rate the band may reach


def fourier_band(gamma: float, h: float, z_max: float, m: int) -> np.ndarray:
    """Real-axis sample points for kernel extraction: multiples of
    pi/(2 gamma) out to z_max, clipped to ~0.7 of the grid Nyquist rate
    (beyond that the linear kernel model cannot track e^{2izs})."""
    dz = math.pi / (2.0 * gamma)
    z_use = min(z_max, _BAND_CLIP * math.pi / (2.0 * h))
    K = int(math.floor(z_use / dz))
    if 2 * K + 1 > m + 1:
        raise ValidationError("m too small for z_max: need m >= 4 z_max gamma / pi")
    return np.arange(-K, K + 1) * dz


def _band_sum(values: np.ndarray, size: int) -> np.ndarray:
    """Σ_j v_j e^{2i z_k s_j} at the `size` band points z_k = k pi/(2 gamma):
    with s_j = j gamma/n, a 2n-point DFT, alias-free for size <= 2n."""
    m = 2 * (len(values) - 1)
    return m * np.fft.ifft(values, m)[np.arange(-(size // 2), size // 2 + 1)]


def _band_adjoint(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Σ_k c_k e^{-2i z_k s_j} at the n+1 nodes: the adjoint of `_band_sum`."""
    buf = np.zeros(2 * n, dtype=complex)
    buf[np.arange(-(len(coeffs) // 2), len(coeffs) // 2 + 1)] = coeffs
    return np.fft.fft(buf)[: n + 1]


def jost_kernel(q: Potential, alpha: BoundaryParam, z_max: float | None = None,
                residual_tol: float = 1e-4, psi_samples=None) -> JostRep:
    """Kernel g by windowed Fourier inversion of real-axis samples of psi.

    psi - e^{-i alpha} is the one-sided transform of g.  The first estimate
    integrates (1/pi) int (psi(z) - e^{-i alpha}) e^{-2izs} dz over
    [-z_max, z_max] with a raised-cosine taper on the outer tenth; the
    band limit smears the support edges over ~pi/(2 z_max), so the edge
    cells are rebuilt from the interior.  Defect-correction passes then fit
    g in the model `JostRep.psi` evaluates, split at the jump nodes of the
    fit once they settle; psi must then match within `residual_tol` on a
    held-out real grid.

    z is sampled at multiples of pi/(2 gamma), clipped at 0.7 of the grid
    Nyquist rate, so each pass is a pair of 2n-point FFTs.  `psi_samples`,
    if given, is psi at those points (to invert an externally modified
    Jost function); there is no held-out check then.
    """
    gamma = q.gamma
    if z_max is None:
        z_max = 400.0 * math.pi / gamma
    if z_max * gamma < 100.0 * math.pi - 1e-9:
        raise ValidationError("z_max must be at least 100*pi/gamma")

    n, h = q.grid.n, q.grid.h
    zs = fourier_band(gamma, h, z_max, 2 * n)
    z_use = float(zs[-1])
    dz = math.pi / (2.0 * gamma)
    if psi_samples is None:
        psi = psi_values(q, alpha, zs.astype(complex))
    else:
        psi = np.asarray(psi_samples, dtype=complex)
        if psi.shape != zs.shape:
            raise ValidationError(f"psi_samples must have shape {zs.shape}")
    ghat = psi - np.exp(-1j * alpha.alpha)

    w = np.ones(zs.size)
    outer = np.abs(zs) > 0.9 * z_use
    w[outer] = 0.5 * (1.0 + np.cos(np.pi * (np.abs(zs[outer]) - 0.9 * z_use) / (0.1 * z_use)))
    g_vals = (dz / np.pi) * _band_adjoint(w * ghat, n)

    nodes = q.grid.nodes()
    smear = max(2, int(math.ceil(math.pi / (2.0 * z_use * h))) + 1)
    if 4 * smear < n:
        for sl_bad, sl_src in (
            (slice(0, smear), slice(smear, 3 * smear + 1)),
            (slice(n + 1 - smear, n + 1), slice(n - 3 * smear, n + 1 - smear)),
        ):
            coef = np.polyfit(nodes[sl_src], g_vals[sl_src], 2)
            g_vals[sl_bad] = np.polyval(coef, nodes[sl_bad])

    # cuts are detected between rounds only (early iterates ring enough to
    # flip the detector); every kernel tried settled within 3 rounds
    target = 0.2 * min(residual_tol, 1e-4)
    cuts: tuple[int, ...] = ()
    for _ in range(4):
        for _ in range(60):
            defect = ghat - _linear_transform(g_vals, q.grid, zs, _band_sum(g_vals, zs.size), cuts)
            g_vals = g_vals + (dz / np.pi) * _band_adjoint(w * defect, n)
            if float(np.max(np.abs(defect))) < target:
                break
        found = _cut_nodes(g_vals)
        if found == cuts:
            break
        fitted, cuts = cuts, found
    else:
        raise NumericalError(
            f"kernel jump nodes did not settle in 4 rounds: fitted with "
            f"cuts at {list(fitted)}, the result shows {list(found)}; refine n")

    rep = JostRep(alpha, gamma, SampledComplexFunction(q.grid, g_vals))
    if psi_samples is None:
        held = (np.arange(-120, 121) + 0.5) * (z_use / 241.0)
        resid = float(np.max(np.abs(rep.psi(held) - psi_values(q, alpha, held.astype(complex)))))
        if resid > residual_tol:
            advice = ("refine n (z was clipped at 0.7 of the grid's Nyquist rate)"
                      if z_max > _BAND_CLIP * math.pi / (2.0 * h)
                      else "increase z_max or refine n")
            raise NumericalError(
                f"kernel reconstruction residual {resid:.3e} exceeds {residual_tol:.1e} "
                f"at z up to {z_use:.4g}; {advice}")
    return rep


# ---------------------------------------------------------------------------
# transformation kernel by characteristics
# ---------------------------------------------------------------------------

def _node_values(q: Potential) -> np.ndarray:
    """Potential at the nodes: one-sided cell limits averaged at interior
    nodes, inside limits at the support edges."""
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    left = amps * np.exp(2j * chirps * nodes[:-1])    # value at cell's left node
    right = amps * np.exp(2j * chirps * nodes[1:])    # value at cell's right node
    vals = np.empty(q.grid.n + 1, dtype=complex)
    vals[0] = left[0]
    vals[-1] = right[-1]
    vals[1:-1] = 0.5 * (right[:-1] + left[1:])
    return vals


def _characteristic_step(d, o, d_sh, o_sh, a, b):
    """One trapezoid predictor-corrector step of the characteristic pair

        d' = d + a (o + o'),     o' = o_sh + b (d_sh + d'),

    where (d, o) sit on the old line at the nodes of the new one and
    (d_sh, o_sh) one node along the characteristic; solved in closed form,
    elementwise over arrays or scalars.  Returns (d', o')."""
    p = d + a * o
    r = o_sh + b * d_sh
    d_new = (p + a * r) / (1.0 - a * b)
    return d_new, r + b * d_new


def jost_kernel_direct(q: Potential, alpha: BoundaryParam) -> JostRep:
    """Kernel g(s) = e^{-i alpha} G11(0, s) - e^{i alpha} G21(0, s) from the
    transformation kernel; second-order accurate up to the support edges.

    The kernel G(x, s) of the Jost solution satisfies, on the triangle
    x + s <= gamma,

        d/dx G11 = q(x) G21,     (d/dx - d/ds) G21 = conj(q(x)) G11,

    with boundary value G21(x, 0) = -conj(q(x)) and zero diagonal data on
    x + s = gamma.  The pair is marched down from x = gamma to x = 0 with
    `_characteristic_step` along the x lines and the characteristics
    x + s = const, with q at the cell mean; the s = 0 node takes its o from
    the data and the new diagonal node s = gamma - x its d = 0.
    """
    n, h = q.grid.n, q.grid.h
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    cell_at = amps * np.exp(2j * chirps * 0.5 * (nodes[:-1] + nodes[1:]))  # cell mean value
    a_cell = -0.5 * h * cell_at
    b_cell = np.conj(a_cell)
    o_edge = -np.conj(_node_values(q))          # G21(x, 0)

    # (d, o) = (G11, G21) on the line x = gamma: the single node s = 0
    d = np.zeros(1, dtype=complex)
    o = o_edge[-1:]
    for i in range(n - 1, -1, -1):
        a, b = a_cell[i], b_cell[i]
        d_new = np.empty(d.size + 1, dtype=complex)
        o_new = np.empty(d.size + 1, dtype=complex)
        d_new[1:-1], o_new[1:-1] = _characteristic_step(d[1:], o[1:], d[:-1], o[:-1], a, b)
        o_new[0] = o_edge[i]
        d_new[0] = d[0] + a * (o[0] + o_new[0])
        d_new[-1] = 0.0
        o_new[-1] = o[-1] + b * d[-1]
        d, o = d_new, o_new
    ea = np.exp(-1j * alpha.alpha)
    g = ea * d - np.conj(ea) * o
    return JostRep(alpha, q.gamma, SampledComplexFunction(q.grid, g))


# ---------------------------------------------------------------------------
# kernel norm bound
# ---------------------------------------------------------------------------

def kernel_estimate(q: Potential, x: float) -> KernelBound:
    """Tail integrals eta(x) = int_x^gamma |q|, zeta(x) = (int_x^gamma |q|^2)^(1/2)
    and the bound e^eta (1 + zeta) - 1 on the transformation-kernel norms."""
    if x < 0:
        raise ValidationError("x must be nonnegative")
    if x >= q.gamma:
        return KernelBound(x, 0.0, 0.0)
    nodes = q.grid.nodes()
    mags = np.abs(q.samples.values)
    # piecewise-linear |q| integrated over [x, gamma]: re-sample at the clip
    m_at_x = float(np.interp(x, nodes, mags))
    keep = nodes > x
    xs = np.concatenate(([x], nodes[keep]))
    m1 = np.concatenate(([m_at_x], mags[keep]))
    eta = float(np.trapezoid(m1, xs))
    zeta = float(math.sqrt(max(np.trapezoid(m1 ** 2, xs), 0.0)))
    return KernelBound(x, eta, zeta)
