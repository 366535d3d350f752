"""Forward scattering: Jost solutions, Jost function, scattering matrix.

The first-order system is f' = (Q(x) + i z sigma3) f with Q = [[0, q],
[conj q, 0]] and the terminal condition f(x, z) = e^{i z x sigma3} for
x >= gamma.  The boundary combination psi(z) = e^{-i alpha} f11(0, z) -
e^{i alpha} f21(0, z) is entire, has no zeros in the closed upper
half-plane, and S(z) = conj(psi(z)) / psi(z) on the real axis.

`psi_values` multiplies exact per-segment propagators: each piece (or,
for a bare sampled potential, each cell) has a constant coefficient matrix
B after a chirp gauge, so its exponential has a closed 2x2 form,
`_segment_factors`, the one per-segment propagator of the package (the
canonical-system matrices of `canonical` are its T-conjugates).  B is
traceless, so exp(t B) = cosh(t lam) I + (sinh(t lam)/lam) B with
lam^2 = -det B.  Both coefficients are entire in mu = (t lam)^2: they
are six-term Horner series in mu at t / 2^s, where s <= 4 halvings bring
|mu| under 0.05 over a whole block (cells need none, the pieces of a
resonance search one or two), doubled back s times, with no sqrt and no
transcendental; only |t lam| beyond about 3.6 takes cosh and sinh.  For
z in blocks of at most 2^13 (segment, z) pairs, the exponentials of all
segments are formed at once as four entry arrays and multiplied pairwise
in a log-depth tree of elementwise 2x2 products, so a call costs no
Python step per segment.  The product stops
short of the terminal value e^{i z gamma sigma3}: psi needs only its first
column times e^{i z gamma}, and `canonical` needs none of it.  The exact
product has no z*h stability ceiling, which matters when psi is sampled
far out on the real axis for Fourier inversion of the kernel.  The
classical fourth-order one-step scheme on the potential grid
(`integrate_jost`, `jost_function`, `psi_values(method="rk4")`) is kept as
the independently derived reference the acceptance suite pins against the
closed-form oracle.

The kernel g with psi(z) = e^{-i alpha} + int_0^gamma g(s) e^{2izs} ds is
produced two ways: `jost_kernel` fits g to real-axis psi values by FFT
passes in the transform model `JostRep.psi` evaluates (band-limited, so
support edges smear at the 1/z_max scale), and `jost_kernel_direct`
marches the transformation kernel along characteristics, which keeps
O(h^2) accuracy up to the support edges and feeds the inverse pipeline.
Its trapezoid step, `_characteristic_step`, is the one step of the
characteristic pair in the package: the GLM continuation in `inverse`
marches the same pair upward with it.  Both boundary columns of the
kernel march are known before it starts, so the march goes in blocks of
`_MARCH_BLOCK` levels: the transfers of all blocks (polynomials in the node
shift, a (B + 1)-tap filter per entry) are built together by B vectorised
steps, and each block costs a few convolutions of the line instead of B
Python-level steps.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BoundaryParam,
    JostRep,
    NumericalError,
    Potential,
    SampledComplexFunction,
    ValidationError,
)
from .core import _check_finite_z, _cut_nodes, _filon_weights, _linear_transform, _node_values

__all__ = [
    "integrate_jost",
    "jost_function",
    "psi_values",
    "make_psi_evaluator",
    "jost_kernel",
    "jost_kernel_direct",
]

DEFAULT_IM_CAP_SCALE = 50.0
_ABS_Z_MAX = 1e152      # largest |z| taken: |z|^2 in `_expm_traceless` stays finite


def _growth_cap(gamma: float) -> float:
    """Largest |Im z| at which solutions are evaluated, 50/gamma."""
    return DEFAULT_IM_CAP_SCALE / gamma


def _check_im_cap(gamma: float, z) -> None:
    _check_finite_z(z)
    if (big := float(np.max(np.abs(z), initial=0.0))) > _ABS_Z_MAX:
        raise ValidationError(f"z out of range: |z| = {big:.3g} exceeds {_ABS_Z_MAX:.0e}")
    cap = _growth_cap(gamma)
    worst = float(np.max(np.abs(np.imag(z)), initial=0.0))
    if worst > cap:
        raise NumericalError(
            f"|Im z| = {worst:.3g} exceeds the growth cap {cap:.3g} "
            f"(= {DEFAULT_IM_CAP_SCALE}/gamma); e^(2 gamma |Im z|) would overflow")


# cosh(t lam) and sinh(t lam)/lam are entire in mu = t^2 lam^2.  Where
# every pair of a block has |mu| <= 0.05, six Horner terms leave a remainder
# below 0.05^6/12! = 3.3e-17.  Up to 4 halvings of t bring a bound of
# 0.05 * 4^4 = 12.8 (|t lam| <= 3.6) under 0.05, and the doublings that undo
# them lose at most 2.0e-15 of the largest entry against extended precision;
# a fifth would lose 5.2e-15.  Per pair that costs 45-56 ns against 110-115
# for the closed form (8 pieces x 330 z, the resonance searches' regime, one
# pinned core).
_SERIES_MU_MAX = 0.05
_HALVINGS_MAX = 4
_SERIES_TERMS = 6
_COSH_TERMS = tuple(1.0 / math.factorial(2 * j) for j in reversed(range(_SERIES_TERMS)))
_SINHC_TERMS = tuple(1.0 / math.factorial(2 * j + 1) for j in reversed(range(_SERIES_TERMS)))


def _horner(coeffs, mu):
    """sum_j c_j mu^j with the coefficients given highest power first."""
    acc = coeffs[0] * mu
    for c in coeffs[1:-1]:
        acc += c
        acc *= mu
    acc += coeffs[-1]
    return acc


def _expm_traceless(b00, b01, b10, t):
    """exp(t B) for B = [[b00, b01], [b10, -b00]], elementwise over broadcast
    entry arrays; returns its four entries (e00, e01, e10, e11).

    exp(t B) = cosh(t lam) I + (sinh(t lam)/lam) B with lam^2 = b00^2 +
    b01 b10 (= -det B).  The bound max|t|^2 (max|b00|^2 + max|b01 b10|) on
    every |mu| = |t lam|^2 picks the least s <= `_HALVINGS_MAX` with bound /
    4^s <= `_SERIES_MU_MAX`: both functions are then Horner series in mu at
    t / 2^s, doubled s times by sinh(2x)/lam = 2 (sinh x/lam) cosh x and
    cosh 2x = 1 + 2 lam^2 (sinh x/lam)^2, with no sqrt and no transcendental.
    A larger bound takes the closed form, whose sinh/lam is a two-term series
    below |t lam| = 1e-6.  The choice is one per call, not per pair."""
    lam2 = b00 * b00 + b01 * b10
    bound = float(np.max(t * t)) * (float(np.max(np.abs(b00))) ** 2
                                    + float(np.max(np.abs(b01 * b10))))
    s = next((s for s in range(_HALVINGS_MAX + 1) if bound <= _SERIES_MU_MAX * 4 ** s), None)
    if s is not None:
        t = t / 2 ** s
        mu = (t * t) * lam2
        ch = _horner(_COSH_TERMS, mu)
        sh_over = _horner(_SINHC_TERMS, mu)
        sh_over *= t
        for _ in range(s):
            ch, sh_over = 1.0 + 2.0 * lam2 * sh_over * sh_over, 2.0 * sh_over * ch
    else:
        lam = np.sqrt(lam2 + 0j)
        tl = t * lam
        ch = np.cosh(tl)
        small = np.abs(tl) < 1e-6
        lam_safe = np.where(small, 1.0, lam)
        sh_over = np.where(small, t * (1.0 + tl ** 2 / 6.0), np.sinh(tl) / lam_safe)
    # fresh arrays are the dearest step here, so the last ones are reused
    e01, e10 = sh_over * b01, sh_over * b10
    sh_over *= b00
    e00 = ch + sh_over
    ch -= sh_over
    return e00, e01, e10, ch


def _mul2(m, r):
    """Elementwise 2x2 product m r of entry tuples (m00, m01, m10, m11),
    entry arrays of one shape; each sum is formed in place."""
    a, b, c, d = m
    e, f, g, h = r
    out = a * e, a * f, c * e, c * f
    for o, x, y in zip(out, (b, b, d, d), (g, h, g, h)):
        o += x * y
    return out


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


def _segment_factors(lo, hi, amp, k, z):
    """Exact propagators f(lo) f(hi)^{-1} across segments carrying
    q = amp e^{2ikx} on [lo, hi], as entry arrays (e00, e01, e10, e11)
    broadcast over segments and z; each has unit determinant.

    The gauge e^{-ikx sigma3} turns a segment into a constant one at
    spectral parameter z - k, whose exponential has the closed 2x2 form
    of `_expm_traceless`; undoing the gauge multiplies its diagonal entries
    by e^{-+ik(hi-lo)} and its off-diagonal ones by e^{+-ik(lo+hi)}.
    """
    e00, e01, e10, e11 = _expm_traceless(1j * (z - k), amp, np.conj(amp), lo - hi)
    if not np.any(k != 0.0):
        return e00, e01, e10, e11
    diag, off = np.exp(-1j * k * (hi - lo)), np.exp(1j * k * (lo + hi))
    return e00 * diag, e01 * off, e10 * np.conj(off), e11 * np.conj(diag)


# (segment, z) pairs held at once.  Per pair, 2^13 took 58 ns against 83
# for 2^16 on 96 cells x 512 z, 69 against 92 on 1024 cells x 500 z and 112
# against 153 on 8 pieces x 4096 z, but 106 against 98 on 4096 cells x 100 z
# (minimum of interleaved runs on one pinned core with a 2 MiB L2 cache);
# 2^12 and 2^14 lost on the first three.
_PAIRS_PER_BLOCK = 1 << 13


def _propagate_exact(q: Potential, z: np.ndarray) -> np.ndarray:
    """f(0, z) e^{-i z gamma sigma3}: the ordered product of the
    `_segment_factors` of `_segments`, without the terminal value
    f(gamma, z) = e^{i z gamma sigma3}.  psi needs only its first column
    times e^{i z gamma}; `canonical` needs it without the phase.

    For z in blocks of at most 2^13 (segment, z) pairs, all segment
    exponentials are formed at once and reduced by `_tree_product`, so an
    exactly piecewise potential costs one exponential per piece and a
    sampled one one per cell, with no Python step per segment.
    """
    lo, hi, amp, k = (x[:, None] for x in _segments(q))
    zf = np.ravel(z)
    f = np.empty((zf.size, 2, 2), dtype=complex)
    step = max(1, _PAIRS_PER_BLOCK // len(lo))
    for b0 in range(0, zf.size, step):
        blk = f[b0: b0 + step]
        blk[:, 0, 0], blk[:, 0, 1], blk[:, 1, 0], blk[:, 1, 1] = \
            _tree_product(_segment_factors(lo, hi, amp, k, zf[b0: b0 + step]))
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


def integrate_jost(q: Potential, z: complex) -> np.ndarray:
    """f(0, z) as a 2x2 array, by fourth-order backward integration from
    x = gamma."""
    zz = np.array([complex(z)])
    _check_im_cap(q.gamma, zz)
    return _propagate_rk4(q, zz)[0]


def _psi_from_f(f: np.ndarray, alpha: BoundaryParam) -> np.ndarray:
    ea = alpha.phase
    return ea * f[..., 0, 0] - np.conj(ea) * f[..., 1, 0]


def psi_values(q: Potential, alpha: BoundaryParam, z,
               method: str = "exact") -> np.ndarray | complex:
    """Vectorized Jost function.  method 'exact' multiplies closed-form
    segment exponentials; 'rk4' is the fourth-order reference scheme."""
    if method not in ("exact", "rk4"):
        raise ValidationError(f"unknown method {method!r}")
    scalar = np.isscalar(z)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_im_cap(q.gamma, zz)
    if method == "exact":
        vals = np.exp(1j * q.gamma * zz) * _psi_from_f(_propagate_exact(q, zz), alpha)
    else:
        vals = _psi_from_f(_propagate_rk4(q, zz), alpha)
    return complex(vals[0]) if scalar else vals


def make_psi_evaluator(q: Potential, alpha: BoundaryParam):
    """Callable z -> psi(z) accepting scalars or arrays."""
    def ev(z):
        return psi_values(q, alpha, z)
    return ev


def jost_function(q: Potential, alpha: BoundaryParam, z: complex) -> complex:
    return complex(_psi_from_f(integrate_jost(q, z), alpha))


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


_HELD_OUT_TOL = 1e-4    # max |psi error| of the extracted kernel on the held-out grid
# Largest |psi - e^{-i alpha}| on the band of a kernel taken as zero, which
# keeps its first estimate.  The correction is tapered to 0 on the band's
# outer tenth, where the defect never shrinks, so every other kernel runs
# all 60 passes of every round.
_STOP_DEFECT = 2e-5


def jost_kernel(q: Potential, alpha: BoundaryParam, psi_samples=None) -> JostRep:
    """Kernel g by windowed Fourier inversion of real-axis samples of psi.

    psi - e^{-i alpha} is the one-sided transform of g.  The first estimate
    integrates (1/pi) int (psi(z) - e^{-i alpha}) e^{-2izs} dz over
    [-z_max, z_max], z_max = 400 pi/gamma, with a raised-cosine taper on
    the outer tenth; the band limit smears the support edges over
    ~pi/(2 z_max), so the edge cells are rebuilt from the interior.
    Defect-correction passes then fit g in the model `JostRep.psi`
    evaluates, split at the jump nodes of the fit once they settle; a
    zero kernel, with psi within `_STOP_DEFECT` of e^{-i alpha} on the band,
    skips them.  psi must then match within `_HELD_OUT_TOL` on a held-out
    real grid.

    z is sampled at multiples of pi/(2 gamma), clipped at 0.7 of the grid
    Nyquist rate.  At most 4 cut rounds of 60 passes; the band's Filon
    weights are built once per call and its end phases once per round, so
    a pass is two 2n-point FFTs and one (2 + #cuts)-column product.
    `psi_samples`, if given, is psi at those points (to invert an
    externally modified Jost function); there is no held-out check then.
    """
    gamma = q.gamma
    n, h = q.grid.n, q.grid.h
    zs = fourier_band(gamma, h, 400.0 * math.pi / gamma, 2 * n)
    z_use = float(zs[-1])
    dz = math.pi / (2.0 * gamma)
    if psi_samples is None:
        psi = psi_values(q, alpha, zs.astype(complex))
    else:
        psi = np.asarray(psi_samples, dtype=complex)
        if psi.shape != zs.shape:
            raise ValidationError(f"psi_samples must have shape {zs.shape}")
    ghat = psi - alpha.phase

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
    filon = _filon_weights(2j * zs * h)
    cuts: tuple[int, ...] = ()
    passes = 60 if float(np.max(np.abs(ghat))) >= _STOP_DEFECT else 0
    for _ in range(4):
        model = _linear_transform(q.grid, zs, cuts, filon, keep_phases=True)
        for _ in range(passes):
            defect = ghat - model(g_vals, _band_sum(g_vals, zs.size))
            g_vals = g_vals + (dz / np.pi) * _band_adjoint(w * defect, n)
        found = _cut_nodes(g_vals)
        if found == cuts:
            break
        fitted, cuts = cuts, found
    else:
        raise NumericalError(
            f"kernel jump nodes did not settle in 4 rounds: fitted with "
            f"cuts at {list(fitted)}, the result shows {list(found)}; refine n")

    rep = JostRep(alpha, SampledComplexFunction(q.grid, g_vals))
    if psi_samples is None:
        held = (np.arange(-120, 121) + 0.5) * (z_use / 241.0)
        resid = float(np.max(np.abs(rep.psi(held) - psi_values(q, alpha, held.astype(complex)))))
        if resid > _HELD_OUT_TOL:
            raise NumericalError(
                f"kernel reconstruction residual {resid:.3e} exceeds {_HELD_OUT_TOL:.1e} "
                f"at z up to {z_use:.4g}; refine n")
    return rep


# ---------------------------------------------------------------------------
# transformation kernel by characteristics
# ---------------------------------------------------------------------------

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


_MARCH_BLOCK = 32    # march levels per transfer (measured against 16, 24, 48 and 64)


def _block_transfers(a, b, edge, diag, first):
    """What blocks of L march levels do to a line, for all blocks at once.

    a and b have shape (L, nb): the coefficients of each block's levels in
    march order; the first block has only its first `first` levels.  edge
    has shape (L + 1, 2, nb): the known s = 0 node of each block's start
    line and of the line after each level; diag is the known diagonal node.
    Returns polynomials in the node shift, coefficients by power, with
    shape (nb, 4, 2, L + 1) for (block, column, row (d, o), power).
    Columns 0 and 1 are the 2x2 transfer P that carries the start line's
    interior, less its free part: d stays at its node and o moves up one
    node per level.  The caller adds that part exactly; rounded, a
    coefficient next to 1 that every block of a piece shares would add the
    same error block after block.  Column 2 is what the edge nodes put on
    the block's end line, counted from its s = 0 node; column 3 is what the
    diagonal nodes put there, counted from the start line's diagonal
    position.

    A level is one `_characteristic_step` of all these polynomials at once,
    each power stepped with the next lower one as its neighbour along the
    characteristic.  Stepping the free part gives it back, moved, plus the
    step of a unit d_sh (column 0) or of a unit o (column 1) at its power
    and the next one; those two taps come from one `_characteristic_step`
    of unit vectors for all levels.  An edge node takes its first step
    through the neighbour term only, and a diagonal node through its own
    power only: its other term lands on the next line's boundary node,
    which is known and is written over it.
    """
    L, nb = a.shape
    # the step of a unit d_sh and of a unit o, as (level, row, 1, block)
    unit = np.eye(2).reshape(2, 2, 1, 1)
    d_new, o_new = _characteristic_step(0.0, unit[1], unit[0], 0.0, a, b)
    tap_d, tap_o = np.stack([d_new, o_new], axis=2)[..., None, :]
    v = np.zeros((2, L + 2, 4, nb), dtype=complex)    # row 0 holds power -1: zero
    diag = diag[:, None]
    v[:, 1, 2] = edge[0]
    v[:, 1, 3] = diag
    # all blocks, and all but the first one past its `first` levels
    every, later = zip(*((x, x[..., 1:]) for x in (v, a, b, tap_d, tap_o, edge)))
    for lvl in range(L):
        w, a_w, b_w, tap_dw, tap_ow, edge_w = every if lvl < first else later
        w[0, 1:lvl + 3], w[1, 1:lvl + 3] = _characteristic_step(
            w[0, 1:lvl + 3], w[1, 1:lvl + 3], w[0, :lvl + 2], w[1, :lvl + 2], a_w[lvl], b_w[lvl])
        w[:, 1:3, 0] += tap_dw[lvl]
        w[:, lvl + 1:lvl + 3, 1] += tap_ow[lvl]
        w[:, 1, 2] = edge_w[lvl + 1]
        w[:, lvl + 2, 3] = diag
    return np.ascontiguousarray(v[:, 1:].transpose(3, 2, 0, 1))


def jost_kernel_direct(q: Potential, alpha: BoundaryParam) -> JostRep:
    """Kernel g(s) = e^{-i alpha} G11(0, s) - e^{i alpha} G21(0, s) from the
    transformation kernel; second-order accurate up to the support edges.

    The kernel G(x, s) of the Jost solution satisfies, on the triangle
    x + s <= gamma,

        d/dx G11 = q(x) G21,     (d/dx - d/ds) G21 = conj(q(x)) G11,

    with boundary value G21(x, 0) = -conj(q(x)) and zero diagonal data on
    x + s = gamma.  The pair is marched down from x = gamma to x = 0 with
    `_characteristic_step` along the x lines and the characteristics
    x + s = const, with q at the cell mean.  Both boundary columns are known
    before the march: the s = 0 node takes its o from the data and its d
    from d(x - h) = d(x) + a (o(x) + o(x - h)), and the diagonal node is
    (0, o(gamma)).  So a block of B = `_MARCH_BLOCK` levels is a fixed
    linear map of its start line plus known boundary terms.  The maps of
    all blocks are built together in B vectorised steps
    (`_block_transfers`), and each is applied to the line as (B + 1)-tap
    convolutions plus its free part, a shift of the o row by B nodes, added
    exactly.  The march starts from the two known nodes of the line
    x = gamma - h; the first block takes the (n - 2) % B + 1 levels that do
    not fill whole blocks.  This is the per-level march with its sums
    reordered; the buffers are O(n B).
    """
    n, h = q.grid.n, q.grid.h
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    cell_at = amps * np.exp(2j * chirps * 0.5 * (nodes[:-1] + nodes[1:]))  # cell mean value
    a_cell = -0.5 * h * cell_at
    b_cell = np.conj(a_cell)
    o_edge = -np.conj(_node_values(q.grid, amps, chirps))     # G21(x, 0)
    a_list, o_list = a_cell.tolist(), o_edge.tolist()
    d_list = [0j] * (n + 1)                     # G11(x, 0), summed from x = gamma down
    for i in range(n - 1, -1, -1):
        d_list[i] = d_list[i + 1] + a_list[i] * (o_list[i + 1] + o_list[i])
    d_edge = np.array(d_list)
    diag = np.array([0.0, o_edge[n]], dtype=complex)

    # rows (d, o) = (G11, G21) on the line x = gamma - h: its s = 0 node and
    # its diagonal node
    line = np.array([[d_edge[n - 1], 0.0], [o_edge[n - 1], o_edge[n]]])
    if n > 1:
        count = -(-(n - 1) // _MARCH_BLOCK)
        first = n - 1 - (count - 1) * _MARCH_BLOCK
        size = _MARCH_BLOCK if count > 1 else first
        # line index of each block's start line (row 0) and after each level
        start = n - 1 - np.r_[0, first + _MARCH_BLOCK * np.arange(count - 1)]
        lines = start - np.arange(size + 1)[:, None]
        transfers = _block_transfers(a_cell[lines[1:]], b_cell[lines[1:]],
                                     np.stack([d_edge[lines], o_edge[lines]], axis=1),
                                     diag, first)
        for k, t in enumerate(transfers):
            grow = first if k == 0 else _MARCH_BLOCK
            t = t[..., :grow + 1]
            m = line.shape[1]
            new = np.zeros((2, m + grow), dtype=complex)
            if m > 2:
                inner = line[:, 1:-1]
                for r in range(2):
                    new[r, 1:-1] = np.convolve(t[0, r], inner[0]) + np.convolve(t[1, r], inner[1])
                # P's free part, exactly: d stays, o moves up `grow` nodes
                new[0, 1:m - 1] += inner[0]
                new[1, 1 + grow:m - 1 + grow] += inner[1]
            new[:, :grow + 1] += t[2]
            new[:, m - 1:] += t[3]
            line = new
    ea = alpha.phase
    g = ea * line[0] - np.conj(ea) * line[1]
    return JostRep(alpha, SampledComplexFunction(q.grid, g))
