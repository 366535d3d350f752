"""Reference Jost functions that share no code with dirachl.

psi(z) = e^{-i alpha} f11(0, z) - e^{i alpha} f21(0, z), where f(0, z) is
the ordered product of the exact factors expm(-A_j w_j) over the cells of
a piecewise-constant potential, times the free terminal value
e^{i z gamma sigma3}; A_j = [[i z, c_j], [conj c_j, -i z]].  The matrix
exponentials are a Taylor series checked against scipy.linalg.expm, so a
mistake in the library's closed-form 2x2 propagators cannot cancel here.
A cell-sampled potential is the piecewise-constant model whose cell value
is the mean of the two node samples, the model the library defines for
potentials without exact pieces.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla


def cells_from_pieces(pieces) -> np.ndarray:
    """Rows (lo, hi, amp, chirp) of exact pieces a e^{2ikx} on [lo, hi]."""
    return np.array([[lo, hi, amp, chirp] for lo, hi, amp, chirp in pieces], dtype=complex)


def cells_from_samples(gamma: float, samples) -> np.ndarray:
    """Rows (lo, hi, amp, 0) of the cell model of node samples on [0, gamma]."""
    v = np.asarray(samples, dtype=complex)
    x = np.linspace(0.0, gamma, v.size)
    return np.stack([x[:-1], x[1:], 0.5 * (v[:-1] + v[1:]), np.zeros(v.size - 1)], axis=1)


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two stacks of 2x2 matrices held as their four entries
    (elementwise arithmetic; np.matmul is slow on tiny matrices)."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of 2x2 matrices.

    scipy.linalg.expm loops over a stack in Python (about 0.2 ms per 2x2
    factor), too slow for contour sweeps over thousands of cells and
    points.  This is the plain scaled Taylor series, squared back; a
    sample of each stack is checked against scipy.linalg.expm, which
    stays the reference.
    """
    norm = float(np.max(np.sum(np.abs(m), axis=-1), initial=0.0))
    squarings = max(0, int(np.ceil(np.log2(norm / 0.25)))) if norm > 0.25 else 0
    x = m / 2.0 ** squarings
    x = (x[..., 0, 0], x[..., 0, 1], x[..., 1, 0], x[..., 1, 1])
    one, zero = np.ones(m.shape[:-2], dtype=complex), np.zeros(m.shape[:-2], dtype=complex)
    term = (one, zero, zero, one)
    out = [t.copy() for t in term]
    for k in range(1, 14):          # remainder below 0.25^14 / 14! ~ 1e-20
        term = tuple(t / k for t in _mul(term, x))
        for i in range(4):
            out[i] += term[i]
    out = tuple(out)
    for _ in range(squarings):
        out = _mul(out, out)
    res = np.empty(m.shape, dtype=complex)
    res[..., 0, 0], res[..., 0, 1], res[..., 1, 0], res[..., 1, 1] = out
    flat_m, flat_res = m.reshape(-1, 2, 2), res.reshape(-1, 2, 2)
    for i in np.linspace(0, len(flat_m) - 1, min(8, len(flat_m))).astype(int):
        ref = sla.expm(flat_m[i])
        if np.max(np.abs(flat_res[i] - ref)) > 1e-11 * max(1.0, np.max(np.abs(ref))):
            raise ArithmeticError("batched expm disagrees with scipy.linalg.expm")
    return res


def psi(cells: np.ndarray, alpha: float, z) -> np.ndarray:
    """Jost function at the points z of the potential given by rows
    (lo, hi, amp, chirp) tiling [0, gamma].  On a chirped piece
    g = e^{-ikx sigma3} f has the constant coefficient of amp at z - k, so
    f(lo) = e^{ik lo sigma3} expm(-A(z - k) w) e^{-ik hi sigma3} f(hi)."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    lo, hi, amps, k = cells[:, 0].real, cells[:, 1].real, cells[:, 2], cells[:, 3].real
    w = z[None, :] - k[:, None]
    coef = np.empty((amps.size, z.size, 2, 2), dtype=complex)
    coef[..., 0, 0] = 1j * w
    coef[..., 1, 1] = -1j * w
    coef[..., 0, 1] = amps[:, None]
    coef[..., 1, 0] = np.conj(amps)[:, None]
    factors = expm(-coef * (hi - lo)[:, None, None, None])
    # only the first column of f(0, z) enters psi
    u = np.exp(1j * z * hi[-1])
    v = np.zeros(z.size, dtype=complex)
    for j in range(amps.size - 1, -1, -1):
        fj = factors[j]
        if k[j] != 0.0:
            u, v = u * np.exp(-1j * k[j] * hi[j]), v * np.exp(1j * k[j] * hi[j])
        u, v = fj[:, 0, 0] * u + fj[:, 0, 1] * v, fj[:, 1, 0] * u + fj[:, 1, 1] * v
        if k[j] != 0.0:
            u, v = u * np.exp(1j * k[j] * lo[j]), v * np.exp(-1j * k[j] * lo[j])
    ea = np.exp(-1j * alpha)
    return ea * u - np.conj(ea) * v


def psi_constant(c: complex, gamma: float, alpha: float, z) -> np.ndarray:
    """Closed form for q = c on [0, gamma]: with mu = sqrt(|c|^2 - z^2),
    f11 = (cosh(gamma mu) - i z sinh(gamma mu)/mu) e^{i z gamma} and
    f21 = -conj(c) sinh(gamma mu)/mu e^{i z gamma}."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    mu = np.sqrt(abs(c) ** 2 - z * z)
    tiny = np.abs(mu) < 1e-12
    mu_safe = np.where(tiny, 1.0, mu)
    sh = np.where(tiny, gamma, np.sinh(gamma * mu_safe) / mu_safe)
    phase = np.exp(1j * z * gamma)
    f11 = (np.cosh(gamma * mu) - 1j * z * sh) * phase
    f21 = -np.conj(c) * sh * phase
    ea = np.exp(-1j * alpha)
    return ea * f11 - np.conj(ea) * f21


def rectangle(re0: float, re1: float, im0: float, im1: float, per_edge: int) -> np.ndarray:
    """Counterclockwise boundary points of a rectangle, corners included."""
    t = np.arange(per_edge) / per_edge
    return np.concatenate([
        re0 + t * (re1 - re0) + 1j * im0,
        re1 + 1j * (im0 + t * (im1 - im0)),
        re1 - t * (re1 - re0) + 1j * im1,
        re0 + 1j * (im1 - t * (im1 - im0)),
    ])


def winding(fn, re0: float, re1: float, im0: float, im1: float,
            per_edge: int = 256, max_per_edge: int = 8192) -> int:
    """Zero count of fn inside the rectangle from the winding of its values
    along the boundary; sampling doubles until no phase step exceeds pi/4."""
    while True:
        vals = fn(rectangle(re0, re1, im0, im1, per_edge))
        if np.min(np.abs(vals)) == 0.0:
            raise ValueError("the oracle psi vanishes on the region boundary")
        steps = np.angle(np.roll(vals, -1) / vals)
        if np.max(np.abs(steps)) < np.pi / 4:
            return int(round(float(np.sum(steps)) / (2.0 * np.pi)))
        if per_edge >= max_per_edge:
            raise ValueError("boundary phase not resolved; region too close to a zero")
        per_edge *= 2


def zero_ratio(fn, z: complex, radius: float = 1e-2, points: int = 8) -> float:
    """|fn(z)| over the largest |fn| on a small circle around z: tiny at a
    simple or multiple zero, of order one anywhere else."""
    ring = z + radius * np.exp(2j * np.pi * np.arange(points) / points)
    vals = np.abs(fn(np.concatenate([[z], ring])))
    return float(vals[0] / np.max(vals[1:]))
