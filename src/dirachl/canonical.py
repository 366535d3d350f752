"""Canonical systems and the Hermite-Biehler function.

The unitary frame change T = (1/sqrt 2) [[i, -i], [1, 1]] turns the
half-line system into J u' + V u = z u with the real symmetric traceless
matrix V = [[q1, q2], [q2, -q1]], q = -q2 + i q1, J = [[0, 1], [-1, 0]].
With M(x, z) the fundamental matrix (M(0) = I), the z = 0 solution
r = M(., 0) generates the canonical-system Hamiltonian H = r^T r, a
positive unit-determinant matrix equal to I at 0 and constant beyond the
support.  M is a product of exact per-segment propagators: on a segment
where q = a e^{2ikx} the rotation T e^{ikx sigma3} T^{-1} removes the
chirp, leaving the constant traceless coefficient -J((z - k) I - V(a))
with a closed-form exponential, so det M = 1 holds to rounding.  The
reverse direction needs only derivatives of the entries:

    p = a'/a,  w = (a b' - a' b)/a,  rho(x) = int_0^x w,
    q1 = -(w cos rho + p sin rho)/2,   q2 = (p cos rho - w sin rho)/2.

The second column phi of M at the support edge yields the
Hermite-Biehler function E(z) = phi1(gamma, z) - i phi2(gamma, z), equal
to -i e^{-i gamma z} psi_0(z); its zeros in the lower half-plane are the
Dirichlet resonances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryParam,
    Grid,
    NumericalError,
    Potential,
    SampledComplexFunction,
    ValidationError,
    make_grid,
)
from .forward import _check_im_cap, _expm_traceless, _mul2, _segment_product, _segments

__all__ = [
    "MatrixPotential",
    "Hamiltonian",
    "FundamentalMatrix",
    "matrix_potential",
    "fundamental_matrix",
    "canonical_values",
    "hamiltonian_from_potential",
    "potential_from_hamiltonian",
    "boundary_solution",
    "hermite_biehler",
    "make_hermite_evaluator",
]


@dataclass(frozen=True)
class MatrixPotential:
    """Real symmetric traceless matrix data (q1, q2) with q = -q2 + i q1."""

    grid: Grid
    q1: np.ndarray
    q2: np.ndarray

    def complex_potential(self) -> np.ndarray:
        return -self.q2 + 1j * self.q1


@dataclass(frozen=True)
class Hamiltonian:
    """Positive unit-determinant Hamiltonian ((a, b), (b, (1+b^2)/a)).

    Stored through (a, b) so the determinant is one identically; constant
    continuation beyond gamma is implied.
    """

    gamma: float
    grid: Grid
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.shape != (self.grid.n + 1,) or b.shape != (self.grid.n + 1,):
            raise ValidationError("entry arrays must match the grid")
        if np.any(a <= 0):
            raise ValidationError("the (1,1) entry must stay positive")

    def h22(self) -> np.ndarray:
        return (1.0 + self.b ** 2) / self.a

    def matrices(self) -> np.ndarray:
        out = np.empty((self.grid.n + 1, 2, 2))
        out[:, 0, 0] = self.a
        out[:, 0, 1] = out[:, 1, 0] = self.b
        out[:, 1, 1] = self.h22()
        return out

    def to_json(self) -> dict:
        return {"gamma": self.gamma, "n": self.grid.n,
                "a": [float(v) for v in self.a],
                "b": [float(v) for v in self.b]}

    @staticmethod
    def from_json(obj: dict) -> "Hamiltonian":
        gamma = float(obj["gamma"])
        n = int(obj["n"])
        return Hamiltonian(gamma, make_grid(0.0, gamma, n),
                           np.asarray(obj["a"], dtype=float),
                           np.asarray(obj["b"], dtype=float))


@dataclass(frozen=True)
class FundamentalMatrix:
    """M(x, z) at the grid nodes; columns are theta = M[:, :, 0] and
    phi = M[:, :, 1], with M(0) = I."""

    z: complex
    grid: Grid
    values: np.ndarray

    def at_edge(self) -> np.ndarray:
        return self.values[-1]

    def det_drift(self) -> float:
        dets = (self.values[:, 0, 0] * self.values[:, 1, 1]
                - self.values[:, 0, 1] * self.values[:, 1, 0])
        return float(np.max(np.abs(dets - 1.0)))


def matrix_potential(q: Potential) -> MatrixPotential:
    vals = q.samples.values
    return MatrixPotential(q.grid, np.imag(vals).copy(), -np.real(vals).copy())


def _rotation(theta):
    """T e^{i theta sigma3} T^{-1}, the chirp gauge in the canonical frame,
    as entries (m00, m01, m10, m11)."""
    c, s = np.cos(theta), np.sin(theta)
    return c, -s, s, c


def _segment_steps(lo, hi, amp, k, z):
    """Exact propagators M(hi) M(lo)^{-1} across segments carrying
    q = amp e^{2ikx}, as entry arrays (m00, m01, m10, m11) broadcast over
    segments and z."""
    zk = np.asarray(z - k, dtype=complex)
    q1, q2 = np.imag(amp), -np.real(amp)
    # -J((z - k) I - V) = [[q2, -(zk + q1)], [zk - q1, -q2]]
    step = _expm_traceless(q2, -(zk + q1), zk - q1, hi - lo)
    if np.any(k != 0.0):
        step = _mul2(_rotation(k * hi), _mul2(step, _rotation(-k * lo)))
    return step


def fundamental_matrix(q: Potential, z: complex) -> FundamentalMatrix:
    """M(x, z) at the nodes: running product of the exact per-cell propagators
    of J u' + V u = z u from M(0) = I."""
    zz = complex(z)
    _check_im_cap(q.gamma, zz)
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    steps = np.stack(_segment_steps(nodes[:-1], nodes[1:], amps, chirps, zz), -1)
    steps = steps.reshape(-1, 2, 2)
    out = np.empty((q.grid.n + 1, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    for j in range(q.grid.n):
        out[j + 1] = steps[j] @ out[j]
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalError("canonical propagation overflowed")
    return FundamentalMatrix(zz, q.grid, out)


def canonical_values(q: Potential, z: np.ndarray) -> np.ndarray:
    """M(gamma, z) batched over z: one exact exponential per segment (per
    piece when the potential carries exact pieces, else per cell), the
    segments multiplied in a pairwise tree."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_im_cap(q.gamma, zz)
    lo, hi, amp, k = (x[::-1, None] for x in _segments(q))
    M = _segment_product(zz, len(lo), lambda zb: _segment_steps(lo, hi, amp, k, zb))
    if not np.all(np.isfinite(M.view(float))):
        raise NumericalError("canonical propagation overflowed; reduce |Im z|")
    return M.reshape(zz.shape + (2, 2))


def hamiltonian_from_potential(q: Potential) -> Hamiltonian:
    """H = r^T r with r = M(., 0); r is real (V is real and z = 0)."""
    M = fundamental_matrix(q, 0.0)
    r = M.values.real
    a = r[:, 0, 0] ** 2 + r[:, 1, 0] ** 2
    b = r[:, 0, 0] * r[:, 0, 1] + r[:, 1, 0] * r[:, 1, 1]
    return Hamiltonian(q.gamma, q.grid, a, b)


def _derivative(vals: np.ndarray, h: float) -> np.ndarray:
    """Central differences with second-order one-sided stencils at the ends."""
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return out


def potential_from_hamiltonian(H: Hamiltonian) -> Potential:
    """Differentiate the entries and rotate back to q = -q2 + i q1."""
    if np.any(H.a <= 0):
        raise ValidationError("Hamiltonian outside the admissible class: a <= 0")
    h = H.grid.h
    ap = _derivative(H.a, h)
    bp = _derivative(H.b, h)
    p = ap / H.a
    w = (H.a * bp - ap * H.b) / H.a
    rho = np.empty_like(w)
    rho[0] = 0.0
    np.cumsum(0.5 * h * (w[1:] + w[:-1]), out=rho[1:])
    q1 = -0.5 * (w * np.cos(rho) + p * np.sin(rho))
    q2 = 0.5 * (p * np.cos(rho) - w * np.sin(rho))
    vals = -q2 + 1j * q1
    return Potential(H.gamma, SampledComplexFunction(H.grid, vals))


def boundary_solution(q: Potential, alpha: BoundaryParam, z: complex) -> tuple[complex, complex]:
    """u(gamma, z, alpha) = phi cos(alpha) - theta sin(alpha) from the
    fundamental-matrix columns; satisfies
    psi_alpha(z) = e^{i gamma z} (u2 + i u1)."""
    M = canonical_values(q, np.array([z]))[0]
    theta = M[:, 0]
    phi = M[:, 1]
    ca, sa = math.cos(alpha.alpha), math.sin(alpha.alpha)
    u = phi * ca - theta * sa
    return complex(u[0]), complex(u[1])


def hermite_biehler(q: Potential, z: complex) -> complex:
    """E(z) = phi1(gamma, z) - i phi2(gamma, z)."""
    M = canonical_values(q, np.array([z]))[0]
    return complex(M[0, 1] - 1j * M[1, 1])


def make_hermite_evaluator(q: Potential):
    """Vectorized z -> E(z) for zero searches."""
    def ev(z):
        scalar = np.isscalar(z)
        M = canonical_values(q, np.atleast_1d(np.asarray(z, dtype=complex)))
        vals = M[:, 0, 1] - 1j * M[:, 1, 1]
        return complex(vals[0]) if scalar else vals
    return ev
