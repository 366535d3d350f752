"""Canonical systems and the Hermite-Biehler function.

The unitary frame change T = (1/sqrt 2) [[i, -i], [1, 1]] turns the
half-line system into J u' + V u = z u with the real symmetric traceless
matrix V = [[q1, q2], [q2, -q1]], q = -q2 + i q1, J = [[0, 1], [-1, 0]].
With M(x, z) the fundamental matrix (M(0) = I), the z = 0 solution
r = M(., 0) generates the canonical-system Hamiltonian H = r^T r, a
positive unit-determinant matrix equal to I at 0 and constant beyond the
support.  M is the T-conjugate of the Dirac propagator, M(x, z) =
T f(x, z) f(0, z)^{-1} T^{-1}, built from the exact unit-determinant
segment factors of `forward` (so det M = 1 holds to rounding).  The
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
from .forward import _check_im_cap, _mul2, _propagate_exact, _segment_factors

__all__ = [
    "Hamiltonian",
    "FundamentalMatrix",
    "fundamental_matrix",
    "canonical_values",
    "hamiltonian_from_potential",
    "potential_from_hamiltonian",
    "boundary_solution",
    "hermite_biehler",
    "make_hermite_evaluator",
]


@dataclass(frozen=True)
class Hamiltonian:
    """Positive unit-determinant Hamiltonian ((a, b), (b, (1+b^2)/a)).

    Stored through (a, b) so the determinant is one identically; constant
    continuation beyond gamma is implied.  The grid must be [0, gamma]
    exactly.  a and b are read-only copies of the arrays given, so a > 0
    holds for the object's whole life.
    """

    gamma: float
    grid: Grid
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if (self.grid.left, self.grid.right) != (0.0, self.gamma):
            raise ValidationError(f"the grid {self.grid} must be [0, gamma] = [0, {self.gamma}]")
        for name in ("a", "b"):
            v = np.array(getattr(self, name), dtype=float)
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if self.a.shape != (self.grid.n + 1,) or self.b.shape != (self.grid.n + 1,):
            raise ValidationError("entry arrays must match the grid")
        if np.any(self.a <= 0):
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
        return Hamiltonian(gamma, make_grid(0.0, gamma, obj["n"]),
                           np.asarray(obj["a"], dtype=float),
                           np.asarray(obj["b"], dtype=float))


@dataclass(frozen=True)
class FundamentalMatrix:
    """M(x, z) at the grid nodes; columns are theta = M[:, :, 0] and
    phi = M[:, :, 1], with M(0) = I."""

    z: complex
    grid: Grid
    values: np.ndarray

    def det_drift(self) -> float:
        dets = (self.values[:, 0, 0] * self.values[:, 1, 1]
                - self.values[:, 0, 1] * self.values[:, 1, 0])
        return float(np.max(np.abs(dets - 1.0)))


def _t_conjugate(a, b, c, d) -> np.ndarray:
    """T X T^{-1} for X = [[a, b], [c, d]] (entry arrays of one shape), in
    closed form: T^{-1} = T^H, so each entry is a signed half-sum."""
    out = np.empty(np.shape(a) + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 * ((a + d) - (b + c))
    out[..., 0, 1] = 0.5j * ((a + b) - (c + d))
    out[..., 1, 0] = 0.5j * ((b + d) - (a + c))
    out[..., 1, 1] = 0.5 * ((a + d) + (b + c))
    return out


def fundamental_matrix(q: Potential, z: complex) -> FundamentalMatrix:
    """M(x, z) = T f(x, z) f(0, z)^{-1} T^{-1} at the nodes, from the prefix
    products of the per-cell forward steps f(hi) f(lo)^{-1}: the adjugates
    of the unit-determinant `_segment_factors`."""
    zz = complex(z)
    _check_im_cap(q.gamma, zz)
    amps, chirps = q.cell_values()
    nodes = q.grid.nodes()
    e00, e01, e10, e11 = _segment_factors(nodes[:-1], nodes[1:], amps, chirps, zz)
    m, d = (e11, -e01, -e10, e00), 1
    while d < q.grid.n:     # log-depth scan: m[j] becomes step j ... step 1 step 0
        prod = _mul2([x[d:] for x in m], [x[:-d] for x in m])
        m, d = [np.concatenate((x[:d], p)) for x, p in zip(m, prod)], 2 * d
    # M(0) = I ahead of the prefix products
    out = _t_conjugate(*(np.concatenate(([one], x)) for one, x in zip((1.0, 0.0, 0.0, 1.0), m)))
    if not np.all(np.isfinite(out.view(float))):
        raise NumericalError("canonical propagation overflowed")
    return FundamentalMatrix(zz, q.grid, out)


def canonical_values(q: Potential, z: np.ndarray) -> np.ndarray:
    """M(gamma, z) = T e^{i gamma z sigma3} f(0, z)^{-1} T^{-1} batched over z.
    `_propagate_exact` gives P = f(0, z) e^{-i gamma z sigma3}, whose inverse
    is the middle factor; det P = 1, so that is the adjugate."""
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_im_cap(q.gamma, zz)
    p = _propagate_exact(q, zz)
    return _t_conjugate(p[..., 1, 1], -p[..., 0, 1], -p[..., 1, 0], p[..., 0, 0])


def hamiltonian_from_potential(q: Potential) -> Hamiltonian:
    """H = r^T r with r = M(., 0); r is real (V is real and z = 0)."""
    M = fundamental_matrix(q, 0.0)
    r = M.values.real
    a = r[:, 0, 0] ** 2 + r[:, 1, 0] ** 2
    b = r[:, 0, 0] * r[:, 0, 1] + r[:, 1, 0] * r[:, 1, 1]
    return Hamiltonian(q.gamma, q.grid, a, b)


def potential_from_hamiltonian(H: Hamiltonian) -> Potential:
    """Differentiate the entries (central differences, second-order
    one-sided stencils at the ends) and rotate back to q = -q2 + i q1."""
    h = H.grid.h
    ap, bp = (np.gradient(v, h, edge_order=2) for v in (H.a, H.b))
    p = ap / H.a
    w = (H.a * bp - ap * H.b) / H.a
    rho = np.empty_like(w)
    rho[0] = 0.0
    np.cumsum(0.5 * h * (w[1:] + w[:-1]), out=rho[1:])
    q1 = -0.5 * (w * np.cos(rho) + p * np.sin(rho))
    q2 = 0.5 * (p * np.cos(rho) - w * np.sin(rho))
    vals = -q2 + 1j * q1
    return Potential(SampledComplexFunction(H.grid, vals))


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
    return make_hermite_evaluator(q)(z)


def make_hermite_evaluator(q: Potential):
    """Vectorized z -> E(z) for zero searches."""
    def ev(z):
        scalar = np.isscalar(z)
        M = canonical_values(q, np.atleast_1d(np.asarray(z, dtype=complex)))
        vals = M[..., 0, 1] - 1j * M[..., 1, 1]
        return complex(vals[0]) if scalar else vals
    return ev
