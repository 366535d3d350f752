"""Automorphisms of the Jost class: resonance surgery, shift, reflection.

A single resonance moves by multiplying psi with the rational factor
B(z) = (z - z1)/(z - z0), which stays entire and keeps the kernel support
because z0 is a zero of psi.  In kernel space the update is exact and
local: psi(z)/(z - z0) is the transform of

    G(s) = e^{-2i z0 s} ( -2i e^{-i alpha} - 2i int_0^s g(t) e^{2i z0 t} dt ),

(G solves G' = -2i (g + z0 G) with G(0) = -2i e^{-i alpha}; its vanishing
at s = gamma is equivalent to psi(z0) = 0), so g1 = g + (z0 - z1) G.  The
per-move update costs one cumulative Filon integral and loses nothing to
band limitation, unlike re-extracting the kernel from axis samples.

Shift and reflection act pointwise on the potential:

    (e_k q)(x) = e^{2ikx} q(x)   realizes   psi(z, e_k q) = psi(z - k, q),
    q_o(x) = e^{4i alpha} conj(q(x))
        realizes   conj(psi(-conj z, q)) = e^{2i alpha} psi(z, q_o),

i.e. multiplying by e^{2ikx} translates every resonance by +k, and the
reflection mirrors the resonance set across the imaginary axis.  Both
identities hold exactly for the piecewise-exact potential descriptors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BoundaryParam,
    JostRep,
    Piece,
    Potential,
    SampledComplexFunction,
    ValidationError,
)
from .core import _filon_weights
from .forward import jost_kernel_direct, psi_values
from .inverse import recover_potential

__all__ = [
    "ResonanceMove",
    "blaschke_modify",
    "move_resonances",
    "shift_potential",
    "reflect_potential",
    "shift_identity_residual",
    "reflect_identity_residual",
]


@dataclass(frozen=True)
class ResonanceMove:
    """Relocate one multiplicity unit of the zero at source to target."""

    source: complex
    target: complex

    def __post_init__(self):
        if self.source.imag >= 0 or self.target.imag >= 0:
            raise ValidationError("moves must stay in the open lower half-plane")


def _cumulative_filon(g: SampledComplexFunction, z0: complex) -> np.ndarray:
    """Running integral int_0^{s_j} g(t) e^{2i z0 t} dt, exact for the
    piecewise-linear interpolant of g."""
    A, B, _ = _filon_weights(2j * z0 * g.grid.h)
    terms = np.exp(2j * z0 * g.grid.nodes()) * g.values
    cells = g.grid.h * (A * terms[:-1] + B * terms[1:])
    out = np.empty(g.grid.n + 1, dtype=complex)
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


def blaschke_modify(rep: JostRep, moves):
    """The JostRep whose psi is psi(., rep) times prod (z - z1)/(z - z0).

    Each move consumes one multiplicity unit of its source zero (a double
    zero moves entirely only with two identical moves).  Sources are
    verified against the representation by one Newton polish of them all
    (`spectral._polish`); a source that is not a zero (the polish fails to
    converge, or converges beyond max(1e-6, 25 h^2 (1 + |source|))) would
    introduce a pole and is rejected, as is a target in the closed upper
    half-plane.  The kernel is updated in closed form per move (the
    Volterra update above), exact for the piecewise-linear interpolant of g.
    """
    from .spectral import _polish

    moves = [mv if isinstance(mv, ResonanceMove) else ResonanceMove(*mv)
             for mv in moves]
    h = rep.g.grid.h
    # the representation's zeros carry the O(h^2) kernel error
    tols = [max(1e-6, 25.0 * h * h * (1.0 + abs(mv.source))) for mv in moves]
    roots = _polish(lambda zz: rep.psi(zz), [mv.source for mv in moves], 1e-12,
                    [1] * len(moves), [10 * tol + 1e-3 for tol in tols])
    for mv, z, tol in zip(moves, roots, tols):
        if z is None or abs(z - mv.source) > tol:
            raise ValidationError(
                f"move source {mv.source} is not a zero of the representation "
                f"(within {tol:.1e})")

    g = rep.g
    for mv in moves:
        z0, z1 = mv.source, mv.target
        G = np.exp(-2j * z0 * g.grid.nodes()) * (
            -2j * rep.alpha.phase
            - 2j * _cumulative_filon(g, z0))
        g = SampledComplexFunction(g.grid, g.values + (z0 - z1) * G)
    return JostRep(rep.alpha, g)


def move_resonances(q: Potential, alpha: BoundaryParam, moves) -> Potential:
    """Potential whose Jost function is psi(., q) times the move factors,
    recovered from the updated JostRep, which needs no horizon."""
    return recover_potential(blaschke_modify(jost_kernel_direct(q, alpha), moves))


def shift_potential(q: Potential, k: float) -> Potential:
    """q_k(x) = e^{2ikx} q(x): psi(z, q_k) = psi(z - k, q), so every
    resonance translates by +k.  Moduli are unchanged."""
    x = q.grid.nodes()
    vals = q.samples.values * np.exp(2j * k * x)
    pieces = None
    if q.pieces is not None:
        pieces = tuple(Piece(p.lo, p.hi, p.amp, p.chirp + k) for p in q.pieces)
    return Potential(SampledComplexFunction(q.grid, vals), pieces)


def reflect_potential(q: Potential, alpha: BoundaryParam) -> Potential:
    """q_o(x) = e^{4i alpha} conj(q(x)): resonances reflect across the
    imaginary axis.  An involution (|e^{4i alpha}| = 1)."""
    phase = np.exp(4j * alpha.alpha)
    vals = phase * np.conj(q.samples.values)
    pieces = None
    if q.pieces is not None:
        pieces = tuple(Piece(p.lo, p.hi, phase * np.conj(p.amp), -p.chirp)
                       for p in q.pieces)
    return Potential(SampledComplexFunction(q.grid, vals), pieces)


def shift_identity_residual(q: Potential, alpha: BoundaryParam, k: float,
                            z: np.ndarray) -> float:
    """max |psi(z, e_k q) - psi(z - k, q)| over the samples."""
    qk = shift_potential(q, k)
    z = np.asarray(z, dtype=complex)
    return float(np.max(np.abs(psi_values(qk, alpha, z)
                               - psi_values(q, alpha, z - k))))


def reflect_identity_residual(q: Potential, alpha: BoundaryParam,
                              z: np.ndarray) -> float:
    """max |conj(psi(-conj z, q)) - e^{2i alpha} psi(z, q_o)|."""
    qo = reflect_potential(q, alpha)
    z = np.asarray(z, dtype=complex)
    lhs = np.conj(psi_values(q, alpha, -np.conj(z)))
    rhs = np.exp(2j * alpha.alpha) * psi_values(qo, alpha, z)
    return float(np.max(np.abs(lhs - rhs)))
