"""Seeded synthetic potentials for pipelines and round-trip experiments."""

from __future__ import annotations

import numpy as np

from .core import Piece, Potential, SampledComplexFunction, ValidationError, make_grid
from .core import _node_values, _piece_cells

__all__ = ["random_piecewise_potential", "constant_potential", "sampled_from_pieces"]


def sampled_from_pieces(gamma: float, n: int, pieces: tuple[Piece, ...]) -> Potential:
    """Node samples of an exactly piecewise potential, by the node rule
    `core._node_values`: interior junction nodes carry the mean of the
    one-sided limits (the value second-order quadratures and the recovery
    pipeline converge to), the support edges the inside limits.
    """
    grid = make_grid(0.0, gamma, n)
    vals = _node_values(grid, *_piece_cells(grid, pieces))
    return Potential(SampledComplexFunction(grid, vals), tuple(pieces))


def constant_potential(c: complex, n: int = 1024) -> Potential:
    """q = c on [0, 1], one exact piece."""
    return sampled_from_pieces(1.0, n, (Piece(0.0, 1.0, complex(c)),))


def random_piecewise_potential(seed: int, gamma: float = 1.0, n: int = 1024,
                               n_pieces: int = 8, max_amp: float = 2.0) -> Potential:
    """Equal-width piecewise-constant potential with amplitudes uniform in
    the disk of radius max_amp; deterministic per seed.  The last piece is
    kept away from zero so the support supremum genuinely sits at gamma.
    """
    if n_pieces < 1:
        raise ValidationError(f"the piece count must be at least 1, got {n_pieces}")
    if n % n_pieces != 0:
        raise ValidationError("n must be divisible by the piece count")
    rng = np.random.default_rng(seed)
    radii = max_amp * np.sqrt(rng.uniform(0.0, 1.0, n_pieces))
    phases = rng.uniform(0.0, 2.0 * np.pi, n_pieces)
    amps = radii * np.exp(1j * phases)
    while abs(amps[-1]) < 0.15 * max_amp:
        amps[-1] = max_amp * np.sqrt(rng.uniform(0.0, 1.0)) * np.exp(
            1j * rng.uniform(0.0, 2.0 * np.pi))
    edges = np.linspace(0.0, gamma, n_pieces + 1)
    pieces = tuple(Piece(float(edges[i]), float(edges[i + 1]), complex(amps[i]))
                   for i in range(n_pieces))
    return sampled_from_pieces(gamma, n, pieces)
