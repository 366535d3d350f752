"""Forward and inverse resonance scattering for massless Dirac operators
on the half-line with compactly supported potentials.

Subpackages: `core` (types, validators), `forward` (Jost
solutions and kernels), `spectral` (resonances, counting, phases),
`inverse` (Wiener inversion, scattering kernel, layer recovery),
`transforms` (resonance surgery, shift, reflection), `canonical`
(canonical systems and the Hermite-Biehler function), `cli`.
"""

from .core import (
    BoundaryParam,
    Grid,
    JostRep,
    Piece,
    Potential,
    ResonanceSet,
    SampledComplexFunction,
    ScatteringRep,
    make_grid,
    potential_from_values,
    validate_class,
)

__all__ = [
    "BoundaryParam",
    "Grid",
    "JostRep",
    "Piece",
    "Potential",
    "ResonanceSet",
    "SampledComplexFunction",
    "ScatteringRep",
    "make_grid",
    "potential_from_values",
    "validate_class",
]

__version__ = "0.1.0"
