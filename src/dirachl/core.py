"""Shared numeric containers and utilities.

Everything downstream works with complex-valued functions sampled on
uniform grids: potentials q on [0, gamma], Fourier kernels g of the Jost
function on [0, gamma], scattering kernels F on [-gamma, t_max].  This
module provides the containers, trapezoid weights, the FFT
convolution of sampled sequences, an exact Fourier transform of the
piecewise-linear interpolant (plain trapezoid picks up an O((zh)^2)
phase error that is fatal for the tighter agreement checks; arithmetic
runs of z take its plain sum as a chirp-z FFT convolution), and the
class-membership validators for potentials, Jost representations and
scattering representations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Grid",
    "SampledComplexFunction",
    "Piece",
    "Potential",
    "BoundaryParam",
    "JostRep",
    "ScatteringRep",
    "ResonanceSet",
    "ClassCheck",
    "ClassReport",
    "make_grid",
    "support_supremum",
    "support_infimum",
    "validate_class",
]

SUPPORT_FLOOR_REL = 1e-12
_PSI_RECT = 12.0    # validate_class samples psi of a JostRep on [-12, 12] x [0, 12]
_Z_CHECK = 40.0     # and S of a ScatteringRep on [-40, 40]


class DirachlError(Exception):
    """Base class for numerical and validation failures."""


class ValidationError(DirachlError):
    """Input violates a precondition or a class constraint."""


class ParseError(ValidationError):
    """An input file or record cannot be read as the format it claims."""


class NumericalError(DirachlError):
    """A computation failed (overflow, non-convergence, singular system)."""


def _check_positive(name: str, v) -> None:
    """The one check of an argument that must be a finite positive number."""
    if not (math.isfinite(v) and v > 0):
        raise ValidationError(f"{name} must be finite and positive, got {v!r}")


def _check_finite_z(z) -> None:
    """The one check that evaluation points are finite."""
    if not np.isfinite(z).all():
        raise ValidationError("z must be finite")


# ---------------------------------------------------------------------------
# grids and sampled functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform grid with n cells (n+1 nodes) on [left, right]."""

    left: float
    right: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise ValidationError("grid endpoints must be finite")
        if self.n < 1:
            raise ValidationError("grid needs at least one cell")
        if not self.left < self.right:
            raise ValidationError("grid requires left < right")

    @property
    def h(self) -> float:
        return (self.right - self.left) / self.n

    def nodes(self) -> np.ndarray:
        return self.left + self.h * np.arange(self.n + 1)

    def index_of(self, x: float) -> int:
        """Index of the node within 1e-9 max(1, |x|) of x; error if x is off-grid."""
        j = round((x - self.left) / self.h)
        if j < 0 or j > self.n or abs(self.left + j * self.h - x) > 1e-9 * max(1.0, abs(x)):
            raise ValidationError(f"{x} is not a node of {self}")
        return int(j)


def make_grid(left: float, right: float, n: int) -> Grid:
    if not float(n).is_integer():
        raise ValidationError(f"grid cell count must be a whole number, got {n!r}")
    return Grid(float(left), float(right), int(n))


@dataclass(frozen=True)
class SampledComplexFunction:
    """Node samples of a complex function on a uniform grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        if vals.shape != (self.grid.n + 1,):
            raise ValidationError(
                f"expected {self.grid.n + 1} samples, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("samples must be finite")

    def norm_l2(self) -> float:
        return float(np.sqrt(max(np.dot(_trapezoid_weights(self.grid), np.abs(self.values) ** 2), 0.0)))

    def norm_l1(self) -> float:
        return float(np.dot(_trapezoid_weights(self.grid), np.abs(self.values)))


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w = np.full(grid.n + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    return w


@lru_cache(maxsize=None)
def _fft_len(k: int) -> int:
    """The smallest 2^a 3^b 5^c >= k.  Mixed-radix FFTs run about as fast
    per point at these lengths as at powers of two (Frigo & Johnson 2005),
    and the sample counts here are 2^j + 1, which a power of two would
    nearly double."""
    best = 1 << max(k - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < k:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _convolve(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The first m <= len(a) + len(b) - 1 terms of the linear convolution
    a*b, by one FFT product at `_fft_len` of the linear length: the
    scattering kernel's r*h and the Newton steps of the Wiener solve's
    short series inverse."""
    a, b = a[:m], b[:m]
    size = _fft_len(a.size + b.size - 1)
    return np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:m]


def _filon_weights(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell weights of the exact transform of the linear interpolant,
    w = 2izh: a cell adds h (A v_j e^{2izs_j} + B v_{j+1} e^{2izs_{j+1}}),
    so an interior node collects mu = A + B."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-4
    ws = np.where(small, 1.0, w)
    # I0 = int_0^1 e^{wt} dt and I1 = int_0^1 t e^{wt} dt, by series near w = 0
    I0 = np.where(small, 1.0 + w / 2.0 + w ** 2 / 6.0 + w ** 3 / 24.0, (np.exp(ws) - 1.0) / ws)
    I1 = np.where(small, 0.5 + w / 3.0 + w ** 2 / 8.0 + w ** 3 / 30.0,
                  (np.exp(ws) * (ws - 1.0) + 1.0) / ws ** 2)
    A, B = I0 - I1, np.exp(-w) * I1
    return A, B, A + B


def _linear_transform(grid: Grid, z: np.ndarray, cuts: Sequence[int], filon=None,
                      keep_phases: bool = False):
    """int f(s) e^{2izs} ds for the piecewise-linear interpolant of samples
    on `grid`, as a function of the values v and their plain sum
    Σ_j v_j e^{2izs_j}.  At a cut node j (see `_cut_nodes`) the cell on each
    side takes that side's cubic extrapolation 3v_{j∓1} - 3v_{j∓2} + v_{j∓3}
    in place of v_j.  The Filon weights (`filon`, if given) and the end and
    cut nodes are built once; each call adds two sums over those nodes, by
    the #z × (2 + #cuts) phase matrix kept here (`keep_phases`) or formed
    again per call in blocks of z (`_dense_plain`)."""
    h = grid.h
    A, B, mu = _filon_weights(2j * z * h) if filon is None else filon
    c = np.array(cuts, dtype=int)
    s = grid.left + h * np.array([0, grid.n, *c])
    phases = np.exp(2j * np.outer(z, s)) if keep_phases else None

    def transform(v: np.ndarray, plain: np.ndarray) -> np.ndarray:
        w = np.zeros((2 + c.size, 2), dtype=complex)
        w[0, 0], w[1, 1] = -v[0], -v[-1]
        w[2:, 0] = 3.0 * v[c - 1] - 3.0 * v[c - 2] + v[c - 3] - v[c]
        w[2:, 1] = 3.0 * v[c + 1] - 3.0 * v[c + 2] + v[c + 3] - v[c]
        ends = _dense_plain(z, s, w) if phases is None else phases @ w
        return h * (mu * plain + B * ends[:, 0] + A * ends[:, 1])

    return transform


_RUN_MIN = 16            # arithmetic runs of z shorter than this take the dense product
_CHIRP_BLOCK = 2 ** 10   # z per chirp-z run piece: FFTs of max(256, 4 * 2^10) = 4096 at most
_CHIRP_FFT_MIN = 2 ** 8  # the chirp-z FFT length L is the power of two >= 4 C, and at least this
_CHIRP_BATCH = 2 ** 14   # entries (rows x L) per batched chirp-z FFT
# 2 pi = C1 + C2 + C3 within 4e-31 (Cody-Waite); C1 and C2 have 22 significant
# bits, so k C1 and k C2 are exact for |k| < 2^31
_TAU = (float.fromhex("0x1.921fb8p+2"), float.fromhex("-0x1.5dde98p-21"),
        float.fromhex("0x1.8469898cc517p-46"))


def _two_sum(a, b):
    """a + b as the rounded sum and its exact rounding error (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _chirp_phases(t: float, count: int) -> np.ndarray:
    """t n^2 mod 2 pi in [-pi, pi] for n = 0, ..., count - 1, within one
    rounding of the exact value, in doubles alone; valid for |t| <= 1 and
    count <= 2^16.

    t splits exactly into three parts of at most 18 significant bits, so
    each part times n^2 < 2^32 is an exact double.  Each product sheds its
    multiples of 2 pi against the three-part `_TAU`: both subtractions of
    k C1 and k C2 are exact (the first by Sterbenz's lemma, the second
    because the remainder fits 53 bits), and the k C3 terms are small.
    The three remainders are added with their rounding errors kept, and
    the sum is reduced once more the same way."""
    m, e = math.frexp(t)
    M = int(math.ldexp(m, 53))
    parts = (math.ldexp(M >> 36, e - 17), math.ldexp((M >> 18) & 0x3FFFF, e - 35),
             math.ldexp(M & 0x3FFFF, e - 53))
    c1, c2, c3 = _TAU
    n = np.arange(count, dtype=float)
    n2 = n * n
    total, err, turns = np.zeros(count), np.zeros(count), np.zeros(count)
    for part in parts:
        x = part * n2
        k = np.rint(x / math.tau)
        total, rounding = _two_sum(total, (x - k * c1) - k * c2)
        err += rounding
        turns += k
    k = np.rint(total / math.tau)
    return ((total - k * c1) - k * c2) + (err - (turns + k) * c3)


def _arithmetic_runs(z: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, stop, dz) of the runs z[a:b] that the chirp-z sums take,
    contiguous in the order z is given (`_plain_sum` collects them from its
    z and again from the points left over, sorted, then groups them by
    step and length): at least `_RUN_MIN` points, each within
    8 eps max(|z[a]|, |z[b-1]|) of z[a] + k dz with dz real, and
    |dz h| <= 1 (see `_chirp_phases`).
    Candidates are the stretches of near-constant np.diff(z), so two runs
    may share an end point; each is then checked against z[a] + k dz as a
    whole, so a slow drift of the step fails (and so does a run holding a
    NaN)."""
    eps = np.finfo(float).eps
    mag = np.abs(z)
    # a point near 0 carries the rounding of the run's far ends
    scale = np.max(mag, initial=0.0, where=np.isfinite(mag))
    same = np.abs(np.diff(z, 2)) <= 8.0 * eps * scale
    edges = np.flatnonzero(np.diff(np.concatenate(([0], same.view(np.int8), [0]))))
    start, stop = edges[::2], edges[1::2] + 2
    keep = stop - start >= _RUN_MIN
    start, stop = start[keep], stop[keep]
    length = stop - start
    dz = ((z[stop - 1] - z[start]) / (length - 1)).real
    run = np.repeat(np.arange(start.size), length)
    k = np.arange(run.size) - np.repeat(np.cumsum(length) - length, length)
    # z[a] + k dz rebuilt from the ends differs from z = z0 + k step by up
    # to 6 eps max|z| in rounding alone
    tol = 8.0 * eps * np.maximum(mag[start], mag[stop - 1])
    off = ~(np.abs(z[start[run] + k] - (z[start[run]] + k * dz[run])) <= tol[run])
    ok = (np.bincount(run, off, minlength=start.size) == 0) & (np.abs(dz) * h <= 1.0)
    return start[ok], stop[ok], dz[ok]


def _chirp_sums(v: np.ndarray, s: np.ndarray, h: float, z: np.ndarray, dz: float) -> np.ndarray:
    """Σ_j v_j e^{2iz s_j} over the nodes s_j = s_0 + jh, for each row
    z_k = z_0 + k dz (k < C) of the R × C array z, by Bluestein's identity
    kj = (k^2 + j^2 - (k-j)^2)/2.  With theta = 2 dz h and
    w_n = e^{-i theta n^2/2}, the nodes split into blocks of B = L - C + 1
    from s_b on, and a block adds
    e^{2iz_k s_b} conj(w_k) Σ_j [v_{b+j} e^{2iz_0 jh} conj(w_j)] w_{k-j},
    a cyclic convolution of length L (no wrap-around: k - j takes L values)
    with one chirp kernel for all rows and blocks.  Every (row, block) pair
    is a row of a batched FFT pair of at most `_CHIRP_BATCH` entries; the
    block start phases are formed from the given z_k and applied before
    the sum over blocks."""
    R, C = z.shape
    L = max(_CHIRP_FFT_MIN, 1 << (4 * C - 1).bit_length())
    B = L - C + 1
    nb = -(-v.size // B)
    w = np.exp(-1j * _chirp_phases(dz * h, B))
    kern_hat = np.fft.fft(np.concatenate([w[:C], w[B - 1:0:-1]]))
    vw = np.pad(v, (0, nb * B - v.size)).reshape(nb, B) * w.conj()
    # past the last node v is zero padding: its phases stay at the last
    # node's, as e^{2iz_0 jh} overflows there below the real axis
    sb, jh = s[::B], h * np.minimum(np.arange(B), v.size - 1)
    per = _CHIRP_BATCH // L
    rows, blocks = max(1, per // nb), min(nb, per)
    out = np.zeros((R, C), dtype=complex)
    for r in range(0, R, rows):
        zr = z[r:r + rows]
        e0 = np.exp(2j * zr[:, :1] * jh)[:, None, :]
        for b in range(0, nb, blocks):
            y = np.fft.ifft(np.fft.fft(e0 * vw[b:b + blocks], L) * kern_hat)[..., :C]
            out[r:r + rows] += (np.exp(2j * zr[:, None, :] * sb[b:b + blocks, None]) * y).sum(axis=1)
    return out * w[:C].conj()


def _dense_plain(z: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Σ_j v_j e^{2iz s_j} formed densely, in blocks of z that keep each
    phase matrix near 2^14 entries (in cache); v is a vector of weights or
    a (#nodes, k) matrix of k weight columns."""
    out = np.empty(z.shape + v.shape[1:], dtype=complex)
    step = max(1, 2 ** 14 // s.size)
    for i in range(0, z.size, step):
        out[i:i + step] = np.exp(2j * np.outer(z[i:i + step], s)) @ v
    return out


def _plain_sum(f: SampledComplexFunction, z: np.ndarray) -> np.ndarray:
    """The plain sum Σ_j v_j e^{2iz s_j} over the nodes of f.  Runs are
    found in two passes: `_arithmetic_runs` over z in the given order, then,
    when at least `_RUN_MIN` points are left, over those points sorted by
    (Im z, Re z), so a lattice takes its rows in any ravel order.  The runs
    of both passes are cut into near-equal pieces of at most `_CHIRP_BLOCK`
    points, and the pieces are grouped by (dz, length): each group is one
    chirp kernel and a few batched FFT pairs (`_chirp_sums`), so no FFT is
    longer than 2^12 whatever #z and #nodes, and the rows of a lattice
    share their FFT calls.  Every other point goes to `_dense_plain`."""
    s, v, h = f.grid.nodes(), f.values, f.grid.h
    out = np.empty(z.size, dtype=complex)
    dense = np.ones(z.size, dtype=bool)
    groups: dict = {}

    def collect(idx: np.ndarray) -> None:
        if idx.size < _RUN_MIN:
            return
        for a, b, dz in zip(*_arithmetic_runs(z[idx], h)):
            dense[idx[a:b]] = False
            pieces = -(-(b - a) // _CHIRP_BLOCK)
            bounds = a + (b - a) * np.arange(pieces + 1) // pieces
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                groups.setdefault((dz, hi - lo), []).append(idx[lo:hi])

    collect(np.arange(z.size))
    rest = np.flatnonzero(dense)
    collect(rest[np.lexsort((z[rest].real, z[rest].imag))])
    for (dz, _), pieces in groups.items():
        idx = np.stack(pieces)
        out[idx] = _chirp_sums(v, s, h, z[idx], dz)
    out[dense] = _dense_plain(z[dense], s, v)
    return out


def _transform(f: SampledComplexFunction, z, cuts: Sequence[int]) -> np.ndarray | complex:
    """`_linear_transform` at arbitrary z, from `_plain_sum`: a complex for
    a scalar z, else an array of z's shape."""
    zz = np.asarray(z, dtype=complex)
    _check_finite_z(zz)
    flat = zz.ravel()
    plain = _plain_sum(f, flat)     # before the Filon weights: the two peaks do not add
    out = _linear_transform(f.grid, flat, cuts)(f.values, plain)
    return complex(out[0]) if np.isscalar(z) else out.reshape(zz.shape)


_MEDIAN_HALF = 32       # the running median's window is 2 * 32 + 1 samples
_MEDIAN_BLOCK = 4096    # windows per partition call: 2 MiB of copies at most


def _running_median(d: np.ndarray) -> np.ndarray:
    """Median of the 65 samples centred on each entry, the ends extended
    by their edge values.  The window length is odd, so the median is the
    middle order statistic, which one partition per block of windows
    finds exactly."""
    win = sliding_window_view(np.pad(d, _MEDIAN_HALF, mode="edge"), 2 * _MEDIAN_HALF + 1)
    # copy the middle column out, or each view would hold its whole block
    return np.concatenate([np.partition(win[lo:lo + _MEDIAN_BLOCK], _MEDIAN_HALF, axis=1)
                           [:, _MEDIAN_HALF].copy() for lo in range(0, len(win), _MEDIAN_BLOCK)])


def _detect_jump_nodes(values: np.ndarray) -> list[int]:
    """Interior nodes where the sampled function jumps.

    A jump stored with the midpoint convention shows up as a pair of large
    second differences straddling the jump node; isolated spikes mark
    one-sided storage.  Peaks are measured against a local median
    background so smooth curvature never triggers; a cluster of flags at
    most 2 nodes apart becomes the mean of its two largest (or lone) flags.
    """
    n = len(values) - 1
    if n < 16:
        return []
    d2 = np.abs(values[2:] - 2.0 * values[1:-1] + values[:-2])
    local = _running_median(d2)
    floor = 1e-8 * float(np.max(np.abs(values)) or 1.0)
    flags = d2 > np.maximum(30.0 * local, floor)
    idx = np.flatnonzero(flags) + 1
    clusters = np.split(idx, np.flatnonzero(np.diff(idx) > 2) + 1)
    return [int(round(c[np.argsort(d2[c - 1])[-2:]].mean())) for c in clusters if c.size]


def _cut_nodes(values: np.ndarray, structural: Sequence[int] = ()) -> tuple[int, ...]:
    """Nodes at which the transform splits a piecewise-smooth kernel: the
    structural nodes plus the detected jumps, kept for 3 <= j <= n-3 and
    at least 4 nodes apart."""
    n = len(values) - 1
    raw = sorted({j for j in (*structural, *_detect_jump_nodes(values)) if 3 <= j <= n - 3})
    cuts: list[int] = []
    for j in raw:
        if not cuts or j - cuts[-1] >= 4:
            cuts.append(j)
    return tuple(cuts)


def _support(f: SampledComplexFunction) -> np.ndarray:
    """The nodes with |f| above SUPPORT_FLOOR_REL max|f|: none if f = 0."""
    mags = np.abs(f.values)
    return f.grid.nodes()[mags > SUPPORT_FLOOR_REL * mags.max()]


def support_supremum(f: SampledComplexFunction) -> float:
    """Largest node of `_support` (left end if none)."""
    s = _support(f)
    return float(s[-1]) if s.size else f.grid.left


def support_infimum(f: SampledComplexFunction) -> float:
    """Smallest node of `_support` (right end if none)."""
    s = _support(f)
    return float(s[0]) if s.size else f.grid.right


def _samples_to_json(f: SampledComplexFunction) -> dict:
    """The "n"/"samples" part of every file format: [re, im] per node."""
    return {"n": f.grid.n, "samples": np.column_stack((f.values.real, f.values.imag)).tolist()}


def _samples_from_json(obj: dict, left: float, right: float) -> SampledComplexFunction:
    """Inverse of `_samples_to_json` on the grid [left, right]."""
    try:
        pairs = np.asarray(obj["samples"], dtype=float)
    except (TypeError, ValueError):
        pairs = None
    if pairs is None or pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ParseError("parse: samples must be a list of [re, im] number pairs")
    return SampledComplexFunction(make_grid(left, right, obj["n"]),
                                  np.ascontiguousarray(pairs).view(complex)[:, 0])


# ---------------------------------------------------------------------------
# domain objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    """Exact descriptor value a * e^{2ikx} on [lo, hi); pieces align to grid nodes."""

    lo: float
    hi: float
    amp: complex
    chirp: float = 0.0


def _piece_cells(grid: Grid, pieces: Sequence[Piece]) -> tuple[np.ndarray, np.ndarray]:
    """(amp, chirp) per cell of `grid` from pieces that tile it: each
    piece spans at least one cell with a finite amp and chirp, and each
    cell lies in exactly one piece.
    The one place piece bounds become cell indices."""
    amps, chirps, cover = np.zeros(grid.n, dtype=complex), np.zeros(grid.n), np.zeros(grid.n, int)
    for p in pieces:
        j0, j1 = grid.index_of(p.lo), grid.index_of(p.hi)
        if j1 <= j0:
            raise ValidationError(f"piece [{p.lo}, {p.hi}) spans no cell")
        if not np.isfinite((p.amp, p.chirp)).all():
            raise ValidationError(f"piece [{p.lo}, {p.hi}) must have a finite amp and chirp")
        amps[j0:j1], chirps[j0:j1] = p.amp, p.chirp
        cover[j0:j1] += 1
    if np.any(cover != 1):
        what = "overlap" if cover.max() > 1 else "leave a gap"
        raise ValidationError(f"pieces must tile [{grid.left}, {grid.right}]; they {what}")
    amps.flags.writeable = chirps.flags.writeable = False   # shared by every cell_values call
    return amps, chirps


def _node_values(grid: Grid, amps: np.ndarray, chirps: np.ndarray) -> np.ndarray:
    """Node values of a potential with these per-cell (amp, chirp): the
    one-sided cell limits averaged at interior nodes, inside limits at the
    support edges.  Its users: `synth.sampled_from_pieces` (the stored
    samples) and the kernel march of `forward.jost_kernel_direct` (the
    boundary data G21(x, 0))."""
    nodes = grid.nodes()
    left = amps * np.exp(2j * chirps * nodes[:-1])    # value at cell's left node
    right = amps * np.exp(2j * chirps * nodes[1:])    # value at cell's right node
    return np.concatenate((left[:1], 0.5 * (right[:-1] + left[1:]), right[-1:]))


@dataclass(frozen=True)
class BoundaryParam:
    """Boundary-condition angle alpha in [0, pi)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < math.pi):
            raise ValidationError("alpha must lie in [0, pi)")

    @property
    def phase(self) -> complex:
        """e^{-i alpha}, the large-|z| limit of the Jost function."""
        return complex(np.exp(-1j * self.alpha))


@dataclass(frozen=True)
class Potential:
    """Compactly supported complex potential sampled on [0, gamma]; gamma
    is the right end of the samples' grid, which must start at 0.

    samples[j] holds q(x_j); at a jump node the stored value is the mean of
    the one-sided limits (the value every second-order quadrature and the
    recovery pipeline converge to).  When the potential is exactly piecewise
    (constant or linearly chirped pieces aligned to the grid), `pieces`
    carries that description and the integrators use it instead of the
    sampled cell averages; the pieces must tile [0, gamma] (`_piece_cells`),
    and the samples must be their `_node_values` within 1e-12 of the
    largest node value.
    """

    samples: SampledComplexFunction
    pieces: tuple[Piece, ...] | None = None

    def __post_init__(self):
        g = self.samples.grid
        if abs(g.left) > 1e-12:
            raise ValidationError("potential samples must live on [0, gamma]")
        if self.pieces is not None:
            object.__setattr__(self, "_cells", _piece_cells(g, self.pieces))
            ref = _node_values(g, *self._cells)
            if np.max(np.abs(self.samples.values - ref)) > 1e-12 * np.max(np.abs(ref)):
                raise ValidationError("potential samples differ from the node values of its pieces")

    @property
    def gamma(self) -> float:
        return self.samples.grid.right

    @property
    def grid(self) -> Grid:
        return self.samples.grid

    @property
    def n(self) -> int:
        return self.samples.grid.n

    def cell_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(amplitude, chirp) per cell: of the exact pieces (read-only) when present."""
        if self.pieces is None:
            v = self.samples.values
            return 0.5 * (v[:-1] + v[1:]), np.zeros(self.n)
        return self._cells

    def norm_l2(self) -> float:
        return self.samples.norm_l2()

    def to_json(self) -> dict:
        out = {"gamma": self.gamma, **_samples_to_json(self.samples)}
        if self.pieces is not None:
            out["pieces"] = [[p.lo, p.hi, p.amp.real, p.amp.imag, p.chirp]
                             for p in self.pieces]
        return out

    @staticmethod
    def from_json(obj: dict) -> "Potential":
        pieces = None
        if obj.get("pieces"):
            pieces = tuple(Piece(float(lo), float(hi), complex(ar, ai), float(ch))
                           for lo, hi, ar, ai, ch in obj["pieces"])
        return Potential(_samples_from_json(obj, 0.0, float(obj["gamma"])), pieces)


def potential_from_values(gamma: float, values: Sequence[complex] | np.ndarray) -> Potential:
    vals = np.asarray(values, dtype=complex)
    return Potential(SampledComplexFunction(make_grid(0.0, float(gamma), len(vals) - 1), vals))


@dataclass(frozen=True)
class JostRep:
    """Boundary parameter plus Fourier kernel g of the Jost function.

    Represents psi(z) = e^{-i alpha} + int_0^gamma g(s) e^{2izs} ds; gamma
    is the right end of g's grid, which must start at 0.
    """

    alpha: BoundaryParam
    g: SampledComplexFunction

    def __post_init__(self):
        if abs(self.g.grid.left) > 1e-12:
            raise ValidationError("Jost kernel must live on [0, gamma]")

    @property
    def gamma(self) -> float:
        return self.g.grid.right

    @cached_property
    def _cuts(self) -> tuple[int, ...]:
        return _cut_nodes(self.g.values)

    def psi(self, z) -> np.ndarray | complex:
        """e^{-i alpha} plus the transform of g, with the transform split at
        detected jump nodes (kernels of piecewise potentials jump with them)."""
        return self.alpha.phase + _transform(self.g, z, self._cuts)

    def to_json(self) -> dict:
        return {"alpha": self.alpha.alpha, "gamma": self.gamma, **_samples_to_json(self.g)}

    @staticmethod
    def from_json(obj: dict) -> "JostRep":
        return JostRep(BoundaryParam(float(obj["alpha"])),
                       _samples_from_json(obj, 0.0, float(obj["gamma"])))


def _check_t_max(t_max: float) -> None:
    """The horizon of a scattering kernel must be finite and nonnegative."""
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValidationError(f"t_max must be finite and nonnegative, got {t_max!r}")


@dataclass(frozen=True)
class ScatteringRep:
    """Scattering matrix as e^{2i alpha} plus the Fourier transform of F.

    F lives on [-gamma, t_max], the ends of its grid; the matrix itself is
    S(z) = e^{2i alpha} + int F(s) e^{2izs} ds, unimodular on the real axis
    with zero winding.  s = 0, where F jumps, must be a node of the grid
    (its index is `zero_node`), so gamma n / (gamma + t_max) is a whole number.
    """

    alpha: BoundaryParam
    F: SampledComplexFunction

    def __post_init__(self):
        object.__setattr__(self, "zero_node", self.F.grid.index_of(0.0))    # raises if off-grid

    @property
    def gamma(self) -> float:
        return -self.F.grid.left

    @property
    def t_max(self) -> float:
        return self.F.grid.right

    @cached_property
    def _cuts(self) -> tuple[int, ...]:
        return _cut_nodes(self.F.values, (self.zero_node, 2 * self.zero_node))

    def s_values(self, z) -> np.ndarray | complex:
        """e^{2i alpha} plus the transform of F, split at its cut nodes.

        F genuinely jumps at s = 0 (the reciprocal kernel starts there), at
        s = gamma and wherever the potential jumps; one linear model across
        a midpoint-stored jump would leak an O(h^2 z) error into |S|."""
        return np.exp(2j * self.alpha.alpha) + _transform(self.F, z, self._cuts)

    def to_json(self) -> dict:
        return {"alpha": self.alpha.alpha, "gamma": self.gamma, "t_max": self.t_max,
                **_samples_to_json(self.F)}

    @staticmethod
    def from_json(obj: dict) -> "ScatteringRep":
        gamma, t_max = float(obj["gamma"]), float(obj["t_max"])
        _check_t_max(t_max)     # before its grid, which a bad t_max can break
        return ScatteringRep(BoundaryParam(float(obj["alpha"])),
                             _samples_from_json(obj, -gamma, t_max))


@dataclass(frozen=True)
class ResonanceSet:
    """Multiset of lower half-plane zeros with multiplicities, sorted by |z|;
    entries whose |z| agree within 1e-9 (1 + |z|) are sorted by Re z."""

    entries: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        ent = []
        for z, m in self.entries:
            z = complex(z)
            m = int(m)
            if z.imag >= 0:
                raise ValidationError(f"resonance {z} must satisfy Im z < 0")
            if m < 1:
                raise ValidationError("multiplicity must be positive")
            ent.append((z, m))
        # moduli that agree to rounding (z and -conj z of a symmetric psi)
        # are ordered by Re z, so the order does not depend on the last bit
        ent.sort(key=lambda t: abs(t[0]))
        i = 0
        while i < len(ent):
            r, j = abs(ent[i][0]), i + 1
            while j < len(ent) and abs(ent[j][0]) - r <= 1e-9 * (1.0 + r):
                j += 1
            ent[i:j] = sorted(ent[i:j], key=lambda t: (t[0].real, t[0].imag, t[1]))
            i = j
        object.__setattr__(self, "entries", tuple(ent))

    def zeros(self) -> np.ndarray:
        return np.array([z for z, _ in self.entries], dtype=complex)

    def multiplicities(self) -> np.ndarray:
        return np.array([m for _, m in self.entries], dtype=int)

    def total(self) -> int:
        return int(sum(m for _, m in self.entries))

    def merged(self, tol: float) -> "ResonanceSet":
        out: list[tuple[complex, int]] = []
        for z, m in self.entries:
            for i, (z0, m0) in enumerate(out):
                if abs(z - z0) <= tol:
                    out[i] = ((z0 * m0 + z * m) / (m0 + m), m0 + m)
                    break
            else:
                out.append((z, m))
        return ResonanceSet(tuple(out))

    def to_json(self) -> dict:
        return {"zeros": [{"re": z.real, "im": z.imag, "mult": m} for z, m in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "ResonanceSet":
        return ResonanceSet(tuple((complex(e["re"], e["im"]), int(e.get("mult", 1)))
                                  for e in obj["zeros"]))


# ---------------------------------------------------------------------------
# class membership reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCheck:
    name: str
    passed: bool
    measured: float
    threshold: float


@dataclass(frozen=True)
class ClassReport:
    subject: str
    checks: tuple[ClassCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            tag = "pass" if c.passed else "FAIL"
            out.append(f"[{tag}] {self.subject}: {c.name} measured={c.measured:.3e} threshold={c.threshold:.3e}")
        return out


def _winding_from_samples(values: np.ndarray) -> tuple[int, float]:
    """Winding count and max per-step phase jump of a unimodular sequence."""
    ang = np.angle(values)
    steps = np.diff(ang)
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    total = steps.sum()
    return int(round(-total / (2 * np.pi))), float(np.max(np.abs(steps), initial=0.0))


def validate_class(obj, *, tol: float = 1e-6, n_check: int = 2001) -> ClassReport:
    """Report each class condition with the measured quantity.

    Potentials: finite L2 norm and support supremum equal to gamma within
    one cell.  Jost representations: the same support condition on the
    kernel plus non-vanishing of psi on a sampled rectangle of the closed
    upper half-plane.  Scattering representations: unimodularity of S on
    `n_check` real samples within `tol`, zero winding, finite kernel norms
    and support infimum equal to -gamma within one cell.
    """
    checks: list[ClassCheck] = []
    if isinstance(obj, Potential):
        h = obj.grid.h
        nrm = obj.norm_l2()
        checks.append(ClassCheck("finite L2 norm", math.isfinite(nrm), nrm, math.inf))
        sup = support_supremum(obj.samples)
        checks.append(ClassCheck("sup supp q = gamma",
                                 abs(sup - obj.gamma) <= h + 1e-12, sup, obj.gamma))
        return ClassReport("potential", tuple(checks))

    if isinstance(obj, JostRep):
        h = obj.g.grid.h
        sup = support_supremum(obj.g)
        checks.append(ClassCheck("sup supp g = gamma",
                                 abs(sup - obj.gamma) <= h + 1e-12, sup, obj.gamma))
        re = np.linspace(-_PSI_RECT, _PSI_RECT, 81)
        im = np.linspace(0.0, _PSI_RECT, 33)
        zz = (re[None, :] + 1j * im[:, None]).ravel()     # rows of constant Im z: runs of 81
        vals = obj.psi(zz)
        mn = float(np.min(np.abs(vals)))
        checks.append(ClassCheck("psi nonvanishing on closed UHP sample",
                                 mn > 1e-8, mn, 1e-8))
        return ClassReport("jost", tuple(checks))

    if isinstance(obj, ScatteringRep):
        z = np.linspace(-_Z_CHECK, _Z_CHECK, n_check)
        sv = obj.s_values(z)
        dev = float(np.max(np.abs(np.abs(sv) - 1.0)))
        checks.append(ClassCheck("|S| = 1 on real samples", dev <= tol, dev, tol))
        wind, jump = _winding_from_samples(sv / np.abs(sv))
        ok = (wind == 0) and jump < 0.9 * np.pi
        checks.append(ClassCheck("winding W(S) = 0", ok, float(wind), 0.0))
        l1, l2 = obj.F.norm_l1(), obj.F.norm_l2()
        checks.append(ClassCheck("F in L1 and L2",
                                 math.isfinite(l1) and math.isfinite(l2), l1 + l2, math.inf))
        inf = support_infimum(obj.F)
        h = obj.F.grid.h
        checks.append(ClassCheck("inf supp F = -gamma",
                                 abs(inf + obj.gamma) <= h + 1e-12, inf, -obj.gamma))
        return ClassReport("scattering", tuple(checks))

    raise ValidationError(f"no class validator for {type(obj)!r}")


def dump_json(path, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
