"""Resonances and the entire-function structure of the Jost function.

Resonances are the zeros of psi in the open lower half-plane.  They are
located by recursive rectangle subdivision: the zero count of each box is
the winding of psi along its boundary (equivalently the contour integral
of psi'/psi, evaluated both ways), and the same contour samples give the
moments s_p of psi'/psi, the power sums of the zeros inside (the argument
principle of Delves and Lyness).  A box of up to `_PENCIL_MAX` zeros is
started at the eigenvalues of the Hankel pencil of its moments, whose
rank is the number of distinct zeros, with multiplicities from a
Vandermonde solve (Kravanja and Van Barel); for one zero that is the
centroid s_1/s_0.  Other boxes are split until each holds a pencil's
worth or shrinks below the cluster radius.  One sweep of Newton
iteration with differenced derivatives then polishes every start; a box
whose pencil is rejected, before or after the polish, is split for the
next sweep.  Each box carries psi on its boundary lattice, so the box
lattice, not a store of evaluated points, keeps each contour point to one
evaluation: the region's boundary is one evaluator call, a split line
runs along a lattice node, the two halves slice their outer sides from
the box and share the line, and a side is refined by its midpoints.  A
split costs one psi call and a Newton step one call for all boxes.  The
located set feeds:

  * sector counting functions and their linear-density ratio (the zero
    count along each half-axis grows like (gamma/pi) r),
  * the forbidden-domain inequality 2 gamma Im z_n <= ln(eps + C/|z_n|),
    with C fitted as the smallest admissible constant,
  * the Hadamard product psi(0) e^{i gamma z} prod (1 - z/z_n) over
    modulus-ordered zeros,
  * the scattering phase: S = e^{-2i phi} with phi'(z) = gamma +
    sum Im z_n / |z - z_n|^2.

The phase antiderivative is known in closed form per zero (an arg
difference).  phi and phi' are one sum, `_zero_sums`, over the located
zeros with |z_n| <= r_cut and the zeros a linear-density model places
beyond r_cut: the zeros near the evaluation points term by term, in blocks
of z so that no call holds a #z x #zeros array, and the far ones through
a power series in z whose coefficients are their inverse moments.  What
the model misses leaves a linear drift in z, so `phase_profile` fits the
two free constants (offset and drift) to the known limits phi -> -alpha at
both ends of the axis, which is the two-point extrapolation in the
integration horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import NamedTuple

import numpy as np

from .core import (
    Grid,
    NumericalError,
    ResonanceSet,
    ValidationError,
)
from .core import _check_finite_z, _check_positive, _winding_from_samples
from .forward import _growth_cap

__all__ = [
    "SearchRegion",
    "PhaseProfile",
    "winding_number",
    "find_resonances",
    "count_in_sector",
    "levinson_ratio",
    "forbidden_domain_check",
    "ForbiddenDomainReport",
    "hadamard_evaluate",
    "phase_profile",
    "cartwright_type",
]


@dataclass(frozen=True)
class SearchRegion:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.re_min, self.re_max, self.im_min, self.im_max))):
            raise ValidationError("region extents must be finite")
        if self.im_max > 0:
            raise ValidationError("search region must lie in the closed lower half-plane")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValidationError("empty search region")


@dataclass(frozen=True)
class PhaseProfile:
    grid: Grid
    phi: np.ndarray
    dphi: np.ndarray
    r_cut: float
    phi0: float
    tail_slope: float
    endpoint_spread: float


def winding_number(values: np.ndarray) -> int:
    """Winding count of a unimodular sequence sampled along increasing x.

    Normalized so that W = -(total phase change)/(2 pi): a scattering
    matrix S = e^{-2i phi} with phi(+inf) - phi(-inf) = pi W winds W times.
    Fails when consecutive phase jumps reach pi (grid too coarse).
    """
    vals = np.asarray(values, dtype=complex)
    if vals.size < 2:
        raise ValidationError("need at least two samples")
    if not np.all(np.isfinite(vals) & (np.abs(vals) >= 1e-13)):
        raise ValidationError("values must be finite and nonzero")
    wind, jump = _winding_from_samples(vals)
    if jump > np.pi * (1.0 - 1e-9):
        raise NumericalError("phase jump >= pi between neighbors: grid too coarse")
    return wind


# ---------------------------------------------------------------------------
# argument-principle zero search
# ---------------------------------------------------------------------------

class _Box(NamedTuple):
    """A rectangle with psi on its boundary lattice.  xs and ys are the
    increasing node coordinates; bottom and top hold psi at xs + i ys[0] and
    xs + i ys[-1], left and right at xs[0] + i ys and xs[-1] + i ys.  NaN
    marks the midpoints of a doubled side until they are evaluated."""

    xs: np.ndarray
    ys: np.ndarray
    bottom: np.ndarray
    top: np.ndarray
    left: np.ndarray
    right: np.ndarray


def _fill(ev, boxes) -> None:
    """Evaluate every NaN side node of the boxes in one call of ev.  A side
    whose NaN nodes another side holds too is taken once: a split line the
    two halves share, also once both halves have doubled it."""
    slots: dict[bytes, tuple[np.ndarray, list]] = {}     # by the holes' points
    for b in boxes:
        for vals, x, y in ((b.bottom, b.xs, b.ys[0]), (b.top, b.xs, b.ys[-1]),
                           (b.left, b.xs[0], b.ys), (b.right, b.xs[-1], b.ys)):
            hole = np.isnan(vals)
            if hole.any():
                z = (x + 1j * y)[hole]
                slots.setdefault(z.tobytes(), (z, []))[1].append((vals, hole))
    if not slots:
        return
    got = np.asarray(ev(np.concatenate([z for z, _ in slots.values()])))
    at = 0
    for z, sides in slots.values():
        for vals, hole in sides:
            vals[hole] = got[at: at + z.size]
        at += z.size


def _doubled(c: np.ndarray, mid) -> np.ndarray:
    """c with mid (one value per interval) inserted between its entries."""
    out = np.empty(2 * c.size - 1, dtype=c.dtype)
    out[::2], out[1::2] = c, mid
    return out


def _swapped(b: _Box) -> _Box:
    """The box with x and y exchanged (its own inverse)."""
    return _Box(b.ys, b.xs, b.left, b.right, b.bottom, b.top)


def _refined(b: _Box, along_x: bool, along_y: bool) -> _Box:
    """The box with its xs and/or ys lattice doubled; the new nodes are NaN."""
    if along_x:
        b = b._replace(xs=_doubled(b.xs, 0.5 * (b.xs[:-1] + b.xs[1:])),
                       bottom=_doubled(b.bottom, np.nan), top=_doubled(b.top, np.nan))
    return _swapped(_refined(_swapped(b), True, False)) if along_y else b


def _split(b: _Box, horizontal: bool, m: int) -> list[_Box]:
    """The two halves of a box on either side of its m-th x node
    (horizontal) or y node.  They slice their outer sides from the box and
    share the split line, whose interior is NaN; a side with fewer than
    `_PER_EDGE` // 2 intervals is doubled until it has that many."""
    if not horizontal:
        return [_swapped(k) for k in _split(_swapped(b), True, m)]
    line = np.full(b.ys.size, np.nan, dtype=complex)
    line[0], line[-1] = b.bottom[m], b.top[m]
    kids = [_Box(b.xs[:m + 1], b.ys, b.bottom[:m + 1], b.top[:m + 1], b.left, line),
            _Box(b.xs[m:], b.ys, b.bottom[m:], b.top[m:], line, b.right)]
    for i, k in enumerate(kids):
        while min(k.xs.size, k.ys.size) - 1 < _PER_EDGE // 2:
            k = _refined(k, k.xs.size - 1 < _PER_EDGE // 2, k.ys.size - 1 < _PER_EDGE // 2)
        kids[i] = k
    return kids


def _ring(b: _Box) -> tuple[np.ndarray, np.ndarray]:
    """The box's boundary nodes, each once, counterclockwise from its lower
    left corner, and psi there."""
    z = np.concatenate([b.xs[:-1] + 1j * b.ys[0], b.xs[-1] + 1j * b.ys[:-1],
                        b.xs[:0:-1] + 1j * b.ys[-1], b.xs[0] + 1j * b.ys[:0:-1]])
    return z, np.concatenate([b.bottom[:-1], b.right[:-1], b.top[:0:-1], b.left[:0:-1]])


def _on_boundary(vals: np.ndarray) -> bool:
    """psi (numerically) vanishes at a contour node, below 1e-12 of the
    larger of its two ring neighbours, or is not finite there: a local scale,
    as |psi| grows like e^{2 gamma |Im z|} down a long contour."""
    mags = np.abs(vals)
    mc = np.concatenate((mags[-1:], mags, mags[:1]))     # padded as in `_count`
    return not np.all(np.isfinite(mags)) or bool(np.any(mags < 1e-12 * np.maximum(mc[:-2], mc[2:])))


def _frame(b: _Box) -> tuple[complex, float]:
    """Centre and half diagonal of a box: the moments' variable is
    u = (z - centre) / half diagonal, so |u| <= 1 on the box."""
    return (complex(0.5 * (b.xs[0] + b.xs[-1]), 0.5 * (b.ys[0] + b.ys[-1])),
            0.5 * math.hypot(b.xs[-1] - b.xs[0], b.ys[-1] - b.ys[0]))


def _count(z: np.ndarray, vals: np.ndarray,
           frame: tuple[complex, float]) -> tuple[int, np.ndarray] | None:
    """Zero count (with multiplicity) inside a closed contour and the
    contour moments of psi'/psi, or None.

    The winding of psi along the boundary is accumulated from principal
    phase steps; the contour integral of psi'/psi (central differences
    along the contour, trapezoid in the parameter) is computed alongside,
    and both must agree on an integer.  The same integrand gives the
    moments s_p = (1/2 pi i) int u^p psi'/psi dz, p < 2 `_PENCIL_MAX`, in
    the frame's variable u: s_0 is the integral, and for zeros u_k of
    multiplicity n_k inside, s_p = sum n_k u_k^p."""
    # each array padded with its last point in front and its first behind
    vc = np.concatenate((vals[-1:], vals, vals[:1]))
    steps = np.angle(vc[2:] / vals)
    # trapezoid weight (z_{j+1} - z_{j-1}) / 2 times the central difference
    # (psi_{j+1} - psi_{j-1}) / (z_{j+1} - z_{j-1}) / psi_j
    terms = 0.5 * (vc[2:] - vc[:-2]) / vals / (2j * np.pi)
    centre, scale = frame
    u = (z - centre) / scale
    moments = np.array([np.sum(terms * u ** p) for p in range(2 * _PENCIL_MAX)])
    w_unwrap = steps.sum() / (2.0 * np.pi)
    n_unwrap = int(round(w_unwrap))
    ok = (np.max(np.abs(steps)) < 2.2
          and abs(w_unwrap - n_unwrap) < 0.2
          and abs(moments[0].real - n_unwrap) < 0.35
          and abs(moments[0].imag) < 0.35)
    return (n_unwrap, moments) if ok else None


def _settle(ev, boxes: list[_Box]) -> tuple[list[tuple[int, np.ndarray] | None], list[_Box]]:
    """`_count` of each box, (count, moments) or None, and the boxes at the
    lattices that gave them.

    A box whose count does not settle has its lattice doubled, at most
    `_REFINE_MAX` samplings in all; the new nodes of every box go into one
    call of ev per round.  A box whose psi vanishes on its boundary, or
    whose count never settles, gets None, and then the others stop, so the
    caller can move the boxes."""
    counts: list[tuple[int, np.ndarray] | None] = [None] * len(boxes)
    live = list(range(len(boxes)))
    for attempt in range(_REFINE_MAX):
        _fill(ev, [boxes[i] for i in live])
        rings = {i: _ring(boxes[i]) for i in live}
        if any(_on_boundary(vals) for _, vals in rings.values()):
            break
        for i, ring in rings.items():
            counts[i] = _count(*ring, _frame(boxes[i]))
        live = [i for i in live if counts[i] is None]
        if not live or attempt == _REFINE_MAX - 1:
            break
        for i in live:
            boxes[i] = _refined(boxes[i], True, True)
    return counts, boxes


def _pencil(moments: np.ndarray, m: int) -> tuple[np.ndarray, list[int]] | None:
    """The distinct zeros u_k of a box counting m zeros, in the moments'
    variable, and their multiplicities, from the moments s_0 .. s_{2m-1}.

    s_p = sum n_k u_k^p makes the Hankel matrix H0 = (s_{i+j}), i, j < m,
    equal to W^T diag(n) W with W the Vandermonde matrix of the distinct
    zeros, so its numerical rank r (singular values above `_RANK_TOL` of
    the largest) is their number, and they are the eigenvalues of the
    leading r x r pencil (H1, H0) with H1 = (s_{i+j+1}) (Kravanja and
    Van Barel).  For m = 1 that is the centroid s_1 / s_0.  The
    multiplicities come from `_multiplicities`, rounded by `_rounded`;
    None when a solve is singular or they do not round."""
    ij = np.add.outer(np.arange(m), np.arange(m))
    h0 = moments[ij]
    try:
        sv = np.linalg.svd(h0, compute_uv=False)
        r = int(np.count_nonzero(sv > _RANK_TOL * sv[0]))
        u = np.linalg.eigvals(np.linalg.solve(h0[:r, :r], moments[ij[:r, :r] + 1]))
        mults = _rounded(_multiplicities(u, moments), m)
    except np.linalg.LinAlgError:
        return None
    return None if mults is None else (u, mults)


def _multiplicities(u: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """n_k with sum_k n_k u_k^p = s_p for p < #u: the Vandermonde solve."""
    return np.linalg.solve(np.vander(u, u.size, increasing=True).T, moments[:u.size])


def _rounded(n: np.ndarray, m: int) -> list[int] | None:
    """The multiplicities n rounded, when each is within `_ROUND_TOL` of a
    positive integer and they add up to the count m; else None."""
    k = np.rint(n.real)
    if np.all(np.abs(n - k) < _ROUND_TOL) and np.all(k >= 1) and k.sum() == m:
        return k.astype(int).tolist()
    return None


def _polish(ev, z0, tol: float, mult, max_radius) -> list[complex | None]:
    """Newton with differenced derivative from every start z0 at once; the
    multiplicity-scaled step keeps convergence fast for multiple roots.
    Steps are trust-region limited.  Each step is one call of ev, on three
    points per live iterate.  None where no step falls below tol/10 within
    `_NEWTON_MAX` steps, the iterate leaves its max_radius or ev overflows
    there; ev raising NumericalError or ArithmeticError fails every live
    iterate.  An iterate where ev is exactly zero is the root: at a
    multiple root the differenced derivative is zero there too.  The
    difference step is 1e-7 max(1, |z|), at most 1e-3 of the iterate's
    max_radius, so that it stays below the spacing of a cluster.  The step
    arithmetic is per iterate in Python complex: numpy on a few iterates
    costs more per step than it saves."""
    z = [complex(s) for s in z0]
    out: list[complex | None] = [None] * len(z)
    live = list(range(len(z)))
    caps = [0.5 * r if math.isfinite(r) else 5e5 for r in max_radius]
    for _ in range(_NEWTON_MAX):
        if not live:
            break
        at = [z[i] for i in live]
        delta = [min(1e-7 * max(1.0, abs(w)), 1e-3 * max_radius[i]) for w, i in zip(at, live)]
        points = at + [w + d for w, d in zip(at, delta)] + [w - d for w, d in zip(at, delta)]
        try:
            vals = np.asarray(ev(np.array(points))).tolist()
        except (NumericalError, ArithmeticError):
            break
        keep, k = [], len(live)
        for i, f, f_plus, f_minus, d in zip(live, vals[:k], vals[k:2 * k], vals[2 * k:], delta):
            fp = (f_plus - f_minus) / (2 * d)
            if f == 0:
                out[i] = z[i]
                continue
            if fp == 0 or not (math.isfinite(f.real) and math.isfinite(fp.real)):
                continue
            step = mult[i] * f / fp
            if abs(step) > caps[i]:
                step *= caps[i] / abs(step)
            z[i] -= step
            if not abs(z[i] - z0[i]) <= max_radius[i]:     # NaN included
                continue
            if abs(step) < 0.1 * tol:
                out[i] = z[i]
            else:
                keep.append(i)
        live = keep
    return out


_REFINE_MAX = 7       # samplings per box count, each doubling the last lattice
_PENCIL_MAX = 3       # largest count resolved from a box's moments; larger ones split
_RANK_TOL = 1e-3      # H0's rank: its singular values above this share of the largest
_ROUND_TOL = 0.1      # largest distance of a resolved multiplicity from its integer
_NEWTON_MAX = 80      # Newton steps per polish
_PER_EDGE = 256       # lattice intervals per side of the whole region
_MAX_DEPTH = 60       # subdivision depth limit
_MERGE_TOL = 1e-7     # floor of the cluster and merge radii
# irrational-leaning fractions keep split lines off symmetric zero
# configurations (an exactly centered zero defeats bisection)
_SPLIT_FRACS = (0.51237346, 0.47621925, 0.54902211, 0.43812087, 0.57354779, 0.41752249)


def _halves(ev, box: _Box, cnt: int, depth: int) -> list:
    """The halves of a box across its longer side, at the first split line
    whose counts add up to cnt, as (box, count, moments) triples."""
    if depth >= _MAX_DEPTH:
        raise NumericalError("subdivision depth limit exceeded")
    horizontal = box.xs[-1] - box.xs[0] >= box.ys[-1] - box.ys[0]
    nodes = box.xs if horizontal else box.ys
    tried = {0, nodes.size - 1}
    for frac in _SPLIT_FRACS:
        m = int(np.argmin(np.abs(nodes - (nodes[0] + frac * (nodes[-1] - nodes[0])))))
        if m in tried:
            continue
        tried.add(m)
        counts, kids = _settle(ev, _split(box, horizontal, m))
        if None not in counts and sum(c for c, _ in counts) == cnt:
            return [(k, c, s) for k, (c, s) in zip(kids, counts)]
    raise NumericalError(
        f"could not place a split line off the zeros in box "
        f"[{box.xs[0]},{box.xs[-1]}]x[{box.ys[0]},{box.ys[-1]}]")


def _open(b: _Box, z: complex) -> bool:
    """z inside the open box: a Newton start there is no contour point."""
    return b.xs[0] < z.real < b.xs[-1] and b.ys[0] < z.imag < b.ys[-1]


def _claims(b: _Box, z: complex | None) -> bool:
    """A polished root z belongs to the box.  Membership must be essentially
    exact: split lines never pass through zeros, and a loose margin would
    let the box claim a neighbor's zero."""
    eps = 1e-9 * (1.0 + math.hypot(b.xs[-1] - b.xs[0], b.ys[-1] - b.ys[0]))
    return z is not None and (b.xs[0] - eps <= z.real <= b.xs[-1] + eps
                              and b.ys[0] - eps <= z.imag <= b.ys[-1] + eps)


def find_resonances(evaluator, region: SearchRegion, tol: float = 1e-9) -> ResonanceSet:
    """Locate all zeros in the region with multiplicities.

    Each box is counted by the argument principle, and the samples that
    count it give the moments of psi'/psi on its contour (`_count`).  A box
    narrower than the cluster radius 64 max(tol, 1e-7) waits for Newton
    from its centroid, the first moment over the count (the centre when
    that is not inside the open box), with the count as multiplicity.  A
    box counting 1 to `_PENCIL_MAX` zeros waits with one start per
    distinct zero from its Hankel pencil (`_pencil`), each with its
    multiplicity rounded.  Every other box is halved along its longer
    side, by split lines moved off zeros (keeping the boxes disjoint).
    Subdivision runs until every box left waits for Newton, and one sweep
    of `_polish` (one psi call per step) then polishes them all.

    A pencil box is accepted when its roots lie in the box, lie farther
    apart than the merge radius, and the multiplicities recomputed from its
    moments at the roots round to the ones polished with.  A pencil that
    is singular, whose starts leave the open box or whose multiplicities
    do not round, before or after the polish, has its box split into the
    next sweep.  n-fold Newton converges to a k-fold zero for every
    k > n/2, so a pencil takes no zero above double (3-fold Newton also
    settles on a double zero), and a box whose double zero failed (it was
    two close zeros, whose moments look double) hands no double to the
    boxes split from it: those split down to the cluster radius, as does
    every count above `_PENCIL_MAX`.  A cluster box whose root leaves it
    raises.  The multiplicity total must reproduce the count of the whole
    region.  A zero pinned to the outer boundary raises a
    boundary-ambiguous failure rather than being dropped.

    Each box carries psi on its boundary lattice (`_Box`), starting from
    `_PER_EDGE` intervals per side of the region, all evaluated in one
    evaluator call: the bottom side, the top side, then the interiors of
    the left and right sides (the batch fixes the last bits of psi).  A
    split line sits on the lattice node nearest its fraction of the side;
    the halves slice their outer sides from the box and share the line, so
    a split evaluates only the line and the midpoints that keep every side
    at `_PER_EDGE` // 2 intervals or more, in one evaluator call.  A count
    that does not settle doubles the lattice by midpoints.  No Newton point
    is a contour point: a start lies inside its open box.  A contour point
    is evaluated twice where sides that are not the same side take the same
    midpoints, as when a split fraction that `_halves` retries doubles
    outer sides whose midpoints the failed attempt evaluated, and where the
    evaluator returns NaN on the region's boundary: the NaN reads as a hole
    and is asked once more before the boundary-ambiguous failure.
    """
    def ev(z):      # the one check of the evaluator's output, seen by every call below
        if np.shape(out := evaluator(z)) != z.shape:
            raise ValidationError(f"evaluator {evaluator!r} returned shape {np.shape(out)} for "
                                  f"z of shape {z.shape}; it must give one complex value per point")
        return out

    _check_positive("tol", tol)
    r = region
    n = _PER_EDGE + 1
    xs, ys = np.linspace(r.re_min, r.re_max, n), np.linspace(r.im_min, r.im_max, n)
    # bottom, top, then the interiors of left and right: each node once
    vals = np.asarray(ev(np.concatenate([
        xs + 1j * ys[0], xs + 1j * ys[-1], xs[0] + 1j * ys[1:-1], xs[-1] + 1j * ys[1:-1]])),
        dtype=complex)
    bottom, top, left, right = np.split(vals, [n, 2 * n, 3 * n - 2])
    root = _Box(xs, ys, bottom, top, np.concatenate([bottom[:1], left, top[:1]]),
                np.concatenate([bottom[-1:], right, top[-1:]]))
    (settled,), (root,) = _settle(ev, [root])
    if settled is None:
        raise NumericalError(
            "boundary-ambiguous: a zero sits on (or numerically near) the outer "
            "region boundary; adjust the region")
    found: list[tuple[complex, int]] = []
    # (box, count, moments, depth, may take a double zero from its pencil)
    stack = [(root, *settled, 0, True)]
    cluster = 64.0 * max(tol, _MERGE_TOL)
    merge = max(_MERGE_TOL, 16 * tol)

    def split(box, cnt, depth, doubles):
        stack.extend((k, c, s, depth + 1, doubles)
                     for k, c, s in _halves(ev, box, cnt, depth))

    while stack:
        # m-fold Newton polishes only an m-fold zero or a cluster: on
        # distinct zeros it cycles, or lands on one of them and miscounts it
        waiting = []
        while stack:
            entry = box, cnt, mom, depth, doubles = stack.pop()
            if cnt == 0:
                continue
            centre, scale = _frame(box)
            if 2.0 * scale < cluster:
                start = (centre * mom[0] + scale * mom[1]) / cnt
                waiting.append((entry, [start if _open(box, start) else centre], [cnt]))
                continue
            pencil = _pencil(mom, cnt) if cnt <= _PENCIL_MAX else None
            starts = [] if pencil is None else (centre + scale * pencil[0]).tolist()
            if (pencil is not None and max(pencil[1]) <= (2 if doubles else 1)
                    and all(_open(box, z) for z in starts)):
                waiting.append((entry, starts, pencil[1]))
            else:
                split(box, cnt, depth, doubles)
        if not waiting:
            break
        roots = _polish(ev, [z for _, starts, _ in waiting for z in starts], tol,
                        [m for *_, mults in waiting for m in mults],
                        [4.0 * _frame(e[0])[1] for e, starts, _ in waiting for _ in starts])
        at = 0
        for (box, cnt, mom, depth, doubles), starts, mults in waiting:
            zs, at = roots[at: at + len(starts)], at + len(starts)
            centre, scale = _frame(box)
            if 2.0 * scale < cluster:
                if not _claims(box, zs[0]):
                    raise NumericalError(
                        f"cluster of {cnt} zeros at {centre}: Newton found no root in it")
                found.append((zs[0], cnt))
            elif (all(_claims(box, z) for z in zs)
                  and all(abs(a - b) > merge for i, a in enumerate(zs) for b in zs[:i])
                  and _rounded(_multiplicities((np.array(zs) - centre) / scale, mom),
                               cnt) == mults):
                found += zip(zs, mults)
            else:
                split(box, cnt, depth, doubles and max(mults) == 1)

    total_mult = sum(m for _, m in found)
    if total_mult != settled[0]:
        raise NumericalError(
            f"located multiplicities ({total_mult}) disagree with the "
            f"argument-principle count ({settled[0]}) of the region")
    keep = tuple((z, m) for z, m in found if z.imag < 0)
    return ResonanceSet(keep).merged(merge)


# ---------------------------------------------------------------------------
# counting functions
# ---------------------------------------------------------------------------

def count_in_sector(R: ResonanceSet, r: float, delta: float) -> tuple[int, int]:
    """Zeros with |z| <= r, +-Re z >= 0 and delta < |arg z| < pi - delta,
    multiplicities included."""
    if not (0.0 <= delta <= 0.5 * np.pi):
        raise ValidationError("delta must lie in [0, pi/2]")
    _check_positive("r", r)
    n_plus = n_minus = 0
    for z, m in R.entries:
        if abs(z) > r or not (delta < abs(np.angle(z)) < np.pi - delta):
            continue
        if z.real >= 0:
            n_plus += m
        if z.real <= 0:
            n_minus += m
    return n_plus, n_minus


def levinson_ratio(R: ResonanceSet, gamma: float, r: float) -> tuple[float, float]:
    """N+-(r, 0) normalized by the linear density (gamma/pi) r."""
    n_plus, n_minus = count_in_sector(R, r, 0.0)
    scale = gamma * r / np.pi
    return n_plus / scale, n_minus / scale


@dataclass(frozen=True)
class ForbiddenDomainReport:
    eps: float
    c_fit: float
    all_satisfied: bool
    slack: tuple[float, ...]
    strip_depth: float
    strip_count: int


def forbidden_domain_check(R: ResonanceSet, gamma: float, eps: float,
                           strip_depth: float = 1.0) -> ForbiddenDomainReport:
    """Smallest C >= 0 with 2 gamma Im z_n <= ln(eps + C/|z_n|) for every
    zero, the per-zero slack at that C, and the count in the strip
    Im z > -strip_depth (finite for any depth)."""
    _check_positive("eps", eps)
    if not R.entries:
        return ForbiddenDomainReport(eps, 0.0, True, (), strip_depth, 0)
    cs = [abs(z) * (math.exp(2.0 * gamma * z.imag) - eps) for z, _ in R.entries]
    c_fit = max(0.0, max(cs))
    slack = tuple(math.log(eps + c_fit / abs(z)) - 2.0 * gamma * z.imag
                  for z, _ in R.entries)
    strip = sum(m for z, m in R.entries if z.imag > -strip_depth)
    return ForbiddenDomainReport(eps, c_fit, all(s >= -1e-12 for s in slack),
                                 slack, strip_depth, strip)


# ---------------------------------------------------------------------------
# Hadamard product and scattering phase
# ---------------------------------------------------------------------------

_COLLIDE_TOL = 1e-9      # |z - z_n| below which a Hadamard factor vanishes
_ZERO_BLOCK = 2 ** 15    # entries per (z block) x (zeros) array in _zero_sums
_FAR = 4.0               # zeros beyond _FAR max|z| enter _zero_sums through their moments
_FAR_TERMS = 28          # moments taken: (1/_FAR)^k / k < 1e-17 beyond them


def _truncated(R: ResonanceSet, r_cut: float) -> tuple[np.ndarray, np.ndarray]:
    """(zeros, multiplicities) of the entries with |z_n| <= r_cut: a prefix,
    as the entries are modulus-sorted."""
    k = len(list(takewhile(lambda e: abs(e[0]) <= r_cut, R.entries)))
    return R.zeros()[:k], R.multiplicities()[:k]


def hadamard_evaluate(R: ResonanceSet, psi0: complex, gamma: float, z: complex,
                      r_cut: float) -> complex:
    """Partial product psi(0) e^{i gamma z} prod_{|z_n| <= r_cut} (1 - z/z_n)."""
    if psi0 == 0:
        raise ValidationError("psi(0) must be nonzero")
    z = complex(z)
    _check_finite_z(z)
    zeros, mult = _truncated(R, r_cut)
    if np.any(np.abs(z - zeros) < _COLLIDE_TOL):
        raise ValidationError("evaluation point collides with a zero")
    return complex(psi0 * np.exp(1j * gamma * z) * np.prod((1.0 - z / zeros) ** mult))


def _zero_sums(zeros: np.ndarray, weights: np.ndarray, gamma: float,
               z: np.ndarray, phi_only: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi at z, phi' at z[phi_only:]) at real z for the zeros z_n with
    weights w_n: phi = gamma z + sum w_n (arg(z - z_n) - arg(-z_n)) and
    phi' = gamma + sum w_n Im z_n / |z - z_n|^2, phi' the exact derivative.
    Both arguments have positive imaginary part, so the principal branch is
    continuous in z.

    The zeros beyond `_FAR` max|z| enter through their moments
    M_k = sum w_n z_n^-k: there arg(z - z_n) - arg(-z_n) = Im log(1 - z/z_n)
    = -Im sum_k (z/z_n)^k / k, so phi gains -Im sum_k M_k z^k / k and phi'
    -Im sum_k M_k z^(k-1), over k <= `_FAR_TERMS`.  The near zeros are
    summed term by term, with z taken in blocks that keep each z - z_n
    array near _ZERO_BLOCK entries, so memory does not grow with #z; phi'
    is summed only in the blocks that reach z[phi_only:], each block
    whole, so its values do not depend on phi_only."""
    z = np.asarray(z, dtype=float)
    phi = gamma * z
    dphi = np.full(z.shape, float(gamma))
    far = np.abs(zeros) > _FAR * np.max(np.abs(z), initial=0.0)
    if far.any():
        inv = 1.0 / zeros[far]
        power, moments = weights[far] * inv, []
        for _ in range(_FAR_TERMS):
            moments.append(power.sum())
            power = power * inv
        moments = np.array(moments)
        phi -= (z * np.polyval((moments / np.arange(1, _FAR_TERMS + 1))[::-1], z)).imag
        dphi -= np.polyval(moments[::-1], z).imag
        zeros, weights = zeros[~far], weights[~far]
    base = np.angle(-zeros)
    step = max(1, _ZERO_BLOCK // max(zeros.size, 1))
    for lo in range(0, z.size, step):
        d = z[lo:lo + step, None] - zeros
        phi[lo:lo + step] += (np.angle(d) - base) @ weights
        if lo + step > phi_only:
            dphi[lo:lo + step] += (zeros.imag / np.abs(d) ** 2) @ weights
    return phi, dphi[phi_only:]


def _tail_zeros(R: ResonanceSet, gamma: float, r_cut: float) -> np.ndarray:
    """Modeled zeros beyond r_cut, standing in for the far tail.

    The zero count grows linearly with density gamma/pi along each
    half-axis and the depths follow a slowly growing logarithmic law,
    fitted here to the outer half of the located zeros (|z_n| <= r_cut);
    when fewer than 4 lie there, the depth is that of the deepest located
    zero.  Zeros beyond r_cut are never read, so the model depends on the
    truncated set alone; with no located zero there is no depth to fit and
    no tail is placed, as for an empty set.  Each side's lattice of
    spacing pi/gamma starts past its last located zero and runs to the
    horizon max(300 r_cut, 3000).
    """
    located, mult = _truncated(R, r_cut)
    if not located.size or gamma <= 0.0:
        return np.zeros(0, dtype=complex)
    outer = np.repeat(located, mult)
    outer = outer[np.abs(outer) >= 0.45 * r_cut]
    if outer.size >= 4:
        b, a = np.polyfit(np.log(np.abs(outer)), -outer.imag, 1)
    else:
        a, b = -located.imag.min(), 0.0
    spacing = np.pi / gamma
    horizon = max(300.0 * r_cut, 3000.0)
    lattices = []
    for sign in (+1.0, -1.0):
        side = np.abs(located[(located.real >= 0) == (sign > 0)])
        t_last = side.max() if side.size else r_cut - 0.5 * spacing
        k = np.arange(1, int((horizon - t_last) / spacing) + 1)
        lattices.append(sign * (t_last + spacing * k))
    t_all = np.concatenate(lattices)
    return t_all - 1j * np.maximum(a + b * np.log(np.abs(t_all)), 1e-3)


def phase_profile(R: ResonanceSet, gamma: float, alpha, grid: Grid,
                  r_cut: float, z_limit: float) -> PhaseProfile:
    """Scattering phase phi with S = e^{-2i phi} on the grid.

    phi and phi' are one blocked sum (`_zero_sums`) over the located zeros
    with |z_n| <= r_cut (weighted by multiplicity) and the zeros the
    linear-density tail model places beyond r_cut, each integrated in
    closed form (arg differences).  A residual linear drift and the
    constant phi(0) remain; these two are fixed by the limits
    phi(+-Z) -> -alpha evaluated on window-averaged horizons at z_limit
    and z_limit/2 (the two-point extrapolation in the integration
    horizon).  Calibration stays inside ~0.9 r_cut where the truncated sum
    still tracks the true derivative.  The endpoint residual spread is
    reported; a large spread flags an undersized r_cut, but the profile is
    still returned.
    """
    _check_positive("r_cut", r_cut)
    _check_positive("z_limit", z_limit)
    alpha_v = float(getattr(alpha, "alpha", alpha))
    zcal = min(z_limit, 0.9 * r_cut)
    located, mult = _truncated(R, r_cut)
    tail = _tail_zeros(R, gamma, r_cut)
    zeros = np.concatenate([located, tail])
    weights = np.concatenate([mult, np.ones(tail.size)])

    # calibration: model(Z) + alpha = c0 + kappa Z + A/Z + (oscillation),
    # where A/Z is the smooth approach of the true phase to -alpha and the
    # oscillation is suppressed by the smooth window weights
    npts = 64
    zplus = np.linspace(0.5 * zcal, zcal, npts)
    wts = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(npts) / (npts - 1)))
    zboth = np.concatenate([zplus, -zplus])
    wboth = np.sqrt(np.concatenate([wts, wts]))
    nodes = grid.nodes()
    phi_all, dphi_all = _zero_sums(zeros, weights, gamma,
                                   np.concatenate([zboth, nodes, [0.0]]), zboth.size)
    vals = phi_all[:zboth.size]
    design = np.stack([zboth, np.ones_like(zboth), 1.0 / zboth], axis=1)
    sol, *_ = np.linalg.lstsq(design * wboth[:, None], (vals + alpha_v) * wboth,
                              rcond=None)
    slope, c0 = float(sol[0]), float(sol[1])
    resid = (vals + alpha_v - design @ sol) * wboth
    spread = float(np.max(np.abs(resid)))

    on_grid = slice(zboth.size, zboth.size + nodes.size)
    phi = phi_all[on_grid] - slope * nodes - c0
    dphi = dphi_all[:nodes.size] - slope
    phi0 = float(phi_all[-1] - c0)
    return PhaseProfile(grid, phi, dphi, r_cut, phi0, slope, spread)


def cartwright_type(evaluator, gamma: float) -> tuple[float, float]:
    """Exponential-type indicators from log |psi(+-iy)| slopes.

    Least-squares slope over a geometric ladder of 14 values of y up to 0.9
    of the growth cap `DEFAULT_IM_CAP_SCALE`/gamma; expected (0, 2 gamma)
    for a kernel supported on [0, gamma].  On overflow the ladder is
    shortened (with fewer than 4 usable points the call fails).
    """
    _check_positive("gamma", gamma)
    cap = 0.9 * _growth_cap(gamma)
    ys = np.geomspace(max(2.0 / gamma, cap / 128.0), cap, 14)
    taus = []
    for sign in (+1.0, -1.0):
        vals = np.atleast_1d(evaluator(1j * sign * ys))
        logs = np.log(np.abs(vals))
        good = np.isfinite(logs)
        if good.sum() < 4:
            raise NumericalError("overflow left too few ladder points for the type fit")
        slope = np.polyfit(ys[good], logs[good], 1)[0]
        taus.append(float(slope))
    return taus[0], taus[1]
