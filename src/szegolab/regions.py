"""Symbolic lattice regions and their masks on boxes.

Order-type regions are expressed through one fixed strict total order on
coordinate slots ("slot order"):

    slot i precedes slot j  iff  x_i < x_j, or x_i = x_j and i < j.

Every chain constraint ("x_{pi(1)} <= ... <= x_{pi(d)}") and every domination
constraint ("x_n >= x_t") is written through this order and its exact
complement, never through raw <=.  This replaces the continuum's measure-zero
overlaps: the d! wedge regions of a box partition it exactly, and the
inclusion-exclusion expansion of a product of complements is an identity of
integer-valued site weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError
from .lattices import LatticeBox

# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordRange:
    """lo <= x_axis <= hi"""
    axis: int
    lo: int
    hi: int


@dataclass(frozen=True)
class Orthant:
    """x_axis >= 0 (sign=+1) or x_axis < 0 (sign=-1); exact complements."""
    axis: int
    sign: int


@dataclass(frozen=True)
class SlotLess:
    """Slot ``left`` strictly precedes slot ``right`` in slot order."""
    left: int
    right: int


@dataclass(frozen=True)
class Layer:
    """x_axis == value"""
    axis: int
    value: int


Constraint = Union[CoordRange, Orthant, SlotLess, Layer]


@dataclass(frozen=True)
class Region:
    """Conjunction of constraints over sites of Z^d."""

    d: int
    constraints: Tuple[Constraint, ...]

    def __post_init__(self):
        for c in self.constraints:
            axes = [c.axis] if hasattr(c, "axis") else [c.left, c.right]
            if any(not 0 <= a < self.d for a in axes):
                raise ConfigError(f"constraint {c} references axis outside 0..{self.d - 1}")

    def __and__(self, other: "Region") -> "Region":
        if other.d != self.d:
            raise ConfigError("cannot intersect regions of different dimension")
        return Region(self.d, self.constraints + other.constraints)

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        """Boolean membership vector for an ``(N, d)`` coordinate array."""
        coords = np.asarray(coords)
        if coords.ndim != 2 or coords.shape[1] != self.d:
            raise ConfigError(f"a region in d={self.d} needs (N, {self.d}) coordinates, "
                              f"got shape {coords.shape}")
        ok = np.ones(coords.shape[0], dtype=bool)
        for c in self.constraints:
            if isinstance(c, CoordRange):
                ok &= (coords[:, c.axis] >= c.lo) & (coords[:, c.axis] <= c.hi)
            elif isinstance(c, Orthant):
                ok &= coords[:, c.axis] >= 0 if c.sign > 0 else coords[:, c.axis] < 0
            elif isinstance(c, Layer):
                ok &= coords[:, c.axis] == c.value
            else:  # SlotLess
                xi, xj = coords[:, c.left], coords[:, c.right]
                ok &= (xi < xj) | ((xi == xj) & (c.left < c.right))
        return ok


def box_region(d: int, lo: int, hi: int) -> Region:
    return Region(d, tuple(CoordRange(i, lo, hi) for i in range(d)))


def orthant_region(d: int, axes: Optional[Iterable[int]] = None) -> Region:
    axes = range(d) if axes is None else axes
    return Region(d, tuple(Orthant(i, +1) for i in axes))


def slot_chain(d: int, order: Sequence[int]) -> Region:
    """x_{order[0]} <= x_{order[1]} <= ... under slot order."""
    cs = tuple(SlotLess(order[i], order[i + 1]) for i in range(len(order) - 1))
    return Region(d, cs)


def slot_dominates(d: int, top: int, below: Iterable[int]) -> Region:
    """x_top >= x_t for t in below, as the exact slot-order complement."""
    return Region(d, tuple(SlotLess(t, top) for t in below))


# ---------------------------------------------------------------------------
# masks and boundary distance
# ---------------------------------------------------------------------------

def check_mask(box: LatticeBox, bits) -> np.ndarray:
    """``bits`` if it is a bool array with one entry per site of ``box``.

    A mask is the 0/1 diagonal of a region on a box, ``region.evaluate(box.sites())``.
    """
    bits = np.asarray(bits)
    if bits.dtype != bool or bits.shape != (box.site_count,):
        raise ConfigError(f"a mask on {box.site_count} sites must be a bool array of "
                          f"that length, got {bits.dtype} of shape {bits.shape}")
    return bits


def _boundary_sites(inner: np.ndarray, outer: np.ndarray, box: LatticeBox) -> np.ndarray:
    """Sites of outer \\ inner with a nearest neighbor in inner (the cut)."""
    inner, outer = check_mask(box, inner), check_mask(box, outer)
    if np.any(inner & ~outer):
        raise ConfigError("inner region is not contained in outer on this box")
    sites = box.sites()
    strides = np.asarray(box.strides)
    cut = np.zeros(box.site_count, dtype=bool)
    flat = np.arange(box.site_count)
    for axis in range(box.d):
        fwd = sites[:, axis] < box.hi[axis]
        rows = flat[fwd]
        cols = rows + strides[axis]
        disagree = inner[rows] != inner[cols]
        cut[rows[disagree & ~inner[rows]]] = True
        cut[cols[disagree & ~inner[cols]]] = True
    cut &= outer
    return sites[cut]


def boundary_distance(sites, inner: Region, outer: Region, box: LatticeBox) -> np.ndarray:
    """Sup-norm distance from each of the ``(N, d)`` sites to the boundary of
    inner in outer.

    The boundary is realized at site resolution: sites of outer outside inner
    that are nearest-neighbor adjacent to inner.  It is found once for all
    sites; where it is empty on the box, every distance is inf.
    """
    sites = np.asarray(sites, dtype=np.int64)
    coords = box.sites()
    out = np.full(sites.shape[0], math.inf)
    for b in _boundary_sites(inner.evaluate(coords), outer.evaluate(coords), box):
        np.minimum(out, np.max(np.abs(sites - b), axis=1), out=out)
    return out


# ---------------------------------------------------------------------------
# region grammar:  "orthant(1,+) & orthant(2,+) & layer(3,0) & order(1<2)"
# ---------------------------------------------------------------------------

def parse_region(d: int, text: str) -> Region:
    """Parse the 1-based config grammar into a Region (axes stored 0-based)."""
    constraints: List[Constraint] = []
    text = text.strip()
    if not text or text == "all":
        return Region(d, ())
    for term in text.split("&"):
        term = term.strip()
        if not (term.endswith(")") and "(" in term):
            raise ConfigError(f"cannot parse region term {term!r}")
        name, args = term[:-1].split("(", 1)
        name = name.strip()
        args = [a.strip() for a in args.split(",")]
        if name == "order" and (len(args) != 1 or "<" not in args[0]):
            raise ConfigError(f"order term must look like order(1<2), got {term!r}")
        try:
            if name == "orthant":
                axis, sign = int(args[0]) - 1, args[1]
                if sign not in ("+", "+1", "-", "-1"):
                    raise ConfigError(f"orthant sign must be +, +1, - or -1 in {term!r}")
                constraints.append(Orthant(axis, +1 if sign in ("+", "+1") else -1))
            elif name == "layer":
                constraints.append(Layer(int(args[0]) - 1, int(args[1])))
            elif name == "range":
                constraints.append(CoordRange(int(args[0]) - 1, int(args[1]), int(args[2])))
            elif name == "order":
                left, right = args[0].split("<")
                constraints.append(SlotLess(int(left) - 1, int(right) - 1))
            else:
                raise ConfigError(f"unknown region constraint {name!r}")
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"cannot parse region term {term!r}: {exc}") from None
    return Region(d, tuple(constraints))
