"""Symbolic lattice regions, projection masks, restrictions and Schatten norms.

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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConfigError, ModelError
from .lattices import HermitianOperator, LatticeBox

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

_KIND_ORDER = {CoordRange: 0, Orthant: 1, Layer: 2, SlotLess: 3}


def _constraint_key(c: Constraint):
    return (_KIND_ORDER[type(c)],) + tuple(getattr(c, f) for f in c.__dataclass_fields__)


@dataclass(frozen=True)
class Region:
    """Conjunction of constraints over sites of Z^d, canonically sorted."""

    d: int
    constraints: Tuple[Constraint, ...]

    def __post_init__(self):
        for c in self.constraints:
            axes = [c.axis] if hasattr(c, "axis") else [c.left, c.right]
            if any(not 0 <= a < self.d for a in axes):
                raise ConfigError(f"constraint {c} references axis outside 0..{self.d - 1}")
        object.__setattr__(self, "constraints",
                           tuple(sorted(self.constraints, key=_constraint_key)))

    def __and__(self, other: "Region") -> "Region":
        if other.d != self.d:
            raise ConfigError("cannot intersect regions of different dimension")
        return Region(self.d, self.constraints + other.constraints)

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        """Boolean membership vector for an ``(N, d)`` coordinate array."""
        coords = np.asarray(coords)
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


def wedge_region(d: int, perm: Sequence[int], lo: int, hi: int) -> Region:
    """Box wedge: sites of ``{lo..hi}^d`` whose slots sort as ``perm``."""
    return box_region(d, lo, hi) & slot_chain(d, perm)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

@dataclass
class ProjectionMask:
    """Realized 0/1 diagonal of a region on a box (idempotent projection)."""

    box: LatticeBox
    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (self.box.site_count,):
            raise ModelError("mask length does not match the box")

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def __and__(self, other: "ProjectionMask") -> "ProjectionMask":
        if other.box != self.box:
            raise ModelError("mask boxes differ")
        return ProjectionMask(self.box, self.bits & other.bits)

    def __invert__(self) -> "ProjectionMask":
        return ProjectionMask(self.box, ~self.bits)

    def contains_mask(self, other: "ProjectionMask") -> bool:
        return bool(np.all(self.bits | ~other.bits))

    def sites(self) -> np.ndarray:
        return self.box.sites()[self.bits]


def region_mask(region: Region, box: LatticeBox) -> ProjectionMask:
    if region.d != box.d:
        raise ConfigError("region dimension does not match the box")
    return ProjectionMask(box, region.evaluate(box.sites()))


def full_mask(box: LatticeBox) -> ProjectionMask:
    return ProjectionMask(box, np.ones(box.site_count, dtype=bool))


def wedge_masks(box: LatticeBox, lo: int, hi: int) -> dict:
    """All d! wedge masks of ``{lo..hi}^d`` on the box, keyed by permutation."""
    d = box.d
    return {perm: region_mask(wedge_region(d, perm, lo, hi), box)
            for perm in itertools.permutations(range(d))}


# ---------------------------------------------------------------------------
# restriction, traces, norms
# ---------------------------------------------------------------------------

def restrict(op: HermitianOperator, mask: ProjectionMask) -> HermitianOperator:
    """Dirichlet restriction: entries zeroed outside mask x mask."""
    if mask.box != op.box:
        raise ModelError("mask box does not match the operator box")
    m = op.matrix.copy()
    out = ~mask.bits
    m[out, :] = 0
    m[:, out] = 0
    return HermitianOperator(op.box, m, label=op.label + f" |chi({mask.count})")


def submatrix(op_or_matrix, mask: ProjectionMask) -> np.ndarray:
    """The dense block of the operator on the masked sites."""
    m = op_or_matrix.matrix if isinstance(op_or_matrix, HermitianOperator) else op_or_matrix
    idx = np.flatnonzero(mask.bits)
    return m[np.ix_(idx, idx)]


def trace(op: HermitianOperator) -> complex:
    t = np.trace(op.matrix)
    return complex(t)


def singular_values(op: HermitianOperator) -> np.ndarray:
    return np.linalg.svd(op.matrix, compute_uv=False)


def schatten_norm(op: HermitianOperator, p: float) -> float:
    """(sum s_i^p)^(1/p); a norm for p >= 1, quasi-norm for 0 < p < 1."""
    if p <= 0:
        raise ConfigError("Schatten exponent must be positive")
    s = singular_values(op)
    return float(np.sum(s ** p) ** (1.0 / p))


def operator_norm(op: HermitianOperator) -> float:
    s = singular_values(op)
    return float(s[0]) if s.size else 0.0


def kernel_block_norm(op: HermitianOperator, a, b, norm="operator") -> float:
    """Norm of the one-site kernel block chi_a M chi_b.

    With one-site cells the block is the single entry M[a, b], so every
    Schatten norm and the operator norm coincide with its modulus.
    """
    if norm != "operator":
        if not (isinstance(norm, tuple) and norm[0] == "schatten" and norm[1] > 0):
            raise ConfigError(f"unknown block norm {norm!r}")
    ia, ib = op.box.index_of(a), op.box.index_of(b)
    return float(abs(op.matrix[ia, ib]))


# ---------------------------------------------------------------------------
# boundary distance
# ---------------------------------------------------------------------------

def _boundary_sites(inner: ProjectionMask, outer: ProjectionMask) -> np.ndarray:
    """Sites of outer \\ inner with a nearest neighbor in inner (the cut)."""
    box = inner.box
    if not outer.contains_mask(inner):
        raise ConfigError("inner region is not contained in outer on this box")
    sites = box.sites()
    strides = np.asarray(box.strides)
    inner_bits = inner.bits
    cut = np.zeros(box.site_count, dtype=bool)
    flat = np.arange(box.site_count)
    for axis in range(box.d):
        fwd = sites[:, axis] < box.hi[axis]
        rows = flat[fwd]
        cols = rows + strides[axis]
        disagree = inner_bits[rows] != inner_bits[cols]
        cut[rows[disagree & ~inner_bits[rows]]] = True
        cut[cols[disagree & ~inner_bits[cols]]] = True
    cut &= outer.bits
    return sites[cut]


def boundary_distance(a, inner: Region, outer: Region, box: LatticeBox) -> float:
    """Sup-norm distance from site ``a`` to the boundary of inner in outer.

    The boundary is realized at site resolution: sites of outer outside inner
    that are nearest-neighbor adjacent to inner.  Returns inf if the boundary
    is empty on the box.
    """
    bd = _boundary_sites(region_mask(inner, box), region_mask(outer, box))
    if bd.shape[0] == 0:
        return math.inf
    a = np.asarray(a, dtype=np.int64)
    return float(np.min(np.max(np.abs(bd - a[None, :]), axis=1)))


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
        if name == "orthant":
            axis, sign = int(args[0]) - 1, args[1]
            constraints.append(Orthant(axis, +1 if sign in ("+", "+1") else -1))
        elif name == "layer":
            constraints.append(Layer(int(args[0]) - 1, int(args[1])))
        elif name == "range":
            constraints.append(CoordRange(int(args[0]) - 1, int(args[1]), int(args[2])))
        elif name == "order":
            if len(args) != 1 or "<" not in args[0]:
                raise ConfigError(f"order term must look like order(1<2), got {term!r}")
            left, right = args[0].split("<")
            constraints.append(SlotLess(int(left) - 1, int(right) - 1))
        else:
            raise ConfigError(f"unknown region constraint {name!r}")
    return Region(d, tuple(constraints))
