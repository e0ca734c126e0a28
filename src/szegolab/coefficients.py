"""Corner-decomposition coefficients of large-box trace expansions.

For an ensemble operator H, functions g, h with h(0) = 0, and the box of side
``ell = 2L``, the averaged trace expands as

    E[ Tr h(g(H)_box) ] = sum_{m=0..d} A_m^(L) ell^(d-m) + error,

with ``A_m^(L) = sum_{n=1..m} c_{m,n} E[ Tr( chihat_{L,m,n} {f_n - f_{n-1}} ) ]``
built from the half-orthant model operators

    f_n = h( g(H) restricted to {x_1,...,x_n >= 0} ),

the combinatorial constants ``c_{m,n} = (-1)^(m-n) 2^m d! / ((m-n)! (d-m)!)``,
and wedge masks ``chihat`` that order the first n coordinates and let the n-th
dominate coordinates n+1..m.  All order constraints use the strict slot order
of :mod:`szegolab.regions`, which is what makes the d! wedge partition, the
telescoping identity and the inclusion-exclusion expansion exact at integer
level on the lattice.

A second, partition-free route expresses the same coefficients through plain
traces ``E[Tr(f_n chi_box chi_layers)]`` with constants ``c~_{m,n}``; two
candidate normalizations of ``c~`` (differing by 4^m) are tabulated and
adjudicated numerically, never assumed.

Everything here is desk-scale: the ambient space is the even symmetric box
B_R = {-R..R-1}^d and model operators are computed on it, so ensemble
statements hold up to a half-space truncation error controlled by the decay
certificates of :mod:`szegolab.decay`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, ModelError
from .lattices import EnsembleSpec, HermitianOperator, LatticeBox, build_operator
from .mc import MCAccumulator, StatSummary
from .regions import (Layer, Orthant, ProjectionMask, Region, box_region,
                      orthant_region, region_mask, slot_chain, slot_dominates,
                      wedge_region)
from .spectral import ScalarFunction

# ---------------------------------------------------------------------------
# combinatorial constants
# ---------------------------------------------------------------------------

def c_constant(d: int, m: int, n: int) -> Fraction:
    """c_{m,n} = (-1)^(m-n) 2^m d! / ((m-n)! (d-m)!), valid for 0 <= n <= m."""
    if not (1 <= m <= d and 0 <= n <= m):
        raise ConfigError(f"invalid (m, n) = ({m}, {n}) for d = {d}")
    sign = -1 if (m - n) % 2 else 1
    return Fraction(sign * 2 ** m * math.factorial(d),
                    math.factorial(m - n) * math.factorial(d - m))


def c_tilde_printed(d: int, m: int, n: int) -> Fraction:
    """Partition-free constant with 2^m in the denominator."""
    if not (0 <= n <= m <= d):
        raise ConfigError(f"invalid (m, n) = ({m}, {n}) for d = {d}")
    if m == 0:
        return Fraction(1)
    sign = -1 if (m - n) % 2 else 1
    return Fraction(sign * math.factorial(d),
                    2 ** m * math.factorial(n) * math.factorial(m - n)
                    * math.factorial(d - m))


def c_tilde_recurrence(d: int, m: int, n: int) -> Fraction:
    """Partition-free candidate c_{m,n} / n! with 2^m in the numerator."""
    if m == 0:
        return Fraction(1)
    return c_constant(d, m, n) / math.factorial(n)


@dataclass
class CoefficientTable:
    """Constants plus (optionally) Monte Carlo coefficient estimates."""

    d: int
    L: Optional[int] = None
    R: Optional[int] = None
    c: Dict[int, Dict[int, Fraction]] = field(default_factory=dict)
    c_tilde_printed: Dict[int, Dict[int, Fraction]] = field(default_factory=dict)
    c_tilde_recurrence: Dict[int, Dict[int, Fraction]] = field(default_factory=dict)
    A_fv: Dict[int, StatSummary] = field(default_factory=dict)
    A_mn: Dict[Tuple[int, int], StatSummary] = field(default_factory=dict)
    E_L: Optional[StatSummary] = None
    n_samples: int = 0
    seed: int = 0
    extras: Dict = field(default_factory=dict)

    def to_jsonable(self) -> Dict:
        out = {
            "d": self.d, "L": self.L, "R": self.R,
            "c": {str(m): {str(n): str(v) for n, v in row.items()}
                  for m, row in self.c.items()},
            "c_tilde_printed": {str(m): {str(n): str(v) for n, v in row.items()}
                                for m, row in self.c_tilde_printed.items()},
            "c_tilde_recurrence": {str(m): {str(n): str(v) for n, v in row.items()}
                                   for m, row in self.c_tilde_recurrence.items()},
            "A_fv": {str(m): s.to_dict() for m, s in self.A_fv.items()},
            "A_mn": {f"{m},{n}": s.to_dict() for (m, n), s in self.A_mn.items()},
            "E_L": self.E_L.to_dict() if self.E_L else None,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }
        out.update(self.extras)
        return out


def comb_constants(d: int) -> CoefficientTable:
    """Exact rational constant tables for dimension d (both c~ variants)."""
    if not 1 <= d <= 3:
        raise ConfigError("d must be in 1..3")
    table = CoefficientTable(d=d)
    for m in range(1, d + 1):
        table.c[m] = {n: c_constant(d, m, n) for n in range(0, m + 1)}
        table.c_tilde_printed[m] = {n: c_tilde_printed(d, m, n) for n in range(0, m + 1)}
        table.c_tilde_recurrence[m] = {n: c_tilde_recurrence(d, m, n)
                                       for n in range(0, m + 1)}
    table.c_tilde_printed[0] = {0: Fraction(1)}
    table.c_tilde_recurrence[0] = {0: Fraction(1)}
    return table


# ---------------------------------------------------------------------------
# regions of the decomposition
# ---------------------------------------------------------------------------

def half_orthant_region(d: int, n: int) -> Region:
    """{x_1, ..., x_n >= 0} (all of Z^d for n = 0)."""
    if not 0 <= n <= d:
        raise ConfigError(f"half-orthant index n={n} outside 0..{d}")
    return Region(d, tuple(Orthant(i, +1) for i in range(n)))


def chi_hat_region(d: int, m: int, n: int, L: Optional[int] = None) -> Region:
    """Wedge mask of the coefficient A_{m,n}.

    Conjunction of: the orthant (or the box {0..L-1}^d when L is given), the
    slot chain x_1 <= ... <= x_n, the domination of x_n over x_{n+1..m}
    (interpreted as the identity for n = m), and the layers x_{m+1..d} = 0
    (identity for m = d).
    """
    if not (1 <= n <= m <= d):
        raise ConfigError(f"need 1 <= n <= m <= d, got ({m},{n}), d={d}")
    base = box_region(d, 0, L - 1) if L is not None else orthant_region(d)
    r = base & slot_chain(d, tuple(range(n)))
    if n < m:
        r = r & slot_dominates(d, n - 1, range(n, m))
    if m < d:
        r = r & Region(d, tuple(Layer(i, 0) for i in range(m, d)))
    return r


def chi_hat_mask(m: int, n: int, box: LatticeBox, L: Optional[int] = None) -> ProjectionMask:
    return region_mask(chi_hat_region(box.d, m, n, L=L), box)


def chi_lnm_region(d: int, n: int, dominated_axes: Iterable[int], L: int) -> Region:
    """Box wedge  chi_{[0,L)^d} chain(x_1..x_n) {x_n >= x_t, t in M}."""
    r = box_region(d, 0, L - 1) & slot_chain(d, tuple(range(n)))
    dominated = tuple(dominated_axes)
    if dominated:
        r = r & slot_dominates(d, n - 1, dominated)
    return r


def pf_region(d: int, m: int, L: int) -> Region:
    """Partition-free trace mask: box {0..L-1}^d with layers x_{m+1..d} = 0."""
    r = box_region(d, 0, L - 1)
    if m < d:
        r = r & Region(d, tuple(Layer(i, 0) for i in range(m, d)))
    return r


# ---------------------------------------------------------------------------
# permutation partition  S^d_n(k, l)
# ---------------------------------------------------------------------------

def k_vectors(d: int, n: int, l: int) -> List[Tuple[int, ...]]:
    """Ordered (n-1)-tuples of distinct axes from {0..d-1} minus {l}."""
    pool = [a for a in range(d) if a != l]
    return list(itertools.permutations(pool, n - 1))


def perm_block(d: int, n: int, k: Tuple[int, ...], l: int) -> List[Tuple[int, ...]]:
    """Permutations pi with (pi(1), ..., pi(n)) = (k_1, ..., k_{n-1}, l)."""
    head = tuple(k) + (l,)
    if len(set(head)) != n or any(not 0 <= a < d for a in head):
        raise ConfigError(f"invalid block head {head} for d={d}")
    tail_pool = [a for a in range(d) if a not in head]
    return [head + rest for rest in itertools.permutations(tail_pool)]


def pi0_for_block(d: int, n: int, k: Tuple[int, ...], l: int) -> Tuple[int, ...]:
    """Lexicographically smallest pi0 whose inverse lies in the block.

    The inverse constraint pins pi0[k_i] = i and pi0[l] = n-1 (0-based); free
    positions are filled with the remaining values in ascending order.
    """
    fixed = {axis: i for i, axis in enumerate(k)}
    fixed[l] = n - 1
    used = set(fixed.values())
    free_vals = iter(v for v in range(d) if v not in used)
    out: List[Optional[int]] = [fixed.get(pos) for pos in range(d)]
    for pos in range(d):
        if out[pos] is None:
            out[pos] = next(free_vals)
    return tuple(out)


def partition_block_sizes(d: int, n: int) -> int:
    """Sum of block sizes over (l, k); must equal d! for every n."""
    total = 0
    for l in range(d):
        for k in k_vectors(d, n, l):
            total += len(perm_block(d, n, k, l))
    return total


# ---------------------------------------------------------------------------
# the per-sample spectral kernel
# ---------------------------------------------------------------------------

def spectral_data(spec: EnsembleSpec, box: LatticeBox, sample_id: int,
                  g: ScalarFunction):
    """(eigenvalues of H, eigenvectors, g(eigenvalues)) for one sample."""
    ham = build_operator(spec, box, sample_id)
    lam, u = np.linalg.eigh(ham.matrix)
    return lam, u, np.real(g(lam))


def block_of_gH(u: np.ndarray, f: np.ndarray, idx: Optional[np.ndarray] = None
                ) -> np.ndarray:
    """U diag(f) U^H, or its sub-block on the rows and columns ``idx``.

    Eigenpairs with f = 0 are skipped; that is exact, and for a bump g it
    drops every eigenvalue outside supp g.
    """
    keep = np.flatnonzero(f)
    w = u[:, keep] if idx is None else u[np.ix_(idx, keep)]
    return (w * f[keep][None, :]) @ w.conj().T


def _restricted_diag(u: np.ndarray, gl: np.ndarray, bits: np.ndarray,
                     h: ScalarFunction) -> np.ndarray:
    """Diagonal of h(g(H)|_S) on the box, h(0) outside S = {bits}.

    ``(u, gl)`` are the eigenvectors of H and g(eigenvalues).  On the whole
    box, and for h = identity, the diagonal is read from the one full-length
    product |U|^2 h(gl), so identity-h differences pair bit-identical floats.
    """
    if h.is_identity or bits.all():
        return np.where(bits, (np.abs(u) ** 2) @ np.real(h(gl)), h.value_at_zero)
    diag = np.full(u.shape[0], h.value_at_zero)
    idx = np.flatnonzero(bits)
    if idx.size:
        mu, v = np.linalg.eigh(block_of_gH(u, gl, idx))
        diag[idx] = (np.abs(v) ** 2) @ np.real(h(mu))
    return diag


# ---------------------------------------------------------------------------
# model operators
# ---------------------------------------------------------------------------

def big_box(d: int, R: int) -> LatticeBox:
    """The ambient even box {-R..R-1}^d, symmetric about -1/2."""
    return LatticeBox.centered(d, R)


@dataclass
class ModelOperatorFamily:
    """Half-orthant model operators f_0..f_d on the big box B_R.

    ``f[n] = h(g(H)|_{x_1..x_n >= 0})`` embedded on B_R.  The relabelled
    members ``f_{n,pi}`` of the telescoping identity are obtained by
    conjugating with permute actions; the end members f_0, f_d are invariant
    under every coordinate permutation.
    """

    sample_id: int
    R: int
    box: LatticeBox
    f: List[HermitianOperator]
    window: Tuple[float, float]
    truncation_estimate: Optional[float] = None

    @property
    def d(self) -> int:
        return self.box.d


def truncation_tail(decay_rate: Callable[[float], float], d: int, margin: int) -> float:
    """sum_{r > margin} (2d (2r+1)^(d-1)) * rate(r), truncated when negligible."""
    total = 0.0
    for r in range(margin + 1, 11 * margin + 1000):
        shell = 2 * d * (2 * r + 1) ** (d - 1)
        term = shell * float(decay_rate(r))
        total += term
        if term < 1e-18 * (1.0 + total):
            break
    return total


def model_operators(spec: EnsembleSpec, d: int, sample_id: int, g: ScalarFunction,
                    h: ScalarFunction, R: int, decay_rate=None,
                    tol: Optional[float] = None) -> ModelOperatorFamily:
    """Model operator family of one sample, matrices materialized on B_R.

    ``decay_rate(r)`` is an optional certified bound on the averaged kernel of
    g(H) at distance r; it is required whenever a truncation tolerance ``tol``
    is requested, and the estimated half-space tail at radius R must then stay
    below ``tol``.
    """
    if tol is not None and decay_rate is None:
        raise ConfigError("truncation tolerance requested but no decay certificate supplied")
    box = big_box(d, R)
    lam, u, gl = spectral_data(spec, box, sample_id, g)
    a = block_of_gH(u, gl)
    coords = box.sites()
    members = []
    for n in range(d + 1):
        bits = half_orthant_region(d, n).evaluate(coords)
        block = np.ix_(bits, bits)
        mat = np.diag(np.where(bits, 0.0, h.value_at_zero)).astype(a.dtype)
        if h.is_identity:
            mat[block] = a[block]
        else:
            mu, v = np.linalg.eigh(a[block])
            mat[block] = block_of_gH(v, np.real(h(mu)))
        members.append(HermitianOperator(box, mat,
                                         label=f"f_{n}[{spec.kind} s={sample_id}]"))
    est = None
    if decay_rate is not None:
        est = truncation_tail(decay_rate, d, R)
        if tol is not None and est > tol:
            raise ModelError(f"truncation tail {est:.3e} exceeds tolerance {tol:.3e}")
    return ModelOperatorFamily(sample_id, R, box, members,
                               (float(gl.min()), float(gl.max())), est)


# ---------------------------------------------------------------------------
# exact identity checks
# ---------------------------------------------------------------------------

def telescoping_check(family: Sequence[HermitianOperator],
                      probe: ProjectionMask) -> float:
    """Residual of the wedge-telescoping trace identity for a family f_0..f_d.

    Checks  sum_pi sum_n Tr( (probe & wedge_pi) {f_{n,pi} - f_{n-1,pi}} )
          = Tr( probe {f_d - f_0} ),
    where f_{n,pi} conjugates f_n by the coordinate permutation pi for the
    middle members while f_{0,pi} = f_0 and f_{d,pi} = f_d (their domains are
    permutation invariant).  The identity is purely algebraic: the wedges
    partition every probe exactly and the middle terms telescope, so it holds
    for arbitrary Hermitian input families.
    """
    box = family[0].box
    d = box.d
    if len(family) != d + 1:
        raise ConfigError(f"family must have d+1 = {d + 1} members")
    if any(f.box != box for f in family):
        raise ConfigError("family members live on different boxes")
    if probe.box != box:
        raise ConfigError("probe mask lives on a different box")
    if len(set(box.lo)) > 1 or len(set(box.hi)) > 1:
        raise ConfigError("telescoping needs a permutation-invariant (cubic) box")
    coords = box.sites()
    diags = [np.real(np.diagonal(f.matrix)) for f in family]
    lhs = 0.0
    for perm in itertools.permutations(range(d)):
        wedge_bits = slot_chain(d, perm).evaluate(coords) & probe.bits
        if not wedge_bits.any():
            continue
        sel = np.flatnonzero(wedge_bits)
        # conjugated diagonal: diag(U_pi f U_pi^*)[x] = diag(f)[x_pi]
        mapped = box.indices_of(coords[sel][:, list(perm)])
        for n in range(1, d + 1):
            upper = diags[n][sel] if n == d else diags[n][mapped]
            lower = diags[n - 1][sel] if n == 1 else diags[n - 1][mapped]
            lhs += float(np.sum(upper - lower))
    sel = np.flatnonzero(probe.bits)
    rhs = float(np.sum(diags[d][sel] - diags[0][sel]))
    return abs(lhs - rhs)


def inclusion_exclusion_check(n: int, l: int, k: Tuple[int, ...], L: int, d: int) -> int:
    """Max absolute integer defect of the block inclusion-exclusion identity.

    Left side: sum over pi in the block S^d_n(k, l) of the pi0-relabelled
    wedge masks of {0..L-1}^d, where pi0 acts on an order region by composing
    the ordering (slot labels move with the value coordinates, the symbolic
    action of the coordinate permutation).  Right side: the slot chain on the
    first n coordinates times the alternating-sum expansion of the product of
    domination complements.  Exact slot-order complementation makes both sides
    equal integer site weights; the residual must be exactly 0.
    """
    if not (1 <= n <= d and 0 <= l < d):
        raise ConfigError(f"invalid (n, l) = ({n}, {l}) for d = {d}")
    k = tuple(k)
    if k not in set(k_vectors(d, n, l)):
        raise ConfigError(f"invalid index vector {k} for (d, n, l) = ({d}, {n}, {l})")
    box = LatticeBox.cube(d, 0, L - 1)
    coords = box.sites()
    pi0 = pi0_for_block(d, n, k, l)
    lhs = np.zeros(box.site_count, dtype=np.int64)
    for pi in perm_block(d, n, k, l):
        relabelled = tuple(pi0[a] for a in pi)  # wedge of the ordering pi0 o pi
        lhs += wedge_region(d, relabelled, 0, L - 1).evaluate(coords).astype(np.int64)
    rhs = np.zeros(box.site_count, dtype=np.int64)
    rest = list(range(n, d))
    for j in range(0, d - n + 1):
        for m_set in itertools.combinations(rest, j):
            bits = chi_lnm_region(d, n, m_set, L).evaluate(coords).astype(np.int64)
            rhs += ((-1) ** j) * bits
    return int(np.max(np.abs(lhs - rhs)))


def sd_partition_residual(box: LatticeBox, lo: int, hi: int) -> int:
    """0 iff the d! wedge masks of {lo..hi}^d cover the cube exactly once."""
    d = box.d
    coords = box.sites()
    total = np.zeros(box.site_count, dtype=np.int64)
    for perm in itertools.permutations(range(d)):
        total += wedge_region(d, perm, lo, hi).evaluate(coords).astype(np.int64)
    expected = box_region(d, lo, hi).evaluate(coords).astype(np.int64)
    return int(np.max(np.abs(total - expected)))


# ---------------------------------------------------------------------------
# corner transforms (pullback coordinates)
# ---------------------------------------------------------------------------

def _pullback_coords(coords: np.ndarray, sigma: Tuple[int, ...], L: int,
                     pi0: Optional[Tuple[int, ...]] = None) -> np.ndarray:
    """Coordinates w^{-1}(x') of the corner transform, for x' in B_R.

    The transformed operator A^T with T = (translate by L) o (permute pi0) o
    (reflect sigma) has entries A^T[x, y] = A[w(x), w(y)], so a
    standard-coordinate region Q conjugates to the mask {x' : w^{-1}(x') in Q}
    on B_R; this returns w^{-1}(coords).  Reflection of coordinate i is about
    -1/2 (site map s -> -1-s), the realization of the continuum flip under the
    cell convention.
    """
    out = coords.copy()
    for i, b in enumerate(sigma):
        if b:
            out[:, i] = -1 - out[:, i]
    if pi0 is not None:
        inv = np.argsort(np.asarray(pi0, dtype=np.int64))
        out = out[:, inv]
    return out + L


def _corner_error_for_sample(d: int, box: LatticeBox, u: np.ndarray, gl: np.ndarray,
                             h: ScalarFunction, L: int) -> float:
    """sum_sigma Tr( chi_{[0,L)^d} { h((A^T)_{[0,2L)^d}) - f_d^T } ), pulled back."""
    coords = box.sites()
    box2L = box_region(d, 0, 2 * L - 1)
    boxL = box_region(d, 0, L - 1)
    orth = orthant_region(d)
    total = 0.0
    for sigma in itertools.product((0, 1), repeat=d):
        pre = _pullback_coords(coords, sigma, L)
        probe = boxL.evaluate(pre)
        diag_box = _restricted_diag(u, gl, box2L.evaluate(pre), h)
        diag_orth = _restricted_diag(u, gl, orth.evaluate(pre), h)
        total += float(np.sum(diag_box[probe] - diag_orth[probe]))
    return total


def error_term(spec: EnsembleSpec, d: int, sample_id: int, g: ScalarFunction,
               h: ScalarFunction, L: int, R: int) -> float:
    """Corner error term of one sample at scale L on the ambient box B_R."""
    if 2 * L > R:
        raise ConfigError(f"error term needs 2L <= R, got L={L}, R={R}")
    box = big_box(d, R)
    lam, u, gl = spectral_data(spec, box, sample_id, g)
    return _corner_error_for_sample(d, box, u, gl, h, L)


@dataclass
class DecompositionProbeReport:
    """Pointwise master-identity check of one sample."""

    lhs: float
    corner_terms: Dict[int, float]               # m -> b_m^(L)
    error_term: float
    residual: float
    scale: float
    truncation_budget: Optional[float] = None
    b_diagnostics: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @property
    def rhs(self) -> float:
        return sum(self.corner_terms.values()) + self.error_term


def decomposition_identity_probe(spec: EnsembleSpec, d: int, sample_id: int,
                                 g: ScalarFunction, h: ScalarFunction, L: int,
                                 R: int, decay_rate=None) -> DecompositionProbeReport:
    """Check Tr(chi_Lambda {h(g(H)_Lambda) - f_0}) = sum_m b_m^(L) + E^(L).

    The corner terms use the reflected-and-translated sample (realized by
    pulling regions back through the transform, which acts per axis and never
    relabels slot coordinates).  Within a permutation block S^d_n(k, l) the
    half-orthant restriction depends only on the axis sets {k} and {k, l}, so
    the b terms are built from block-constant model operators against the
    chain/domination masks of the axes (k_1, ..., k_{n-1}, l); the block
    collection then is an exact mask identity, the identity holds pointwise
    in the sample and the residual sits at rounding level.  The decay-based
    truncation budget is reported alongside for context.
    """
    if 4 * L > R:
        raise ConfigError(f"identity probe needs 2L <= R/2, got L={L}, R={R}")
    box = big_box(d, R)
    coords = box.sites()
    lam, u, gl = spectral_data(spec, box, sample_id, g)
    diag0_global = _restricted_diag(u, gl, np.ones(box.site_count, bool), h)

    lam_region = Region(d, tuple(
        _coord_range(i, -L, L - 1) for i in range(d)))
    lam_bits = lam_region.evaluate(coords)
    diag_lam = _restricted_diag(u, gl, lam_bits, h)
    lhs = float(np.sum(diag_lam[lam_bits] - diag0_global[lam_bits]))

    # pulled-back half-orthant diagonals, keyed by (sigma, frozen axis set)
    pre_cache: Dict[Tuple, np.ndarray] = {}
    diag_cache: Dict[Tuple, np.ndarray] = {}

    def pre_for(sigma) -> np.ndarray:
        if sigma not in pre_cache:
            pre_cache[sigma] = _pullback_coords(coords, sigma, L)
        return pre_cache[sigma]

    def diag_for(sigma, axes: Tuple[int, ...]) -> np.ndarray:
        if not axes:
            # f_0 is unrestricted: its pulled-back diagonal is sigma-independent
            return diag0_global
        key = (sigma, axes)
        if key not in diag_cache:
            region = Region(d, tuple(Orthant(i, +1) for i in axes))
            bits = region.evaluate(pre_for(sigma))
            diag_cache[key] = _restricted_diag(u, gl, bits, h)
        return diag_cache[key]

    corner = {m: 0.0 for m in range(1, d + 1)}
    b_diag = {(n, j): 0.0 for n in range(1, d + 1) for j in range(0, d - n + 1)}
    abs_acc = abs(lhs)
    for n in range(1, d + 1):
        for l in range(d):
            for k in k_vectors(d, n, l):
                head = tuple(k) + (l,)
                axes_upper = tuple(sorted(head))
                axes_lower = tuple(sorted(k))
                comp = [t for t in range(d) if t not in head]
                for sigma in itertools.product((0, 1), repeat=d):
                    pre = pre_for(sigma)
                    dn = diag_for(sigma, axes_upper)
                    dn1 = diag_for(sigma, axes_lower)
                    for j in range(0, d - n + 1):
                        for m_set in itertools.combinations(comp, j):
                            region = (box_region(d, 0, L - 1)
                                      & slot_chain(d, head))
                            if m_set:
                                region = region & slot_dominates(d, l, m_set)
                            q_bits = region.evaluate(pre)
                            term = ((-1) ** j) * float(np.sum(dn[q_bits] - dn1[q_bits]))
                            corner[n + j] += term
                            b_diag[(n, j)] += term
                            abs_acc += abs(term)
    err = _corner_error_for_sample(d, box, u, gl, h, L)
    abs_acc += abs(err)
    rhs = sum(corner.values()) + err
    budget = None
    if decay_rate is not None:
        budget = truncation_tail(decay_rate, d, R - 2 * L)
    return DecompositionProbeReport(lhs, corner, err, abs(lhs - rhs),
                                    max(1.0, abs_acc), budget, b_diag)


def _coord_range(axis: int, lo: int, hi: int):
    from .regions import CoordRange
    return CoordRange(axis, lo, hi)


# ---------------------------------------------------------------------------
# per-sample coefficient pipeline
# ---------------------------------------------------------------------------

@dataclass
class SweepPlan:
    """Precomputed masks and index arrays for the per-sample pipeline."""

    spec: EnsembleSpec
    d: int
    R: int
    box: LatticeBox
    g: ScalarFunction
    h: ScalarFunction
    L_values: Tuple[int, ...]
    ells: Tuple[int, ...]
    ell_offset: Tuple[int, ...]
    orthant_bits: List[np.ndarray]
    chi_masks: Dict[Tuple[int, int, int], np.ndarray]
    pf_masks: Dict[Tuple[int, int], np.ndarray]
    ell_bits: Dict[int, np.ndarray]
    center_index: int
    error_L: Tuple[int, ...] = ()
    constants: Optional[CoefficientTable] = None


def make_sweep_plan(spec: EnsembleSpec, d: int, g: ScalarFunction, h: ScalarFunction,
                    R: int, L_values: Sequence[int] = (), ells: Sequence[int] = (),
                    ell_offset: Sequence[int] = (), error_L: Sequence[int] = ()
                    ) -> SweepPlan:
    L_values = tuple(int(v) for v in L_values)
    ells = tuple(int(v) for v in ells)
    error_L = tuple(int(v) for v in error_L)
    offset = tuple(int(v) for v in ell_offset) if ell_offset else (0,) * d
    box = big_box(d, R)
    coords = box.sites()
    for L in L_values:
        if L > R // 2:
            raise ConfigError(f"probe depth L={L} exceeds R/2={R // 2}")
    for L in error_L:
        if 2 * L > R:
            raise ConfigError(f"error-term scale L={L} needs 2L <= R={R}")
    orthant_bits = [half_orthant_region(d, n).evaluate(coords) for n in range(d + 1)]
    chi_masks = {}
    pf_masks = {}
    for L in L_values:
        for m in range(1, d + 1):
            pf_masks[(L, m)] = pf_region(d, m, L).evaluate(coords)
            for n in range(1, m + 1):
                chi_masks[(L, m, n)] = chi_hat_region(d, m, n, L=L).evaluate(coords)
    ell_bits = {}
    for ell in ells:
        lo = [offset[i] - ell // 2 for i in range(d)]
        hi = [lo[i] + ell - 1 for i in range(d)]
        if any(lo[i] < box.lo[i] or hi[i] > box.hi[i] for i in range(d)):
            raise ConfigError(f"sweep box ell={ell} (offset {offset}) leaves B_R")
        ell_bits[ell] = Region(d, tuple(_coord_range(i, lo[i], hi[i]) for i in range(d))
                               ).evaluate(coords)
    return SweepPlan(spec, d, R, box, g, h, L_values, ells, offset,
                     orthant_bits, chi_masks, pf_masks, ell_bits,
                     box.index_of((0,) * d), error_L, comb_constants(d))


def _sample_stats(plan: SweepPlan, sample_id: int) -> Dict[str, float]:
    """All per-sample scalars of the coefficient sweep, keyed by statistic."""
    d, h = plan.d, plan.h
    lam, u, gl = spectral_data(plan.spec, plan.box, sample_id, plan.g)
    diag = [_restricted_diag(u, gl, bits, h) for bits in plan.orthant_bits]

    out: Dict[str, float] = {}
    out["A0"] = float(diag[0][plan.center_index])
    out["window_lo"] = float(gl.min())
    out["window_hi"] = float(gl.max())
    cst = plan.constants
    for L in plan.L_values:
        for m in range(1, d + 1):
            a_m = 0.0
            for n in range(1, m + 1):
                bits = plan.chi_masks[(L, m, n)]
                t = float(np.sum(diag[n][bits] - diag[n - 1][bits]))
                out[f"Amn|{L}|{m}|{n}"] = t
                a_m += float(cst.c[m][n]) * t
            out[f"Afv|{L}|{m}"] = a_m
            printed = rec = 0.0
            for n in range(0, m + 1):
                bits = plan.pf_masks[(L, m)]
                t = float(np.sum(diag[n][bits]))
                out[f"pf|{L}|{m}|{n}"] = t
                printed += float(cst.c_tilde_printed[m][n]) * t
                rec += float(cst.c_tilde_recurrence[m][n]) * t
            out[f"Apf_printed|{L}|{m}"] = printed
            out[f"Apf_recurrence|{L}|{m}"] = rec
    for ell in plan.ells:
        bits = plan.ell_bits[ell]
        out[f"sweep|{ell}"] = float(np.sum(_restricted_diag(u, gl, bits, h)[bits]))
    for L in plan.error_L:
        out[f"EL|{L}"] = _corner_error_for_sample(d, plan.box, u, gl, h, L)
    return out


@dataclass
class SweepResult:
    """Order-fixed Monte Carlo statistics of one coefficient sweep."""

    plan: SweepPlan
    n_samples: int
    stats: Dict[str, StatSummary]
    window: Tuple[float, float]

    def stat(self, key: str) -> StatSummary:
        return self.stats[key]

    def a_fv(self, L: int, m: int) -> StatSummary:
        if m == 0:
            return self.stats["A0"]
        return self.stats[f"Afv|{L}|{m}"]

    def table(self, L: int) -> CoefficientTable:
        d = self.plan.d
        t = comb_constants(d)
        t.L, t.R = L, self.plan.R
        t.n_samples = self.n_samples
        t.seed = self.plan.spec.seed
        t.A_fv = {m: self.a_fv(L, m) for m in range(0, d + 1)}
        t.A_mn = {(m, n): self.stats[f"Amn|{L}|{m}|{n}"]
                  for m in range(1, d + 1) for n in range(1, m + 1)}
        if f"EL|{L}" in self.stats:
            t.E_L = self.stats[f"EL|{L}"]
        t.extras["window"] = list(self.window)
        return t

    def partition_free(self, L: int) -> Dict:
        d = self.plan.d
        out = {"L": L, "printed": {}, "recurrence": {}, "raw_terms": {}}
        for m in range(1, d + 1):
            out["printed"][m] = self.stats[f"Apf_printed|{L}|{m}"]
            out["recurrence"][m] = self.stats[f"Apf_recurrence|{L}|{m}"]
            out["raw_terms"][m] = {n: self.stats[f"pf|{L}|{m}|{n}"]
                                   for n in range(0, m + 1)}
        return out

    def adjudicate(self, L: int, m: int, sigma_factor: float = 3.0) -> Dict:
        """Which c~ variant reproduces the wedge-route coefficient A_m."""
        ref = self.a_fv(L, m)
        verdicts = {}
        for name in ("printed", "recurrence"):
            cand = self.stats[f"Apf_{name}|{L}|{m}"]
            tol = sigma_factor * math.hypot(ref.stderr, cand.stderr)
            verdicts[name] = {
                "value": cand.mean, "stderr": cand.stderr,
                "reference": ref.mean, "tolerance": tol,
                "matches": bool(abs(cand.mean - ref.mean) <= max(tol, 1e-12)),
            }
        matched = [k for k, v in verdicts.items() if v["matches"]]
        winner = matched[0] if len(matched) == 1 else (
            "both" if len(matched) == 2 else "neither")
        return {"m": m, "L": L, "winner": winner, "candidates": verdicts}

    def sweep_series(self):
        ells = list(self.plan.ells)
        means = [self.stats[f"sweep|{e}"].mean for e in ells]
        errs = [self.stats[f"sweep|{e}"].stderr for e in ells]
        return ells, means, errs


def coefficient_sweep(spec: EnsembleSpec, d: int, g: ScalarFunction,
                      h: ScalarFunction, R: int, L_values: Sequence[int],
                      n_samples: int, ells: Sequence[int] = (),
                      ell_offset: Sequence[int] = (), error_L: Sequence[int] = (),
                      workers: int = 1) -> SweepResult:
    """Monte Carlo sweep of all coefficient statistics over one ensemble."""
    from .mc import ordered_map
    plan = make_sweep_plan(spec, d, g, h, R, L_values, ells, ell_offset, error_L)
    rows = ordered_map(lambda s: _sample_stats(plan, s), range(n_samples),
                       workers=workers)
    accs: Dict[str, MCAccumulator] = {}
    win_lo, win_hi = math.inf, -math.inf
    for row in rows:
        win_lo = min(win_lo, row["window_lo"])
        win_hi = max(win_hi, row["window_hi"])
        for key, value in row.items():
            if key.startswith("window"):
                continue
            accs.setdefault(key, MCAccumulator()).push(value)
    stats = {k: a.summary() for k, a in accs.items()}
    return SweepResult(plan, n_samples, stats, (win_lo, win_hi))


# ---------------------------------------------------------------------------
# named operations on top of the sweep
# ---------------------------------------------------------------------------

def finite_volume_coefficients(spec: EnsembleSpec, d: int, g: ScalarFunction,
                               h: ScalarFunction, L: int, R: int, n_samples: int,
                               include_error_term: bool = False,
                               workers: int = 1) -> CoefficientTable:
    """Monte Carlo finite-volume coefficients A_m^(L) and their summands."""
    res = coefficient_sweep(spec, d, g, h, R, [L], n_samples,
                            error_L=[L] if include_error_term else (),
                            workers=workers)
    return res.table(L)


def partition_free_coefficients(spec: EnsembleSpec, d: int, g: ScalarFunction,
                                h: ScalarFunction, L: int, R: int, n_samples: int,
                                workers: int = 1) -> Dict:
    """Both partition-free candidate sums and their raw per-n terms."""
    res = coefficient_sweep(spec, d, g, h, R, [L], n_samples, workers=workers)
    out = res.partition_free(L)
    out["adjudication"] = [res.adjudicate(L, m) for m in range(1, d + 1)]
    return out
