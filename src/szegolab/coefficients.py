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
traces ``E[Tr(f_n chi_box chi_layers)]`` with constants ``c~_{m,n}``.  Two
candidate normalizations of ``c~`` are tabulated and adjudicated numerically,
never assumed.  They differ by exactly 4^m, so the printed estimate is
derived from the recurrence one (``a_pf``).

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

from .errors import ConfigError
from .lattices import (EnsembleSpec, LatticeBox, build_operator, is_tridiagonal,
                       operator_bytes, sample_itemsize)
from . import mc
from .mc import StatSummary, column_moments
from .regions import (Layer, Region, box_region, check_mask, orthant_region, slot_chain,
                      slot_dominates)
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
    """Partition-free constant with 2^m in the denominator: c~_recurrence / 4^m."""
    if not (0 <= n <= m <= d):
        raise ConfigError(f"invalid (m, n) = ({m}, {n}) for d = {d}")
    return c_tilde_recurrence(d, m, n) / 4 ** m


def c_tilde_recurrence(d: int, m: int, n: int) -> Fraction:
    """Partition-free candidate c_{m,n} / n! with 2^m in the numerator."""
    if m == 0:
        return Fraction(1)
    return c_constant(d, m, n) / math.factorial(n)


# ---------------------------------------------------------------------------
# regions of the decomposition
# ---------------------------------------------------------------------------

def corner_wedge(d: int, head: Sequence[int], dominated: Iterable[int], L: int) -> Region:
    """Corner box ``{0..L-1}^d`` with the slot chain x_head[0] <= ... <= x_head[-1]
    and the domination of x_head[-1] over the ``dominated`` coordinates."""
    return (box_region(d, 0, L - 1) & slot_chain(d, tuple(head))
            & slot_dominates(d, head[-1], dominated))


def pf_region(d: int, m: int, L: int) -> Region:
    """Partition-free trace mask: box {0..L-1}^d with layers x_{m+1..d} = 0."""
    return box_region(d, 0, L - 1) & Region(d, tuple(Layer(i, 0) for i in range(m, d)))


def chi_hat_region(d: int, m: int, n: int, L: int) -> Region:
    """Wedge mask of the coefficient A_{m,n}: the partition-free mask of m cut by
    the slot chain x_1 <= ... <= x_n and the domination of x_n over x_{n+1..m}."""
    if not (1 <= n <= m <= d):
        raise ConfigError(f"need 1 <= n <= m <= d, got ({m},{n}), d={d}")
    return corner_wedge(d, range(n), range(n, m), L) & pf_region(d, m, L)


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
    """(eigenvalues of H, the eigenvectors g keeps, g(eigenvalues)) for one sample.

    ``lam`` (ascending, the bits of ``np.linalg.eigh``'s) and ``gl`` have one
    entry per site; ``u`` is C-contiguous and holds only the eigenvectors of
    ``np.flatnonzero(gl)``, in order.  So g(H) = U diag(gl[gl != 0]) U*, and a
    function f of g(H) with f(0) != 0 is f(0) I + U diag(f(g) - f(0)) U*.

    A real H runs the stages of LAPACK's ``dsyevd`` itself: ``dsytrd`` (not
    for a tridiagonal H), ``dstedc``, then ``dormtr`` on the kept columns
    only.  A complex H, or an OpenBLAS without them, goes to ``np.linalg.eigh``.
    """
    m = build_operator(spec, box, sample_id).matrix
    lapack = mc.lapacke_eigensolver()
    if np.iscomplexobj(m) or lapack is None:
        lam, u = np.linalg.eigh(m)
        gl = np.real(g(lam))
        return lam, np.ascontiguousarray(u[:, gl != 0]), gl
    dsytrd, dstedc, dormtr = lapack
    n, col_major = m.shape[0], 102          # 102: LAPACK_COL_MAJOR
    tridiagonal = is_tridiagonal(spec, box)
    if tridiagonal:
        lam, e = np.diagonal(m).copy(), np.diagonal(m, 1).copy()
    else:       # m is symmetric, so its C order is its column-major storage
        lam, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 0))
        dsytrd(col_major, b"L", n, m, n, lam, e, tau)
    z = np.empty((n, n))            # row j of the C view is eigenvector j
    dstedc(col_major, b"I", n, lam, e, z, n)
    gl = np.real(g(lam))
    kept = z[gl != 0]
    if not tridiagonal and kept.shape[0]:
        dormtr(col_major, b"L", b"L", b"N", n, kept.shape[0], m, n, tau, kept, n)
    return lam, np.ascontiguousarray(kept.T), gl


def block_of_gH(u: np.ndarray, f: np.ndarray, idx: Optional[np.ndarray] = None
                ) -> np.ndarray:
    """U diag(f) U^H, or its sub-block on the rows and columns ``idx``.

    ``f`` holds one value per column of ``u``.  With ``spectral_data``'s kept
    eigenvectors and ``f = gl[gl != 0]`` this is g(H); a function of g(H)
    that does not vanish at 0 needs the f(0) completion (see
    ``spectral_data``).  Columns with f = 0 are skipped, which is exact.
    """
    keep = np.flatnonzero(f)
    w = u[:, keep] if idx is None else u[np.ix_(idx, keep)]
    return (w * f[keep][None, :]) @ w.conj().T


def _restricted_diag(u: np.ndarray, gl: np.ndarray, bits: np.ndarray,
                     h: ScalarFunction, *, spectral: bool = False) -> np.ndarray:
    """Diagonal of h(g(H)|_S) on the box, h(0) outside S = {bits}.

    ``(u, gl)`` are ``spectral_data``'s kept eigenvectors and g(eigenvalues).
    Three routes, by h and S:

    - On the whole box, and for h = identity, the diagonal is read from one
      product: |U|^2 h(g) when h(0) = 0, so identity-h differences pair
      bit-identical floats, and h(0) + |U|^2 (h(g) - h(0)) otherwise.
    - For a polynomial h = sum_j c_j x^j on a proper S, the products route
      forms the block A = g(H)|_S and reads diag h(A) from powers of A:
      (A^j)_ii = Re sum_k (A^floor(j/2))_ik conj((A^ceil(j/2))_ik), since A
      is Hermitian.  x^2 is a row-wise sum of |A_ik|^2, and degree p costs
      ceil(p/2) - 1 block products instead of an ``eigh`` of A.  Every
      sweep term takes it, E^(L) and the identity probe's included.
    - Any other h, or ``spectral=True``, takes the spectral route: an
      ``eigh`` of A and |V|^2 h(mu).  ``decay.trace_difference_probe`` keeps
      this route, because the products route's summation order moves its
      benchmark-pinned q~ by about 1e-6 relative.
    """
    g_kept = gl[gl != 0]
    h0 = h.value_at_zero
    if h.is_identity or bits.all():
        hg = np.real(h(g_kept))
        full = (np.abs(u) ** 2) @ (hg - h0) + h0 if h0 else (np.abs(u) ** 2) @ hg
        return np.where(bits, full, h0)
    diag = np.full(u.shape[0], h0)
    idx = np.flatnonzero(bits)
    if idx.size:
        a = block_of_gH(u, g_kept, idx)
        if h.form == "poly" and not spectral:
            diag[idx] = _poly_diag(a, h.params)
        else:
            mu, v = np.linalg.eigh(a)
            diag[idx] = (np.abs(v) ** 2) @ np.real(h(mu))
    return diag


def _poly_diag(a: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Diagonal of sum_j coeffs[j] a^j for a Hermitian ``a``, from a^1..a^ceil(p/2)."""
    powers = [None, a]
    while len(powers) <= len(coeffs) // 2:
        powers.append(powers[-1] @ a)
    out = np.full(a.shape[0], coeffs[0])
    for j, c in enumerate(coeffs[1:], start=1):
        if c:
            lo, hi = powers[j // 2], powers[(j + 1) // 2]
            out += c * np.real(np.diagonal(a) if j == 1 else np.sum(lo * hi.conj(), axis=1))
    return out


# ---------------------------------------------------------------------------
# truncation budget
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# exact identity checks
# ---------------------------------------------------------------------------

def telescoping_check(box: LatticeBox, diags: np.ndarray, probe: np.ndarray) -> float:
    """Residual of the wedge-telescoping trace identity for a family f_0..f_d.

    Checks  sum_pi sum_n Tr( (probe & wedge_pi) {f_{n,pi} - f_{n-1,pi}} )
          = Tr( probe {f_d - f_0} ),
    where f_{n,pi} conjugates f_n by the coordinate permutation pi for the
    middle members while f_{0,pi} = f_0 and f_{d,pi} = f_d (their domains are
    permutation invariant).  The identity is purely algebraic: the wedges
    partition every probe exactly and the middle terms telescope, so it holds
    for arbitrary Hermitian input families.  Each trace reads only a diagonal,
    so the family is given by its diagonals: ``diags`` is a real (d+1) x n
    array whose row n is diag(f_n) on the box's n sites.  ``probe`` is a bool
    mask on the box.
    """
    d = box.d
    diags = np.asarray(diags)
    if diags.shape != (d + 1, box.site_count) or not np.isrealobj(diags):
        raise ConfigError(f"family diagonals must be a real (d+1) x n = {d + 1} x "
                          f"{box.site_count} array, got {diags.dtype} {diags.shape}")
    probe = check_mask(box, probe)
    if len(set(box.lo)) > 1 or len(set(box.hi)) > 1:
        raise ConfigError("telescoping needs a permutation-invariant (cubic) box")
    coords = box.sites()
    lhs = 0.0
    for perm in itertools.permutations(range(d)):
        wedge_bits = slot_chain(d, perm).evaluate(coords) & probe
        if not wedge_bits.any():
            continue
        sel = np.flatnonzero(wedge_bits)
        # conjugated diagonal: diag(U_pi f U_pi^*)[x] = diag(f)[x_pi]
        mapped = box.indices_of(coords[sel][:, list(perm)])
        for n in range(1, d + 1):
            upper = diags[n][sel] if n == d else diags[n][mapped]
            lower = diags[n - 1][sel] if n == 1 else diags[n - 1][mapped]
            lhs += float(np.sum(upper - lower))
    sel = np.flatnonzero(probe)
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
        lhs += corner_wedge(d, relabelled, (), L).evaluate(coords).astype(np.int64)
    rhs = np.zeros(box.site_count, dtype=np.int64)
    rest = list(range(n, d))
    for j in range(0, d - n + 1):
        for m_set in itertools.combinations(rest, j):
            bits = corner_wedge(d, range(n), m_set, L).evaluate(coords).astype(np.int64)
            rhs += ((-1) ** j) * bits
    return int(np.max(np.abs(lhs - rhs)))


def sd_partition_residual(box: LatticeBox) -> int:
    """0 iff the d! wedge masks of the box cover each of its sites exactly once."""
    coords = box.sites()
    total = np.zeros(box.site_count, dtype=np.int64)
    for perm in itertools.permutations(range(box.d)):
        total += slot_chain(box.d, perm).evaluate(coords)
    return int(np.max(np.abs(total - 1)))


# ---------------------------------------------------------------------------
# corner transforms (pullback coordinates)
# ---------------------------------------------------------------------------

def _pullback_coords(coords: np.ndarray, sigma: Tuple[int, ...], L: int) -> np.ndarray:
    """Coordinates w^{-1}(x') of the corner transform, for x' in B_R.

    The transformed operator A^T with T = (translate by L) o (reflect sigma)
    has entries A^T[x, y] = A[w(x), w(y)], so a standard-coordinate region Q
    conjugates to the mask {x' : w^{-1}(x') in Q} on B_R; this returns
    w^{-1}(coords).  Reflection of coordinate i is about
    -1/2 (site map s -> -1-s), the realization of the continuum flip under the
    cell convention.
    """
    out = coords.copy()
    for i, b in enumerate(sigma):
        if b:
            out[:, i] = -1 - out[:, i]
    return out + L


@dataclass
class DecompositionProbeReport:
    """Pointwise master-identity check of one sample."""

    lhs: float
    corner_terms: Dict[int, float]               # m -> b_m^(L)
    error_term: float
    residual: float
    scale: float
    b_diagnostics: Dict[Tuple[int, int], float] = field(default_factory=dict)


def decomposition_identity_probe(spec: EnsembleSpec, d: int, sample_id: int,
                                 g: ScalarFunction, h: ScalarFunction, L: int,
                                 R: int) -> DecompositionProbeReport:
    """Check Tr(chi_Lambda {h(g(H)_Lambda) - f_0}) = sum_m b_m^(L) + E^(L).

    The corner terms use the reflected-and-translated sample (realized by
    pulling regions back through the transform, which acts per axis and never
    relabels slot coordinates).  Within a permutation block S^d_n(k, l) the
    half-orthant restriction depends only on the axis sets {k} and {k, l}, so
    the b terms are built from block-constant model operators against the
    chain/domination masks of the axes (k_1, ..., k_{n-1}, l); the block
    collection then is an exact mask identity, the identity holds pointwise
    in the sample and the residual sits at rounding level.  Each trace is a
    term of one sweep plan: ``("lhs",)``, ``("EL", L)`` and ``("b", n, j)``,
    whose column is (-1)^j b_{n,j}.  ``scale`` sums |lhs|, |E^(L)| and each
    |b_{n,j}| (at least 1).
    """
    if 4 * L > R:
        raise ConfigError(f"identity probe needs 2L <= R/2, got L={L}, R={R}")
    plan = make_sweep_plan(spec, d, g, h, R, error_L=[L])
    coords = plan.box.sites()
    lam_bits = box_region(d, -L, L - 1).evaluate(coords)
    f_0 = plan.restrict(np.ones(plan.box.site_count, dtype=bool))
    plan.terms["lhs",] = ((plan.restrict(lam_bits), f_0, lam_bits),)
    pres = [_pullback_coords(coords, sigma, L) for sigma in itertools.product((0, 1), repeat=d)]
    b_parts = {(n, j): [] for n in range(1, d + 1) for j in range(0, d - n + 1)}
    for n in range(1, d + 1):
        for l in range(d):
            for k in k_vectors(d, n, l):
                head = tuple(k) + (l,)
                comp = [t for t in range(d) if t not in head]
                for pre in pres:
                    upper, lower = (plan.restrict(orthant_region(d, a).evaluate(pre))
                                    for a in (head, k))
                    for j in range(0, d - n + 1):
                        for m_set in itertools.combinations(comp, j):
                            q_bits = corner_wedge(d, head, m_set, L).evaluate(pre)
                            b_parts[n, j].append((upper, lower, q_bits))
    plan.terms.update((("b", *nj), tuple(parts)) for nj, parts in b_parts.items())

    row, col = _sample_stats(plan, sample_id), plan.columns
    lhs, err = float(row[col["lhs",]]), float(row[col["EL", L]])
    b_diag = {(n, j): (-1) ** j * float(row[col["b", n, j]]) for n, j in b_parts}
    corner = {m: sum(b for (n, j), b in b_diag.items() if n + j == m) for m in range(1, d + 1)}
    scale = max(1.0, abs(lhs) + sum(abs(b) for b in b_diag.values()) + abs(err))
    return DecompositionProbeReport(lhs, corner, err, abs(lhs - (sum(corner.values()) + err)),
                                    scale, b_diag)


# ---------------------------------------------------------------------------
# per-sample coefficient pipeline
# ---------------------------------------------------------------------------

@dataclass
class SweepPlan:
    """The restricted diagonals a sample computes and the statistic of each column.

    A sample computes diag[k], the diagonal of h(g(H)|_S) for the k-th set S of
    ``restrictions``: each distinct bool site mask a term asks for, once, in
    order of first use (``restrict``).  ``terms`` maps ``("A0",)``,
    ``("Amn", L, m, n)``, ``("pf", L, m, n)``, ``("sweep", ell)`` and
    ``("EL", L)`` to parts ``(k, k0, mask)``, summed in order from 0.0: a part
    is the sum of diag[k] over ``mask``, less diag[k0] there when ``k0`` is not
    None.  E^(L) has one part per corner sigma, every other term one.
    ``columns`` numbers ``("window_lo",)``, ``("window_hi",)``, then every term:
    the columns of the samples x statistics array.  Each A_m combines columns
    when it is reported (``SweepResult.a_fv``, ``a_pf``).
    """

    spec: EnsembleSpec
    d: int
    R: int
    box: LatticeBox
    g: ScalarFunction
    h: ScalarFunction
    ells: Tuple[int, ...]
    restrictions: List[np.ndarray]
    terms: Dict[Tuple, Tuple[Tuple[int, Optional[int], np.ndarray], ...]]

    def restrict(self, bits: np.ndarray) -> int:
        """Index of the site set ``bits`` in ``restrictions``, appended on first use."""
        for k, known in enumerate(self.restrictions):
            if np.array_equal(known, bits):
                return k
        self.restrictions.append(bits)
        return len(self.restrictions) - 1

    @property
    def columns(self) -> Dict[Tuple, int]:
        names = (("window_lo",), ("window_hi",), *self.terms)
        return {name: j for j, name in enumerate(names)}


def make_sweep_plan(spec: EnsembleSpec, d: int, g: ScalarFunction, h: ScalarFunction,
                    R: int, L_values: Sequence[int] = (), ells: Sequence[int] = (),
                    error_L: Sequence[int] = ()) -> SweepPlan:
    L_values = tuple(int(v) for v in L_values)
    ells = tuple(int(v) for v in ells)
    error_L = tuple(int(v) for v in error_L)
    for L in L_values:
        if not 1 <= L <= R // 2:
            raise ConfigError(f"probe depth L={L} needs 1 <= L <= R/2, R={R}")
    for L in error_L:
        if not 1 <= L <= R // 2:
            raise ConfigError(f"error-term scale L={L} needs 1 <= L <= R/2, R={R}")
    box = LatticeBox.centered(d, R)
    coords = box.sites()
    plan = SweepPlan(spec, d, R, box, g, h, ells, [], {})
    half = [orthant_region(d, range(n)).evaluate(coords) for n in range(d + 1)]
    plan.terms["A0",] = ((plan.restrict(half[0]), None, (coords == 0).all(axis=1)),)
    for L in L_values:
        k_half = [plan.restrict(bits) for bits in half]
        for m in range(1, d + 1):
            for n in range(1, m + 1):
                wedge = chi_hat_region(d, m, n, L).evaluate(coords)
                plan.terms["Amn", L, m, n] = ((k_half[n], k_half[n - 1], wedge),)
            pf = pf_region(d, m, L).evaluate(coords)
            for n in range(0, m + 1):
                plan.terms["pf", L, m, n] = ((k_half[n], None, pf),)
    for ell in ells:
        lo, hi = -(ell // 2), ell - 1 - ell // 2
        if lo < -R or hi > R - 1:
            raise ConfigError(f"sweep box ell={ell} leaves B_R")
        bits = box_region(d, lo, hi).evaluate(coords)
        plan.terms["sweep", ell] = ((plan.restrict(bits), None, bits),)
    # E^(L) = sum_sigma Tr(chi_{[0,L)^d} {h((A^T)_{[0,2L)^d}) - f_d^T}), pulled back
    for L in error_L:
        pres = [_pullback_coords(coords, sigma, L) for sigma in itertools.product((0, 1), repeat=d)]
        plan.terms["EL", L] = tuple((plan.restrict(box_region(d, 0, 2 * L - 1).evaluate(pre)),
                                     plan.restrict(orthant_region(d).evaluate(pre)),
                                     box_region(d, 0, L - 1).evaluate(pre)) for pre in pres)
    return plan


def _sample_stats(plan: SweepPlan, sample_id: int) -> np.ndarray:
    """All per-sample scalars of one plan, one per plan column: the g window,
    then every term of ``plan.terms`` (E^(L) and the identity probe's included)."""
    col = plan.columns
    lam, u, gl = spectral_data(plan.spec, plan.box, sample_id, plan.g)
    diag = [_restricted_diag(u, gl, bits, plan.h) for bits in plan.restrictions]

    row = np.empty(len(col))
    row[col["window_lo",]] = gl.min()
    row[col["window_hi",]] = gl.max()
    for name, parts in plan.terms.items():
        total = 0.0
        for k, k0, mask in parts:
            total += np.sum(diag[k][mask] - diag[k0][mask] if k0 is not None
                            else diag[k][mask])
        row[col[name]] = total
    return row


@dataclass
class SweepResult:
    """Per-sample statistics of one coefficient sweep and their summaries.

    ``samples`` holds one row per sample, in ascending sample order, and one
    column per entry of ``plan.columns``; ``mean`` and ``stderr`` are its
    column summaries.
    """

    plan: SweepPlan
    samples: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def window(self) -> Tuple[float, float]:
        """Smallest and largest g(eigenvalue) over all samples."""
        col = self.plan.columns
        return (float(self.samples[:, col["window_lo",]].min()),
                float(self.samples[:, col["window_hi",]].max()))

    def stat(self, name: str, *index: int) -> StatSummary:
        j = self.plan.columns[(name, *index)]
        return StatSummary(float(self.mean[j]), float(self.stderr[j]), self.n_samples)

    def _combined(self, const, name: str, L: int, m: int, n_values) -> StatSummary:
        """Summary of the per-sample sum of const(d, m, n) * column (name, L, m, n),
        taken from 0.0 in ascending n with elementwise operations only."""
        total = 0.0
        for n in n_values:
            column = self.samples[:, self.plan.columns[name, L, m, n]]
            total = total + float(const(self.plan.d, m, n)) * column
        mean, stderr = column_moments(total[:, None])
        return StatSummary(float(mean[0]), float(stderr[0]), self.n_samples)

    def a_fv(self, L: int, m: int) -> StatSummary:
        """Wedge-route A_m^(L): sum_n c_{m,n} times the ("Amn", L, m, n) columns."""
        if m == 0:
            return self.stat("A0")
        return self._combined(c_constant, "Amn", L, m, range(1, m + 1))

    def a_pf(self, L: int, m: int) -> Dict[str, StatSummary]:
        """Partition-free A_m under each c~ table.  c~_printed = c~_recurrence / 4^m,
        and a power-of-two scale commutes with every rounding of the per-sample sum
        and of Welford's update, so the printed summary has a printed column's bits."""
        rec = self._combined(c_tilde_recurrence, "pf", L, m, range(0, m + 1))
        scale = 4.0 ** -m
        return {"printed": StatSummary(rec.mean * scale, rec.stderr * scale, rec.n_samples),
                "recurrence": rec}

    def partition_free(self, L: int) -> Dict:
        d = self.plan.d
        out = {"L": L, "printed": {}, "recurrence": {}, "raw_terms": {}}
        for m in range(1, d + 1):
            for name, s in self.a_pf(L, m).items():
                out[name][m] = s
            out["raw_terms"][m] = {n: self.stat("pf", L, m, n) for n in range(0, m + 1)}
        return out

    def adjudicate(self, L: int, m: int) -> Dict:
        """Which c~ variant reproduces the wedge-route coefficient A_m within
        ``mc.agreement_bound`` of their combined standard error."""
        ref = self.a_fv(L, m)
        verdicts = {}
        for name, cand in self.a_pf(L, m).items():
            tol = mc.agreement_bound(cand.mean, ref.mean, math.hypot(ref.stderr, cand.stderr))
            verdicts[name] = {
                "value": cand.mean, "stderr": cand.stderr,
                "reference": ref.mean, "tolerance": tol,
                "matches": bool(abs(cand.mean - ref.mean) <= tol),
            }
        matched = [k for k, v in verdicts.items() if v["matches"]]
        winner = matched[0] if len(matched) == 1 else (
            "both" if len(matched) == 2 else "neither")
        return {"m": m, "L": L, "winner": winner, "candidates": verdicts}

    def sweep_series(self):
        ells = list(self.plan.ells)
        stats = [self.stat("sweep", e) for e in ells]
        return ells, [s.mean for s in stats], [s.stderr for s in stats]


def coefficient_sweep(spec: EnsembleSpec, d: int, g: ScalarFunction,
                      h: ScalarFunction, R: int, L_values: Sequence[int],
                      n_samples: int, ells: Sequence[int] = (),
                      error_L: Sequence[int] = (), workers: int = 1) -> SweepResult:
    """Monte Carlo sweep of all coefficient statistics over one ensemble, on at most
    ``workers`` threads.  It holds every sample's row, refused before the first
    sample when they would not fit the byte budget (``mc.chunk_size``)."""
    plan = make_sweep_plan(spec, d, g, h, R, L_values, ells, error_L)
    row = 8 * len(plan.columns)
    chunk = mc.chunk_size(operator_bytes(plan.box.site_count, sample_itemsize(spec.kind)),
                          row, n_samples * row)
    samples = np.empty((n_samples, len(plan.columns)))
    mc.fold_samples(lambda s: _sample_stats(plan, s), n_samples, samples.__setitem__, chunk,
                    workers)
    return SweepResult(plan, samples, *column_moments(samples))
