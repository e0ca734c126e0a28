"""Functional calculus: spectral route and the resolvent-integral route.

``matrix_function`` is the direct route through the eigendecomposition.
``hs_apply`` evaluates the same operator function as a two-dimensional
quadrature of resolvents against the d-bar derivative of a quasi-analytic
extension, built from a Taylor sum with a smooth cutoff in the imaginary
direction.  The quadrature is a tensor Gauss-Legendre panel rule whose seams
sit where the integrand loses regularity or changes scale: at the support
edges of f in x; at dyadic heights below y = 1/2, where the resolvent grows
like 1/y; and at y = 1/2, where the cutoff begins (see ``QuadratureGrid``).
The two routes are kept algorithmically independent (the quadrature solves
shifted linear systems and never touches eigenvectors), so one can serve as
an oracle for the other.  The quadrature solves its nodes in batches sized to
a fixed working set (``HS_WORKING_SET_BYTES``), not to the memory budget, so
a batch stays in cache and the route's memory does not grow with n beyond
one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial import Polynomial

from .errors import ConfigError, NumericError, QuadratureError
from .lattices import HermitianOperator

# Bytes of one batch of resolvent solves.  Timing hs_discrepancy at n = 16,
# 48 and 96 (2 cores, OpenBLAS 0.3.31), 1 MiB was within 5% of the fastest of
# 256 KiB, 1, 4 and 16 MiB at each n, while one batch filling the memory
# budget was 27-44% slower: a 1 MiB batch stays in the 4 MiB L2 cache.
HS_WORKING_SET_BYTES = 1 << 20

# ---------------------------------------------------------------------------
# scalar functions with derivative data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarFunction:
    """Real scalar function with optional derivatives and support.

    Built-ins: ``poly``, ``bump`` (compactly supported piecewise-polynomial
    bump of a prescribed class C^k) and ``indicator``.  Parameters must be
    finite, except that an indicator bound may be infinite.
    """

    form: str
    eval_fn: Callable = field(repr=False)
    deriv_fn: Optional[Callable] = field(default=None, repr=False)  # order -> callable
    support: Optional[Tuple[float, float]] = None
    is_identity: bool = False
    params: Tuple = ()

    def __post_init__(self):
        values = np.asarray(self.params, dtype=float)
        if np.any(np.isnan(values) | (np.isinf(values) & (self.form != "indicator"))):
            raise ConfigError(f"{self.form}{self.params}: parameters must be finite "
                              "(only an indicator bound may be infinite)")

    def __call__(self, x):
        return self.eval_fn(np.asarray(x, dtype=float))

    def derivative(self, order: int) -> Callable:
        if order == 0:
            return self.eval_fn
        if self.deriv_fn is None:
            raise ConfigError(f"{self.form} has no derivatives")
        return self.deriv_fn(order)

    @property
    def value_at_zero(self) -> float:
        return float(self(0.0))

    # -- built-ins ----------------------------------------------------------

    @staticmethod
    def poly(coeffs, support=None) -> "ScalarFunction":
        p = Polynomial(list(coeffs))
        is_id = list(p.coef) == [0.0, 1.0]

        def deriv(order):
            q = p.deriv(order)
            return lambda x: q(np.asarray(x, dtype=float))

        return ScalarFunction("poly", lambda x: p(x), deriv, support=support,
                              is_identity=is_id, params=tuple(float(c) for c in coeffs))

    @staticmethod
    def identity() -> "ScalarFunction":
        return ScalarFunction.poly((0.0, 1.0))

    @staticmethod
    def zero() -> "ScalarFunction":
        return ScalarFunction.poly((0.0,))

    @staticmethod
    def bump(center: float, width: float, k: int) -> "ScalarFunction":
        """Bump ``(1 - t^2)^(k+1)`` on ``|t| <= 1``, ``t = (x-center)/(width/2)``.

        The power k+1 makes the function exactly of class C^k across the
        support edges; all derivatives are evaluated from the exact polynomial
        piece, one-sided at the seam.
        """
        if width <= 0 or k < 0:
            raise ConfigError("bump needs width > 0 and k >= 0")
        half = width / 2.0
        p = Polynomial([1.0, 0.0, -1.0]) ** (k + 1)

        def make(q, scale):
            def f(x):
                t = (np.asarray(x, dtype=float) - center) / half
                out = np.zeros_like(t)
                inside = np.abs(t) <= 1.0
                out[inside] = q(t[inside]) * scale
                return out
            return f

        def deriv(order):
            return make(p.deriv(order), half ** (-order))

        return ScalarFunction("bump", make(p, 1.0), deriv,
                              support=(center - half, center + half),
                              params=(float(center), float(width), int(k)))

    @staticmethod
    def indicator(a: float, b: float) -> "ScalarFunction":
        lo, hi = float(a), float(b)
        if lo > hi:
            raise ConfigError(f"indicator({lo!r}, {hi!r}) is empty: lower bound > upper")

        def f(x):
            x = np.asarray(x, dtype=float)
            return ((x >= lo) & (x <= hi)).astype(float)

        sup = (lo if math.isfinite(lo) else -1e30, hi if math.isfinite(hi) else 1e30)
        return ScalarFunction("indicator", f, None, support=sup, params=(lo, hi))


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------

def matrix_function(op: HermitianOperator, f: ScalarFunction) -> HermitianOperator:
    """U f(lambda) U^dagger; Hermitian whenever f is real on the spectrum."""
    lam, u = np.linalg.eigh(op.matrix)
    vals = np.asarray(f(lam))
    if not np.all(np.isfinite(vals)):
        raise NumericError("function undefined (non-finite) at an eigenvalue")
    return HermitianOperator(op.box, (u * vals[None, :]) @ u.conj().T)


def resolvent(op: HermitianOperator, z: complex) -> np.ndarray:
    """(M - z)^(-1) through the eigendecomposition."""
    lam, u = np.linalg.eigh(op.matrix)
    gap = np.min(np.abs(lam - z))
    if gap < 1e-12:
        raise NumericError(f"z={z} within 1e-12 of the spectrum")
    return (u * (1.0 / (lam - z))[None, :]) @ u.conj().T


# ---------------------------------------------------------------------------
# quasi-analytic extension
# ---------------------------------------------------------------------------

def _smoothstep(order: int) -> Polynomial:
    """Polynomial S with S(0)=0, S(1)=1 and C^order matching at both ends."""
    n = order
    coeffs = np.zeros(2 * n + 2)
    for k in range(n + 1):
        coeffs[n + 1 + k] = math.comb(n + k, k) * math.comb(2 * n + 1, n - k) * (-1) ** k
    return Polynomial(coeffs)


@dataclass
class QuasiAnalyticExtension:
    """d-bar data of the Taylor-sum extension of a compactly supported C^n f.

    The extension is ``ftilde(x+iy) = [sum_{r<=n} f^(r)(x) (iy)^r / r!] tau(y)``
    with ``tau`` an even polynomial smoothstep cutoff, 1 for |y| <= 1/2 and 0
    for |y| >= 1.  ``omega = (d_x + i d_y) ftilde`` vanishes to order n-1 at
    the real axis.
    """

    f: ScalarFunction
    order: int
    x_support: Tuple[float, float]

    def tau(self, y):
        y = np.abs(np.atleast_1d(np.asarray(y, dtype=float)))
        out = np.zeros_like(y)
        out[y <= 0.5] = 1.0
        mid = (y > 0.5) & (y < 1.0)
        out[mid] = self._step(2.0 * (1.0 - y[mid]))
        return out

    def tau_prime(self, y):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        ay = np.abs(y)
        out = np.zeros_like(ay)
        mid = (ay > 0.5) & (ay < 1.0)
        out[mid] = self._step_d(2.0 * (1.0 - ay[mid])) * (-2.0) * np.sign(y[mid])
        return out

    def __post_init__(self):
        step = _smoothstep(self.order + 2)
        object.__setattr__(self, "_step", step)
        object.__setattr__(self, "_step_d", step.deriv(1))

    def omega(self, x, y) -> np.ndarray:
        """(d_x + i d_y) ftilde on a broadcastable (x, y) grid."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = self.order
        iy = 1j * y
        taylor = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for r in range(n + 1):
            taylor = taylor + self.f.derivative(r)(x) * iy ** r / math.factorial(r)
        lead = self.f.derivative(n + 1)(x) * iy ** n / math.factorial(n)
        return lead * self.tau(y) + 1j * taylor * self.tau_prime(y)


def hs_extension(f: ScalarFunction, n: int) -> QuasiAnalyticExtension:
    """Quasi-analytic extension data for a compactly supported C^n function."""
    if n < 2:
        raise ConfigError("extension order n must be >= 2")
    if f.support is None or f.support[0] < -1e29 or f.support[1] > 1e29:
        raise ConfigError("quasi-analytic extension needs compact support")
    try:
        for r in range(n + 2):
            f.derivative(r)
    except ConfigError as exc:
        raise ConfigError(f"derivatives unavailable to order {n}: {exc}") from exc
    return QuasiAnalyticExtension(f, n, (f.support[0] - 1.0, f.support[1] + 1.0))


# ---------------------------------------------------------------------------
# resolvent-integral route
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre panel rule over supp f x (0, 1].

    Every term of omega carries a derivative of f, so omega vanishes outside
    supp f = [lo, hi], and f is only C^k across its support edges.  The x
    rule is ``x_panels`` equal panels over [lo, hi] with ``x_nodes`` nodes
    each, so the edges are panel seams.

    Below y = 1/2, tau = 1 and omega is f^(n+1)(x) (iy)^n / n!, a polynomial
    in y, while the resolvent grows like 1/y near the real axis.  Those y
    panels are [0, y0] and then dyadic up to 1/2, ``y_nodes`` nodes each.
    y0 is the smallest 2^-k / 2 not below the x-panel width h: under y = h
    the x panels no longer resolve the resolvent's peak of width y, so
    refining there buys nothing, and the strip holds O(h^n) of the mass.
    On [1/2, 1], tau' != 0 and omega is a polynomial of degree 3n + 4 in y
    (tau' of degree 2n + 4 times the Taylor sum), so that panel takes the
    (3n + 6) // 2 nodes that integrate it exactly.  Gauss nodes are interior,
    so no strip along the real axis is left out.
    """

    x_panels: int = 16
    x_nodes: int = 8
    y_nodes: int = 4

    def halved(self) -> "QuadratureGrid":
        """Half the x panels, which also drops one dyadic y panel; at one x
        panel, half the node counts instead."""
        if self.x_panels > 1:
            return replace(self, x_panels=self.x_panels // 2)
        return replace(self, x_nodes=max(self.x_nodes // 2, 1),
                       y_nodes=max(self.y_nodes // 2, 1))

    def nodes(self, ext: QuasiAnalyticExtension
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(xs, wx, ys, wy): the x and y nodes of the rule and their weights."""
        lo, hi = ext.f.support
        xs, wx = _gauss_panels(np.linspace(lo, hi, self.x_panels + 1), self.x_nodes)
        k = 0                                   # y0 = 2^-(k+1)
        while 2.0 ** -(k + 2) >= (hi - lo) / self.x_panels:
            k += 1
        ys, wy = _gauss_panels(np.append(0.0, 2.0 ** -np.arange(k + 1, 0, -1)),
                               self.y_nodes)
        yt, wt = _gauss_panels(np.array([0.5, 1.0]), (3 * ext.order + 6) // 2)
        return xs, wx, np.append(ys, yt), np.append(wy, wt)


DEFAULT_GRID = QuadratureGrid()


def _gauss_panels(edges: np.ndarray, order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights, ``order`` per panel between edges."""
    t, w = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    return ((a + b + (b - a) * t) / 2).ravel(), ((b - a) * w / 2).ravel()


def _chunk_nodes(n: int) -> int:
    """Resolvent nodes per solve: the shifted stack, the right-hand side and
    the solution, each 16 n^2 bytes a node, fit ``HS_WORKING_SET_BYTES``.

    A fixed working set, not the memory budget: a batch that fits the cache
    is solved faster than one streamed through memory, and the quadrature's
    memory then stays one batch whatever the number of nodes."""
    return max(1, HS_WORKING_SET_BYTES // (3 * 16 * n * n))


def _hs_quadrature(matrix: np.ndarray, ext: QuasiAnalyticExtension,
                   grid: QuadratureGrid) -> np.ndarray:
    n = matrix.shape[0]
    xs, wx, ys, wy = grid.nodes(ext)
    wz = ((wy[:, None] * wx[None, :]) * ext.omega(xs[None, :], ys[:, None])).ravel()
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    chunk = _chunk_nodes(n)
    acc = np.zeros((n, n), dtype=complex)
    eye = np.eye(n, dtype=complex)
    for start in range(0, zs.size, chunk):
        zc = zs[start:start + chunk]
        shifted = matrix[None, :, :] - zc[:, None, None] * eye[None, :, :]
        rez = np.linalg.solve(shifted, np.broadcast_to(eye, (zc.size, n, n)))
        acc += np.tensordot(wz[start:start + chunk], rez, axes=1)
    # y < 0 half plane contributes the Hermitian adjoint for real f
    return (acc + acc.conj().T) / (2.0 * np.pi)


def hs_apply(op: HermitianOperator, ext: QuasiAnalyticExtension,
             grid: QuadratureGrid = DEFAULT_GRID, rtol: Optional[float] = None
             ) -> HermitianOperator:
    """Operator function as a Gauss-Legendre panel integral of resolvents.

    Each node z of ``grid`` in the upper half plane costs one solve of
    (M - z) X = I; the lower half plane contributes the adjoint.  With
    ``rtol`` set, the quadrature is repeated on ``grid.halved()`` and a
    discrepancy above ``rtol`` raises ``QuadratureError``.
    """
    spec = np.linalg.eigvalsh(op.matrix)
    if spec.min() <= ext.x_support[0] or spec.max() >= ext.x_support[1]:
        raise ConfigError("operator spectrum is not inside the extension's x-support")
    result = _hs_quadrature(op.matrix, ext, grid)
    if rtol is not None:
        coarse = _hs_quadrature(op.matrix, ext, grid.halved())
        err = np.abs(result - coarse).max()
        if err > rtol:
            raise QuadratureError(
                f"grid too coarse: refinement discrepancy {err:.3e} > rtol {rtol:.3e}")
    if np.abs(result.imag).max() <= 1e-13 * max(1.0, np.abs(result).max()):
        result = result.real.copy()
    return HermitianOperator(op.box, result)


def hs_discrepancy(op: HermitianOperator, ext: QuasiAnalyticExtension,
                   grid: QuadratureGrid = DEFAULT_GRID) -> float:
    """Operator-norm gap between the quadrature route and the spectral route."""
    via_hs = hs_apply(op, ext, grid)
    via_spec = matrix_function(op, ext.f)
    return float(np.linalg.norm(via_hs.matrix - via_spec.matrix, ord=2))
