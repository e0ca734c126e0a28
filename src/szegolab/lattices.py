"""Finite boxes on Z^d and Hermitian realizations of ergodic operator ensembles.

Cell convention: lattice site ``s`` stands for the unit cell ``[s, s+1)`` in each
coordinate, so the continuum interval ``[0, L]`` corresponds to the ``L`` sites
``{0, ..., L-1}`` and the slab ``x_i in [0, 1]`` to the single layer ``x_i = 0``.
Reflection of a box about its own center is always a site bijection, which is
what the corner-decomposition machinery in :mod:`szegolab.coefficients` needs.

Disorder is drawn from a counter-based generator keyed on
``(base seed, sample id, absolute site coordinates)``: enlarging a box extends a
sample instead of reshuffling it, and results are reproducible across runs and
worker counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import ConfigError, ModelError, check_keys, config_value

# Bytes one dense step may hold: the largest operator build_operator builds, and
# what a sample pass holds at once (mc.chunk_size)
MEMORY_BUDGET_BYTES = 2 * 1024 ** 3


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeBox:
    """Axis-aligned box ``{lo_1..hi_1} x ... x {lo_d..hi_d}`` of lattice sites.

    Sites are enumerated in row-major order (last coordinate fastest), which
    fixes the bijection between sites and matrix indices ``0..N-1``.
    """

    lo: Tuple[int, ...]
    hi: Tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ConfigError("box corners must have equal dimension")
        if not 1 <= len(self.lo) <= 3:
            raise ConfigError(f"dimension {len(self.lo)} not in 1..3")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ConfigError(f"empty box {self.lo}..{self.hi}")
        object.__setattr__(self, "lo", tuple(int(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(int(v) for v in self.hi))

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def site_count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def strides(self) -> Tuple[int, ...]:
        s = []
        acc = 1
        for n in reversed(self.shape):
            s.append(acc)
            acc *= n
        return tuple(reversed(s))

    def sites(self) -> np.ndarray:
        """All sites as an ``(N, d)`` int array in row-major order."""
        return _box_sites(self)

    def index_of(self, site) -> int:
        return int(self.indices_of([site])[0])

    def indices_of(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized row-major index of an ``(N, d)`` coordinate array."""
        coords = np.asarray(coords, dtype=np.int64)
        rel = coords - np.asarray(self.lo, dtype=np.int64)
        if np.any(rel < 0) or np.any(rel >= np.asarray(self.shape)):
            raise ConfigError(f"coordinates outside box {self.lo}..{self.hi}")
        return rel @ np.asarray(self.strides, dtype=np.int64)

    # common constructions -------------------------------------------------

    @staticmethod
    def interval(lo: int, hi: int) -> "LatticeBox":
        return LatticeBox((lo,), (hi,))

    @staticmethod
    def cube(d: int, lo: int, hi: int) -> "LatticeBox":
        return LatticeBox((lo,) * d, (hi,) * d)

    @staticmethod
    def centered(d: int, half_side: int) -> "LatticeBox":
        """The box ``{-R..R-1}^d``: even side ``2R``, symmetric about -1/2."""
        return LatticeBox((-half_side,) * d, (half_side - 1,) * d)


@functools.lru_cache(maxsize=256)
def _box_sites(box: LatticeBox) -> np.ndarray:
    grids = np.meshgrid(*(np.arange(l, h + 1) for l, h in zip(box.lo, box.hi)),
                        indexing="ij")
    out = np.stack([g.reshape(-1) for g in grids], axis=1).astype(np.int64)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# 1-D symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol1D:
    """Function on the torus given by finitely many Fourier coefficients a_k."""

    coeffs: Tuple[Tuple[int, complex], ...]

    @staticmethod
    def from_dict(coeffs: Dict[int, complex]) -> "Symbol1D":
        return Symbol1D(tuple(sorted((int(k), complex(v)) for k, v in coeffs.items())))

    @staticmethod
    def parse(text: str) -> "Symbol1D":
        """Symbol from ``k:a_k`` pairs such as ``0:1.0 1:0.25j -1:-0.25j`` (the
        ``symbol.coeffs`` config value); ``ValueError`` if one is malformed."""
        pairs = (item.split(":", 1) for item in text.split())
        return Symbol1D.from_dict({int(k): complex(v) for k, v in pairs})

    def as_dict(self) -> Dict[int, complex]:
        return {k: v for k, v in self.coeffs}

    def eval(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        for k, a in self.coeffs:
            out += a * np.exp(1j * k * theta)
        return out

    def is_hermitian(self) -> bool:
        """True iff a_{-k} = conj(a_k) to 1e-12, i.e. the symbol is real-valued."""
        table = self.as_dict()
        scale = max((abs(v) for v in table.values()), default=1.0)
        for k, a in table.items():
            if abs(table.get(-k, 0.0) - np.conj(a)) > 1e-12 * max(scale, 1.0):
                return False
        return True

    def min_real_on_grid(self) -> float:
        """Smallest real part of the symbol on 4096 equispaced angles."""
        vals = self.eval(2 * np.pi * np.arange(4096) / 4096)
        return float(vals.real.min())

    def log_coeffs(self, k_max: int) -> Dict[int, complex]:
        """Fourier coefficients of log(symbol); requires a positive symbol."""
        def log_symbol(theta):
            vals = self.eval(theta)
            if (vals.real.min() <= 0
                    or np.abs(vals.imag).max() > 1e-9 * max(1.0, np.abs(vals).max())):
                raise ConfigError("log of a symbol requires a positive real symbol")
            return np.log(vals.real)

        return symbol_fourier_coefficients(log_symbol, k_max, max(4 * k_max, 256)).as_dict()


def symbol_fourier_coefficients(eval_fn: Callable, k_max: int, nodes: int) -> Symbol1D:
    """Fourier coefficients of a periodic function, which ``eval_fn`` evaluates
    on an array of angles, by uniform quadrature.

    The uniform rule on ``nodes`` points of ``[0, 2pi)`` is exact for
    band-limited inputs with bandwidth below ``nodes - k_max``; the
    precondition ``nodes >= 4*k_max`` refuses grids that would silently alias.
    """
    if k_max < 0:
        raise ConfigError("k_max must be >= 0")
    if nodes < max(4 * k_max, 4):
        raise ConfigError(f"{nodes} quadrature nodes are too few for k_max={k_max} "
                          f"(need >= {4 * k_max})")
    theta = 2 * np.pi * np.arange(nodes) / nodes
    vals = np.asarray(eval_fn(theta), dtype=complex)
    return Symbol1D.from_dict({k: complex(np.mean(vals * np.exp(-1j * k * theta)))
                               for k in range(-k_max, k_max + 1)})


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

# each ensemble kind and the [ensemble] keys it reads besides ``kind``
_KIND_KEYS = {"anderson": ("W", "hopping"), "periodic": ("hopping", "period", "potential_cell"),
              "free": ("hopping",), "toeplitz1d": ("symbol.coeffs",)}


@dataclass(frozen=True)
class EnsembleSpec:
    """Parametric description of an operator ensemble plus its seeding scheme.

    ``anderson``   -Delta + V with V iid uniform on [-W/2, W/2]
    ``periodic``   -Delta + V with V periodic, given by one cell of values;
                   sample s reads the cell at x + t_s, the s-th of its
                   prod(period) translates, so prod(period) samples enumerate
                   the hull exactly once
    ``free``       -Delta alone
    ``toeplitz1d`` Toeplitz matrix of a 1-D symbol (d = 1 only)
    """

    kind: str
    W: float = 0.0
    hopping: float = 1.0
    seed: int = 0
    period: Optional[Tuple[int, ...]] = None
    potential_cell: Optional[Tuple[float, ...]] = None
    symbol: Optional[Symbol1D] = None

    def __post_init__(self):
        if self.kind not in _KIND_KEYS:
            raise ConfigError(f"unknown ensemble kind {self.kind!r}")
        numbers = (self.W, self.hopping) + tuple(self.potential_cell or ())
        if not all(np.isfinite(numbers)):
            raise ConfigError("W, hopping and potential_cell must be finite")
        if self.W < 0:
            raise ConfigError("disorder W must be >= 0")
        if self.kind == "periodic":
            if not self.period or not self.potential_cell:
                raise ConfigError("periodic ensemble needs period and potential_cell")
            if any(p < 1 for p in self.period):
                raise ConfigError("period entries must be >= 1")
            if len(self.potential_cell) != int(np.prod(self.period)):
                raise ConfigError("potential_cell length must equal prod(period)")
        if self.kind == "toeplitz1d" and self.symbol is None:
            raise ConfigError("toeplitz1d ensemble needs a symbol")

    def validate_for(self, d: int):
        """Refuse an ensemble that has no realization on a box of dimension ``d``."""
        if self.kind == "toeplitz1d" and d != 1:
            raise ModelError("toeplitz1d ensemble is only defined for d = 1")
        if self.kind == "periodic" and len(self.period) != d:
            raise ModelError("period vector dimension does not match the box")

    @staticmethod
    def from_config(block: Dict[str, str], seed: int = 0) -> "EnsembleSpec":
        """The ``[ensemble]`` section; ``seed`` comes from ``[experiment]``."""
        for key in ("seed", "d"):
            if key in block:
                raise ConfigError(f"[ensemble] has no key {key!r}: it belongs in [experiment]")
        check_keys("ensemble", block,
                   ("kind", *dict.fromkeys(k for keys in _KIND_KEYS.values() for k in keys)))
        try:
            kind = block["kind"].strip()
        except KeyError:
            raise ConfigError("ensemble block needs a 'kind' key")
        if kind in _KIND_KEYS:      # the constructor refuses an unknown kind
            for key in block:
                if key not in ("kind", *_KIND_KEYS[kind]):
                    raise ConfigError(f"[ensemble] kind = {kind} reads no key {key!r} "
                                      f"(it reads: {' '.join(_KIND_KEYS[kind])})")
        def value(key, convert, default=None):
            return config_value(key, block[key], convert) if key in block else default

        return EnsembleSpec(kind=kind, W=value("W", float, 0.0),
                            hopping=value("hopping", float, 1.0), seed=seed,
                            period=value("period", lambda t: tuple(map(int, t.split()))),
                            potential_cell=value("potential_cell",
                                                 lambda t: tuple(map(float, t.split()))),
                            symbol=value("symbol.coeffs", Symbol1D.parse))


# ---------------------------------------------------------------------------
# counter-based RNG (splitmix64 finalizer chain)
# ---------------------------------------------------------------------------

_K0 = np.uint64(0x9E3779B97F4A7C15)
_K1 = np.uint64(0xBF58476D1CE4E5B9)
_K2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64 by design
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _K1
        x = (x ^ (x >> np.uint64(27))) * _K2
        return x ^ (x >> np.uint64(31))


def site_uniforms(seed: int, sample_id: int, coords: np.ndarray) -> np.ndarray:
    """Uniform [0,1) variates addressed by absolute site coordinates.

    Pure function of ``(seed, sample_id, coordinates)``: the draw at a site does
    not depend on the enclosing box, which gives the nesting property for
    restricted samples.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim == 1:
        coords = coords[:, None]
    with np.errstate(over="ignore"):
        h0 = _mix64(np.int64(seed).astype(np.uint64) ^ _K0)
        h0 = _mix64(h0 ^ (np.int64(sample_id).astype(np.uint64) * _K1 + _K0))
        acc = np.full(coords.shape[0], h0, dtype=np.uint64)
        for j in range(coords.shape[1]):
            cj = coords[:, j].astype(np.uint64)
            acc = _mix64(acc ^ (cj * _K1 + np.uint64(j + 1) * _K2))
    return (acc >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

@dataclass
class HermitianOperator:
    """Dense Hermitian matrix indexed by the sites of a box."""

    box: LatticeBox
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix)
        n = self.box.site_count
        if self.matrix.shape != (n, n):
            raise ModelError(f"matrix shape {self.matrix.shape} != site count {n}")

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "HermitianOperator":
        """The matrix as an operator on the interval ``{0..n-1}``."""
        return HermitianOperator(LatticeBox.interval(0, len(matrix) - 1), matrix)


def potential_values(spec: EnsembleSpec, box: LatticeBox, sample_id: int) -> np.ndarray:
    coords = box.sites()
    if spec.kind == "free" or (spec.kind == "anderson" and spec.W == 0.0):
        return np.zeros(box.site_count)
    if spec.kind == "anderson":
        u = site_uniforms(spec.seed, sample_id, coords)
        return spec.W * (u - 0.5)
    if spec.kind == "periodic":
        shift = np.unravel_index(sample_id % int(np.prod(spec.period)), spec.period)
        idx = np.ravel_multi_index(tuple(np.mod(coords + shift, spec.period).T), spec.period)
        return np.asarray(spec.potential_cell, dtype=float)[idx]
    raise ModelError(f"no potential for ensemble kind {spec.kind!r}")


def operator_bytes(n: int, itemsize: int) -> int:
    """Estimated peak bytes to build and ``eigh`` one dense n x n operator.

    Five n x n arrays: the matrix, the eigenvectors, LAPACK's copy of the
    input and the ``syevd``/``heevd`` workspace of about two more (measured
    peak: 5.1 matrices for real and complex).
    """
    return 5 * itemsize * n * n


def sample_itemsize(kind: str) -> int:
    """Bytes per entry of one sample's operator of ensemble ``kind``: a Toeplitz
    matrix is assembled complex (16), a Schroedinger operator real (8)."""
    return 16 if kind == "toeplitz1d" else 8


def _refuse_oversized(n: int, kind: str) -> None:
    """Raise ``ModelError``, before allocating, for an operator over the budget."""
    need = operator_bytes(n, sample_itemsize(kind))
    if need > MEMORY_BUDGET_BYTES:
        raise ModelError(f"{n} sites need an estimated {need / 2 ** 30:.2f} GiB "
                         f"({need} bytes) to build and diagonalize, over the "
                         f"{MEMORY_BUDGET_BYTES / 2 ** 30:.2f} GiB budget")


def build_operator(spec: EnsembleSpec, box: LatticeBox, sample_id: int) -> HermitianOperator:
    """Finite Hermitian realization of one ensemble sample on a box.

    Schroedinger kinds produce the Dirichlet-truncated graph Laplacian plus the
    diagonal potential: diagonal ``2 d hopping + V(site)``, off-diagonal
    ``-hopping`` between nearest neighbors inside the box.
    """
    spec.validate_for(box.d)
    n = box.site_count
    if spec.kind == "toeplitz1d":
        return HermitianOperator(box, toeplitz_matrix(spec.symbol, n).matrix)

    _refuse_oversized(n, spec.kind)
    m = np.zeros((n, n), dtype=float)
    sites = box.sites()
    strides = box.strides
    hop = float(spec.hopping)
    flat = np.arange(n)
    for axis in range(box.d):
        inside = sites[:, axis] < box.hi[axis]
        rows = flat[inside]
        cols = rows + strides[axis]
        m[rows, cols] = -hop
        m[cols, rows] = -hop
    diag = 2.0 * box.d * hop + potential_values(spec, box, sample_id)
    m[flat, flat] = diag
    return HermitianOperator(box, m)


def is_tridiagonal(spec: EnsembleSpec, box: LatticeBox) -> bool:
    """Whether ``build_operator(spec, box, .)`` is real symmetric tridiagonal:
    -Delta + V on an interval, a Jacobi matrix."""
    return box.d == 1 and spec.kind in ("anderson", "periodic", "free")


def toeplitz_matrix(symbol: Symbol1D, L: int) -> HermitianOperator:
    """Truncated Toeplitz matrix ``(a_{j-k})_{j,k=0..L-1}`` of a real symbol."""
    if L < 1:
        raise ConfigError("L must be >= 1")
    if not symbol.is_hermitian():
        raise ModelError("symbol is not real-valued; matrix would not be Hermitian")
    _refuse_oversized(L, "toeplitz1d")
    kernel = np.zeros(2 * L - 1, dtype=complex)
    for k, a in symbol.coeffs:
        if -(L - 1) <= k <= L - 1:
            kernel[k + L - 1] = a
    idx = np.arange(L)
    m = kernel[idx[:, None] - idx[None, :] + L - 1]
    if np.abs(m.imag).max() <= 1e-15 * max(1.0, np.abs(m).max()):
        m = m.real.copy()
    return HermitianOperator(LatticeBox.interval(0, L - 1), m)
