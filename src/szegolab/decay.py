"""Empirical certification of kernel-decay hypotheses and resolvent estimates.

These probes estimate, at desk scale, the constants and rates that the trace
expansion rests on: the uniform Schatten bound on one-site kernel blocks of
g(H), polynomial or exponential decay of those blocks, averaged resolvent
decay away from the spectrum, and the boundary trace-norm estimate for
differences h(g(H)_G) - h(g(H)_G').  "esssup over omega" is realized as a max
over the sample budget and reported as an estimate, never as a certificate.

The kernel-box probes share one pass: ``kernel_box_stats`` diagonalizes each
sample once and keeps running sums and maxima, which ``fit_kernel_decay``,
``certify_a1`` and ``combes_thomas_probe`` reduce.  Both passes run through
``mc.fold_samples``, which bounds their memory and refuses a sample that would
not fit the byte budget; the reducers' options are refused before them too.

Fits are ordinary least squares on transformed coordinates (log-log for the
polynomial mode, log-linear for the exponential mode and for Combes-Thomas'
stretched law) of one point per distance, the largest value there
(``_envelope``).  ``_usable`` drops distances |a-b| <= 2, to suppress
near-field effects, and values at or below the 1e-14 floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .coefficients import block_of_gH, spectral_data, _restricted_diag
from .errors import ConfigError, DegenerateFitError, NumericError
from .fitting import ols_line
from .lattices import EnsembleSpec, LatticeBox, operator_bytes, sample_itemsize
from .mc import chunk_size, fold_samples
from .mc import ordered_map  # noqa: F401  perfbench/job.py patches decay.ordered_map
from .regions import Region, boundary_distance
from .spectral import ScalarFunction

VALUE_FLOOR = 1e-14
DISTANCE_FLOOR = 3  # |a-b| <= 2 excluded from fits


@dataclass
class SpectralWindow:
    """Observed spectral interval of g(H), grown monotonically over samples."""

    lo: float = math.inf
    hi: float = -math.inf

    def update(self, values: np.ndarray):
        self.lo = min(self.lo, float(np.min(values)))
        self.hi = max(self.hi, float(np.max(values)))

    def distance(self, z: complex) -> float:
        if self.lo > self.hi:
            raise NumericError("empty spectral window")
        x, y = z.real, z.imag
        dx = max(self.lo - x, 0.0, x - self.hi)
        return math.hypot(dx, y)


@dataclass
class DecayFitReport:
    """Fitted decay law with the raw pairs it was computed from."""

    mode: str                      # polynomial | exponential | stretched
    params: Dict[str, float]
    prefactor: float
    r2: float
    n_samples: int
    distance_range: Tuple[float, float]
    theta: float
    raw: Dict[str, List[float]]    # "distances" and "values" of the fitted points
    notes: Dict = field(default_factory=dict)

    def rate_bound(self) -> Callable[[float], float]:
        """Certified bound value(r) usable as a truncation-tail integrand."""
        if self.mode == "polynomial":
            q = self.params["q"]
            return lambda r: self.prefactor / (1.0 + r) ** q
        mu = self.params["mu"]
        th = self.theta
        return lambda r: self.prefactor * math.exp(-mu * r ** th)


def _envelope(dist, vals) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct finite distances, ascending, and the largest value at each."""
    dist, vals = np.ravel(dist), np.ravel(vals)
    rs = np.unique(dist[np.isfinite(dist)]).astype(float)
    return rs, np.array([vals[dist == r].max() for r in rs], dtype=float)


def _usable(dist: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Which (distance, value) points a fit uses: off the near field, over the floor."""
    return (dist >= DISTANCE_FLOOR) & (vals > VALUE_FLOOR)


def _fit_pairs(dist: np.ndarray, vals: np.ndarray, mode: str, n_samples: int) -> DecayFitReport:
    """Log value against log(1 + distance) (polynomial) or distance (exponential)."""
    keep = _usable(dist, vals)
    dist, vals = dist[keep], vals[keep]
    if dist.size < 3:
        raise DegenerateFitError("fewer than 3 usable (distance, value) pairs")
    logs = np.log(vals)
    if mode == "polynomial":
        fit = ols_line(np.log1p(dist), logs)
        params = {"q": -fit.slope, "q_stderr": fit.stderr_slope}
    else:
        fit = ols_line(dist, logs)
        params = {"mu": -fit.slope, "mu_stderr": fit.stderr_slope}
    return DecayFitReport(mode, params, float(np.exp(fit.intercept)), fit.r2,
                          n_samples, (float(dist.min()), float(dist.max())), 1.0,
                          {"distances": [float(v) for v in dist],
                           "values": [float(v) for v in vals]})


def check_kernel_fit(box: LatticeBox, mode: str) -> None:
    """Refuse a kernel fit mode, or a box too small to fit, before any sample."""
    if mode not in ("polynomial", "exponential"):
        raise ConfigError(f"unknown kernel fit mode {mode!r}: use polynomial or exponential")
    if min(box.shape) < 16:
        raise ConfigError("kernel-decay fits need box side >= 16")


def check_schatten_p(p: float) -> None:
    if not 0 < p < math.inf:
        raise ConfigError(f"a1_p = {p!r}: the Schatten exponent must be finite and > 0")


def check_ct_theta(theta: float) -> None:
    if not 0 < theta < math.inf:
        raise ConfigError(f"ct_theta = {theta!r} must be finite and > 0")


# ---------------------------------------------------------------------------
# one pass over the kernel box
# ---------------------------------------------------------------------------

def _sup_distances(coords: np.ndarray) -> np.ndarray:
    return np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=2)


@dataclass
class KernelBoxStats:
    """Everything the kernel-block reducers read, from one pass over the samples."""

    box: LatticeBox
    n_samples: int
    abs_sum: np.ndarray                     # sum over samples of |g(H)[a,b]|
    abs_max: np.ndarray                     # max over samples of |g(H)[a,b]|
    a1_value: float                         # max |g(H)[a,b]| over sites and samples
    a1_argmax: Tuple                        # (a, b, sample) where it first occurs
    resolvent_sums: Dict[complex, np.ndarray]   # sum over samples of R_z(g(H))
    hard_bound_ok: bool                     # |R_z[a,b]| <= 1/dist(z) + 1e-8 always
    window: SpectralWindow


def kernel_box_stats(spec: EnsembleSpec, g: ScalarFunction, box: LatticeBox,
                     n_samples: int, z_grid: Sequence[complex] = (),
                     workers: int = 1) -> KernelBoxStats:
    """One pass over the samples of the kernel box: one diagonalization per sample.

    Each sample yields |g(H)| and the resolvent R_z(g(H)) for every z of the
    grid; the pass keeps their running sums, the running max of |g(H)|, the A1
    maximum (the first sample wins a tie), the hard resolvent-bound flag and
    the spectral window of g(H).  Memory is O(chunk n^2) whatever the sample
    count.  Raises ``ConfigError`` for z = 0 before the first sample, and for
    a z that equals g(eigenvalue) in a sample, where R_z does not exist.
    """
    zs = list(dict.fromkeys(complex(z) for z in z_grid))
    if 0 in zs:     # R_z(0) = -1/z completes R_z on the eigenpairs g drops
        raise ConfigError("ct_z = 0j: the resolvent R_z(g(H)) needs z != 0")
    n = box.site_count
    kept = (8 + 16 * len(zs)) * n * n       # |g(H)| and the resolvent blocks
    # a sample: eigh, g(H), |g(H)| and its output; held: sum and max of |g(H)|, a sum per z
    chunk = chunk_size(operator_bytes(n, sample_itemsize(spec.kind)) + 16 * n * n + kept,
                       kept, (16 + 16 * len(zs)) * n * n)
    coords = box.sites()
    stats = KernelBoxStats(box, n_samples, np.zeros((n, n)), np.zeros((n, n)), -1.0,
                           ((0,) * box.d, (0,) * box.d, 0),
                           {z: np.zeros((n, n), dtype=complex) for z in zs}, True,
                           SpectralWindow())

    def one(s):
        lam, u, gl = spectral_data(spec, box, s, g)
        g_kept = gl[gl != 0]
        resolvents, ok = [], True
        for z in zs:
            gap = float(np.min(np.abs(gl - z)))
            if gap == 0.0:
                raise ConfigError(f"ct_z = {z!r} is an eigenvalue of g(H) in sample {s}: "
                                  "its resolvent does not exist")
            # R_z at 0 completes the eigenpairs g drops: R_z(0) I + U (R_z(g) - R_z(0)) U*
            r0 = -1.0 / np.complex128(z)
            res = block_of_gH(u, 1.0 / (g_kept - z) - r0)
            res[np.diag_indices(n)] += r0
            ok = ok and not np.abs(res).max() > 1.0 / gap + 1e-8
            resolvents.append(res)
        return np.abs(block_of_gH(u, g_kept)), resolvents, ok, gl

    def fold(s, out):
        mags, resolvents, ok, gl = out
        stats.abs_sum += mags
        np.maximum(stats.abs_max, mags, out=stats.abs_max)
        i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
        if mags[i, j] > stats.a1_value:
            stats.a1_value = float(mags[i, j])
            stats.a1_argmax = (tuple(coords[i]), tuple(coords[j]), s)
        for z, res in zip(zs, resolvents):
            stats.resolvent_sums[z] += res
        stats.hard_bound_ok = stats.hard_bound_ok and ok
        stats.window.update(gl)

    fold_samples(one, n_samples, fold, chunk, workers)
    return stats


@dataclass
class A1Certificate:
    C_p_estimate: float
    p: float
    argmax: Tuple                  # (site a, site b, sample), as in KernelBoxStats
    n_samples: int


def certify_a1(stats: KernelBoxStats, p: float) -> A1Certificate:
    """Estimate sup_{a,b} esssup_omega of the one-site kernel block norm.

    With one-site cells every Schatten-p norm of a block equals the entry
    modulus, so the estimate is the max |g(H)[a,b]| over sites and samples.
    """
    check_schatten_p(p)
    return A1Certificate(stats.a1_value, p, stats.a1_argmax, stats.n_samples)


def fit_kernel_decay(stats: KernelBoxStats, mode: str = "exponential") -> DecayFitReport:
    """Fit the decay of one-site kernel blocks of g(H) against distance.

    Polynomial mode fits the per-distance max over samples and site pairs
    (the uniform hypothesis); exponential mode fits the per-distance max over
    pairs of the sample mean |g(H)[a,b]| (the averaged hypothesis).  In
    polynomial mode a monotone upper envelope is applied before the log-log
    fit to tame oscillatory kernels.
    """
    check_kernel_fit(stats.box, mode)
    stat = stats.abs_max if mode == "polynomial" else stats.abs_sum / stats.n_samples
    rs, vs = _envelope(_sup_distances(stats.box.sites()), stat)
    if mode == "polynomial":
        vs = np.maximum.accumulate(vs[::-1])[::-1]  # monotone upper envelope
    return _fit_pairs(rs, vs, mode, stats.n_samples)


# ---------------------------------------------------------------------------
# averaged resolvent decay (Combes-Thomas probe)
# ---------------------------------------------------------------------------

def combes_thomas_probe(stats: KernelBoxStats, theta: float = 1.0) -> DecayFitReport:
    """Probe || E[ chi_a R_z(g(H)) chi_b ] || <= C/dist(z) exp(-mu dist(z) |a-b|^theta).

    Fits (log C, mu) by OLS over all (z, distance) observations of the pass's
    z grid, and reports whether the hard resolvent bound
    |R_z[a,b]| <= 1/dist(z, spectrum) + 1e-8 held in every sample.  theta = 1
    is the deterministic default; random ensembles may fit better with
    theta < 1/2, which the caller can scan over one pass.
    """
    check_ct_theta(theta)
    dists = _sup_distances(stats.box.sites())
    window = stats.window
    xs, ys = [], []
    pairs_d, pairs_v = [], []
    for z, total in stats.resolvent_sums.items():
        dz = window.distance(z)
        if dz <= 0:
            raise ConfigError(f"z={z} lies in the observed spectral window")
        rs, vs = _envelope(dists, np.abs(total / stats.n_samples))
        keep = _usable(rs, vs)
        for r, v in zip(rs[keep].astype(int).tolist(), vs[keep].tolist()):
            # model: log v = log C - log dz - mu * dz * r^theta
            xs.append(dz * r ** theta)
            ys.append(math.log(v) + math.log(dz))
            pairs_d.append(float(r))
            pairs_v.append(v)
    if len(xs) < 3:
        raise DegenerateFitError("not enough resolvent kernel observations")
    fit = ols_line(np.asarray(xs), np.asarray(ys))
    report = DecayFitReport(
        "stretched" if theta != 1.0 else "exponential",
        {"mu": -fit.slope, "mu_stderr": fit.stderr_slope, "theta": theta},
        float(np.exp(fit.intercept)), fit.r2, stats.n_samples,
        (min(pairs_d), max(pairs_d)), theta, {"distances": pairs_d, "values": pairs_v},
        notes={"hard_resolvent_bound_ok": stats.hard_bound_ok,
               "window": [window.lo, window.hi],
               "z_grid": [[z.real, z.imag] for z in stats.resolvent_sums]})
    if not stats.hard_bound_ok:
        report.notes["flag"] = "resolvent bound violated beyond tolerance"
    return report


# ---------------------------------------------------------------------------
# boundary trace-norm estimate
# ---------------------------------------------------------------------------

def trace_probe_geometry(inner: Region, outer: Region, box: LatticeBox):
    """The inner and outer masks on the box and the distance of each inner site
    to the cut, refusing (before any sample) an inner region not contained in
    outer, or one whose sites give fewer than 3 distances a fit can use."""
    coords = box.sites()
    inner_bits, outer_bits = inner.evaluate(coords), outer.evaluate(coords)
    dist = boundary_distance(coords[inner_bits], inner, outer, box)
    usable = np.unique(dist[np.isfinite(dist) & (dist >= DISTANCE_FLOOR)])
    if usable.size < 3:
        raise ConfigError(f"the trace probe's {int(inner_bits.sum())} inner sites on its box "
                          f"lie at {usable.size} distinct distances >= {DISTANCE_FLOOR} from "
                          "the cut; its fit needs at least 3")
    return inner_bits, outer_bits, dist


def trace_difference_probe(spec: EnsembleSpec, g: ScalarFunction, h: ScalarFunction,
                           inner: Region, outer: Region, box: LatticeBox,
                           n_samples: int, workers: int = 1) -> DecayFitReport:
    """Fit the decay exponent q~ of ||E[ chi_a {h(g(H)_G) - h(g(H)_G')} chi_a ]||_1.

    Values are averaged diagonal entries of the difference at sites a inside
    the inner region, regressed log-log against the sup-norm distance of a to
    the boundary of inner in outer.  The fitted q~ feeds the truncation
    budgets and convergence-rate checks downstream.
    """
    inner_bits, outer_bits, dist = trace_probe_geometry(inner, outer, box)

    def one(s):     # the spectral route keeps the pinned q~ (see _restricted_diag)
        lam, u, gl = spectral_data(spec, box, s, g)
        return (_restricted_diag(u, gl, inner_bits, h, spectral=True)
                - _restricted_diag(u, gl, outer_bits, h, spectral=True))

    n = box.site_count
    chunk = chunk_size(operator_bytes(n, sample_itemsize(spec.kind)) + 8 * n, 8 * n, 8 * n)
    total = np.zeros(n)     # 0.0 + row == row: starting at zero adds no rounding
    fold_samples(one, n_samples, lambda s, row: np.add(total, row, out=total), chunk, workers)
    rs, env = _envelope(dist, np.abs(total / n_samples)[inner_bits])
    rep = _fit_pairs(rs, env, "polynomial", n_samples)
    rep.params["q_tilde"] = rep.params.pop("q")
    rep.params["q_tilde_stderr"] = rep.params.pop("q_stderr")
    return rep
