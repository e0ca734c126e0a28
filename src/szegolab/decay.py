"""Empirical certification of kernel-decay hypotheses and resolvent estimates.

These probes estimate, at desk scale, the constants and rates that the trace
expansion rests on: the uniform Schatten bound on one-site kernel blocks of
g(H), polynomial or exponential decay of those blocks, the admissible-domain
constant of the holomorphic calculus, averaged resolvent decay away from the
spectrum, and the boundary trace-norm estimate for differences
h(g(H)_G) - h(g(H)_G').  "esssup over omega" is realized as a max over the
sample budget and reported as an estimate, never as a certificate.

Fits are ordinary least squares on transformed coordinates (log-log for the
polynomial mode, log-linear for exponential and stretched modes); distances
|a-b| <= 2 are excluded to suppress near-field effects, and values below the
1e-14 floor are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coefficients import block_of_gH, spectral_data, _restricted_diag
from .errors import ConfigError, DegenerateFitError, NumericError
from .fitting import ols_line
from .lattices import EnsembleSpec, LatticeBox
from .mc import ordered_map
from .regions import Region, boundary_distance, region_mask
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
    """Fitted decay law with the raw pairs it was computed from.

    ``refit()`` reproduces the parameters bit-identically from the stored
    pairs, so reports regenerate from their own raw data.
    """

    mode: str                      # polynomial | exponential | stretched
    params: Dict[str, float]
    prefactor: float
    r2: float
    n_samples: int
    distance_range: Tuple[float, float]
    raw_distances: List[float] = field(default_factory=list)
    raw_values: List[float] = field(default_factory=list)
    theta: float = 1.0
    notes: Dict = field(default_factory=dict)

    def to_jsonable(self) -> Dict:
        return {"mode": self.mode, "params": self.params,
                "prefactor": self.prefactor, "r2": self.r2,
                "n_samples": self.n_samples,
                "distance_range": list(self.distance_range),
                "theta": self.theta,
                "raw": {"distances": self.raw_distances, "values": self.raw_values},
                "notes": self.notes}

    def refit(self) -> "DecayFitReport":
        return _fit_pairs(np.asarray(self.raw_distances), np.asarray(self.raw_values),
                          self.mode, self.n_samples, theta=self.theta)

    def rate_bound(self) -> Callable[[float], float]:
        """Certified bound value(r) usable as a truncation-tail integrand."""
        if self.mode == "polynomial":
            q = self.params["q"]
            return lambda r: self.prefactor / (1.0 + r) ** q
        mu = self.params["mu"]
        th = self.theta
        return lambda r: self.prefactor * math.exp(-mu * r ** th)


def _fit_pairs(dist: np.ndarray, vals: np.ndarray, mode: str, n_samples: int,
               theta: float = 1.0) -> DecayFitReport:
    keep = (dist >= DISTANCE_FLOOR) & (vals > VALUE_FLOOR)
    dist, vals = dist[keep], vals[keep]
    if dist.size < 3:
        raise DegenerateFitError("fewer than 3 usable (distance, value) pairs")
    logs = np.log(vals)
    if mode == "polynomial":
        fit = ols_line(np.log1p(dist), logs)
        params = {"q": -fit.slope, "q_stderr": fit.stderr_slope}
    elif mode == "exponential":
        fit = ols_line(dist, logs)
        params = {"mu": -fit.slope, "mu_stderr": fit.stderr_slope}
    elif mode == "stretched":
        fit = ols_line(dist ** theta, logs)
        params = {"mu": -fit.slope, "mu_stderr": fit.stderr_slope, "theta": theta}
    else:
        raise ConfigError(f"unknown fit mode {mode!r}")
    return DecayFitReport(mode, params, float(np.exp(fit.intercept)), fit.r2,
                          n_samples, (float(dist.min()), float(dist.max())),
                          raw_distances=[float(v) for v in dist],
                          raw_values=[float(v) for v in vals], theta=theta)


# ---------------------------------------------------------------------------
# kernel-block statistics of g(H)
# ---------------------------------------------------------------------------

def _sup_distances(coords: np.ndarray) -> np.ndarray:
    return np.max(np.abs(coords[:, None, :] - coords[None, :, :]), axis=2)


def _gh_matrices(spec: EnsembleSpec, box: LatticeBox, g: ScalarFunction,
                 n_samples: int, workers: int = 1) -> List[np.ndarray]:
    def one(s):
        lam, u, gl = spectral_data(spec, box, s, g)
        return block_of_gH(u, gl)
    return ordered_map(one, range(n_samples), workers=workers)


@dataclass
class A1Certificate:
    value: float
    p: float
    argmax: Tuple
    n_samples: int

    def to_jsonable(self):
        return {"C_p_estimate": self.value, "p": self.p,
                "argmax": [list(map(int, s)) for s in self.argmax[:2]] + [int(self.argmax[2])],
                "n_samples": self.n_samples}


def certify_a1(spec: EnsembleSpec, g: ScalarFunction, p: float, box: LatticeBox,
               n_samples: int, workers: int = 1) -> A1Certificate:
    """Estimate sup_{a,b} esssup_omega of the one-site kernel block norm.

    With one-site cells every Schatten-p norm of a block equals the entry
    modulus, so the estimate is the max |g(H)[a,b]| over sites and samples.
    """
    if p <= 0:
        raise ConfigError("Schatten exponent must be positive")
    coords = box.sites()
    best, arg = -1.0, ((0,) * box.d, (0,) * box.d, 0)
    for s, a in enumerate(_gh_matrices(spec, box, g, n_samples, workers)):
        mags = np.abs(a)
        i, j = np.unravel_index(int(np.argmax(mags)), mags.shape)
        if mags[i, j] > best:
            best = float(mags[i, j])
            arg = (tuple(coords[i]), tuple(coords[j]), s)
    return A1Certificate(best, p, arg, n_samples)


def fit_kernel_decay(spec: EnsembleSpec, g: ScalarFunction, box: LatticeBox,
                     n_samples: int, mode: str = "exponential",
                     workers: int = 1, envelope: bool = True) -> DecayFitReport:
    """Fit the decay of one-site kernel blocks of g(H) against distance.

    Polynomial mode fits the per-distance max over samples and site pairs
    (the uniform hypothesis); exponential and stretched modes fit the
    per-distance max over pairs of the sample mean |g(H)[a,b]| (the averaged
    hypothesis).  In polynomial mode a monotone upper envelope is applied
    before the log-log fit to tame oscillatory kernels.
    """
    if min(box.shape) < 16:
        raise ConfigError("kernel-decay fits need box side >= 16")
    coords = box.sites()
    dists = _sup_distances(coords)
    mats = _gh_matrices(spec, box, g, n_samples, workers)
    if mode == "polynomial":
        stat = np.max(np.stack([np.abs(m) for m in mats]), axis=0)
    else:
        stat = np.mean(np.stack([np.abs(m) for m in mats]), axis=0)
    rmax = int(dists.max())
    rs, vs = [], []
    for r in range(rmax + 1):
        sel = dists == r
        if sel.any():
            rs.append(float(r))
            vs.append(float(stat[sel].max()))
    rs, vs = np.asarray(rs), np.asarray(vs)
    if np.all(vs <= VALUE_FLOOR):
        raise DegenerateFitError("all kernel blocks below the numerical floor")
    if mode == "polynomial" and envelope:
        vs = np.maximum.accumulate(vs[::-1])[::-1]  # monotone upper envelope
    return _fit_pairs(rs, vs, mode, n_samples)


# ---------------------------------------------------------------------------
# holomorphic-calculus constant
# ---------------------------------------------------------------------------

def holo_constant_matrix(a: np.ndarray, coords: np.ndarray, qprime: float
                         ) -> Tuple[float, float]:
    """(constant, inner sup) of 2 + sup_a sum_b |A[a,b]| ((|a-b|+2)^q' - 1)."""
    dists = _sup_distances(coords)
    weights = (dists + 2.0) ** qprime - 1.0
    sums = np.sum(np.abs(a) * weights, axis=1)
    inner = float(sums.max())
    return 1.0 + inner + 1.0, inner


@dataclass
class HoloConstantReport:
    value: float
    inner_sup: float
    qprime: float
    q_tilde: float
    eps: float
    tail_fraction: float
    convergent_at_range: bool
    n_samples: int

    def to_jsonable(self):
        return {"C_g_qtilde": self.value, "inner_sup": self.inner_sup,
                "qprime": self.qprime, "q_tilde": self.q_tilde, "eps": self.eps,
                "tail_fraction": self.tail_fraction,
                "convergent_at_range": self.convergent_at_range,
                "n_samples": self.n_samples}


def holo_constant(spec: EnsembleSpec, g: ScalarFunction, q_tilde: float,
                  box: LatticeBox, n_samples: int, eps: float = 0.5,
                  certified_q: Optional[float] = None, workers: int = 1
                  ) -> HoloConstantReport:
    """Admissible-distance constant for the holomorphic route, q' = q~+d+eps/2.

    Requires certified polynomial decay q > 2d + q~ for the site sums to
    converge; at desk scale convergence is monitored by the weight carried by
    the outermost distance shells and flagged, not proven.
    """
    d = box.d
    qprime = q_tilde + d + eps / 2.0
    if certified_q is not None and certified_q <= 2 * d + q_tilde:
        raise ConfigError(
            f"certified decay q={certified_q} too small (need q > 2d + q~ = {2 * d + q_tilde})")
    coords = box.sites()
    dists = _sup_distances(coords)
    weights = (dists + 2.0) ** qprime - 1.0
    best, best_row, best_dists = -1.0, None, None
    for a in _gh_matrices(spec, box, g, n_samples, workers):
        contrib = np.abs(a) * weights
        sums = contrib.sum(axis=1)
        i = int(np.argmax(sums))
        if sums[i] > best:
            best, best_row, best_dists = float(sums[i]), contrib[i], dists[i]
    # convergence monitor: weight carried by the outermost 20% of distances
    rmax = int(dists.max())
    cut = 0.8 * rmax
    tail = float(best_row[best_dists >= cut].sum()) / best if best > 0 else 0.0
    return HoloConstantReport(2.0 + best, best, qprime, q_tilde, eps, tail,
                              tail < 0.01, n_samples)


# ---------------------------------------------------------------------------
# averaged resolvent decay (Combes-Thomas probe)
# ---------------------------------------------------------------------------

def combes_thomas_probe(spec: EnsembleSpec, g: ScalarFunction, box: LatticeBox,
                        n_samples: int, z_grid: Sequence[complex],
                        theta: float = 1.0, workers: int = 1) -> DecayFitReport:
    """Probe || E[ chi_a R_z(g(H)) chi_b ] || <= C/dist(z) exp(-mu dist(z) |a-b|^theta).

    Fits (log C, mu) by OLS over all (z, distance) observations; also verifies
    the hard resolvent bound |R_z[a,b]| <= 1/dist(z, spectrum) + 1e-8 for
    every sample.  theta = 1 is the deterministic default; random ensembles
    may fit better with theta < 1/2, which the caller can scan.
    """
    coords = box.sites()
    dists = _sup_distances(coords)
    window = SpectralWindow()
    sums: Dict[complex, np.ndarray] = {complex(z): None for z in z_grid}
    hard_bound_ok = True
    for s in range(n_samples):
        lam, u, gl = spectral_data(spec, box, s, g)
        window.update(gl)
        for z in sums:
            res = block_of_gH(u, 1.0 / (gl - z))
            gap = float(np.min(np.abs(gl - z)))
            if np.abs(res).max() > 1.0 / gap + 1e-8:
                hard_bound_ok = False
            sums[z] = res if sums[z] is None else sums[z] + res
    xs, ys = [], []
    pairs_d, pairs_v = [], []
    for z, total in sums.items():
        dz = window.distance(z)
        if dz <= 0:
            raise ConfigError(f"z={z} lies in the observed spectral window")
        mean_abs = np.abs(total / n_samples)
        rmax = int(dists.max())
        for r in range(DISTANCE_FLOOR, rmax + 1):
            sel = dists == r
            if not sel.any():
                continue
            v = float(mean_abs[sel].max())
            if v <= VALUE_FLOOR:
                continue
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
        float(np.exp(fit.intercept)), fit.r2, n_samples,
        (min(pairs_d), max(pairs_d)), raw_distances=pairs_d, raw_values=pairs_v,
        theta=theta,
        notes={"hard_resolvent_bound_ok": hard_bound_ok,
               "window": [window.lo, window.hi],
               "z_grid": [[z.real, z.imag] for z in sums]})
    if not hard_bound_ok:
        report.notes["flag"] = "resolvent bound violated beyond tolerance"
    return report


def resolvent_difference_probe(spec: EnsembleSpec, g: ScalarFunction,
                               inner: Region, outer: Region, box: LatticeBox,
                               n_samples: int, z_grid: Sequence[complex],
                               theta: float = 1.0) -> DecayFitReport:
    """G vs G' variant: averaged kernel decay of R_z(A_G) - R_z(A_G').

    Diagonal probe: fits || E[ chi_a {R_z(A_G) - R_z(A_G')} chi_a ] || against
    (C / dist(z)) exp(-mu dist(z) * 2 dist(a, boundary)^theta) over the z grid
    and the sites of the inner region.
    """
    coords = box.sites()
    inner_mask = region_mask(inner, box)
    outer_mask = region_mask(outer, box)
    if not outer_mask.contains_mask(inner_mask):
        raise ConfigError("inner region not contained in outer region on this box")
    in_idx = np.flatnonzero(inner_mask.bits)
    out_idx = np.flatnonzero(outer_mask.bits)
    window = SpectralWindow()
    sums: Dict[complex, np.ndarray] = {complex(z): None for z in z_grid}
    for s in range(n_samples):
        lam, u, gl = spectral_data(spec, box, s, g)
        window.update(gl)
        restricted = [(sign, idx, np.linalg.eigh(block_of_gH(u, gl, idx)))
                      for sign, idx in ((1.0, in_idx), (-1.0, out_idx))]
        for z in sums:
            diff_diag = np.zeros(box.site_count, dtype=complex)
            for sign, idx, (mu_s, v) in restricted:
                gap = float(np.min(np.abs(mu_s - z)))
                if gap < 1e-12:
                    raise NumericError(f"z={z} too close to a restricted spectrum")
                res_diag = np.sum((np.abs(v) ** 2) * (1.0 / (mu_s - z))[None, :], axis=1)
                diff_diag[idx] += sign * res_diag
            sums[z] = diff_diag if sums[z] is None else sums[z] + diff_diag
    xs, ys, pairs_d, pairs_v = [], [], [], []
    for z, total in sums.items():
        dz = window.distance(z)
        if dz <= 0:
            raise ConfigError(f"z={z} lies in the observed spectral window")
        mean_abs = np.abs(total / n_samples)
        for i in in_idx:
            r = boundary_distance(tuple(coords[i]), inner, outer, box)
            if not math.isfinite(r) or r < DISTANCE_FLOOR:
                continue
            v = float(mean_abs[i])
            if v <= VALUE_FLOOR:
                continue
            xs.append(dz * 2.0 * r ** theta)
            ys.append(math.log(v) + math.log(dz))
            pairs_d.append(float(r))
            pairs_v.append(v)
    if len(xs) < 3:
        raise DegenerateFitError("not enough resolvent-difference observations")
    fit = ols_line(np.asarray(xs), np.asarray(ys))
    return DecayFitReport(
        "stretched" if theta != 1.0 else "exponential",
        {"mu": -fit.slope, "mu_stderr": fit.stderr_slope, "theta": theta},
        float(np.exp(fit.intercept)), fit.r2, n_samples,
        (min(pairs_d), max(pairs_d)), raw_distances=pairs_d, raw_values=pairs_v,
        theta=theta, notes={"window": [window.lo, window.hi],
                            "z_grid": [[z.real, z.imag] for z in sums]})


# ---------------------------------------------------------------------------
# boundary trace-norm estimate
# ---------------------------------------------------------------------------

def trace_difference_probe(spec: EnsembleSpec, g: ScalarFunction, h: ScalarFunction,
                           inner: Region, outer: Region, box: LatticeBox,
                           n_samples: int, workers: int = 1,
                           probe_sites: Optional[np.ndarray] = None) -> DecayFitReport:
    """Fit the decay exponent q~ of ||E[ chi_a {h(g(H)_G) - h(g(H)_G')} chi_a ]||_1.

    Values are averaged diagonal entries of the difference at sites a inside
    the inner region, regressed log-log against the sup-norm distance of a to
    the boundary of inner in outer.  The fitted q~ feeds the truncation
    budgets and convergence-rate checks downstream.
    """
    coords = box.sites()
    inner_mask = region_mask(inner, box)
    outer_mask = region_mask(outer, box)
    if not outer_mask.contains_mask(inner_mask):
        raise ConfigError("inner region not contained in outer region on this box")

    def one(s):
        lam, u, gl = spectral_data(spec, box, s, g)
        return (_restricted_diag(u, gl, inner_mask.bits, h)
                - _restricted_diag(u, gl, outer_mask.bits, h))

    rows = ordered_map(one, range(n_samples), workers=workers)
    mean_diff = np.abs(sum(rows) / n_samples)
    if probe_sites is None:
        sel = np.flatnonzero(inner_mask.bits)
    else:
        sel = np.asarray([box.index_of(tuple(s)) for s in probe_sites])
    ds, vs = [], []
    for i in sel:
        a_site = tuple(coords[i])
        r = boundary_distance(a_site, inner, outer, box)
        if not math.isfinite(r):
            continue
        ds.append(r)
        vs.append(float(mean_diff[i]))
    ds, vs = np.asarray(ds, dtype=float), np.asarray(vs)
    # collapse to the per-distance max so the fit sees one envelope point each
    uniq = np.unique(ds)
    env = np.asarray([vs[ds == r].max() for r in uniq])
    if np.all(env <= VALUE_FLOOR):
        raise DegenerateFitError("trace differences below the numerical floor")
    rep = _fit_pairs(uniq, env, "polynomial", n_samples)
    rep.params["q_tilde"] = rep.params.pop("q")
    rep.params["q_tilde_stderr"] = rep.params.pop("q_stderr")
    return rep
