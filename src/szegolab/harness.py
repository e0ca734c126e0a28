"""Experiment orchestration: L-sweeps, expansion fits, the classical 1-D
Toeplitz suite, and the logarithmic-enhancement probe.

The sweep fits  E[Tr h(g(H)_box(ell))]  against  sum_m A_m ell^(d-m)
by least squares weighted with the Monte Carlo noise levels; the residual
order (log-log slope of |residual| against ell) plays the role of the
remainder exponent of the expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .coefficients import SweepResult, coefficient_sweep
from .errors import ConfigError, NumericError
from .fitting import ols_line, weighted_lstsq
from .lattices import K_MAX, EnsembleSpec, Symbol1D, toeplitz_matrix
from .mc import agreement_bound, single_blas_thread
from .spectral import ScalarFunction

__all__ = ["FitReport", "check_fit_grid", "fit_expansion", "sweep_and_fit", "szego_1d_suite",
           "log_enhancement_probe", "LOG_VERDICTS"]


@dataclass
class FitReport:
    """Weighted-least-squares expansion fit over a side-length grid."""

    d: int
    ells: List[int]
    trace_means: List[float]
    trace_stderrs: List[float]
    n_samples: int
    A_hat: List[float]
    A_stderr: List[float]
    covariance: List[List[float]]
    residuals: List[float]
    residual_order: Optional[float]
    condition_number: float
    cross_check: Optional[Dict] = None


def check_fit_grid(ells: Sequence[int], d: int) -> None:
    """Refuse a grid that cannot fit the d+1 coefficients A_0..A_d: one that
    is not strictly increasing, has fewer than d+2 points or a side below 1
    (an empty box).  ``sweep_and_fit``, ``log_enhancement_probe`` and the
    trace branch of ``szego_1d_suite`` call it before their first sample or
    determinant, and ``fit_expansion`` before its fit."""
    if len(ells) < d + 2:
        raise ConfigError(f"need at least d+2 = {d + 2} grid points, got {len(ells)}")
    if sorted(set(ells)) != list(ells):
        raise ConfigError("ell grid must be strictly increasing")
    if ells[0] < 1:
        raise ConfigError(f"ell grid side {ells[0]} is below 1: its box is empty")


def fit_expansion(ells: Sequence[int], means: Sequence[float],
                  stderrs: Optional[Sequence[float]], d: int,
                  n_samples: int = 0) -> FitReport:
    """Fit means(ell) = sum_{m=0..d} A_m ell^(d-m) with optional noise weights."""
    ells = [int(e) for e in ells]
    check_fit_grid(ells, d)
    x = np.asarray(ells, dtype=float)
    design = np.stack([x ** (d - m) for m in range(d + 1)], axis=1)
    sigma = None
    if stderrs is not None and max(stderrs) > 0:
        sigma = np.asarray(stderrs, dtype=float)
        sigma = np.maximum(sigma, sigma[sigma > 0].min() * 1e-3 if (sigma > 0).any() else 1.0)
    coef, cov, cond = weighted_lstsq(design, np.asarray(means, dtype=float), sigma)
    resid = np.asarray(means) - design @ coef
    order = None
    nz = np.abs(resid) > 1e-14 * max(1.0, np.abs(means).max())
    if nz.sum() >= 2:
        order = float(ols_line(np.log(x[nz]), np.log(np.abs(resid[nz]))).slope)
    return FitReport(d, ells, [float(v) for v in means],
                     [float(v) for v in (stderrs if stderrs is not None else [0.0] * len(ells))],
                     n_samples, [float(v) for v in coef],
                     [float(math.sqrt(max(cov[i, i], 0.0))) for i in range(d + 1)],
                     [[float(v) for v in row] for row in cov],
                     [float(v) for v in resid], order, cond)


def sweep_and_fit(spec: EnsembleSpec, d: int, g: ScalarFunction, h: ScalarFunction,
                  ells: Sequence[int], R: int, n_samples: int,
                  formula_L: Optional[int] = None,
                  workers: int = 1) -> Tuple[FitReport, SweepResult]:
    """Monte Carlo L-sweep plus expansion fit, with an optional formula cross-check.

    When ``formula_L`` is given, the same samples also feed the wedge-route
    coefficient A_m^(L) table and the fit report carries a cross-check block
    comparing the fitted subleading coefficient with the formula value.
    """
    check_fit_grid(ells, d)
    L_values = [] if formula_L is None else [formula_L]
    res = coefficient_sweep(spec, d, g, h, R, L_values, n_samples, ells=ells,
                            workers=workers)
    ells_out, means, errs = res.sweep_series()
    report = fit_expansion(ells_out, means, errs, d, n_samples)
    if formula_L is not None:
        a1_formula = res.a_fv(formula_L, 1)
        gap = abs(report.A_hat[1] - a1_formula.mean)
        combined = math.hypot(report.A_stderr[1], a1_formula.stderr)
        report.cross_check = {
            "formula_L": formula_L,
            "A1_formula": a1_formula,
            "A1_fit": report.A_hat[1],
            "A1_fit_stderr": report.A_stderr[1],
            "gap": gap,
            "combined_stderr": combined,
            "within_3_sigma": bool(gap <= agreement_bound(report.A_hat[1], a1_formula.mean,
                                                          combined)),
            "A0_formula": res.a_fv(formula_L, 0),
        }
        if d >= 2:
            report.cross_check.update({"A2_formula": res.a_fv(formula_L, 2),
                                       "A2_fit": report.A_hat[2],
                                       "A2_fit_stderr": report.A_stderr[2]})
    return report, res


# ---------------------------------------------------------------------------
# classical 1-D suite
# ---------------------------------------------------------------------------

def szego_1d_suite(symbol: Symbol1D, h: Optional[ScalarFunction],
                   L_grid: Sequence[int], k_max: int = K_MAX) -> Dict:
    """Determinant and trace asymptotics of truncated Toeplitz matrices.

    Computes log det T_L against the classical two-term prediction
    L (log a)_0 + sum_l l (log a)_l (log a)_{-l} (series truncated at k_max
    with a geometric tail estimate), and, when a test function h with
    h(0) = 0 is given, Tr h(T_L) with a fitted two-term expansion.
    """
    out: Dict = {"L_grid": [int(L) for L in L_grid], "k_max": k_max}
    if symbol.min_real_on_grid() <= 0 or not symbol.is_hermitian():
        raise ConfigError("determinant branch needs a positive real symbol")
    if h is not None:
        if abs(h.value_at_zero) > 1e-12:
            raise ConfigError("trace branch needs h(0) = 0")
        check_fit_grid(L_grid, 1)
    lg = symbol.log_coeffs(k_max)
    const = lg[0].real
    terms = [l * (lg[l] * lg[-l]).real for l in range(1, k_max + 1)]
    strong = float(np.sum(terms))
    tail = _geometric_tail(terms)
    out["log_a_0"] = const
    out["strong_szego_sum"] = strong
    out["strong_szego_tail_estimate"] = tail
    logdets, gaps, traces = [], [], []
    with single_blas_thread():
        for L in L_grid:
            t = toeplitz_matrix(symbol, int(L)).matrix
            sign, logdet = np.linalg.slogdet(t)
            if sign <= 0:
                raise NumericError(f"non-positive determinant at L={L}")
            logdets.append(float(logdet))
            gaps.append(float(logdet - L * const - strong))
            if h is not None:
                traces.append(float(np.sum(np.real(h(np.linalg.eigvalsh(t))))))
    out["logdet"] = logdets
    out["logdet_minus_prediction"] = gaps
    if h is not None:
        out["trace_h"] = traces
        # leading coefficient (h o a)_0 by quadrature
        theta = 2 * np.pi * np.arange(4096) / 4096
        ha0 = float(np.mean(np.real(h(symbol.eval(theta).real))))
        out["h_symbol_mean"] = ha0
        fit = fit_expansion(list(L_grid), traces, None, 1)
        out["trace_fit"] = {"A0": fit.A_hat[0], "A1": fit.A_hat[1],
                            "A0_vs_symbol_mean": fit.A_hat[0] - ha0,
                            "residual_order": fit.residual_order}
    return out


def _geometric_tail(terms: List[float]) -> float:
    mags = [abs(t) for t in terms if abs(t) > 0]
    if len(mags) < 3:
        return 0.0
    ratios = [mags[i + 1] / mags[i] for i in range(len(mags) - 3, len(mags) - 1)]
    r = min(max(np.mean(ratios), 0.0), 0.999) if ratios else 0.0
    return float(mags[-1] * r / (1.0 - r)) if r < 1 else math.inf


# ---------------------------------------------------------------------------
# logarithmic enhancement probe
# ---------------------------------------------------------------------------

LOG_VERDICTS = ("enhanced", "flat", "inconclusive")


def log_enhancement_probe(spec: EnsembleSpec, g: ScalarFunction, h: ScalarFunction,
                          ells: Sequence[int], budget: int, R: Optional[int] = None,
                          workers: int = 1) -> Dict:
    """Fit E[Tr h(g(H)_box)] - A0 ell against alpha log(ell) + beta (d = 1).

    A0 is the independently estimated density term (center diagonal of
    h(g(H))).  Classification: ``enhanced`` if alpha exceeds twice its
    standard error, ``flat`` if |alpha| lies below it, else ``inconclusive``.
    """
    ells = [int(e) for e in ells]
    check_fit_grid(ells, 1)
    if R is None:
        R = ells[-1] // 2 + 64
    res = coefficient_sweep(spec, 1, g, h, R, [], budget, ells=ells, workers=workers)
    _, means, errs = res.sweep_series()
    a0 = res.stat("A0")
    y = np.asarray(means) - a0.mean * np.asarray(ells, dtype=float)
    fit = ols_line(np.log(np.asarray(ells, dtype=float)), y)
    alpha, se = fit.slope, fit.stderr_slope
    if alpha > 2.0 * se and alpha > 0:
        verdict = "enhanced"
    elif abs(alpha) <= 2.0 * max(se, 1e-15):
        verdict = "flat"
    else:
        verdict = "inconclusive"
    return {
        "ells": ells, "trace_means": [float(v) for v in means],
        "trace_stderrs": [float(v) for v in errs],
        "A0": a0,
        "alpha": alpha, "alpha_stderr": se, "beta": fit.intercept,
        "fit_r2": fit.r2, "classification": verdict,
        "budget": budget, "R": R,
    }
