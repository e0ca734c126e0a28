"""Least-squares helpers shared by the decay probes and the sweep harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NumericError


@dataclass
class LineFit:
    slope: float
    intercept: float
    stderr_slope: float
    r2: float


def ols_line(x, y) -> LineFit:
    """Ordinary least squares line with the residual-based standard error of
    its slope."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < 2:
        raise NumericError("need at least two points for a line fit")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0:
        raise NumericError("degenerate abscissa in line fit")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    dof = max(n - 2, 1)
    s2 = ss_res / dof
    return LineFit(slope, intercept, float(np.sqrt(s2 / sxx)), r2)


def weighted_lstsq(design: np.ndarray, y: np.ndarray, sigma: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Weighted least squares with known noise levels.

    Returns (coefficients, covariance, condition number of the weighted
    design).  With ``sigma`` given, weights are 1/sigma^2 and the covariance
    is (X^T W X)^{-1}; without noise levels an unweighted fit with
    residual-scaled covariance is used.
    """
    design = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = design.shape
    if n < p:
        raise NumericError(f"need >= {p} points, got {n}")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        floor = max(sigma.max() * 1e-9, 1e-300)
        w = 1.0 / np.maximum(sigma, floor)
    else:
        w = np.ones(n)
    xw = design * w[:, None]
    yw = y * w
    cond = float(np.linalg.cond(xw))
    if not np.isfinite(cond) or cond > 1e15:
        raise NumericError(f"singular design matrix (cond = {cond:.3e})")
    gram = xw.T @ xw
    coef = np.linalg.solve(gram, xw.T @ yw)
    cov = np.linalg.inv(gram)
    if sigma is None:
        resid = yw - xw @ coef
        dof = max(n - p, 1)
        cov = cov * float(resid @ resid) / dof
    return coef, cov, cond
