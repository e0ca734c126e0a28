"""Acceptance gate: one test per criterion, at the stated tolerances.

Heavy artifacts (the d = 1 and d = 2 reference sweeps, the decay
certificates) are computed once in session fixtures and shared.  Each test
prints a single PASS line with its headline numbers (visible with -s, and in
the captured output block on failure).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from szegolab.cli import run_experiment, write_coefficients
from szegolab.coefficients import (coefficient_sweep, inclusion_exclusion_check,
                                   k_vectors, sd_partition_residual,
                                   telescoping_check)
from szegolab.decay import (fit_kernel_decay, kernel_box_stats, trace_difference_probe,
                            trace_probe_geometry)
from szegolab.fitting import ols_line
from szegolab.harness import fit_expansion, log_enhancement_probe, szego_1d_suite
from szegolab.lattices import (EnsembleSpec, HermitianOperator, LatticeBox,
                               symbol_fourier_coefficients)
from szegolab.regions import CoordRange, Orthant, Region
from szegolab.spectral import ScalarFunction, hs_discrepancy, hs_extension
from tests.conftest import rand_hermitian

G_BUMP = ScalarFunction.bump(2.0, 3.0, 4)          # C^4 bump inside the spectrum
H_SQUARE = ScalarFunction.poly((0.0, 0.0, 1.0))    # h(x) = x^2
ANDERSON = EnsembleSpec("anderson", W=8.0, seed=7)


def report(num, detail, t0):
    line = f"ACCEPTANCE {num}: PASS - {detail} [{time.time() - t0:.1f}s]"
    print(line)
    from tests.conftest import ACCEPTANCE_LINES
    ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def d1_bundle():
    """Criterion-4 d=1 reference sweep: R=200, 200 samples, all probe depths."""
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 200,
                            [10, 20, 40, 60, 80], 200, ells=[20, 40, 60, 80],
                            workers=2)
    ells, means, errs = res.sweep_series()
    fit = fit_expansion(ells, means, errs, 1, 200)
    return res, fit


@pytest.fixture(scope="session")
def d2_bundle():
    """Criterion-4 d=2 sweep: R=24, 50 samples."""
    res = coefficient_sweep(ANDERSON, 2, G_BUMP, H_SQUARE, 24, [10], 50,
                            ells=[4, 6, 8, 10], workers=2)
    ells, means, errs = res.sweep_series()
    fit = fit_expansion(ells, means, errs, 2, 50)
    return res, fit


@pytest.fixture(scope="session")
def decay_bundle():
    """Criterion-5 certificates on the d=1 Anderson setup."""
    inner = Region(1, (CoordRange(0, 0, 59),))          # G  = [0, 2L), L = 30
    outer = Region(1, (Orthant(0, +1),))                # G' = the half line
    tbox = LatticeBox.interval(-40, 159)
    inner_bits, outer_bits, dist = trace_probe_geometry(inner, outer, tbox)
    stats = kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 63), 200, workers=2,
                             trace=(H_SQUARE, tbox, inner_bits, outer_bits))
    kernel = fit_kernel_decay(stats, mode="exponential")
    return kernel, trace_difference_probe(stats, inner_bits, dist)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exact_identities(rng):
    t0 = time.time()
    worst_ie, blocks = 0, 0
    for d in (1, 2, 3):
        for side in (2, 3, 4):
            for n in range(1, d + 1):
                for l in range(d):
                    for k in k_vectors(d, n, l):
                        worst_ie = max(worst_ie,
                                       inclusion_exclusion_check(n, l, k, side, d))
                        blocks += 1
    assert worst_ie == 0

    worst_tel = 0.0
    for trial in range(50):
        d = 1 + trial % 3
        box = LatticeBox.cube(d, 0, 3)
        n_sites = box.site_count
        fam = [rand_hermitian(rng, n_sites) for _ in range(d + 1)]
        scale = max(np.abs(m).max() for m in fam) * n_sites
        diags = np.array([np.diagonal(m) for m in fam])
        resid = telescoping_check(box, diags, np.ones(n_sites, bool))
        assert resid <= 1e-9 * scale
        worst_tel = max(worst_tel, resid / scale)

    for d in (1, 2, 3):
        for side in (2, 4, 6):
            assert sd_partition_residual(LatticeBox.cube(d, 0, side - 1)) == 0
    report(1, f"IE=0 on {blocks} blocks; telescoping rel residual {worst_tel:.1e}; "
              "wedge partitions exact", t0)


def test_criterion_02_identity_h_nullity():
    t0 = time.time()
    h_id = ScalarFunction.identity()
    worst = 0.0
    for d, L, R in ((1, 10, 40), (2, 4, 12)):
        for seed in (7, 123):
            spec = EnsembleSpec("anderson", W=8.0, seed=seed)
            res = coefficient_sweep(spec, d, G_BUMP, h_id, R, [L], 4, error_L=[L])
            scale = max(1.0, abs(res.stat("A0").mean))
            for m in range(1, d + 1):
                val = abs(res.a_fv(L, m).mean)
                assert val <= 1e-10 * scale
                worst = max(worst, val / scale)
            e = res.stat("EL", L)
            assert e.mean == 0.0 and e.stderr == 0.0
    report(2, f"A_m(identity) <= {worst:.1e} x scale; E^(L) == 0 exactly", t0)


def test_criterion_03_strong_szego_limit():
    t0 = time.time()
    sym = symbol_fourier_coefficients(lambda th: np.exp(np.cos(th)), 32, 256)
    rep = szego_1d_suite(sym, None, [100, 400])
    assert abs(rep["strong_szego_sum"] - 0.25) < 1e-10
    gaps = dict(zip(rep["L_grid"], rep["logdet_minus_prediction"]))
    assert abs(gaps[100]) <= 1e-3                       # the gate
    tight = abs(gaps[400]) <= 1e-6                      # logged, expected to hold
    report(3, f"|logdet T_100 - 0.25| = {abs(gaps[100]):.2e} (<=1e-3); "
              f"L=400 gap {abs(gaps[400]):.2e} (<=1e-6: {tight})", t0)
    assert tight


def test_criterion_04_coefficient_cross_validation(d1_bundle, d2_bundle):
    t0 = time.time()
    res1, fit1 = d1_bundle
    a1_formula = res1.a_fv(80, 1)
    gap = abs(fit1.A_hat[1] - a1_formula.mean)
    combined = math.hypot(fit1.A_stderr[1], a1_formula.stderr)
    assert gap <= 3.0 * combined
    a40, a80 = res1.a_fv(40, 1), res1.a_fv(80, 1)
    stab = abs(a40.mean - a80.mean)
    stab_tol = 3.0 * max(math.hypot(a40.stderr, a80.stderr), 1e-12)
    assert stab <= stab_tol

    res2, fit2 = d2_bundle
    a1_formula_d2 = res2.a_fv(10, 1)
    gap2 = abs(fit2.A_hat[1] - a1_formula_d2.mean)
    combined2 = math.hypot(fit2.A_stderr[1], a1_formula_d2.stderr)
    assert gap2 <= 3.0 * combined2
    a2 = res2.a_fv(10, 2)   # reported with CI; agreement logged, not gated
    a2_gap = abs(fit2.A_hat[2] - a2.mean)
    # the depth gap sits at rounding level, so it is printed against a rounding
    # tolerance: its digits move with any change of summation order
    round_tol = 1e3 * np.finfo(float).eps * abs(a80.mean)
    stab_text = (f"<= {round_tol:.0e} (1e3 eps |A1(80)|)" if stab <= round_tol
                 else f"= {stab:.1e}")
    report(4, f"d=1: |A1_fit - A1(80)| = {gap:.4f} <= {3 * combined:.4f}, "
              f"|A1(40)-A1(80)| {stab_text}; d=2: gap {gap2:.4f} <= {3 * combined2:.4f}; "
              f"A2 = {a2.mean:.4f}+-{a2.stderr:.4f} (fit {fit2.A_hat[2]:.4f}, "
              f"gap {a2_gap:.4f}, logged)", t0)


def test_criterion_05_decay_certification(decay_bundle):
    t0 = time.time()
    kernel, tdiff = decay_bundle
    assert kernel.params["mu"] > 0
    assert kernel.r2 >= 0.95
    assert tdiff.params["q_tilde"] >= 4.0
    assert tdiff.r2 >= 0.9
    report(5, f"kernel mu = {kernel.params['mu']:.3f} (R2 = {kernel.r2:.3f}); "
              f"q~ = {tdiff.params['q_tilde']:.2f} (R2 = {tdiff.r2:.3f})", t0)


def test_criterion_06_convergence_rate(d1_bundle, decay_bundle):
    t0 = time.time()
    res1, _ = d1_bundle
    _, tdiff = decay_bundle
    q_tilde = tdiff.params["q_tilde"]
    a80 = res1.a_fv(80, 1).mean
    ls, gaps = [], []
    for L in (10, 20, 40):
        ls.append(L)
        gaps.append(max(abs(res1.a_fv(L, 1).mean - a80), 1e-16))
    slope = ols_line(np.log(ls), np.log(gaps)).slope
    threshold = -(q_tilde - 2.0) / 2.0
    assert slope <= threshold
    report(6, f"loglog slope {slope:.2f} <= -(q~-2)/2 = {threshold:.2f}", t0)


def test_criterion_07_log_enhancement_dichotomy():
    t0 = time.time()
    fermi = ScalarFunction.indicator(-np.inf, 2.0)
    h_ent = ScalarFunction.poly((0.0, 1.0, -1.0))
    grid = [48, 96, 144, 192, 240, 288, 336, 384]
    free = log_enhancement_probe(EnsembleSpec("free"), fermi, h_ent, grid, 1)
    assert free["classification"] == "enhanced"
    assert free["alpha"] - 2.0 * free["alpha_stderr"] > 0     # > 0 at 95%
    anderson = log_enhancement_probe(EnsembleSpec("anderson", W=8.0, seed=21),
                                     fermi, h_ent, grid, 24, workers=2)
    assert abs(anderson["alpha"]) <= 2.0 * anderson["alpha_stderr"]
    report(7, f"free alpha = {free['alpha']:.4f}+-{free['alpha_stderr']:.4f} enhanced; "
              f"Anderson alpha = {anderson['alpha']:.4f}+-{anderson['alpha_stderr']:.4f} flat",
           t0)


def test_criterion_08_functional_calculus_oracle(rng):
    t0 = time.time()
    f = ScalarFunction.bump(0.0, 2.0, 6)
    ext = hs_extension(f, 4)
    worst = 0.0
    for _ in range(20):
        m = rand_hermitian(rng, 16, complex_entries=True)
        m *= 0.8 / np.abs(np.linalg.eigvalsh(m)).max()
        err = hs_discrepancy(HermitianOperator.from_matrix(m), ext)
        worst = max(worst, err)
        assert err <= 1e-5
    report(8, f"max ||hs - spectral|| = {worst:.2e} over 20 matrices (<= 1e-5)", t0)


def test_criterion_09_partition_free_adjudication(d1_bundle, d2_bundle, tmp_path):
    t0 = time.time()
    res1, _ = d1_bundle
    verdict = res1.adjudicate(80, 1)
    matched = [k for k, v in verdict["candidates"].items() if v["matches"]]
    assert len(matched) >= 1            # the suite fails only if neither matches
    write_coefficients(str(tmp_path), res1, 80)
    recorded = json.loads((tmp_path / "coefficients.json").read_text()
                          )["c_tilde_adjudication"][0]["winner"]
    assert recorded == verdict["winner"]
    # d = 2 diagnostics (logged): the m = 2 sums genuinely separate the two
    # normalizations through the wedge symmetrization
    res2, _ = d2_bundle
    v2 = res2.adjudicate(10, 2)
    matched2 = [k for k, v in v2["candidates"].items() if v["matches"]]
    assert len(matched2) >= 1
    report(9, f"d=1 winner = {verdict['winner']} (matched: {matched}); recorded; "
              f"d=2 m=2 winner = {v2['winner']}", t0)
    assert verdict["winner"] == "recurrence"   # discriminating at this budget


CRITERION4_D1_INI = """
[experiment]
kind = expansion_fit
seed = 7
samples = 200
out = {out}
workers = {workers}
d = 1

[ensemble]
kind = anderson
W = 8.0
hopping = 1.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[sweep]
ells = 20 40 60 80
R = 200
formula_L = 80
gate_crosscheck = true
"""


def test_criterion_10_worker_determinism(tmp_path):
    t0 = time.time()
    outs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        cfg = tmp_path / f"c{workers}.ini"
        cfg.write_text(CRITERION4_D1_INI.format(out=out, workers=workers))
        assert run_experiment(str(cfg)) == 0
        outs[workers] = out
    for name in ("fit-report.json", "sweep.csv", "coefficients.json"):
        b1 = (outs[1] / name).read_bytes()
        b4 = (outs[4] / name).read_bytes()
        assert b1 == b4, f"{name} differs between 1 and 4 workers"
    report(10, "byte-identical fit-report.json, sweep.csv, coefficients.json "
               "across 1 vs 4 workers", t0)
