import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from szegolab.errors import ConfigError
from szegolab.lattices import EnsembleSpec, Symbol1D, symbol_fourier_coefficients
from szegolab import mc
from szegolab.spectral import ScalarFunction
from szegolab.harness import (check_fit_grid, fit_expansion, log_enhancement_probe,
                              sweep_and_fit, szego_1d_suite)
from szegolab.lattices import site_uniforms


def test_mc_constant_estimator():
    mean, stderr = mc.column_moments(np.full((13, 1), 7.0))
    assert mean[0] == 7.0 and stderr[0] == 0.0


def test_mc_two_samples():
    mean, stderr = mc.column_moments(np.array([[1.0], [3.0]]))
    assert mean[0] == 2.0
    assert abs(stderr[0] - 1.0) < 1e-14


def test_mc_stderr_scaling():
    values = np.array([site_uniforms(4, s, np.array([[0]]))[0] for s in range(2000)])
    _, small = mc.column_moments(values[:200, None])
    _, large = mc.column_moments(values[:, None])
    ratio = small[0] / large[0]
    assert 2.5 < ratio < 4.0      # expect ~ sqrt(10)


def test_column_moments_match_scalar_welford_bit_for_bit():
    # the reduction must be Welford's running update, column by column: a
    # pairwise or blocked sum (np.mean, say) differs in the last bits
    rng = np.random.default_rng(2024)
    samples = rng.standard_normal((200, 57)) * np.logspace(-12, 6, 57)
    samples[:, 11] = 0.0
    mean, stderr = mc.column_moments(samples)
    for j in range(samples.shape[1]):
        count, mu, m2 = 0, 0.0, 0.0
        for x in samples[:, j].tolist():
            count += 1
            delta = x - mu
            mu += delta / count
            m2 += delta * (x - mu)
        assert mean[j] == mu, j
        assert stderr[j] == math.sqrt(m2 / (count * (count - 1))), j
    assert mean[11] == 0.0 and stderr[11] == 0.0


@pytest.fixture
def openblas_at_two():
    """The loaded OpenBLAS set to 2 threads; its own count is put back after."""
    controls = mc._openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield lambda: [get() for get, _ in controls]
    for (_, set_), n in zip(controls, before):
        set_(n)


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_pins_blas_to_one_thread(openblas_at_two, workers):
    seen = mc.ordered_map(lambda a: openblas_at_two(), range(3), workers=workers)
    assert all(set(counts) == {1} for counts in seen)
    assert set(openblas_at_two()) == {2}


@pytest.mark.parametrize("workers", [1, 2])
def test_ordered_map_restores_blas_threads_after_failure(openblas_at_two, workers):
    def boom(a):
        raise ValueError("boom")
    with pytest.raises(ValueError):
        mc.ordered_map(boom, range(3), workers=workers)
    assert set(openblas_at_two()) == {2}


def test_sweep_memory_is_its_rows_plus_one_chunk(monkeypatch):
    # with 64 rows to a chunk, ten times the samples add their rows and no
    # more: one map call used to hold every sample's row and pending task,
    # about 1.7 KB each at two workers
    import tracemalloc
    from szegolab.coefficients import coefficient_sweep
    spec, g, h = (EnsembleSpec("anderson", W=8.0, seed=7), ScalarFunction.bump(2.0, 3.0, 4),
                  ScalarFunction.poly((0.0, 0.0, 1.0)))
    sweep = lambda n: coefficient_sweep(spec, 1, g, h, 8, [], n, ells=(2, 4, 6, 8), workers=2)
    row = sweep(2).samples[0].nbytes                       # warms caches too
    monkeypatch.setattr(mc, "CHUNK_BYTES", 64 * row)
    peaks = []
    for n_samples in (200, 2000):
        tracemalloc.start()
        try:
            sweep(n_samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1800 * row + (256 << 10), (peaks, row)


def test_mc_fold_samples_is_the_only_library_caller_of_ordered_map():
    import pathlib
    import re
    import szegolab
    from szegolab import decay
    callers = [path.name for path in sorted(pathlib.Path(szegolab.__file__).parent.glob("*.py"))
               if re.search(r"ordered_map\s*\(", path.read_text(encoding="utf-8"))]
    assert callers == ["mc.py"]
    assert decay.ordered_map is mc.ordered_map      # the name the benchmark patches


def test_single_blas_thread_without_openblas_does_nothing(openblas_at_two, monkeypatch):
    monkeypatch.setattr(mc, "_openblas_controls", lambda: ())
    with mc.single_blas_thread():
        assert set(openblas_at_two()) == {2}
    assert set(openblas_at_two()) == {2}


OPENBLAS_LATER_SCRIPT = textwrap.dedent("""
    import ctypes, json
    from szegolab import mc
    with mc.single_blas_thread():      # before scipy maps its own OpenBLAS
        pass
    import scipy.linalg
    names = [("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
             ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
             ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
             ("openblas_get_num_threads", "openblas_set_num_threads")]
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    controls = []
    for path in paths:
        lib = ctypes.CDLL(path)
        pair = next(p for p in names if all(hasattr(lib, n) for n in p))
        get, set_ = (getattr(lib, n) for n in pair)
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        set_(2)
        controls.append(get)
    with mc.single_blas_thread():
        inside = [get() for get in controls]
    print(json.dumps({"paths": paths, "inside": inside,
                      "after": [get() for get in controls]}))
""")


def test_single_blas_thread_pins_openblas_loaded_later():
    # scipy maps a second OpenBLAS with its own symbol names on import; a pin
    # entered after that must find it, although an earlier pin ran before it
    pytest.importorskip("scipy.linalg")
    src = os.path.dirname(os.path.dirname(os.path.abspath(mc.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", OPENBLAS_LATER_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    if not seen["paths"]:
        pytest.skip("no OpenBLAS loaded")
    assert seen["inside"] == [1] * len(seen["paths"]), seen
    assert seen["after"] == [2] * len(seen["paths"]), seen


def test_fit_expansion_exact_polynomial():
    ells = [4, 6, 8, 10, 12]
    means = [3.0 * e ** 2 + 2.0 * e + 1.0 for e in ells]
    report = fit_expansion(ells, means, None, d=2)
    assert np.max(np.abs(np.array(report.A_hat) - np.array([3.0, 2.0, 1.0]))) < 1e-9


def test_fit_expansion_needs_enough_points():
    with pytest.raises(ConfigError):
        fit_expansion([2, 4], [1.0, 2.0], None, d=1)


@pytest.mark.parametrize("ells", [[-4, 0, 4, 8], [0, 4, 8]])
def test_fit_grid_refuses_an_empty_box(ells):
    # a side below 1 is an empty box whose trace reads 0.0
    with pytest.raises(ConfigError, match="below 1"):
        check_fit_grid(ells, 1)


def test_sweep_identity_h_extensive():
    spec = EnsembleSpec("anderson", W=6.0, seed=9)
    g = ScalarFunction.bump(2.0, 3.0, 4)
    report, res = sweep_and_fit(spec, 1, g, ScalarFunction.identity(),
                                ells=[10, 20, 30], R=50, n_samples=30, formula_L=10)
    # A_hat[1] consistent with zero, A_hat[0] equals the density term
    assert abs(report.A_hat[1]) <= 3.0 * max(report.A_stderr[1], 1e-12)
    a0 = res.stat("A0")
    assert abs(report.A_hat[0] - a0.mean) <= 3.0 * max(
        math.hypot(report.A_stderr[0], a0.stderr), 1e-12)


def test_sweep_cross_check_agreement():
    spec = EnsembleSpec("anderson", W=8.0, seed=7)
    g = ScalarFunction.bump(2.0, 3.0, 4)
    h = ScalarFunction.poly((0.0, 0.0, 1.0))
    report, _ = sweep_and_fit(spec, 1, g, h, ells=[20, 40, 60], R=100,
                              n_samples=40, formula_L=40)
    assert report.cross_check["within_3_sigma"]


def test_free_chain_deterministic_cross_check():
    # polynomial-decay regime: with a smooth g the wedge formula and the
    # deterministic sweep fit agree far below any statistical tolerance
    g = ScalarFunction.bump(2.0, 2.4, 8)
    h = ScalarFunction.poly((0.0, 0.0, 1.0))
    rep, res = sweep_and_fit(EnsembleSpec("free"), 1, g, h,
                             ells=[40, 80, 120, 160], R=200, n_samples=1,
                             formula_L=100)
    assert rep.cross_check["gap"] <= 1e-8
    a0_gap = abs(rep.A_hat[0] - rep.cross_check["A0_formula"].mean)
    assert a0_gap <= 1e-8


def test_fit_covariance_shrinks_with_budget():
    # weighted-fit variance scales like 1/budget, within a factor 4
    spec = EnsembleSpec("anderson", W=8.0, seed=11)
    g = ScalarFunction.bump(2.0, 3.0, 4)
    h = ScalarFunction.poly((0.0, 0.0, 1.0))
    small, _ = sweep_and_fit(spec, 1, g, h, ells=[16, 32, 48], R=60, n_samples=15)
    large, _ = sweep_and_fit(spec, 1, g, h, ells=[16, 32, 48], R=60, n_samples=60)
    ratio = small.covariance[1][1] / large.covariance[1][1]
    assert 1.0 < ratio < 16.0      # expect ~ 4


# ---------------------------------------------------------------------------
# classical 1-D suite
# ---------------------------------------------------------------------------

def test_szego_constant_symbol_all_zero():
    sym = Symbol1D.from_dict({0: 1.0})
    rep = szego_1d_suite(sym, None, [5, 10, 20])
    assert all(abs(v) < 1e-12 for v in rep["logdet"])
    assert abs(rep["strong_szego_sum"]) < 1e-20


def test_szego_expcos_limit():
    sym = symbol_fourier_coefficients(lambda th: np.exp(np.cos(th)), 32, 256)
    rep = szego_1d_suite(sym, None, [50, 100, 400])
    assert abs(rep["log_a_0"]) < 1e-12
    assert abs(rep["strong_szego_sum"] - 0.25) < 1e-10
    gaps = dict(zip(rep["L_grid"], rep["logdet_minus_prediction"]))
    assert abs(gaps[100]) <= 1e-3
    assert abs(gaps[400]) <= 1e-6


def test_szego_trace_linear_h_exact():
    sym = symbol_fourier_coefficients(lambda th: np.exp(np.cos(th)), 16, 128)
    rep = szego_1d_suite(sym, ScalarFunction.poly((0.0, 1.0)), [10, 20, 40])
    a0 = sym.as_dict()[0].real
    for L, t in zip(rep["L_grid"], rep["trace_h"]):
        assert abs(t - L * a0) < 1e-10 * max(1.0, abs(t))


def test_szego_rejects_nonpositive_symbol():
    sym = Symbol1D.from_dict({0: -1.0})
    with pytest.raises(ConfigError):
        szego_1d_suite(sym, None, [5])


def test_szego_rejects_h_without_root():
    sym = Symbol1D.from_dict({0: 2.0})
    with pytest.raises(ConfigError):
        szego_1d_suite(sym, ScalarFunction.poly((1.0, 1.0)), [5])


# ---------------------------------------------------------------------------
# log-enhancement probe
# ---------------------------------------------------------------------------

FERMI = ScalarFunction.indicator(-np.inf, 2.0)
ENTROPYISH = ScalarFunction.poly((0.0, 1.0, -1.0))


def test_log_enhancement_free_fermi_enhanced():
    rep = log_enhancement_probe(EnsembleSpec("free"), FERMI, ENTROPYISH,
                                [48, 96, 144, 192], budget=1)
    assert rep["classification"] == "enhanced"
    assert rep["alpha"] > 0
    assert rep["A0"].mean == 0.0     # h vanishes on a projector's spectrum


def test_log_enhancement_smooth_g_flat():
    g_smooth = ScalarFunction.bump(2.0, 2.4, 6)
    rep = log_enhancement_probe(EnsembleSpec("free"), g_smooth, ENTROPYISH,
                                [48, 96, 144, 192], budget=1)
    assert rep["classification"] == "flat"


def test_log_enhancement_anderson_flat():
    rep = log_enhancement_probe(EnsembleSpec("anderson", W=8.0, seed=21), FERMI,
                                ENTROPYISH, [48, 96, 144, 192], budget=10)
    assert abs(rep["alpha"]) <= 2.0 * rep["alpha_stderr"]


# ---------------------------------------------------------------------------
# other ensembles through the same pipelines
# ---------------------------------------------------------------------------

def test_sweep_periodic_ensemble_runs():
    spec = EnsembleSpec("periodic", period=(2,), potential_cell=(0.5, -0.5))
    g = ScalarFunction.bump(2.0, 3.0, 4)
    h = ScalarFunction.poly((0.0, 0.0, 1.0))
    report, res = sweep_and_fit(spec, 1, g, h, ells=[16, 32, 48], R=60,
                                n_samples=1, formula_L=20)
    assert np.isfinite(report.A_hat).all()
    assert res.a_fv(20, 1).stderr == 0.0       # deterministic ensemble


def test_periodic_hull_average_agrees_across_routes():
    # samples 0..2 enumerate the three translates of the cell, so the wedge A_1
    # and the fitted A_1 agree without Monte Carlo noise; at one fixed phase
    # they were 6.4% apart
    spec = EnsembleSpec("periodic", period=(3,), potential_cell=(0.0, 1.5, -0.7))
    g = ScalarFunction.bump(1.0, 4.0, 4)
    h = ScalarFunction.poly((0.0, 0.0, 1.0))
    report, _ = sweep_and_fit(spec, 1, g, h, ells=list(range(12, 31, 3)), R=80,
                              n_samples=3, formula_L=30)
    wedge = report.cross_check["A1_formula"].mean
    assert abs(report.A_hat[1] - wedge) <= 1e-6 * abs(wedge)


def test_toeplitz_ensemble_through_build_and_trace():
    from szegolab.lattices import build_operator, LatticeBox
    sym = symbol_fourier_coefficients(lambda th: np.exp(np.cos(th)), 16, 128)
    spec = EnsembleSpec("toeplitz1d", symbol=sym)
    op = build_operator(spec, LatticeBox.interval(0, 49), 0)
    assert np.abs(op.matrix - op.matrix.conj().T).max() <= 1e-12
    assert abs(np.trace(op.matrix) - 50 * sym.as_dict()[0].real) < 1e-10
