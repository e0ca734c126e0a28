import math

import numpy as np
import pytest

from szegolab.errors import ConfigError, DegenerateFitError
from szegolab.lattices import EnsembleSpec, LatticeBox
from szegolab.regions import CoordRange, Orthant, Region
from szegolab.spectral import ScalarFunction
from szegolab.decay import (SpectralWindow, certify_a1, combes_thomas_probe,
                            fit_kernel_decay, holo_constant,
                            holo_constant_matrix, trace_difference_probe)

G_BUMP = ScalarFunction.bump(2.0, 3.0, 4)
H_SQUARE = ScalarFunction.poly((0.0, 0.0, 1.0))
ANDERSON = EnsembleSpec("anderson", W=8.0, seed=3)
BOX64 = LatticeBox.interval(0, 63)


def test_certify_a1_off_spectrum():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    cert = certify_a1(ANDERSON, g_off, 1.0, LatticeBox.interval(0, 19), 5)
    assert cert.value < 1e-18


def test_certify_a1_bounded_by_sup_g():
    cert = certify_a1(ANDERSON, G_BUMP, 0.5, LatticeBox.interval(0, 31), 20)
    assert 0.0 < cert.value <= 1.0 + 1e-12      # |g| <= 1 bounds every block


def test_certify_a1_p_independent_on_one_site_cells():
    a = certify_a1(ANDERSON, G_BUMP, 0.5, LatticeBox.interval(0, 19), 10)
    b = certify_a1(ANDERSON, G_BUMP, 2.0, LatticeBox.interval(0, 19), 10)
    assert a.value == b.value


def test_certify_a1_two_scale_stability():
    a = certify_a1(ANDERSON, G_BUMP, 1.0, LatticeBox.interval(0, 39), 40)
    b = certify_a1(ANDERSON, G_BUMP, 1.0, LatticeBox.interval(0, 79), 40)
    assert abs(a.value - b.value) <= 0.05 * max(a.value, b.value)


def test_fit_kernel_decay_degenerate():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    with pytest.raises(DegenerateFitError):
        fit_kernel_decay(ANDERSON, g_off, LatticeBox.interval(0, 31), 3)


def test_fit_kernel_decay_needs_room():
    with pytest.raises(ConfigError):
        fit_kernel_decay(ANDERSON, G_BUMP, LatticeBox.interval(0, 7), 3)


def test_free_chain_smooth_g_polynomial_decay():
    # smooth compactly supported g on the free chain: fast polynomial decay,
    # fitted exponent at least 6 for a C^8 bump inside the band
    g_smooth = ScalarFunction.bump(2.0, 2.4, 8)
    rep = fit_kernel_decay(EnsembleSpec("free"), g_smooth,
                           LatticeBox.interval(0, 255), 1, mode="polynomial")
    assert rep.params["q"] >= 6.0


def test_anderson_exponential_decay():
    rep = fit_kernel_decay(ANDERSON, G_BUMP, BOX64, 100, mode="exponential")
    assert rep.params["mu"] > 0
    assert rep.r2 >= 0.95


def test_stretched_mode_fits_with_theta():
    rep = fit_kernel_decay(ANDERSON, G_BUMP, LatticeBox.interval(0, 31), 40,
                           mode="stretched")
    assert rep.mode == "stretched" and rep.theta == 1.0
    assert rep.params["mu"] > 0


def test_combes_thomas_theta_scan_reports_best():
    # the probe takes theta as an input; scanning is the caller's choice
    box = LatticeBox.interval(0, 31)
    best = None
    for theta in (0.25, 0.5, 1.0):
        rep = combes_thomas_probe(ANDERSON, G_BUMP, box, 20,
                                  [complex(2.5, 0.0)], theta=theta)
        if best is None or rep.r2 > best[1]:
            best = (theta, rep.r2)
    assert best is not None and 0 < best[0] <= 1.0


def test_report_refits_bit_identically():
    rep = fit_kernel_decay(ANDERSON, G_BUMP, LatticeBox.interval(0, 31), 20)
    again = rep.refit()
    assert again.params == rep.params
    assert again.prefactor == rep.prefactor and again.r2 == rep.r2


def test_holo_constant_identity_matrix():
    # diagonal A = 1: the only block is at distance 0 with weight 2^q' - 1
    coords = LatticeBox.interval(0, 9).sites()
    value, inner = holo_constant_matrix(np.eye(10), coords, qprime=2.0)
    assert inner == 3.0 and value == 5.0


def test_holo_constant_zero_matrix():
    coords = LatticeBox.interval(0, 9).sites()
    value, inner = holo_constant_matrix(np.zeros((10, 10)), coords, qprime=2.0)
    assert value == 2.0 and inner == 0.0


def test_holo_constant_banded_matches_bruteforce():
    v = 0.3
    n = 12
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = v
    coords = LatticeBox.interval(0, n - 1).sites()
    value, inner = holo_constant_matrix(a, coords, qprime=1.0)
    # oracle: brute-force site sums
    best = 0.0
    for i in range(n):
        s = sum(abs(a[i, j]) * ((abs(i - j) + 2.0) ** 1.0 - 1.0) for j in range(n))
        best = max(best, s)
    assert abs(inner - best) < 1e-14
    assert abs(inner - 2 * v * 2.0) < 1e-14      # interior rows: two blocks at distance 1


def test_holo_constant_probe_runs():
    rep = holo_constant(ANDERSON, G_BUMP, q_tilde=1.0, box=LatticeBox.interval(0, 31),
                        n_samples=10)
    assert rep.value > 2.0
    assert rep.qprime == 1.0 + 1 + 0.25
    with pytest.raises(ConfigError):
        holo_constant(ANDERSON, G_BUMP, q_tilde=4.0, box=LatticeBox.interval(0, 31),
                      n_samples=2, certified_q=5.0)


def test_combes_thomas_far_z_trivial_bound():
    box = LatticeBox.interval(0, 23)
    rep = combes_thomas_probe(ANDERSON, G_BUMP, box, 10, [complex(3.0, 0.0)])
    # every reported raw value obeys the resolvent norm bound at distance >= 2
    assert rep.notes["hard_resolvent_bound_ok"]
    window_hi = rep.notes["window"][1]
    dist = 3.0 - window_hi
    assert all(v <= 1.0 / dist + 1e-8 for v in rep.raw_values)


def test_combes_thomas_diagonal_matches_eigenoracle():
    box = LatticeBox.interval(0, 15)
    spec = EnsembleSpec("anderson", W=8.0, seed=5)
    from szegolab.lattices import build_operator
    from szegolab.coefficients import spectral_data
    lam, u, gl = spectral_data(spec, box, 0, G_BUMP)
    z = complex(2.5, 0.0)
    res = (u * (1.0 / (gl - z))[None, :]) @ u.conj().T
    dist = np.min(np.abs(gl - z))
    assert np.abs(np.diagonal(res)).max() <= 1.0 / dist + 1e-8


def test_combes_thomas_regression_quality():
    rep = combes_thomas_probe(ANDERSON, G_BUMP, LatticeBox.interval(0, 47), 60,
                              [complex(2.5, 0.0)], theta=1.0)
    assert rep.params["mu"] > 0
    assert rep.r2 >= 0.9


def test_combes_thomas_rejects_z_in_window():
    with pytest.raises(ConfigError):
        combes_thomas_probe(ANDERSON, G_BUMP, LatticeBox.interval(0, 23), 5,
                            [complex(0.5, 0.0)])


def test_spectral_window_distance():
    w = SpectralWindow()
    w.update(np.array([0.0, 1.0]))
    assert w.distance(complex(2.0, 0.0)) == 1.0
    assert abs(w.distance(complex(0.5, 0.3)) - 0.3) < 1e-14


# ---------------------------------------------------------------------------
# trace-difference probe
# ---------------------------------------------------------------------------

INNER = Region(1, (CoordRange(0, 0, 59),))
OUTER = Region(1, (Orthant(0, +1),))
TBOX = LatticeBox.interval(-40, 159)


def test_trace_difference_identity_h_deep_inside():
    # with h = identity both restrictions carry the same diagonal inside, so
    # every probe value is exactly zero and the fit is degenerate by design
    rep_box = LatticeBox.interval(-20, 79)
    inner = Region(1, (CoordRange(0, 0, 29),))
    from szegolab.coefficients import spectral_data, _restricted_diag
    from szegolab.regions import region_mask
    lam, u, gl = spectral_data(ANDERSON, rep_box, 0, G_BUMP)
    d_in = _restricted_diag(u, gl, region_mask(inner, rep_box).bits, ScalarFunction.identity())
    d_out = _restricted_diag(u, gl, region_mask(OUTER, rep_box).bits, ScalarFunction.identity())
    idx = [rep_box.index_of((10,)), rep_box.index_of((15,))]
    assert all(d_in[i] - d_out[i] == 0.0 for i in idx)
    with pytest.raises(DegenerateFitError):
        trace_difference_probe(ANDERSON, G_BUMP, ScalarFunction.identity(),
                               inner, OUTER, rep_box, 4)


def test_trace_difference_off_spectrum():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    with pytest.raises(DegenerateFitError):
        trace_difference_probe(ANDERSON, g_off, H_SQUARE, INNER, OUTER, TBOX, 3)


def test_trace_difference_fit_quality():
    rep = trace_difference_probe(ANDERSON, G_BUMP, H_SQUARE, INNER, OUTER, TBOX, 80)
    assert rep.params["q_tilde"] >= 4.0
    assert rep.r2 >= 0.9


def test_trace_difference_pair_values_swap_symmetric():
    # the averaged kernel block of the Hermitian difference is symmetric in
    # (a, b) up to conjugation, so probe values cannot depend on the order
    from szegolab.coefficients import spectral_data
    from szegolab.regions import region_mask
    box = LatticeBox.interval(-20, 79)
    inner = Region(1, (CoordRange(0, 0, 29),))
    in_bits = region_mask(inner, box).bits
    out_bits = region_mask(OUTER, box).bits
    total = None
    for s in range(6):
        lam, u, gl = spectral_data(ANDERSON, box, s, G_BUMP)
        a = (u * gl[None, :]) @ u.conj().T
        idx_in = np.flatnonzero(in_bits)
        idx_out = np.flatnonzero(out_bits)
        x = np.zeros_like(a)
        sub = a[np.ix_(idx_in, idx_in)]
        mu, v = np.linalg.eigh(sub)
        x[np.ix_(idx_in, idx_in)] = (v * (mu ** 2)[None, :]) @ v.conj().T
        sub = a[np.ix_(idx_out, idx_out)]
        mu, v = np.linalg.eigh(sub)
        x[np.ix_(idx_out, idx_out)] -= (v * (mu ** 2)[None, :]) @ v.conj().T
        total = x if total is None else total + x
    mean = total / 6
    ia, ib = box.index_of((5,)), box.index_of((12,))
    assert abs(abs(mean[ia, ib]) - abs(mean[ib, ia])) < 1e-13


def test_trace_difference_requires_containment():
    bad_inner = Region(1, (CoordRange(0, -60, 200),))
    with pytest.raises(ConfigError):
        trace_difference_probe(ANDERSON, G_BUMP, H_SQUARE, bad_inner, OUTER, TBOX, 2)


def test_resolvent_difference_probe_boundary_decay():
    from szegolab.decay import resolvent_difference_probe
    inner = Region(1, (CoordRange(0, 0, 39),))
    box = LatticeBox.interval(-20, 99)
    rep = resolvent_difference_probe(ANDERSON, G_BUMP, inner, OUTER, box, 30,
                                     [complex(2.5, 0.0), complex(3.0, 0.0)])
    assert rep.params["mu"] > 0
    assert rep.r2 >= 0.85
    with pytest.raises(ConfigError):
        resolvent_difference_probe(ANDERSON, G_BUMP, inner, OUTER, box, 2,
                                   [complex(0.5, 0.0)])
