import math

import numpy as np
import pytest

from szegolab import decay, mc
from szegolab.errors import ConfigError, DegenerateFitError, ModelError
from szegolab.lattices import EnsembleSpec, LatticeBox, Symbol1D, operator_bytes
from szegolab.regions import CoordRange, Orthant, Region
from szegolab.spectral import ScalarFunction
from szegolab.decay import (SpectralWindow, certify_a1, combes_thomas_probe,
                            fit_kernel_decay, kernel_box_stats,
                            trace_difference_probe)

G_BUMP = ScalarFunction.bump(2.0, 3.0, 4)
H_SQUARE = ScalarFunction.poly((0.0, 0.0, 1.0))
ANDERSON = EnsembleSpec("anderson", W=8.0, seed=3)
BOX64 = LatticeBox.interval(0, 63)


def test_certify_a1_off_spectrum():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    cert = certify_a1(kernel_box_stats(ANDERSON, g_off, LatticeBox.interval(0, 19), 5), 1.0)
    assert cert.C_p_estimate < 1e-18


def test_certify_a1_bounded_by_sup_g():
    cert = certify_a1(kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 31), 20), 0.5)
    assert 0.0 < cert.C_p_estimate <= 1.0 + 1e-12      # |g| <= 1 bounds every block


def test_certify_a1_p_independent_on_one_site_cells():
    stats = kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 19), 10)
    a = certify_a1(stats, 0.5)
    b = certify_a1(stats, 2.0)
    assert a.C_p_estimate == b.C_p_estimate


def test_certify_a1_two_scale_stability():
    a = certify_a1(kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 39), 40), 1.0)
    b = certify_a1(kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 79), 40), 1.0)
    assert abs(a.C_p_estimate - b.C_p_estimate) <= 0.05 * max(a.C_p_estimate, b.C_p_estimate)


def test_fit_kernel_decay_degenerate():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    with pytest.raises(DegenerateFitError):
        fit_kernel_decay(kernel_box_stats(ANDERSON, g_off, LatticeBox.interval(0, 31), 3))


def test_fit_kernel_decay_needs_room():
    with pytest.raises(ConfigError):
        fit_kernel_decay(kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 7), 3))


def test_free_chain_smooth_g_polynomial_decay():
    # smooth compactly supported g on the free chain: fast polynomial decay,
    # fitted exponent at least 6 for a C^8 bump inside the band
    g_smooth = ScalarFunction.bump(2.0, 2.4, 8)
    stats = kernel_box_stats(EnsembleSpec("free"), g_smooth, LatticeBox.interval(0, 255), 1)
    rep = fit_kernel_decay(stats, mode="polynomial")
    assert rep.params["q"] >= 6.0


def test_anderson_exponential_decay():
    rep = fit_kernel_decay(kernel_box_stats(ANDERSON, G_BUMP, BOX64, 100),
                           mode="exponential")
    assert rep.params["mu"] > 0
    assert rep.r2 >= 0.95


def test_combes_thomas_theta_scan_reports_best():
    # the probe takes theta as an input; scanning is the caller's choice
    stats = kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 31), 20,
                             [complex(2.5, 0.0)])
    best = None
    for theta in (0.25, 0.5, 1.0):
        rep = combes_thomas_probe(stats, theta=theta)
        if best is None or rep.r2 > best[1]:
            best = (theta, rep.r2)
    assert best is not None and 0 < best[0] <= 1.0


def test_kernel_box_running_stats_match_stacked_reductions():
    # the pass's running sum and max give the stacked mean and max bit for bit
    from szegolab.coefficients import block_of_gH, spectral_data
    mats = []
    for s in range(40):
        lam, u, gl = spectral_data(ANDERSON, BOX64, s, G_BUMP)
        mats.append(np.abs(block_of_gH(u, gl[gl != 0])))
    stats = kernel_box_stats(ANDERSON, G_BUMP, BOX64, 40, workers=2)
    assert np.array_equal(stats.abs_sum / 40, np.mean(np.stack(mats), axis=0))
    assert np.array_equal(stats.abs_max, np.max(np.stack(mats), axis=0))
    i, j = np.unravel_index(int(np.argmax(stats.abs_max)), stats.abs_max.shape)
    first = next(s for s, m in enumerate(mats) if m[i, j] == stats.a1_value)
    assert stats.a1_argmax == ((i,), (j,), first)


def test_kernel_box_memory_does_not_grow_with_samples():
    import tracemalloc
    zs = [complex(2.5, 0.0), complex(3.0, 0.0)]
    kernel_box_stats(ANDERSON, G_BUMP, BOX64, 2, zs)       # warm caches first
    peaks = []
    for n_samples in (40, 160):
        tracemalloc.start()
        try:
            kernel_box_stats(ANDERSON, G_BUMP, BOX64, n_samples, zs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks


def test_combes_thomas_far_z_trivial_bound():
    box = LatticeBox.interval(0, 23)
    rep = combes_thomas_probe(kernel_box_stats(ANDERSON, G_BUMP, box, 10,
                                               [complex(3.0, 0.0)]))
    # every reported raw value obeys the resolvent norm bound at distance >= 2
    assert rep.notes["hard_resolvent_bound_ok"]
    window_hi = rep.notes["window"][1]
    dist = 3.0 - window_hi
    assert all(v <= 1.0 / dist + 1e-8 for v in rep.raw["values"])


def _eigh_g_of_H(spec, box, sample_id):
    """g(eigenvalues) and all eigenvectors of one sample, from ``np.linalg.eigh``."""
    from szegolab.lattices import build_operator
    lam, u = np.linalg.eigh(build_operator(spec, box, sample_id).matrix)
    return np.real(G_BUMP(lam)), u


def test_combes_thomas_diagonal_matches_eigenoracle():
    box = LatticeBox.interval(0, 15)
    spec = EnsembleSpec("anderson", W=8.0, seed=5)
    gl, u = _eigh_g_of_H(spec, box, 0)
    z = complex(2.5, 0.0)
    res = (u * (1.0 / (gl - z))[None, :]) @ u.conj().T
    dist = np.min(np.abs(gl - z))
    assert np.abs(np.diagonal(res)).max() <= 1.0 / dist + 1e-8


@pytest.mark.parametrize("box", [LatticeBox.interval(0, 31), LatticeBox.cube(2, 0, 7)],
                         ids=["d1", "d2"])
def test_kernel_box_resolvent_completion_matches_resolvent_of_g_of_H(box):
    # R_z(0) I + U (R_z(g) - R_z(0)) U* over the kept columns is R_z(g(H))
    from szegolab.lattices import HermitianOperator, build_operator
    from szegolab.spectral import matrix_function, resolvent
    zs = [complex(2.5, 0.0), complex(0.5, 0.75)]
    stats = kernel_box_stats(ANDERSON, G_BUMP, box, 2, zs)
    for z in zs:
        want = sum(resolvent(HermitianOperator(box, matrix_function(
            build_operator(ANDERSON, box, s), G_BUMP).matrix), z) for s in range(2))
        assert np.max(np.abs(stats.resolvent_sums[z] - want)) <= 1e-12


def test_combes_thomas_regression_quality():
    stats = kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 47), 60,
                             [complex(2.5, 0.0)])
    rep = combes_thomas_probe(stats, theta=1.0)
    assert rep.params["mu"] > 0
    assert rep.r2 >= 0.9


def test_combes_thomas_rejects_z_in_window():
    with pytest.raises(ConfigError):
        combes_thomas_probe(kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 23), 5,
                                             [complex(0.5, 0.0)]))


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
    lam, u, gl = spectral_data(ANDERSON, rep_box, 0, G_BUMP)
    coords = rep_box.sites()
    d_in = _restricted_diag(u, gl, inner.evaluate(coords), ScalarFunction.identity())
    d_out = _restricted_diag(u, gl, OUTER.evaluate(coords), ScalarFunction.identity())
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
    box = LatticeBox.interval(-20, 79)
    inner = Region(1, (CoordRange(0, 0, 29),))
    in_bits = inner.evaluate(box.sites())
    out_bits = OUTER.evaluate(box.sites())
    total = None
    for s in range(6):
        gl, u = _eigh_g_of_H(ANDERSON, box, s)
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



# ---------------------------------------------------------------------------
# one fit path: the raw pairs of every probe
# ---------------------------------------------------------------------------

def _usable_envelope(dist, vals, monotone=False):
    """Per-distance maxima over the finite distances, optionally made monotone,
    then the points at distance >= 3 above 1e-14; written out with loops."""
    best = {}
    for r, v in zip(np.ravel(dist).tolist(), np.ravel(vals).tolist()):
        if math.isfinite(r):
            best[float(r)] = max(best.get(float(r), -math.inf), v)
    rs = sorted(best)
    vs = [best[r] for r in rs]
    if monotone:
        vs = [max(vs[i:]) for i in range(len(vs))]
    kept = [(r, v) for r, v in zip(rs, vs) if r >= 3 and v > 1e-14]
    return [r for r, _ in kept], [v for _, v in kept]


def test_raw_pairs_are_the_usable_envelope_points():
    box = LatticeBox.interval(0, 47)
    stats = kernel_box_stats(ANDERSON, G_BUMP, box, 10, [complex(2.5, 0.0), complex(3.0, 0.0)])
    x = box.sites()[:, 0]
    dist = np.abs(x[:, None] - x[None, :])
    floored = 0
    for mode in ("polynomial", "exponential"):
        stat = stats.abs_max if mode == "polynomial" else stats.abs_sum / stats.n_samples
        rep = fit_kernel_decay(stats, mode=mode)
        want = _usable_envelope(dist, stat, monotone=mode == "polynomial")
        assert (rep.raw["distances"], rep.raw["values"]) == want
        floored += len(np.unique(dist[dist >= 3])) - len(want[0])
    for theta in (1.0, 0.5):
        rep = combes_thomas_probe(stats, theta=theta)
        want_d, want_v = [], []
        for total in stats.resolvent_sums.values():
            d_z, v_z = _usable_envelope(dist, np.abs(total / stats.n_samples))
            want_d += d_z
            want_v += v_z
        assert (rep.raw["distances"], rep.raw["values"]) == (want_d, want_v)
    assert floored > 0      # the floor did drop points: the check is not vacuous

    from szegolab.coefficients import _restricted_diag, spectral_data
    coords = TBOX.sites()
    in_bits, out_bits = INNER.evaluate(coords), OUTER.evaluate(coords)
    rows = []
    for s in range(4):
        lam, u, gl = spectral_data(ANDERSON, TBOX, s, G_BUMP)
        rows.append(_restricted_diag(u, gl, in_bits, H_SQUARE, spectral=True)
                    - _restricted_diag(u, gl, out_bits, H_SQUARE, spectral=True))
    mean = np.abs(sum(rows) / 4)
    rep = trace_difference_probe(ANDERSON, G_BUMP, H_SQUARE, INNER, OUTER, TBOX, 4)
    # the boundary of [0, 59] in the half line is the site 60
    want = _usable_envelope(60 - coords[in_bits, 0], mean[in_bits])
    assert (rep.raw["distances"], rep.raw["values"]) == want


COMPLEX_TOEPLITZ = EnsembleSpec("toeplitz1d",
                                symbol=Symbol1D.from_dict({0: 2.0, 1: 0.5j, -1: -0.5j}))


@pytest.mark.parametrize("probe", ["kernel", "trace"])
def test_complex_toeplitz_samples_are_sized_at_16_bytes(monkeypatch, probe):
    # a budget between the 8- and 16-byte sample estimates refuses a complex sample
    box = LatticeBox.interval(0, 19)
    n = box.site_count
    if probe == "kernel":
        rest = (16 + 8 + 16) * n * n        # g(H) and |g(H)|, then the held sum and max
        run = lambda: kernel_box_stats(COMPLEX_TOEPLITZ, G_BUMP, box, 2)
    else:
        rest = 16 * n                       # the returned row and the held total
        inner = Region(1, (CoordRange(0, 0, 9),))
        run = lambda: trace_difference_probe(COMPLEX_TOEPLITZ, G_BUMP, H_SQUARE, inner,
                                             Region(1, ()), box, 2)
    budget = (operator_bytes(n, 8) + operator_bytes(n, 16)) // 2 + rest
    monkeypatch.setattr(mc, "MEMORY_BUDGET_BYTES", budget)     # where the fold reads it
    sampled = []
    real = decay.spectral_data
    monkeypatch.setattr(decay, "spectral_data", lambda *a: sampled.append(a) or real(*a))
    with pytest.raises(ModelError):
        run()
    assert sampled == []
