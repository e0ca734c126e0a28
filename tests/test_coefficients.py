import functools
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from szegolab import mc
from szegolab.errors import ConfigError
from szegolab.lattices import EnsembleSpec, LatticeBox, Symbol1D
from szegolab.regions import orthant_region
from szegolab.spectral import ScalarFunction
from szegolab.cli import write_coefficients
from szegolab.harness import sweep_and_fit
from szegolab.coefficients import (c_constant, c_tilde_printed, c_tilde_recurrence,
                                   chi_hat_region, coefficient_sweep,
                                   decomposition_identity_probe,
                                   inclusion_exclusion_check, k_vectors,
                                   make_sweep_plan, partition_block_sizes, perm_block,
                                   pi0_for_block, sd_partition_residual, spectral_data,
                                   telescoping_check)
from tests.conftest import rand_hermitian

G_BUMP = ScalarFunction.bump(2.0, 3.0, 4)
H_SQUARE = ScalarFunction.poly((0.0, 0.0, 1.0))
H_CUBE = ScalarFunction.poly((0.0, 0.0, 0.0, 1.0))
H_ID = ScalarFunction.identity()
ANDERSON = EnsembleSpec("anderson", W=8.0, seed=7)


def chi_hat_sites(m, n, box, L):
    bits = chi_hat_region(box.d, m, n, L).evaluate(box.sites())
    return {tuple(map(int, s)) for s in box.sites()[bits]}


# ---------------------------------------------------------------------------
# combinatorial constants
# ---------------------------------------------------------------------------

def test_constants_d2_values():
    assert c_constant(2, 1, 1) == 4
    assert c_constant(2, 2, 1) == -8
    assert c_constant(2, 2, 2) == 8


def test_ctilde_d1_values():
    assert c_constant(1, 1, 1) == 2
    assert c_tilde_printed(1, 1, 0) == Fraction(-1, 2)
    assert c_tilde_recurrence(1, 1, 0) == -2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_c_recurrence_exact(d):
    for m in range(1, d + 1):
        for n in range(0, m):
            assert c_constant(d, m, n + 1) == -(m - n) * c_constant(d, m, n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ctilde_variants_differ_by_4_to_m(d):
    for m in range(1, d + 1):
        for n in range(0, m + 1):
            assert c_tilde_recurrence(d, m, n) == 4 ** m * c_tilde_printed(d, m, n)


def written_coefficients(tmp_path, res, L):
    """The coefficients.json that the command line writes for ``res`` at depth L."""
    write_coefficients(str(tmp_path), res, L)
    return json.loads((tmp_path / "coefficients.json").read_text())


def test_comb_constants_table(tmp_path):
    t = written_coefficients(tmp_path, coefficient_sweep(ANDERSON, 3, G_BUMP, H_SQUARE,
                                                         2, [1], 1), 1)
    assert Fraction(t["c"]["3"]["3"]) == Fraction(8 * 6, 1)
    assert Fraction(t["c_tilde_recurrence"]["2"]["2"]) == c_constant(3, 2, 2) / 2
    assert Fraction(t["c_tilde_printed"]["0"]["0"]) == 1


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3) for n in range(1, d + 1)])
def test_partition_block_sizes_sum_to_factorial(d, n):
    assert partition_block_sizes(d, n) == math.factorial(d)


def test_pi0_inverse_lies_in_block():
    for d in (2, 3):
        for n in range(1, d + 1):
            for l in range(d):
                for k in k_vectors(d, n, l):
                    pi0 = pi0_for_block(d, n, k, l)
                    inv = tuple(np.argsort(pi0))
                    assert inv[:n] == tuple(k) + (l,)
                    assert inv in set(perm_block(d, n, k, l))


# ---------------------------------------------------------------------------
# wedge masks
# ---------------------------------------------------------------------------

def test_chi_hat_d1_is_orthant():
    assert chi_hat_sites(1, 1, LatticeBox.interval(-3, 3), 4) == {(0,), (1,), (2,), (3,)}


def test_chi_hat_d2_m2_n1_strict_domination():
    # domination x_1 >= x_2 is the exact slot-order complement of the chain
    # constraint, which on the lattice is the strict inequality x_2 < x_1
    assert chi_hat_sites(2, 1, LatticeBox.cube(2, 0, 2), 3) == {(1, 0), (2, 0), (2, 1)}


def test_chi_hat_d2_m1_layer_convention():
    assert chi_hat_sites(1, 1, LatticeBox.cube(2, 0, 2), 3) == {(0, 0), (1, 0), (2, 0)}


def test_chi_hat_partition_with_complement():
    # for d = 2 the two m = 2 wedges tile the quadrant exactly
    box = LatticeBox.cube(2, 0, 4)
    m21 = chi_hat_region(2, 2, 1, 5).evaluate(box.sites()).astype(int)
    m22 = chi_hat_region(2, 2, 2, 5).evaluate(box.sites()).astype(int)
    assert np.array_equal(m21 + m22, np.ones(box.site_count, dtype=int))


def test_chi_hat_rejects_bad_indices():
    with pytest.raises(ConfigError):
        chi_hat_region(2, 1, 2, 3)


# ---------------------------------------------------------------------------
# the per-sample spectral kernel
# ---------------------------------------------------------------------------

def test_block_of_gH_matches_eigen_route():
    from szegolab.coefficients import block_of_gH, spectral_data
    from szegolab.lattices import build_operator
    from szegolab.spectral import matrix_function
    box = LatticeBox.centered(2, 6)
    lam, u, gl = spectral_data(ANDERSON, box, 0, G_BUMP)
    assert 0 < np.count_nonzero(gl) < gl.size      # zero-weight pairs are skipped
    ref = matrix_function(build_operator(ANDERSON, box, 0), G_BUMP).matrix
    assert np.max(np.abs(block_of_gH(u, gl[gl != 0]) - ref)) <= 1e-12
    idx = np.arange(0, box.site_count, 3)
    assert np.max(np.abs(block_of_gH(u, gl[gl != 0], idx) - ref[np.ix_(idx, idx)])) <= 1e-12


# ---------------------------------------------------------------------------
# the sample eigensolver: LAPACK's dsyevd stages, kept columns only
# ---------------------------------------------------------------------------

JACOBI_SPECS = {
    "anderson": ANDERSON,
    "periodic": EnsembleSpec("periodic", period=(3,), potential_cell=(0.0, 1.5, -0.7)),
    "free": EnsembleSpec("free"),
    "hopping0": EnsembleSpec("anderson", W=3.0, hopping=0.0, seed=2),   # all degenerate
}
G_NOWHERE_ZERO = ScalarFunction.poly((1.0,))       # keeps every eigenvector

needs_lapacke = pytest.mark.skipif(mc.lapacke_eigensolver() is None,
                                   reason="numpy's OpenBLAS does not export the "
                                          "LAPACKE dsytrd, dstedc and dormtr")


def _count_eigh(monkeypatch):
    calls = []

    def counted(a, *args, _orig=np.linalg.eigh, **kwargs):
        calls.append(a.shape)
        return _orig(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def _kept_reference(spec, box, sample_id, g):
    """Eigenvalues, kept eigenvectors and g(eigenvalues) from ``np.linalg.eigh``."""
    from szegolab.lattices import build_operator
    lam, u = np.linalg.eigh(build_operator(spec, box, sample_id).matrix)
    gl = np.real(g(lam))
    return lam, u[:, gl != 0], gl


@needs_lapacke
@pytest.mark.parametrize("kind", sorted(JACOBI_SPECS))
@pytest.mark.parametrize("n", [1, 2, 25, 26, 64, 200, 400])
def test_d1_route_is_bit_identical_to_eigh(kind, n):
    from szegolab.coefficients import spectral_data
    spec, box = JACOBI_SPECS[kind], LatticeBox.interval(-(n // 2), n - n // 2 - 1)
    for g in (G_BUMP, G_NOWHERE_ZERO):
        lam, u, gl = _kept_reference(spec, box, 1, g)
        got_lam, got_u, got_gl = spectral_data(spec, box, 1, g)
        assert np.array_equal(got_lam, lam) and np.array_equal(got_gl, gl)
        assert np.array_equal(got_u, u) and got_u.flags.c_contiguous


@needs_lapacke
@pytest.mark.parametrize("d, R", [(2, 6), (2, 9), (3, 4)])
def test_dense_route_keeps_eighs_eigenvalues_and_g_of_H(d, R):
    from szegolab.coefficients import block_of_gH, spectral_data
    from szegolab.lattices import build_operator
    from szegolab.spectral import matrix_function
    box = LatticeBox.centered(d, R)
    lam, u, gl = spectral_data(ANDERSON, box, 2, G_BUMP)
    assert np.array_equal(lam, np.linalg.eigh(build_operator(ANDERSON, box, 2).matrix)[0])
    assert u.shape == (box.site_count, np.count_nonzero(gl)) and u.flags.c_contiguous
    assert 0 < u.shape[1] < box.site_count
    ref = matrix_function(build_operator(ANDERSON, box, 2), G_BUMP).matrix
    assert np.max(np.abs(block_of_gH(u, gl[gl != 0]) - ref)) <= 1e-12
    assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-12


@needs_lapacke
def test_only_complex_samples_call_eigh(monkeypatch):
    # real samples run dsytrd -> dstedc -> dormtr, Jacobi ones dstedc alone
    from szegolab.coefficients import spectral_data
    from szegolab.lattices import Symbol1D
    stages = mc.lapacke_eigensolver()
    called = []

    def counted(name, fn):
        def call(*args):
            called.append(name)
            return fn(*args)
        return call
    monkeypatch.setattr(mc, "lapacke_eigensolver", lambda: tuple(
        counted(name, fn) for name, fn in zip(("dsytrd", "dstedc", "dormtr"), stages)))
    real = EnsembleSpec("toeplitz1d", symbol=Symbol1D.from_dict({0: 2.5, 1: -0.5, -1: -0.5}))
    cplx = EnsembleSpec("toeplitz1d", symbol=Symbol1D.from_dict(
        {0: 1.0, 1: 0.25j, -1: -0.25j}))
    cases = [(ANDERSON, LatticeBox.interval(0, 63), 0, ["dstedc"]),
             (ANDERSON, LatticeBox.centered(2, 4), 0, ["dsytrd", "dstedc", "dormtr"]),
             (real, LatticeBox.interval(0, 15), 0, ["dsytrd", "dstedc", "dormtr"]),
             (cplx, LatticeBox.interval(0, 15), 1, [])]
    calls = _count_eigh(monkeypatch)
    for spec, box, eigh_calls, route in cases:
        calls.clear()
        called.clear()
        spectral_data(spec, box, 0, G_BUMP)
        assert len(calls) == eigh_calls and called == route, (spec.kind, box.d)


@pytest.mark.parametrize("d, R", [(1, 100), (2, 6)])
def test_route_without_lapacke_gives_the_same_g_of_H(monkeypatch, d, R):
    from szegolab.coefficients import block_of_gH, spectral_data
    box = LatticeBox.centered(d, R)
    want = spectral_data(ANDERSON, box, 3, G_BUMP)
    monkeypatch.setattr(mc, "lapacke_eigensolver", lambda: None)
    calls = _count_eigh(monkeypatch)
    got = spectral_data(ANDERSON, box, 3, G_BUMP)
    assert calls == [(box.site_count, box.site_count)]
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
    assert got[1].shape == want[1].shape and got[1].flags.c_contiguous
    if d == 1:
        assert np.array_equal(got[1], want[1])
    g_kept = want[2][want[2] != 0]
    assert np.max(np.abs(block_of_gH(got[1], g_kept) - block_of_gH(want[1], g_kept))) <= 1e-12


@needs_lapacke
@pytest.mark.parametrize("d", [1, 2])
def test_lapack_failure_is_linalg_error(monkeypatch, d):
    from szegolab import coefficients
    from szegolab.lattices import build_operator

    def nan_band(spec, box, sample_id):
        op = build_operator(spec, box, sample_id)
        op.matrix[1, 1] = np.nan
        return op
    monkeypatch.setattr(coefficients, "build_operator", nan_band)
    with pytest.raises(np.linalg.LinAlgError):     # LAPACKE refuses NaN input
        coefficients.spectral_data(ANDERSON, LatticeBox.centered(d, 4), 0, G_BUMP)


@pytest.mark.parametrize("d, R", [(1, 40), (2, 5)])
def test_restricted_diag_completes_h_of_zero(d, R):
    # h(0) != 0: the full box adds h(0) on the eigenvectors g drops
    from szegolab.coefficients import _restricted_diag, spectral_data
    from szegolab.lattices import build_operator
    h = ScalarFunction.poly((0.5, -1.0, 2.0))
    box = LatticeBox.centered(d, R)
    lam, full_u = np.linalg.eigh(build_operator(ANDERSON, box, 4).matrix)
    gl = np.real(G_BUMP(lam))
    _, u, got_gl = spectral_data(ANDERSON, box, 4, G_BUMP)
    want = (full_u ** 2) @ np.real(h(gl))
    got = _restricted_diag(u, got_gl, np.ones(box.site_count, bool), h)
    assert np.max(np.abs(got - want)) <= 1e-12
    bits = np.zeros(box.site_count, bool)
    bits[::2] = True
    mu, v = np.linalg.eigh(((full_u * gl[None, :]) @ full_u.T)[np.ix_(bits, bits)])
    want = np.full(box.site_count, h.value_at_zero)
    want[bits] = (v ** 2) @ np.real(h(mu))
    assert np.max(np.abs(_restricted_diag(u, got_gl, bits, h) - want)) <= 1e-12


COMPLEX_TOEPLITZ = EnsembleSpec("toeplitz1d",
                                symbol=Symbol1D.from_dict({0: 1.0, 1: 0.25j, -1: -0.25j}))


@functools.lru_cache(maxsize=None)
def _kept_spectrum(kind, d, R):
    spec = COMPLEX_TOEPLITZ if kind == "toeplitz" else ANDERSON
    g = ScalarFunction.bump(1.0, 0.6, 4) if kind == "toeplitz" else G_BUMP
    box = LatticeBox.centered(d, R)
    return box, spectral_data(spec, box, 3, g)


def _restriction(box, where):
    coords = box.sites()
    if where == "orthant":                      # half-line, or half-plane in d = 2
        return orthant_region(box.d, range(1)).evaluate(coords)
    if where == "quarter":
        return orthant_region(box.d, range(2)).evaluate(coords)
    if where == "box":                          # a centred ell = 10 box
        return np.all((coords >= -5) & (coords <= 4), axis=1)
    bits = np.zeros(box.site_count, bool)
    if where == "one-site":
        bits[box.index_of((0,) * box.d)] = True
    return bits


@pytest.mark.parametrize("h", [(0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0), (0.5, -1.0, 2.0),
                               (0.0, 1.0, -1.0)], ids=["x2", "x3", "poly-0.5,-1,2", "t-t2"])
@pytest.mark.parametrize("kind, d, R, where", [
    ("anderson", 1, 60, "orthant"), ("anderson", 1, 60, "box"),
    ("anderson", 2, 10, "orthant"), ("anderson", 2, 10, "quarter"),
    ("anderson", 2, 10, "one-site"), ("anderson", 2, 10, "empty"),
    ("toeplitz", 1, 20, "orthant"),
], ids=["d1-half-line", "d1-box", "d2-half-plane", "d2-quarter-plane", "one-site", "empty",
        "complex-toeplitz"])
def test_products_route_matches_an_eigh_of_the_same_block(h, kind, d, R, where):
    from szegolab.coefficients import _restricted_diag, block_of_gH
    h = ScalarFunction.poly(h)
    box, (lam, u, gl) = _kept_spectrum(kind, d, R)
    bits = _restriction(box, where)
    want = np.full(box.site_count, h.value_at_zero)
    idx = np.flatnonzero(bits)
    if idx.size:
        mu, v = np.linalg.eigh(block_of_gH(u, gl[gl != 0], idx))
        want[idx] = (np.abs(v) ** 2) @ np.real(h(mu))
    got = _restricted_diag(u, gl, bits, h)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(_restricted_diag(u, gl, bits, h, spectral=True) - want)) <= 1e-12


@pytest.mark.parametrize("h, restricted_eighs", [
    (H_SQUARE, 0), (ScalarFunction.bump(0.5, 2.0, 3), 2 + 2 + 4)],
    ids=["x2-none", "bump-each-proper-restriction"])
def test_polynomial_h_runs_no_restricted_eigh(monkeypatch, h, restricted_eighs):
    # the half-plane, the quarter-plane, two ell boxes and the 2^d pulled-back
    # orthants of E^(L) are proper restrictions; E^(L)'s corner boxes are all
    # the ell = 4 box {-2..1}^2, and the whole box never needs an eigh
    from szegolab.coefficients import _sample_stats
    plan = make_sweep_plan(ANDERSON, 2, G_BUMP, h, 6, [2], ells=[2, 4], error_L=[2])
    calls = []

    def counted(a, *args, _orig=np.linalg.eigh, **kwargs):
        calls.append(a.shape[0])
        return _orig(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    row = _sample_stats(plan, 0)
    assert np.all(np.isfinite(row))
    # spectral_data diagonalizes the box itself with np.linalg.eigh only when
    # it finds no LAPACKE; that call is not a restriction
    assert len([n for n in calls if n < plan.box.site_count]) == restricted_eighs


# ---------------------------------------------------------------------------
# telescoping and inclusion-exclusion
# ---------------------------------------------------------------------------

def test_telescoping_equal_family_is_zero(rng):
    box = LatticeBox.cube(2, 0, 3)
    m = rand_hermitian(rng, box.site_count)
    diags = np.array([np.diagonal(m)] * 3)
    assert telescoping_check(box, diags, np.ones(box.site_count, bool)) == 0.0


def test_telescoping_random_families(rng):
    box = LatticeBox.cube(2, 0, 3)
    n = box.site_count
    for _ in range(50):
        fam = [rand_hermitian(rng, n) for _ in range(3)]
        scale = max(np.abs(m).max() for m in fam) * n
        diags = np.array([np.diagonal(m) for m in fam])
        assert telescoping_check(box, diags, np.ones(box.site_count, bool)) <= 1e-9 * scale


def test_telescoping_d1_single_wedge(rng):
    box = LatticeBox.interval(0, 5)
    diags = np.array([np.diagonal(rand_hermitian(rng, 6)) for _ in range(2)])
    probe = np.ones(box.site_count, bool)
    lhs = telescoping_check(box, diags, probe)
    assert lhs <= 1e-12


@pytest.mark.parametrize("diags", [
    np.zeros((2, 16)), np.zeros((3, 15)), np.zeros(48), np.zeros((3, 16, 16)),
    np.zeros((3, 16), complex)], ids=["d-members", "short-rows", "flat", "matrices", "complex"])
def test_telescoping_refuses_diagonals_of_the_wrong_shape(diags):
    # the check reads one real diagonal per member f_0..f_d: a (d+1) x n array
    box = LatticeBox.cube(2, 0, 3)
    with pytest.raises(ConfigError, match="real \\(d\\+1\\) x n = 3 x 16 array"):
        telescoping_check(box, diags, np.ones(box.site_count, bool))


def test_inclusion_exclusion_d1():
    assert inclusion_exclusion_check(1, 0, (), 4, 1) == 0


@pytest.mark.parametrize("d,L", [(2, 3), (3, 3)])
def test_inclusion_exclusion_exhaustive(d, L):
    for n in range(1, d + 1):
        for l in range(d):
            for k in k_vectors(d, n, l):
                assert inclusion_exclusion_check(n, l, k, L, d) == 0


def test_inclusion_exclusion_rejects_bad_block():
    with pytest.raises(ConfigError):
        inclusion_exclusion_check(2, 0, (0,), 3, 2)     # k contains l


def test_partition_residual_zero():
    for d in (1, 2, 3):
        box = LatticeBox.cube(d, 0, 3)
        assert sd_partition_residual(box) == 0


# ---------------------------------------------------------------------------
# finite-volume coefficients
# ---------------------------------------------------------------------------

def test_identity_h_nullity_and_exact_error_term():
    for d in (1, 2):
        res = coefficient_sweep(ANDERSON, d, G_BUMP, H_ID, 8, [3], 4, error_L=[3])
        scale = max(1.0, abs(res.a_fv(3, 0).mean))
        for m in range(1, d + 1):
            assert abs(res.a_fv(3, m).mean) <= 1e-10 * scale
        e_l = res.stat("EL", 3)
        assert e_l.mean == 0.0 and e_l.stderr == 0.0


@pytest.mark.parametrize("d,L,R", [(1, 10, 40), (2, 4, 12)])
def test_sweep_identity_h_coefficients_exactly_zero(d, L, R):
    # identity-h diagonals all come from one product |U|^2 g(lambda), so every
    # wedge difference pairs bit-identical floats
    for seed in (7, 123):
        spec = EnsembleSpec("anderson", W=8.0, seed=seed)
        res = coefficient_sweep(spec, d, G_BUMP, H_ID, R, [L], 4, error_L=[L])
        keys = [k for k in res.plan.columns if k[0] == "Amn"]
        assert len(keys) == d * (d + 1) // 2
        stats = [res.stat(*k) for k in keys] + [res.a_fv(L, m) for m in range(1, d + 1)]
        for s in stats:
            assert s.mean == 0.0 and s.stderr == 0.0, s


def test_off_spectrum_g_gives_zero_coefficients():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    res = coefficient_sweep(ANDERSON, 1, g_off, H_SQUARE, 10, [4], 3)
    for m in range(0, 2):
        assert abs(res.a_fv(4, m).mean) < 1e-18


def test_sweep_over_zero_samples_is_refused():
    # it reported A_1 = 0.0 +- 0.0 from no samples
    with pytest.raises(ConfigError, match="at least 1"):
        coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 10, [4], 0)


def test_coefficient_l_stability_d1():
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 100, [20, 40], 40)
    a20, a40 = res.a_fv(20, 1), res.a_fv(40, 1)
    combined = math.hypot(a20.stderr, a40.stderr)
    assert abs(a20.mean - a40.mean) <= 3.0 * max(combined, 1e-12)


def test_sweep_without_probe_depth_restricts_only_the_box_and_the_ells(monkeypatch):
    # with no probe depth L no column reads a half-orthant n >= 1: each sample
    # restricts h to the whole box B_R (for A0) and to each sweep box
    import szegolab.coefficients as coefficients
    calls = []

    def counted(*args, _orig=coefficients._restricted_diag):
        calls.append(args[2])
        return _orig(*args)
    monkeypatch.setattr(coefficients, "_restricted_diag", counted)
    coefficient_sweep(ANDERSON, 2, G_BUMP, H_SQUARE, 4, [], 3, ells=(2, 4, 6))
    assert len(calls) == 3 * (1 + 3)


def test_finite_volume_requires_L_within_R():
    with pytest.raises(ConfigError):
        coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 40, [30], 1)


@pytest.mark.parametrize("kwargs, message", [
    ({"L_values": [0]}, "probe depth L=0"),
    ({"error_L": [-5]}, "error-term scale L=-5"),
], ids=["zero-L", "negative-error-L"])
def test_sweep_plan_refuses_a_depth_below_1(kwargs, message):
    # its masks are empty, so its columns would read 0.0; the command-line
    # tests cover a negative formula_L and L
    with pytest.raises(ConfigError, match=message):
        make_sweep_plan(ANDERSON, 1, G_BUMP, H_SQUARE, 12, **kwargs)


def test_sweep_plan_terms_name_every_column_but_window():
    plan = make_sweep_plan(ANDERSON, 2, G_BUMP, H_SQUARE, 12, [4], ells=[4, 6], error_L=[4])
    # half-orthants n = 0..2, the two boxes, then E^(L)'s box {-4..3}^2, which
    # every corner pulls {0..7}^2 back to, and one pulled-back orthant per corner
    assert len(plan.restrictions) == 3 + 2 + 1 + 4
    assert set(plan.columns) == {("window_lo",), ("window_hi",), *plan.terms}
    assert not any(name[0] in ("Afv", "Apf_recurrence") for name in plan.columns)
    assert len(plan.terms["EL", 4]) == 2 ** 2
    assert all(len(parts) == 1 for name, parts in plan.terms.items() if name != ("EL", 4))
    (k, k0, mask), = plan.terms["A0",]
    assert (k, k0, int(mask.sum())) == (0, None, 1)
    assert plan.terms["Amn", 4, 2, 1][0][:2] == (1, 0)
    assert plan.terms["sweep", 6][0][:2] == (4, None)


class _Planned(Exception):
    pass


def _identity_probe_plan(monkeypatch, d, L, R):
    """The plan ``decomposition_identity_probe`` builds, taken before its sample runs."""
    import szegolab.coefficients as coefficients

    def stop(plan, sample_id):
        raise _Planned(plan)
    monkeypatch.setattr(coefficients, "_sample_stats", stop)
    with pytest.raises(_Planned) as planned:
        decomposition_identity_probe(ANDERSON, d, 0, G_BUMP, H_SQUARE, L=L, R=R)
    return planned.value.args[0]


@pytest.mark.parametrize("probe, d, L, R, count", [
    (False, 2, 4, 12, 3 + 1 + 4), (False, 3, 2, 6, 4 + 1 + 8),
    (True, 2, 3, 12, 1 + 1 + 4 + 4), (True, 3, 2, 8, 1 + 1 + 8 + 6 + 12)],
    ids=["EL-d2", "EL-d3", "probe-d2", "probe-d3"])
def test_plans_restrict_each_distinct_site_set_once(monkeypatch, probe, d, L, R, count):
    # E^(L)'s 2^d corners pull {0..2L-1}^d back to one box, and the probe's lhs
    # box is that box again.  The probe's orthants {x_a >= 0, a in axes} pulled
    # back by sigma depend only on sigma restricted to axes: 2^|axes| sets for
    # each axis set, the whole box B_R (f_0) for no axes
    if probe:
        plan = _identity_probe_plan(monkeypatch, d, L, R)
    else:
        plan = make_sweep_plan(ANDERSON, d, G_BUMP, H_SQUARE, R, [L], error_L=[L])
    assert len({r.tobytes() for r in plan.restrictions}) == len(plan.restrictions) == count
    used = {k for parts in plan.terms.values() for part in parts for k in part[:2]}
    assert used - {None} == set(range(count))


@pytest.mark.parametrize("d, R, L", [(1, 20, 5), (2, 8, 3)])
@pytest.mark.parametrize("h", [H_SQUARE, ScalarFunction.bump(0.5, 2.0, 3)], ids=["x2", "bump"])
def test_error_term_column_is_the_corner_sum(d, R, L, h):
    # reference: sum over sigma, in product order from 0.0, of the traces of
    # h on the pulled-back {0..2L-1}^d less h on the pulled-back orthant,
    # over the pulled-back [0, L)^d
    from szegolab.coefficients import _pullback_coords, _restricted_diag, _sample_stats
    from szegolab.regions import box_region
    plan = make_sweep_plan(ANDERSON, d, G_BUMP, h, R, error_L=[L])
    _, u, gl = spectral_data(ANDERSON, plan.box, 1, G_BUMP)
    want = 0.0
    for sigma in itertools.product((0, 1), repeat=d):
        pre = _pullback_coords(plan.box.sites(), sigma, L)
        probe = box_region(d, 0, L - 1).evaluate(pre)
        diag_box = _restricted_diag(u, gl, box_region(d, 0, 2 * L - 1).evaluate(pre), h)
        diag_orth = _restricted_diag(u, gl, orthant_region(d).evaluate(pre), h)
        want += float(np.sum(diag_box[probe] - diag_orth[probe]))
    got = _sample_stats(plan, 1)[plan.columns["EL", L]]
    assert got == want and want != 0.0


def test_truncation_stability_under_radius_doubling():
    # counter-based seeding nests the samples, so the R -> 2R difference is a
    # pure truncation effect, bounded by the decay-certified tail at R - 2L
    from szegolab.decay import fit_kernel_decay, kernel_box_stats
    from szegolab.coefficients import truncation_tail
    n_samples, L = 24, 10
    small = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 40, [L], n_samples)
    large = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 80, [L], n_samples)
    gap = abs(small.a_fv(L, 1).mean - large.a_fv(L, 1).mean)
    cert = fit_kernel_decay(kernel_box_stats(ANDERSON, G_BUMP, LatticeBox.interval(0, 63), 60))
    bound = truncation_tail(cert.rate_bound(), 1, 40 - 2 * L)
    assert gap <= bound


def test_d3_coefficients_smoke(tmp_path):
    # tiny d = 3 run: all three orders finite, identity-h nullity holds
    a_fv = written_coefficients(tmp_path, coefficient_sweep(ANDERSON, 3, G_BUMP, H_SQUARE,
                                                            5, [2], 2), 2)["A_fv"]
    assert set(a_fv) == {"0", "1", "2", "3"}
    assert all(np.isfinite(s["mean"]) for s in a_fv.values())
    tid = coefficient_sweep(ANDERSON, 3, G_BUMP, H_ID, 5, [2], 2)
    for m in (1, 2, 3):
        assert abs(tid.a_fv(2, m).mean) <= 1e-10


def test_complex_toeplitz_restricted_diag_matches_dense_reference():
    # complex Hermitian symbol a(theta) = 1 - sin(theta)/2: a_1 = i/4, a_{-1} = -i/4
    from szegolab.coefficients import _restricted_diag, spectral_data
    from szegolab.lattices import Symbol1D, build_operator
    spec = EnsembleSpec("toeplitz1d", symbol=Symbol1D.from_dict({0: 1.0, 1: 0.25j, -1: -0.25j}))
    g = ScalarFunction.bump(1.0, 0.6, 4)
    box = LatticeBox.centered(1, 20)
    bits = orthant_region(1).evaluate(box.sites())              # the half-line
    lam, full_u = np.linalg.eigh(build_operator(spec, box, 0).matrix)
    assert np.iscomplexobj(full_u)
    gl = np.real(g(lam))
    assert 0 < np.count_nonzero(gl) < box.site_count
    g_of_h = (full_u * gl[None, :]) @ full_u.conj().T
    mu, v = np.linalg.eigh(g_of_h[np.ix_(bits, bits)])
    want = np.zeros(box.site_count)
    want[bits] = (np.abs(v) ** 2) @ np.real(H_SQUARE(mu))
    _, u, got_gl = spectral_data(spec, box, 0, g)
    assert np.max(np.abs(_restricted_diag(u, got_gl, bits, H_SQUARE) - want)) <= 1e-12
    res = coefficient_sweep(spec, 1, g, H_SQUARE, 20, [5], 2, ells=[4, 8], error_L=[5])
    assert np.all(np.isfinite(res.mean)) and res.a_fv(5, 1).mean != 0.0


def test_mc_determinism_bit_identical(tmp_path):
    for run in ("a", "b"):
        write_coefficients(str(tmp_path / run),
                           coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 30, [10], 12), 10)
    assert (tmp_path / "a" / "coefficients.json").read_bytes() == \
        (tmp_path / "b" / "coefficients.json").read_bytes()


# ---------------------------------------------------------------------------
# error term
# ---------------------------------------------------------------------------

def test_error_term_zero_h():
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, ScalarFunction.zero(), 20, [], 1,
                            error_L=[8])
    assert res.stat("EL", 8).mean == 0.0


def test_error_term_decreases_in_L():
    # localized chain: the averaged corner error shrinks with the scale
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 60, [], 16,
                            error_L=[5, 10, 20])
    means = [abs(res.stat("EL", L).mean) for L in (5, 10, 20)]
    assert means[2] < means[0]
    assert means[1] < 3.0 * means[0] + 1e-12   # monotone within noise


# ---------------------------------------------------------------------------
# partition-free representation
# ---------------------------------------------------------------------------

def test_partition_free_zero_h():
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, ScalarFunction.zero(), 16, [6], 3)
    out = res.partition_free(6)
    for m, s in out["printed"].items():
        assert s.mean == 0.0
    for m, s in out["recurrence"].items():
        assert s.mean == 0.0


def test_partition_free_m0_density_consistency():
    # Tr(f_0 chi_box) grows with the volume; its per-site density matches A_0
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 60, [20], 40)
    raw = res.partition_free(20)["raw_terms"][1][0]   # Tr(f_0 chi_{[0,20)})
    a0 = res.stat("A0")
    density_gap = abs(raw.mean / 20.0 - a0.mean)
    combined = math.hypot(raw.stderr / 20.0, a0.stderr)
    assert density_gap <= 3.0 * combined


@pytest.mark.parametrize("d, h, R, L, ells, exact, fit_rel", [
    (1, H_SQUARE, 16, 6, range(8, 11), (70, -36), 1e-7),
    (2, H_SQUARE, 16, 6, range(8, 12), (676, -296, 16), 1e-7),
    (3, H_SQUARE, 6, 3, range(6, 11), (2682, -972, 48, 0), 1e-6),
    (1, H_CUBE, 24, 8, range(12, 15), (924, -840), 1e-7),
    (2, H_CUBE, 16, 8, range(12, 16), (28496, -25728, 4224), 1e-7),
], ids=["x2-d1", "x2-d2", "x2-d3", "x3-d1", "x3-d2"])
def test_partition_free_free_lattice_oracle(d, h, R, L, ells, exact, fit_rel):
    # g = x^2 on the free lattice: g(H) = H^2 is banded, so for h = x^k the
    # box trace T(ell) = Tr h(g(H)_box) is a sum over closed walks, exactly a
    # polynomial of degree d in ell once ell exceeds their span, whose
    # coefficients are the A_m.  For h = x^2, A_m = (-1)^m sum_k F(k)
    # e_m(|k_1|, ..., |k_d|) with F(k) = |(H^2)_{0k}|^2.  The fit of d+2
    # consecutive ells of one sample recovers them up to rounding amplified by
    # the fit: in d = 3 its A_2 is off by 2.7e-7 relative
    def within(rel):    # relative to each A_m, and to A_0 for an A_m that is 0
        return [pytest.approx(a, rel=rel, abs=0.0 if a else rel * exact[0]) for a in exact]
    rep, res = sweep_and_fit(EnsembleSpec("free"), d, H_SQUARE, h, list(ells), R, 1,
                             formula_L=L)
    assert [res.a_fv(L, 0).mean, res.a_fv(L, 1).mean] == within(1e-9)[:2]
    recurrence = [res.a_pf(L, m)["recurrence"].mean for m in range(1, d + 1)]
    assert recurrence == within(1e-9)[1:]
    for m in range(1, d + 1):
        assert res.a_pf(L, m)["printed"].mean == recurrence[m - 1] / 4 ** m
    assert rep.A_hat == within(fit_rel)
    # the wedge A_m for m >= 2 is not yet exact in d >= 2; the fit report
    # still carries it beside the fitted A_2
    if d >= 2:
        cross = rep.cross_check
        assert cross["A2_formula"] == res.a_fv(L, 2)
        assert (cross["A2_fit"], cross["A2_fit_stderr"]) == (rep.A_hat[2], rep.A_stderr[2])


def anderson_x2_coefficients(d, W):
    """Exact A_0..A_d for Anderson with g = h = x^2 and V uniform on [-W/2, W/2].

    As for the free lattice, A_m = (-1)^m sum_k F(k) e_m(|k_1|, ..., |k_d|) with
    F(k) = E|(H^2)_{0k}|^2, and (H^2)_{0k} depends on V_0 and V_k alone:
    F(0) = E((2d + V)^2 + 2d)^2, F(e_i) = E(4d + V_0 + V_k)^2, and F(k) = 1 or
    4 for |k|_1 = 2 (one path or two).  Four Gauss-Legendre nodes per variable
    integrate these quartics exactly."""
    x, w = np.polynomial.legendre.leggauss(4)
    v, w = x * W / 2, w / 2                 # nodes and weights of the uniform law
    f0 = float(w @ ((2 * d + v) ** 2 + 2 * d) ** 2)
    f1 = float(w @ (4 * d + np.add.outer(v, v)) ** 2 @ w)
    coeffs = [0.0] * (d + 1)
    for k in itertools.product(range(-2, 3), repeat=d):
        sizes = [abs(c) for c in k]
        if sum(sizes) > 2:
            continue
        paths = np.count_nonzero(sizes)     # walks of length 2 from 0 to k, |k|_1 = 2
        f = (f0, f1, paths ** 2)[sum(sizes)]
        for m in range(d + 1):
            coeffs[m] += (-1) ** m * f * sum(math.prod(c)
                                             for c in itertools.combinations(sizes, m))
    return coeffs


def test_anderson_x2_oracle_within_4_stderr():
    # the rows that hold today; the wedge A_2 in d = 2 (-647 +- 67 against 16)
    # waits on the wedge route's sum over reflections
    assert anderson_x2_coefficients(1, 0.0) == pytest.approx([70, -36])    # the free rows
    assert anderson_x2_coefficients(2, 0.0) == pytest.approx([676, -296, 16])
    exact1, exact2 = anderson_x2_coefficients(1, 8.0), anderson_x2_coefficients(2, 8.0)
    rep, res = sweep_and_fit(ANDERSON, 1, H_SQUARE, H_SQUARE, [8, 16, 24, 32], 40, 400,
                             formula_L=10, workers=2)
    res2 = coefficient_sweep(ANDERSON, 2, H_SQUARE, H_SQUARE, 10, [5], 40, workers=2)
    rows = [(res.a_fv(10, 0), exact1[0]), (res.a_fv(10, 1), exact1[1]),
            (res2.a_fv(5, 0), exact2[0]), (res2.a_fv(5, 1), exact2[1])]
    for stat, exact in rows:
        assert abs(stat.mean - exact) <= 4 * stat.stderr
    assert abs(rep.A_hat[0] - exact1[0]) <= 4 * rep.A_stderr[0]


@pytest.mark.parametrize("d, h, R, L", [(2, H_SQUARE, 16, 6), (3, H_SQUARE, 6, 3),
                                        (2, H_CUBE, 16, 8)], ids=["x2-d2", "x2-d3", "x3-d2"])
def test_adjudication_of_a_deterministic_ensemble_has_a_rounding_floor(d, h, R, L):
    # one free-lattice sample has stderr 0: the recurrence A_1 is the wedge A_1
    # up to summation order (gaps 1.4e-12, 3.6e-12, 1.5e-11 on A_1 = -296,
    # -972, -25728), which an absolute 1e-12 floor called "neither"
    res = coefficient_sweep(EnsembleSpec("free"), d, H_SQUARE, h, R, [L], 1)
    verdict = res.adjudicate(L, 1)
    assert verdict["winner"] == "recurrence"
    rec = verdict["candidates"]["recurrence"]
    assert 0 < abs(rec["value"] - rec["reference"]) <= rec["tolerance"]


def sequential_sum_summary(res, const, name, L, m, n_values):
    """column_moments of the per-sample sum of const * column, n ascending from 0.0,
    accumulated one sample at a time in Python floats."""
    col = res.plan.columns
    sums = []
    for row in res.samples:
        acc = 0.0
        for n in n_values:
            acc += float(const(res.plan.d, m, n)) * row[col[name, L, m, n]]
        sums.append([acc])
    mean, stderr = mc.column_moments(np.array(sums))
    return mean[0], stderr[0]


def test_partition_free_printed_summary_is_the_printed_column():
    # the summaries combined when reported have the bits of the per-sample
    # sequential sums (n ascending, from 0.0) reduced by column_moments: the
    # printed and recurrence partition-free A_m, and the wedge-route A_m
    res = coefficient_sweep(ANDERSON, 2, G_BUMP, H_SQUARE, 10, [4], 6)
    for m in (1, 2):
        pf_n = range(0, m + 1)
        derived = res.a_pf(4, m)["printed"]
        assert (derived.mean, derived.stderr) == sequential_sum_summary(
            res, c_tilde_printed, "pf", 4, m, pf_n)
        rec = res.a_pf(4, m)["recurrence"]
        assert (rec.mean, rec.stderr) == sequential_sum_summary(
            res, c_tilde_recurrence, "pf", 4, m, pf_n)
        wedge = res.a_fv(4, m)
        assert (wedge.mean, wedge.stderr) == sequential_sum_summary(
            res, c_constant, "Amn", 4, m, range(1, m + 1))
        assert res.partition_free(4)["printed"][m] == derived
        assert res.adjudicate(4, m)["candidates"]["printed"]["value"] == derived.mean


def test_partition_free_adjudication_d1():
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 60, [20], 40)
    verdicts = res.adjudicate(20, 1)
    assert verdicts["winner"] == "recurrence"
    assert verdicts["candidates"]["recurrence"]["matches"]
    assert not verdicts["candidates"]["printed"]["matches"]


# ---------------------------------------------------------------------------
# master identity probe
# ---------------------------------------------------------------------------

def test_probe_identity_h_collapses_exactly():
    rep = decomposition_identity_probe(ANDERSON, 2, 0, G_BUMP, H_ID, L=3, R=12)
    assert rep.residual == 0.0
    assert rep.error_term == 0.0


def test_probe_off_spectrum():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    rep = decomposition_identity_probe(ANDERSON, 1, 0, g_off, H_SQUARE, L=4, R=16)
    assert abs(rep.lhs) < 1e-18 and rep.residual < 1e-18


@pytest.mark.parametrize("d,L,R", [(1, 10, 60), (2, 3, 12), (3, 1, 4)])
def test_probe_exact_at_rounding_level(d, L, R):
    rep = decomposition_identity_probe(ANDERSON, d, 0, G_BUMP, H_SQUARE, L=L, R=R)
    assert rep.residual <= 1e-10 * rep.scale
    assert rep.lhs != 0.0


@pytest.mark.parametrize("d,L,R", [(1, 10, 60), (2, 3, 12), (3, 1, 4)])
def test_probe_sees_a_corner_reflection_off_the_cell_grid(monkeypatch, d, L, R):
    # reflect s -> -s instead of s -> -1-s: the corner transforms then miss
    # the box by one layer.  The probe is the only value test that sees it:
    # the E^(L) column test pulls back through the same helper, and identity
    # h makes every corner term vanish whatever the geometry
    import szegolab.coefficients as coefficients

    def reflect_about_zero(coords, sigma, L):
        out = coords.copy()
        for i, b in enumerate(sigma):
            if b:
                out[:, i] = -out[:, i]
        return out + L
    monkeypatch.setattr(coefficients, "_pullback_coords", reflect_about_zero)
    rep = decomposition_identity_probe(ANDERSON, d, 0, G_BUMP, H_SQUARE, L=L, R=R)
    assert rep.residual > 1e-3 * rep.scale


def test_probe_b_diagnostics_sum_to_corner_terms():
    rep = decomposition_identity_probe(ANDERSON, 2, 0, G_BUMP, H_SQUARE, L=3, R=12)
    for m, total in rep.corner_terms.items():
        parts = sum(v for (n, j), v in rep.b_diagnostics.items() if n + j == m)
        assert abs(parts - total) <= 1e-12 * max(1.0, abs(total))


def test_table_linearity_a_fv_from_summands():
    res = coefficient_sweep(ANDERSON, 2, G_BUMP, H_SQUARE, 10, [4], 6)
    for m in range(1, 3):
        combo = sum(float(c_constant(2, m, n)) * res.stat("Amn", 4, m, n).mean
                    for n in range(1, m + 1))
        assert abs(combo - res.a_fv(4, m).mean) <= 1e-10 * max(1.0, abs(combo))


def test_probe_requires_margin():
    with pytest.raises(ConfigError):
        decomposition_identity_probe(ANDERSON, 1, 0, G_BUMP, H_SQUARE, L=10, R=30)
