import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from szegolab.errors import ConfigError
from szegolab.lattices import EnsembleSpec, HermitianOperator, LatticeBox
from szegolab.regions import full_mask, region_mask
from szegolab.spectral import ScalarFunction
from szegolab.coefficients import (CoefficientTable, big_box, c_constant,
                                   c_tilde_printed, c_tilde_recurrence,
                                   chi_hat_mask, chi_hat_region,
                                   coefficient_sweep, comb_constants,
                                   decomposition_identity_probe, error_term,
                                   finite_volume_coefficients,
                                   inclusion_exclusion_check, k_vectors,
                                   model_operators, partition_block_sizes,
                                   partition_free_coefficients, perm_block,
                                   pi0_for_block, sd_partition_residual,
                                   telescoping_check)
from tests.conftest import rand_hermitian

G_BUMP = ScalarFunction.bump(2.0, 3.0, 4)
H_SQUARE = ScalarFunction.poly((0.0, 0.0, 1.0))
H_ID = ScalarFunction.identity()
ANDERSON = EnsembleSpec("anderson", W=8.0, seed=7)


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


def test_comb_constants_table():
    t = comb_constants(3)
    assert t.c[3][3] == Fraction(8 * 6, 1)
    assert t.c_tilde_recurrence[2][2] == c_constant(3, 2, 2) / 2
    assert t.c_tilde_printed[0][0] == 1


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
    box = LatticeBox.interval(-3, 3)
    mask = chi_hat_mask(1, 1, box)
    assert {int(s[0]) for s in mask.sites()} == {0, 1, 2, 3}


def test_chi_hat_d2_m2_n1_strict_domination():
    # domination x_1 >= x_2 is the exact slot-order complement of the chain
    # constraint, which on the lattice is the strict inequality x_2 < x_1
    box = LatticeBox.cube(2, 0, 2)
    mask = chi_hat_mask(2, 1, box)
    got = {tuple(map(int, s)) for s in mask.sites()}
    assert got == {(1, 0), (2, 0), (2, 1)}


def test_chi_hat_d2_m1_layer_convention():
    box = LatticeBox.cube(2, 0, 2)
    mask = chi_hat_mask(1, 1, box)
    got = {tuple(map(int, s)) for s in mask.sites()}
    assert got == {(0, 0), (1, 0), (2, 0)}


def test_chi_hat_partition_with_complement():
    # for d = 2 the two m = 2 wedges tile the quadrant exactly
    box = LatticeBox.cube(2, 0, 4)
    m21 = chi_hat_mask(2, 1, box).bits.astype(int)
    m22 = chi_hat_mask(2, 2, box).bits.astype(int)
    assert np.array_equal(m21 + m22, np.ones(box.site_count, dtype=int))


def test_chi_hat_rejects_bad_indices():
    box = LatticeBox.cube(2, 0, 2)
    with pytest.raises(ConfigError):
        chi_hat_mask(1, 2, box)


# ---------------------------------------------------------------------------
# model operators
# ---------------------------------------------------------------------------

def test_model_operators_zero_h():
    fam = model_operators(ANDERSON, 1, 0, G_BUMP, ScalarFunction.zero(), R=6)
    assert all(np.max(np.abs(f.matrix)) == 0.0 for f in fam.f)


def test_model_operators_off_spectrum_g():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    fam = model_operators(ANDERSON, 1, 0, g_off, H_SQUARE, R=6)
    assert all(np.max(np.abs(f.matrix)) < 1e-20 for f in fam.f)


def test_model_operators_identity_h_wedge_nullity():
    d = 2
    fam = model_operators(ANDERSON, d, 0, G_BUMP, H_ID, R=6)
    box = fam.box
    for m in range(1, d + 1):
        for n in range(1, m + 1):
            bits = chi_hat_mask(m, n, box).bits
            diff = fam.f[n].matrix - fam.f[n - 1].matrix
            block = diff[np.ix_(bits, bits)]
            assert np.max(np.abs(block)) == 0.0


def test_block_of_gH_matches_eigen_route():
    from szegolab.coefficients import block_of_gH, spectral_data
    from szegolab.lattices import build_operator
    from szegolab.spectral import matrix_function
    box = big_box(2, 6)
    lam, u, gl = spectral_data(ANDERSON, box, 0, G_BUMP)
    assert 0 < np.count_nonzero(gl) < gl.size      # zero-weight pairs are skipped
    ref = matrix_function(build_operator(ANDERSON, box, 0), G_BUMP).matrix
    assert np.max(np.abs(block_of_gH(u, gl) - ref)) <= 1e-12
    idx = np.arange(0, box.site_count, 3)
    assert np.max(np.abs(block_of_gH(u, gl, idx) - ref[np.ix_(idx, idx)])) <= 1e-12


def test_model_operators_requires_certificate_with_tol():
    with pytest.raises(ConfigError):
        model_operators(ANDERSON, 1, 0, G_BUMP, H_SQUARE, R=8, tol=1e-6)
    fam = model_operators(ANDERSON, 1, 0, G_BUMP, H_SQUARE, R=8,
                          decay_rate=lambda r: math.exp(-0.5 * r), tol=1.0)
    assert fam.truncation_estimate is not None


# ---------------------------------------------------------------------------
# telescoping and inclusion-exclusion
# ---------------------------------------------------------------------------

def test_telescoping_equal_family_is_zero(rng):
    box = LatticeBox.cube(2, 0, 3)
    m = rand_hermitian(rng, box.site_count)
    fam = [HermitianOperator(box, m) for _ in range(3)]
    assert telescoping_check(fam, full_mask(box)) == 0.0


def test_telescoping_random_families(rng):
    box = LatticeBox.cube(2, 0, 3)
    n = box.site_count
    for _ in range(50):
        fam = [HermitianOperator(box, rand_hermitian(rng, n)) for _ in range(3)]
        scale = max(np.abs(f.matrix).max() for f in fam) * n
        assert telescoping_check(fam, full_mask(box)) <= 1e-9 * scale


def test_telescoping_d1_single_wedge(rng):
    box = LatticeBox.interval(0, 5)
    fam = [HermitianOperator(box, rand_hermitian(rng, 6)) for _ in range(2)]
    probe = full_mask(box)
    lhs = telescoping_check(fam, probe)
    assert lhs <= 1e-12


def test_telescoping_model_family():
    from szegolab.regions import box_region
    fam = model_operators(ANDERSON, 2, 0, G_BUMP, H_SQUARE, R=5)
    probe = region_mask(box_region(2, 0, 1), fam.box)
    resid = telescoping_check(fam.f, probe)
    assert resid <= 1e-10


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
        assert sd_partition_residual(box, 0, 3) == 0


# ---------------------------------------------------------------------------
# finite-volume coefficients
# ---------------------------------------------------------------------------

def test_identity_h_nullity_and_exact_error_term():
    for d in (1, 2):
        table = finite_volume_coefficients(ANDERSON, d, G_BUMP, H_ID, L=3, R=8,
                                           n_samples=4, include_error_term=True)
        scale = max(1.0, abs(table.A_fv[0].mean))
        for m in range(1, d + 1):
            assert abs(table.A_fv[m].mean) <= 1e-10 * scale
        assert table.E_L.mean == 0.0 and table.E_L.stderr == 0.0


@pytest.mark.parametrize("d,L,R", [(1, 10, 40), (2, 4, 12)])
def test_sweep_identity_h_coefficients_exactly_zero(d, L, R):
    # identity-h diagonals all come from one product |U|^2 g(lambda), so every
    # wedge difference pairs bit-identical floats
    for seed in (7, 123):
        spec = EnsembleSpec("anderson", W=8.0, seed=seed)
        res = coefficient_sweep(spec, d, G_BUMP, H_ID, R, [L], 4, error_L=[L])
        keys = [k for k in res.stats if k.startswith(("Amn|", "Afv|"))]
        assert len(keys) == d * (d + 1) // 2 + d
        for k in keys:
            assert res.stats[k].mean == 0.0 and res.stats[k].stderr == 0.0, k


def test_off_spectrum_g_gives_zero_coefficients():
    g_off = ScalarFunction.bump(50.0, 2.0, 4)
    table = finite_volume_coefficients(ANDERSON, 1, g_off, H_SQUARE, L=4, R=10,
                                       n_samples=3)
    for m in range(0, 2):
        assert abs(table.A_fv[m].mean) < 1e-18


def test_coefficient_l_stability_d1():
    res = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 100, [20, 40], 40)
    a20, a40 = res.a_fv(20, 1), res.a_fv(40, 1)
    combined = math.hypot(a20.stderr, a40.stderr)
    assert abs(a20.mean - a40.mean) <= 3.0 * max(combined, 1e-12)


def test_finite_volume_requires_L_within_R():
    with pytest.raises(ConfigError):
        finite_volume_coefficients(ANDERSON, 1, G_BUMP, H_SQUARE, L=30, R=40,
                                   n_samples=1)


def test_truncation_stability_under_radius_doubling():
    # counter-based seeding nests the samples, so the R -> 2R difference is a
    # pure truncation effect, bounded by the decay-certified tail at R - 2L
    from szegolab.decay import fit_kernel_decay
    from szegolab.coefficients import truncation_tail
    n_samples, L = 24, 10
    small = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 40, [L], n_samples)
    large = coefficient_sweep(ANDERSON, 1, G_BUMP, H_SQUARE, 80, [L], n_samples)
    gap = abs(small.a_fv(L, 1).mean - large.a_fv(L, 1).mean)
    cert = fit_kernel_decay(ANDERSON, G_BUMP, LatticeBox.interval(0, 63), 60)
    bound = truncation_tail(cert.rate_bound(), 1, 40 - 2 * L)
    assert gap <= bound


def test_d3_coefficients_smoke():
    # tiny d = 3 run: all three orders finite, identity-h nullity holds
    table = finite_volume_coefficients(ANDERSON, 3, G_BUMP, H_SQUARE, L=2, R=5,
                                       n_samples=2)
    assert set(table.A_fv) == {0, 1, 2, 3}
    assert all(np.isfinite(s.mean) for s in table.A_fv.values())
    tid = finite_volume_coefficients(ANDERSON, 3, G_BUMP, H_ID, L=2, R=5,
                                     n_samples=2)
    for m in (1, 2, 3):
        assert abs(tid.A_fv[m].mean) <= 1e-10


def test_complex_toeplitz_through_model_operators():
    # complex Hermitian symbol: a_1 = i/4, a_{-1} = -i/4
    from szegolab.lattices import Symbol1D
    sym = Symbol1D.from_dict({0: 1.0, 1: 0.25j, -1: -0.25j})
    spec = EnsembleSpec("toeplitz1d", symbol=sym)
    fam = model_operators(spec, 1, 0, ScalarFunction.poly((0.0, 1.0, 0.5)),
                          H_SQUARE, R=8)
    for f in fam.f:
        assert f.hermiticity_defect() <= 1e-12


def test_mc_determinism_bit_identical():
    a = finite_volume_coefficients(ANDERSON, 1, G_BUMP, H_SQUARE, L=10, R=30,
                                   n_samples=12)
    b = finite_volume_coefficients(ANDERSON, 1, G_BUMP, H_SQUARE, L=10, R=30,
                                   n_samples=12)
    assert a.to_jsonable() == b.to_jsonable()


# ---------------------------------------------------------------------------
# error term
# ---------------------------------------------------------------------------

def test_error_term_identity_h_exact_zero():
    assert error_term(ANDERSON, 1, 0, G_BUMP, H_ID, L=8, R=20) == 0.0
    assert error_term(ANDERSON, 2, 0, G_BUMP, H_ID, L=3, R=8) == 0.0


def test_error_term_zero_h():
    assert error_term(ANDERSON, 1, 0, G_BUMP, ScalarFunction.zero(), L=8, R=20) == 0.0


def test_error_term_decreases_in_L():
    # localized chain: the averaged corner error shrinks with the scale
    budget = 16
    means = []
    for L in (5, 10, 20):
        vals = [error_term(ANDERSON, 1, s, G_BUMP, H_SQUARE, L=L, R=60)
                for s in range(budget)]
        means.append(abs(np.mean(vals)))
    assert means[2] < means[0]
    assert means[1] < 3.0 * means[0] + 1e-12   # monotone within noise


# ---------------------------------------------------------------------------
# partition-free representation
# ---------------------------------------------------------------------------

def test_partition_free_zero_h():
    out = partition_free_coefficients(ANDERSON, 1, G_BUMP, ScalarFunction.zero(),
                                      L=6, R=16, n_samples=3)
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


def test_partition_free_adjudication_d1():
    out = partition_free_coefficients(ANDERSON, 1, G_BUMP, H_SQUARE, L=20, R=60,
                                      n_samples=40)
    verdicts = out["adjudication"][0]
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


def test_probe_reports_budget_with_certificate():
    rep = decomposition_identity_probe(ANDERSON, 1, 0, G_BUMP, H_SQUARE, L=10,
                                       R=60, decay_rate=lambda r: math.exp(-0.5 * r))
    assert rep.truncation_budget is not None
    assert rep.residual <= rep.truncation_budget + 1e-12


def test_probe_b_diagnostics_sum_to_corner_terms():
    rep = decomposition_identity_probe(ANDERSON, 2, 0, G_BUMP, H_SQUARE, L=3, R=12)
    for m, total in rep.corner_terms.items():
        parts = sum(v for (n, j), v in rep.b_diagnostics.items() if n + j == m)
        assert abs(parts - total) <= 1e-12 * max(1.0, abs(total))


def test_table_linearity_a_fv_from_summands():
    table = finite_volume_coefficients(ANDERSON, 2, G_BUMP, H_SQUARE, L=4, R=10,
                                       n_samples=6)
    for m in range(1, 3):
        combo = sum(float(table.c[m][n]) * table.A_mn[(m, n)].mean
                    for n in range(1, m + 1))
        assert abs(combo - table.A_fv[m].mean) <= 1e-10 * max(1.0, abs(combo))


def test_probe_requires_margin():
    with pytest.raises(ConfigError):
        decomposition_identity_probe(ANDERSON, 1, 0, G_BUMP, H_SQUARE, L=10, R=30)
