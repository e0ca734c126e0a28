import tracemalloc

import numpy as np
import pytest

from szegolab import mc
from szegolab.errors import ConfigError, NumericError
from szegolab.lattices import (MEMORY_BUDGET_BYTES, EnsembleSpec, HermitianOperator,
                               LatticeBox, build_operator)
from szegolab.spectral import (DEFAULT_GRID, HS_WORKING_SET_BYTES, QuadratureGrid,
                               ScalarFunction, _chunk_nodes, hs_apply, hs_discrepancy,
                               hs_extension, matrix_function, resolvent)
from tests.conftest import rand_hermitian


def test_decompose_free_chain_matches_closed_form():
    op = build_operator(EnsembleSpec("free"), LatticeBox.interval(1, 8), 0)
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, 9) * np.pi / 9))
    assert np.max(np.abs(np.linalg.eigvalsh(op.matrix) - expected)) < 1e-10
    recon = matrix_function(op, ScalarFunction.identity())
    assert recon.box == op.box
    assert np.max(np.abs(recon.matrix - op.matrix)) < 1e-9 * np.abs(op.matrix).max()


def test_apply_identity_reconstructs(rng):
    op = HermitianOperator.from_matrix(rand_hermitian(rng, 7, complex_entries=True))
    out = matrix_function(op, ScalarFunction.identity())
    assert np.max(np.abs(out.matrix - op.matrix)) < 1e-9


def test_apply_indicator_diag():
    op = HermitianOperator.from_matrix(np.diag([1.0, 2.0, 3.0]))
    out = matrix_function(op, ScalarFunction.indicator(-np.inf, 2.0))
    assert np.allclose(out.matrix, np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_apply_square_on_involution():
    op = HermitianOperator.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    out = matrix_function(op, ScalarFunction.poly((0.0, 0.0, 1.0)))
    assert np.allclose(out.matrix, np.eye(2), atol=1e-12)


def test_spectral_mapping(rng):
    op = HermitianOperator.from_matrix(rand_hermitian(rng, 9))
    f = ScalarFunction.poly((0.5, -1.0, 2.0))
    lam = np.linalg.eigvalsh(op.matrix)
    out = matrix_function(op, f)
    got = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.max(np.abs(got - np.sort(f(lam)))) < 1e-9


def test_resolvent_scalar_cases():
    op = HermitianOperator.from_matrix(np.zeros((1, 1)))
    assert abs(resolvent(op, 1j)[0, 0] - 1j) < 1e-14
    op1 = HermitianOperator.from_matrix(np.eye(1))
    assert abs(resolvent(op1, 0.0)[0, 0] - 1.0) < 1e-14


def test_resolvent_norm_identity(rng):
    op = HermitianOperator.from_matrix(rand_hermitian(rng, 6, complex_entries=True))
    lam = np.linalg.eigvalsh(op.matrix)
    z = lam.max() + 1.0
    r = resolvent(op, z)
    norm = np.linalg.norm(r, ord=2)
    dist = np.min(np.abs(lam - z))
    assert abs(norm - 1.0 / dist) <= 1e-8 * (1.0 / dist)


def test_resolvent_rejects_spectrum_point():
    op = HermitianOperator.from_matrix(np.diag([1.0, 2.0]))
    with pytest.raises(NumericError):
        resolvent(op, 1.0 + 1e-14)


def test_bump_smoothness_class():
    # (1 - t^2)^(k+1) has vanishing derivatives up to order k at the seam
    f = ScalarFunction.bump(0.0, 2.0, 4)
    for r in range(5):
        vals = f.derivative(r)(np.array([-1.0 + 1e-9, 1.0 - 1e-9]))
        assert np.max(np.abs(vals)) < 1e-5   # vanishing to order 4 at the seam
    assert f(np.array([0.0]))[0] == 1.0
    assert f(np.array([2.0]))[0] == 0.0


def test_indicator_has_no_derivatives():
    f = ScalarFunction.indicator(0.0, 1.0)
    with pytest.raises(ConfigError):
        f.derivative(1)


# ---------------------------------------------------------------------------
# quasi-analytic extension
# ---------------------------------------------------------------------------

def test_hs_extension_zero_function():
    z = ScalarFunction.bump(0.0, 2.0, 4)
    zero = ScalarFunction.poly((0.0,), support=(-1.0, 1.0))
    ext = hs_extension(zero, 2)
    xs = np.linspace(-2, 2, 21)[None, :]
    ys = np.linspace(0.01, 1, 7)[:, None]
    assert np.max(np.abs(ext.omega(xs, ys))) == 0.0


def test_hs_extension_bound_reported_and_finite():
    f = ScalarFunction.bump(0.0, 2.0, 4)
    ext = hs_extension(f, 2)
    # C in |omega| <= C |y|^(n-1): the maximum over a 200 x 200 grid
    xs = np.linspace(*ext.x_support, 200)[None, :]
    ys = np.linspace(1e-6, 1.0, 200)[:, None]
    c = np.max(np.abs(ext.omega(xs, ys)) / ys ** (ext.order - 1))
    assert np.isfinite(c) and c > 0
    # re-checked on a shifted grid
    xs = np.linspace(*ext.x_support, 173)[None, :]
    ys = np.linspace(2e-3, 0.97, 89)[:, None]
    w = ext.omega(xs, ys)
    assert np.max(np.abs(w) / np.abs(ys) ** (ext.order - 1)) <= c * 1.05


def test_hs_omega_vanishes_outside_support():
    f = ScalarFunction.bump(1.0, 2.0, 6)
    ext = hs_extension(f, 3)
    xs = np.array([-1.5, -0.5, 2.5, 3.5])[None, :]   # outside supp f = [0, 2]
    ys = np.linspace(0.05, 0.95, 11)[:, None]
    assert np.max(np.abs(ext.omega(xs, ys))) == 0.0


def test_hs_extension_requires_order_two():
    f = ScalarFunction.bump(0.0, 2.0, 6)
    with pytest.raises(ConfigError):
        hs_extension(f, 1)
    with pytest.raises(ConfigError):
        hs_extension(ScalarFunction.indicator(0.0, 1.0), 2)


@pytest.mark.parametrize("support", [(1.0, 1.0), (2.0, 1.0)])
def test_hs_extension_refuses_an_empty_support(support):
    # the rule's y0 search never ended on a support of width <= 0
    with pytest.raises(ConfigError, match="positive width"):
        hs_extension(ScalarFunction.poly((0.0,), support=support), 2)


# ---------------------------------------------------------------------------
# hs_apply against the spectral route
# ---------------------------------------------------------------------------

def test_hs_apply_zero_function_gives_zero():
    zero = ScalarFunction.poly((0.0,), support=(-1.0, 1.0))
    ext = hs_extension(zero, 2)
    op = HermitianOperator.from_matrix(np.diag([0.2, -0.1]))
    out = hs_apply(op, ext, QuadratureGrid(4, 4, 2))
    assert np.max(np.abs(out.matrix)) < 1e-14


def test_hs_apply_scalar_oracle():
    f = ScalarFunction.bump(0.0, 2.0, 6)
    ext = hs_extension(f, 4)
    for lam in (0.0, 0.37, -0.61):
        op = HermitianOperator.from_matrix(np.array([[lam]]))
        got = hs_apply(op, ext).matrix[0, 0]
        assert abs(got - float(f(lam))) <= 1e-6


def test_hs_apply_matches_spectral_route(rng):
    f = ScalarFunction.bump(0.0, 2.0, 6)
    ext = hs_extension(f, 4)
    m = rand_hermitian(rng, 8, complex_entries=True)
    m *= 0.8 / np.abs(np.linalg.eigvalsh(m)).max()
    op = HermitianOperator.from_matrix(m)
    assert hs_discrepancy(op, ext) <= 1e-5


def test_hs_refinement_near_monotone(rng):
    f = ScalarFunction.bump(0.0, 2.0, 6)
    ext = hs_extension(f, 4)
    m = rand_hermitian(rng, 6)
    m *= 0.7 / np.abs(np.linalg.eigvalsh(m)).max()
    op = HermitianOperator.from_matrix(m)
    grids = [QuadratureGrid(4, 8, 4), QuadratureGrid(8, 8, 4), QuadratureGrid(16, 8, 4)]
    errs = [hs_discrepancy(op, ext, grid) for grid in grids]
    for a, b in zip(errs, errs[1:]):
        assert b <= 4.0 * a + 1e-12     # factor-4 non-monotonicity slack


def test_hs_apply_rejects_spectrum_outside_support():
    f = ScalarFunction.bump(0.0, 1.0, 4)
    ext = hs_extension(f, 2)
    op = HermitianOperator.from_matrix(np.diag([5.0]))
    with pytest.raises(ConfigError):
        hs_apply(op, ext)


def test_hs_apply_refuses_a_nan_operator():
    # a NaN spectrum passed the support check, and the route returned NaNs
    ext = hs_extension(ScalarFunction.bump(0.0, 2.0, 6), 4)
    op = HermitianOperator.from_matrix(np.array([[0.1, np.nan], [np.nan, 0.2]]))
    with pytest.raises(ConfigError, match="x-support"):
        hs_apply(op, ext)


def test_hs_apply_refuses_a_non_finite_quadrature(monkeypatch):
    import szegolab.spectral as spectral
    monkeypatch.setattr(spectral, "_hs_quadrature", lambda m, ext, grid: np.full(m.shape, np.nan))
    ext = hs_extension(ScalarFunction.bump(0.0, 2.0, 6), 4)
    with pytest.raises(NumericError, match="non-finite"):
        hs_apply(HermitianOperator.from_matrix(np.diag([0.1, 0.2])), ext)


def _criterion_8_operator(rng, n=16):
    m = rand_hermitian(rng, n, complex_entries=True)
    return HermitianOperator.from_matrix(m * (0.8 / np.abs(np.linalg.eigvalsh(m)).max()))


def test_hs_default_rule_is_cheap_and_accurate(rng, monkeypatch):
    ext = hs_extension(ScalarFunction.bump(0.0, 2.0, 6), 4)
    op = _criterion_8_operator(rng)
    solve = np.linalg.solve
    systems = []

    def counting_solve(a, b):
        systems.append(a.shape[0])
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    got = hs_apply(op, ext)
    assert sum(systems) <= 1440
    err = np.linalg.norm(got.matrix - matrix_function(op, ext.f).matrix, ord=2)
    assert err <= 1e-8
    zs, w = DEFAULT_GRID.nodes(ext)
    lo, hi = ext.f.support
    assert zs.size == w.size == sum(systems)
    assert np.all((zs.imag > 0) & (zs.imag <= 1) & (zs.real > lo) & (zs.real < hi))
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_hs_oracle_is_finite_and_accurate_on_more_matrices(seed):
    # criterion 8's recipe on fresh matrices: a node on or near the real axis
    # would make a resolvent singular and the discrepancy NaN or large
    ext = hs_extension(ScalarFunction.bump(0.0, 2.0, 6), 4)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        err = hs_discrepancy(_criterion_8_operator(rng), ext)
        assert np.isfinite(err) and err <= 1e-8


@pytest.mark.parametrize("counts, field", [((0, 8, 4), "x_panels"), ((16, 0, 4), "x_nodes"),
                                           ((16, 8, 0), "y_nodes"), ((-2, 8, 4), "x_panels"),
                                           ((16, 8.0, 4), "x_nodes"), ((16, 8, True), "y_nodes")])
def test_quadrature_grid_refuses_a_count_that_is_not_a_positive_integer(counts, field):
    with pytest.raises(ConfigError, match=field):
        QuadratureGrid(*counts)


def test_hs_apply_pins_blas_to_one_thread(openblas_at_two, monkeypatch):
    ext = hs_extension(ScalarFunction.bump(0.0, 2.0, 6), 4)
    op = _criterion_8_operator(np.random.default_rng(7))
    with mc.single_blas_thread():
        at_one = hs_apply(op, ext).matrix
    solve = np.linalg.solve
    seen = []

    def recording_solve(a, b):
        seen.append(tuple(openblas_at_two()))
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    at_two = hs_apply(op, ext).matrix
    assert seen and all(set(counts) == {1} for counts in seen)
    assert set(openblas_at_two()) == {2}
    assert at_one.tobytes() == at_two.tobytes()


def test_hs_chunk_fits_memory_budget():
    # each node holds a shifted matrix, a right-hand side and a solution; a
    # chunk fills the fixed working set, not the whole memory budget
    for n in (16, 128):
        per_node = 3 * 16 * n ** 2
        chunk = _chunk_nodes(n)
        assert chunk * per_node <= MEMORY_BUDGET_BYTES
        assert chunk * per_node <= HS_WORKING_SET_BYTES
        assert chunk == 1 or (chunk + 1) * per_node > HS_WORKING_SET_BYTES
    zs, _ = DEFAULT_GRID.nodes(hs_extension(ScalarFunction.bump(0.0, 2.0, 6), 4))
    assert zs.size > _chunk_nodes(16)


@pytest.mark.parametrize("n", [16, 48])
def test_hs_apply_working_set_does_not_grow_with_n(rng, n):
    ext = hs_extension(ScalarFunction.bump(0.0, 2.0, 6), 4)
    op = _criterion_8_operator(rng, n)
    tracemalloc.start()
    try:
        hs_apply(op, ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak
