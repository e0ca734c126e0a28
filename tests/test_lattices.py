import numpy as np
import pytest
from scipy import stats as scipy_stats

from szegolab.errors import ConfigError, ModelError
from szegolab.lattices import (MEMORY_BUDGET_BYTES, EnsembleSpec, LatticeBox,
                               Symbol1D, build_operator, operator_bytes,
                               site_uniforms, symbol_fourier_coefficients,
                               toeplitz_matrix)


def test_box_index_map_is_bijection():
    box = LatticeBox((-2, 0), (1, 3))
    seen = set()
    for site in map(tuple, box.sites()):
        idx = box.index_of(site)
        assert 0 <= idx < box.site_count
        seen.add(idx)
    assert len(seen) == box.site_count


def test_box_row_major_order():
    box = LatticeBox((0, 0), (1, 2))
    assert [tuple(s) for s in box.sites()] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_free_d1_is_tridiagonal_laplacian():
    op = build_operator(EnsembleSpec("free"), LatticeBox.interval(0, 2), 0)
    expected = np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float)
    assert np.array_equal(op.matrix, expected)


def test_anderson_zero_disorder_equals_free():
    box = LatticeBox.cube(2, -3, 3)
    free = build_operator(EnsembleSpec("free"), box, 0)
    a0 = build_operator(EnsembleSpec("anderson", W=0.0, seed=9), box, 0)
    assert np.array_equal(free.matrix, a0.matrix)


@pytest.mark.parametrize("n", [4, 8, 13])
def test_free_d1_dirichlet_eigenvalues(n):
    # closed form for the Dirichlet chain: 2 - 2 cos(k pi / (n+1))
    op = build_operator(EnsembleSpec("free"), LatticeBox.interval(1, n), 0)
    got = np.linalg.eigvalsh(op.matrix)
    expected = np.sort(2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.max(np.abs(got - expected)) < 1e-10


def test_seed_stability_bit_identical():
    spec = EnsembleSpec("anderson", W=5.0, seed=3)
    box = LatticeBox.cube(2, -4, 4)
    a = build_operator(spec, box, 17)
    b = build_operator(spec, box, 17)
    assert np.array_equal(a.matrix, b.matrix)
    c = build_operator(spec, box, 18)
    assert not np.array_equal(a.matrix, c.matrix)


def test_potential_nesting_under_box_growth():
    # the small-box sample is the restriction of the large-box sample
    spec = EnsembleSpec("anderson", W=3.0, seed=5)
    small = LatticeBox.cube(2, -2, 2)
    large = LatticeBox.cube(2, -6, 6)
    op_s = build_operator(spec, small, 4)
    op_l = build_operator(spec, large, 4)
    for site in map(tuple, small.sites()):
        vs = op_s.matrix[small.index_of(site), small.index_of(site)]
        vl = op_l.matrix[large.index_of(site), large.index_of(site)]
        assert vs == vl


def test_site_uniforms_are_uniform_in_bulk():
    coords = np.arange(-5000, 5000)[:, None]
    u = site_uniforms(7, 0, coords)
    assert 0.0 <= u.min() and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_periodic_potential():
    spec = EnsembleSpec("periodic", period=(2,), potential_cell=(1.0, -1.0))
    box = LatticeBox.interval(0, 3)
    diags = [np.diagonal(build_operator(spec, box, s).matrix) for s in range(3)]
    assert np.array_equal(diags[0], np.array([3.0, 1.0, 3.0, 1.0]))
    # sample s is the s-th translate of the cell, cycling through the hull
    assert np.array_equal(diags[1], np.array([1.0, 3.0, 1.0, 3.0]))
    assert np.array_equal(diags[2], diags[0])


def test_hermiticity_of_constructors():
    box = LatticeBox.cube(2, -3, 3)
    for spec in (EnsembleSpec("free"), EnsembleSpec("anderson", W=10.0, seed=2)):
        op = build_operator(spec, box, 1)
        assert np.abs(op.matrix - op.matrix.conj().T).max() <= 1e-12


def test_trace_distribution_invariant_under_swap():
    # Monte Carlo distribution comparison on a non-symmetric window: the trace
    # of g(H) over a rectangle should be distribution-invariant under the
    # coordinate swap (two-sample KS below the 95% critical value)
    from szegolab.regions import Region, CoordRange
    spec = EnsembleSpec("anderson", W=4.0, seed=100)
    box = LatticeBox.cube(2, -5, 4)
    rect = Region(2, (CoordRange(0, -3, 1), CoordRange(1, -1, 3)))
    bits = rect.evaluate(box.sites())
    swap = box.indices_of(box.sites()[:, ::-1])     # site (x, y) -> (y, x)
    t_plain, t_swapped = [], []
    for s in range(200):
        op = build_operator(spec, box, s)
        lam, u = np.linalg.eigh(op.matrix)
        g = np.exp(-0.5 * (lam - 2.0) ** 2)
        diag = np.diagonal((u * g[None, :]) @ u.T)
        t_plain.append(np.sum(diag[bits]))
        t_swapped.append(np.sum(diag[swap][bits]))
    stat = scipy_stats.ks_2samp(t_plain, t_swapped).statistic
    critical_95 = 1.358 * np.sqrt(2.0 / 200.0)
    assert stat < critical_95


def test_toeplitz_constant_symbol_is_identity():
    sym = Symbol1D.from_dict({0: 1.0})
    op = toeplitz_matrix(sym, 3)
    assert np.array_equal(op.matrix, np.eye(3))


def test_toeplitz_two_cos():
    sym = Symbol1D.from_dict({1: 1.0, -1: 1.0})   # a(theta) = 2 cos theta
    op = toeplitz_matrix(sym, 2)
    assert np.array_equal(op.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_toeplitz_expcos_entries_match_quadrature_oracle():
    # oracle: high-resolution trapezoidal quadrature of the Fourier integral
    n_quad = 4096
    theta = 2 * np.pi * np.arange(n_quad) / n_quad
    vals = np.exp(np.cos(theta))
    oracle = {k: np.mean(vals * np.exp(-1j * k * theta)).real for k in range(-3, 4)}
    sym = symbol_fourier_coefficients(lambda th: np.exp(np.cos(th)), 16, 128)
    op = toeplitz_matrix(sym, 4)
    for j in range(4):
        for k in range(4):
            assert abs(op.matrix[j, k] - oracle[j - k]) < 1e-10
    # modified-Bessel value quoted for the central coefficient
    assert abs(op.matrix[0, 0] - 1.2660658) < 1e-6


def test_non_hermitian_symbol_rejected():
    sym = Symbol1D.from_dict({1: 1.0})            # a(theta) = e^{i theta}
    with pytest.raises(ModelError):
        toeplitz_matrix(sym, 3)


def test_symbol_fourier_trivial_cases():
    one = symbol_fourier_coefficients(lambda th: np.ones_like(th), 4, 64)
    table = one.as_dict()
    assert abs(table[0] - 1.0) < 1e-14
    assert all(abs(table[k]) < 1e-14 for k in table if k != 0)
    eix = symbol_fourier_coefficients(lambda th: np.exp(1j * th), 4, 64)
    table = eix.as_dict()
    assert abs(table[1] - 1.0) < 1e-14
    assert all(abs(v) < 1e-14 for k, v in table.items() if k != 1)


def test_symbol_quadrature_refuses_aliasing():
    with pytest.raises(ConfigError):
        symbol_fourier_coefficients(lambda th: np.ones_like(th), 16, 32)


def test_toeplitz_requires_d1():
    sym = Symbol1D.from_dict({0: 1.0})
    spec = EnsembleSpec("toeplitz1d", symbol=sym)
    with pytest.raises(ModelError):
        build_operator(spec, LatticeBox.cube(2, 0, 3), 0)


@pytest.mark.parametrize("block", [
    {"kind": "anderson", "W": "nan"},
    {"kind": "anderson", "W": "inf"},
    {"kind": "anderson", "W": "8", "hopping": "-inf"},
    {"kind": "free", "hopping": "nan"},
    {"kind": "periodic", "period": "3", "potential_cell": "0 nan 1"},
], ids=["W-nan", "W-inf", "hopping-minf", "hopping-nan", "cell-nan"])
def test_non_finite_ensemble_is_config_error(block):
    with pytest.raises(ConfigError, match="must be finite"):
        EnsembleSpec.from_config(block)


def test_operator_byte_estimate_and_guard():
    # matrix, eigenvectors, LAPACK's input copy and two n^2 of eigh workspace
    assert operator_bytes(2304, "anderson") == 5 * 8 * 2304 ** 2
    assert operator_bytes(400, "toeplitz1d") == 5 * 16 * 400 ** 2
    # the largest shipped box (d = 2, R = 24) fits with room to spare
    assert (operator_bytes(LatticeBox.centered(2, 24).site_count, "anderson")
            < MEMORY_BUDGET_BYTES / 10)
    # 8000 sites of float64 need 2.56e9 bytes; refused before any allocation
    assert operator_bytes(8000, "free") > MEMORY_BUDGET_BYTES
    with pytest.raises(ModelError, match="2560000000 bytes"):
        build_operator(EnsembleSpec("free"), LatticeBox.interval(0, 7999), 0)
    sym = Symbol1D.from_dict({0: 2.0, 1: 0.5, -1: 0.5})
    with pytest.raises(ModelError, match="5120000000 bytes"):
        toeplitz_matrix(sym, 8000)          # the 1-D Szego suite builds these directly
