"""Mutation ledger: a hand-written mutant of the coefficient pipeline per
plausible bug, each with the value check that must fail under it.

The README lists every mutant with the check that catches it, including the
corner reflection tested in ``test_coefficients`` and the equivalent mutants
that no test can catch.
"""

import pytest

import szegolab.coefficients as coefficients
from szegolab.lattices import EnsembleSpec
from szegolab.regions import Layer, Region, box_region
from tests import test_coefficients as coefficient_tests

H_SQUARE = coefficient_tests.H_SQUARE


def free_lattice_oracle_d1():
    """The free-lattice oracle for d = 1, h = x^2, R = 16, L = 6 on one sample:
    A = (70, -36) from the wedge route, the pf recurrence and the fit."""
    coefficient_tests.test_partition_free_free_lattice_oracle(
        1, H_SQUARE, 16, 6, range(8, 11), (70, -36), 1e-7)


def test_c_tilde_off_by_4_to_the_m_fails_the_oracle(monkeypatch):
    # the pf A_1 reads -144 against -36
    real = coefficients.c_tilde_recurrence
    monkeypatch.setattr(coefficients, "c_tilde_recurrence",
                        lambda d, m, n: real(d, m, n) * 4 ** m)
    with pytest.raises(AssertionError):
        free_lattice_oracle_d1()


def test_c_sign_flip_fails_the_oracle_but_not_the_adjudication(monkeypatch):
    # the wedge A_1 reads +36 against -36.  c~ is built from c, so the pf
    # route flips with it and the two routes still agree: only the oracle's
    # closed form and the fit see this mutant
    real = coefficients.c_constant
    monkeypatch.setattr(coefficients, "c_constant", lambda d, m, n: -real(d, m, n))
    with pytest.raises(AssertionError):
        free_lattice_oracle_d1()
    res = coefficients.coefficient_sweep(EnsembleSpec("free"), 1, H_SQUARE, H_SQUARE, 16, [6], 1)
    assert res.a_fv(6, 1).mean == pytest.approx(36.0)
    assert res.adjudicate(6, 1)["winner"] == "recurrence"


@pytest.mark.parametrize("d, L, R", [(1, 10, 60), (2, 3, 12)])
def test_error_term_box_one_layer_short_fails_the_probe(monkeypatch, d, L, R):
    # E^(L) restricted to the corner box {0..2L-2}^d instead of {0..2L-1}^d:
    # the probe's residual / scale reads 1.4e-7 (d = 1) and 3.3e-2 (d = 2),
    # against 0 and 6.2e-17 unmutated
    real = coefficients.box_region

    def short_error_box(d, lo, hi):
        return real(d, lo, hi - 1 if (lo, hi) == (0, 2 * L - 1) else hi)
    monkeypatch.setattr(coefficients, "box_region", short_error_box)
    with pytest.raises(AssertionError):
        coefficient_tests.test_probe_exact_at_rounding_level(d, L, R)


def test_pf_layers_on_the_leading_axes_fail_the_oracle_but_not_the_adjudication(monkeypatch):
    # layers x_1..x_{d-m} = 0 instead of x_{m+1..d} = 0.  chi_hat_region is
    # built on pf_region, so the wedge and pf routes move together: on the
    # free lattice in d = 2 both A_1 read -1752 against -296
    def leading_layers(d, m, L):
        return box_region(d, 0, L - 1) & Region(d, tuple(Layer(i, 0) for i in range(d - m)))
    monkeypatch.setattr(coefficients, "pf_region", leading_layers)
    with pytest.raises(AssertionError):
        coefficient_tests.test_partition_free_free_lattice_oracle(
            2, H_SQUARE, 16, 6, range(8, 12), (676, -296, 16), 1e-7)
    res = coefficients.coefficient_sweep(EnsembleSpec("free"), 2, H_SQUARE, H_SQUARE, 16, [6], 1)
    assert res.a_fv(6, 1).mean == pytest.approx(-1752.0)
    assert res.a_pf(6, 1)["recurrence"].mean == pytest.approx(-1752.0)
    assert res.adjudicate(6, 1)["winner"] == "recurrence"
