"""Mutation ledger: a hand-written mutant of the coefficient pipeline per
plausible bug, each with the value check that must fail under it.

The README lists every mutant with the check that catches it, including the
corner reflection tested in ``test_coefficients`` and the equivalent mutants
that no test can catch.
"""

import pytest

import szegolab.coefficients as coefficients
from szegolab.lattices import EnsembleSpec
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
