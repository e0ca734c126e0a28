import numpy as np
import pytest

from szegolab import mc

# collected by tests/test_acceptance.py, echoed at the end of the run
ACCEPTANCE_LINES = []


def rand_hermitian(rng, n, complex_entries=False, scale=1.0):
    m = rng.standard_normal((n, n))
    if complex_entries:
        m = m + 1j * rng.standard_normal((n, n))
    return scale * (m + m.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


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


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
