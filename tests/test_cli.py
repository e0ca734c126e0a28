import json
import os

import numpy as np
import pytest

from szegolab.cli import main, run_experiment
from szegolab.config import load_config, parse_scalar_function, parse_symbol
from szegolab.errors import ConfigError


EXPANSION_INI = """
[experiment]
kind = expansion_fit
seed = 7
samples = 80
out = {out}
workers = {workers}
d = 1

[ensemble]
kind = anderson
W = 8.0
hopping = 1.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[sweep]
ells = 20 40 60
R = 100
formula_L = 40
gate_crosscheck = true
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_scalar_function_forms():
    f = parse_scalar_function("bump(2.0, 3.0, 4)")
    assert f.form == "bump" and f.support == (0.5, 3.5)
    g = parse_scalar_function("poly(0, 1)")
    assert g.is_identity
    ind = parse_scalar_function("indicator(-inf, 2.0)")
    assert ind(np.array([1.0, 3.0])).tolist() == [1.0, 0.0]
    with pytest.raises(ConfigError):
        parse_scalar_function("gauss(0,1)")


def test_parse_symbol_forms():
    from scipy.special import iv
    sym = parse_symbol({"symbol": "expcos(0.5)"}, k_max=16)
    assert abs(sym.as_dict()[1].real - iv(1, 1.0)) < 1e-10   # I_1(1)
    sym2 = parse_symbol({"symbol.coeffs": "0:(1+0j) 1:(0.5+0j) -1:(0.5-0j)"})
    assert sym2.as_dict()[1] == 0.5
    one = parse_symbol({})
    assert one.as_dict() == {0: 1.0}


def test_missing_config_is_exit_2(tmp_path):
    assert run_experiment(str(tmp_path / "nope.ini")) == 2


def test_invalid_kind_is_exit_2(tmp_path):
    path = write(tmp_path, "bad.ini", "[experiment]\nkind = frobnicate\n")
    assert run_experiment(path) == 2


def test_decreasing_grid_is_exit_2(tmp_path):
    text = EXPANSION_INI.format(out=tmp_path / "o", workers=1).replace(
        "ells = 20 40 60", "ells = 60 40 20")
    path = write(tmp_path, "bad2.ini", text)
    assert run_experiment(path) == 2


def test_expansion_fit_run_and_artifacts(tmp_path):
    out = tmp_path / "out_a"
    path = write(tmp_path, "exp.ini", EXPANSION_INI.format(out=out, workers=1))
    assert run_experiment(path) == 0
    fit = json.loads((out / "fit-report.json").read_text())
    assert fit["cross_check"]["within_3_sigma"]
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "ell,trace_mean,trace_stderr,n_samples"
    assert len(sweep) == 4
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert coeffs["c"]["1"]["1"] == "2"
    winners = [a["winner"] for a in coeffs["c_tilde_adjudication"]]
    assert winners == ["recurrence"]


def test_worker_count_does_not_change_bytes(tmp_path):
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    p1 = write(tmp_path, "exp1.ini", EXPANSION_INI.format(out=out1, workers=1))
    p4 = write(tmp_path, "exp4.ini", EXPANSION_INI.format(out=out4, workers=4))
    assert run_experiment(p1) == 0
    assert run_experiment(p4) == 0
    for name in ("fit-report.json", "sweep.csv", "coefficients.json"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_identities_cli_writes_zero_residuals(tmp_path):
    out = tmp_path / "ids"
    code = main(["identities", "--d", "3", "--side", "3", "--out", str(out)])
    assert code == 0
    ids = json.loads((out / "identities.json").read_text())
    assert all(v == 0 for v in ids["inclusion_exclusion"].values())
    assert all(v == 0 for v in ids["partition"].values())
    assert ids["c_recurrence_exact"]
    assert ids["telescoping"]["max_residual"] <= 1e-9


def test_szego1d_cli_trivial_symbol(tmp_path):
    out = tmp_path / "sz"
    path = write(tmp_path, "sz.ini", f"""
[experiment]
kind = szego_1d
out = {out}

[szego1d]
symbol = one
l_grid = 5 10 20
""")
    assert main(["szego1d", path]) == 0
    rep = json.loads((out / "szego1d.json").read_text())
    assert all(abs(v) < 1e-12 for v in rep["logdet"])


def test_szego1d_gate(tmp_path):
    out = tmp_path / "szg"
    path = write(tmp_path, "szg.ini", f"""
[experiment]
kind = szego_1d
out = {out}

[szego1d]
symbol = expcos(0.5)
l_grid = 50 100
gate_at_l = 100
gate_tol = 1e-3
""")
    assert run_experiment(path) == 0


def test_numeric_failure_is_exit_3(tmp_path):
    # off-spectrum g: every kernel block is zero, the decay fit is degenerate
    out = tmp_path / "num"
    path = write(tmp_path, "num.ini", f"""
[experiment]
kind = verify
seed = 3
samples = 3
out = {out}
d = 1

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(50.0, 2.0, 4)

[verify]
box_side = 24
""")
    assert run_experiment(path) == 3


def test_gate_exceeded_is_exit_5(tmp_path, capsys):
    out = tmp_path / "gate"
    path = write(tmp_path, "gate.ini", f"""
[experiment]
kind = szego_1d
out = {out}

[szego1d]
symbol = expcos(0.5)
l_grid = 10
gate_at_l = 10
gate_tol = 1e-30
""")
    assert run_experiment(path) == 5
    err = capsys.readouterr().err
    assert "|logdet T_10 - prediction|" in err and "1e-30" in err
    assert str(out / "szego1d.json") in err


def test_verify_cli(tmp_path):
    out = tmp_path / "ver"
    path = write(tmp_path, "ver.ini", f"""
[experiment]
kind = verify
seed = 3
samples = 30
out = {out}
d = 1

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[verify]
box_side = 32
kernel_mode = exponential
gate_min_mu = 0.05
""")
    assert main(["verify", path]) == 0
    rep = json.loads((out / "decay-report.json").read_text())
    assert rep["kernel_decay"]["params"]["mu"] > 0.05


def test_shipped_reference_configs_parse():
    import pathlib
    cfg_dir = pathlib.Path(__file__).resolve().parent.parent / "configs"
    found = sorted(cfg_dir.glob("*.ini"))
    assert found, "reference configs missing"
    for path in found:
        cfg = load_config(str(path))
        assert cfg.kind in ("expansion_fit", "szego_1d", "verify", "log_enhancement")


def test_log_enhancement_gate(tmp_path):
    out = tmp_path / "le"
    path = write(tmp_path, "le.ini", f"""
[experiment]
kind = log_enhancement
seed = 0
samples = 1
out = {out}
d = 1

[ensemble]
kind = free

[g]
form = indicator(-inf, 2.0)

[h]
form = poly(0, 1, -1)

[logfit]
ells = 48 96 144 192
expect = enhanced
""")
    assert run_experiment(path) == 0
    rep = json.loads((out / "log-enhancement.json").read_text())
    assert rep["classification"] == "enhanced"
