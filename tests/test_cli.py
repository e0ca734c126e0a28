import glob
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from szegolab import mc
from szegolab.cli import main, run_experiment
from szegolab.config import OPTION_KEYS, load_config, parse_scalar_function, parse_symbol
from szegolab.errors import ConfigError, NumericError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CONFIGS = os.path.join(ROOT, "configs")

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


def test_unknown_symbol_form_is_exit_2_before_the_suite(tmp_path, monkeypatch, capsys):
    import szegolab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("the suite ran before the refusal")
    monkeypatch.setattr(cli, "szego_1d_suite", no_work)
    with open(os.path.join(CONFIGS, "szego1d.ini"), encoding="utf-8") as fh:
        text = fh.read().replace("symbol = expcos(0.5)", "symbol = coscoeff(1, 0.5)")
    assert main(["run", write(tmp_path, "sym.ini", text), "--out", str(tmp_path / "o")]) == 2
    assert "unknown symbol form 'coscoeff(1, 0.5)'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_reaches_the_ensemble(tmp_path):
    # the seed has one home, [experiment], which --seed overrides
    config = os.path.join(CONFIGS, "expansion_d1.ini")
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["run", config, "--seed", seed, "--samples", "2", "--workers", "1",
                     "--out", str(out)]) == 0
        reports.append((out / "fit-report.json").read_bytes())
    assert reports[0] != reports[1]


def test_missing_config_is_exit_2(tmp_path):
    assert run_experiment(str(tmp_path / "nope.ini")) == 2


def test_invalid_kind_is_exit_2(tmp_path):
    path = write(tmp_path, "bad.ini", "[experiment]\nkind = frobnicate\n")
    assert run_experiment(path) == 2


_ENSEMBLE = "[ensemble]\nkind = anderson\nW = 8.0\n"
_G = "[g]\nform = bump(2.0, 3.0, 4)\n"
_H = "[h]\nform = poly(0, 0, 1)\n"
_TRACE = "[verify]\ntrace_inner = range(1,0,9)\ntrace_outer = orthant(1,+)\n"


@pytest.mark.parametrize("kind, sections, missing", [
    ("verify", [_G, _H], "ensemble"),
    ("expansion_fit", [_G, _H, "[sweep]\nells = 4 6 8\nR = 8\n"], "ensemble"),
    ("verify", [_ENSEMBLE, _H], "g"),
    ("verify", [_ENSEMBLE, _G, _TRACE], "h"),
], ids=["verify-no-ensemble", "expansion-no-ensemble", "verify-no-g", "trace-no-h"])
def test_sampled_config_without_its_sections_is_exit_2(tmp_path, capsys, kind, sections,
                                                       missing):
    text = f"[experiment]\nkind = {kind}\nsamples = 2\nd = 1\n\n" + "\n".join(sections)
    path = write(tmp_path, "bad.ini", text)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: a {kind} experiment needs a [{missing}] section\n"


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.ini"))) or [None],
                         ids=lambda path: os.path.basename(path or "none"))
def test_shipped_config_validates(path):
    assert path is not None, "reference configs missing"
    cfg = load_config(path)
    assert cfg.kind in ("expansion_fit", "szego_1d", "verify", "log_enhancement")
    # a key of another kind loads, and this kind would ignore it
    assert set(cfg.options) <= set(OPTION_KEYS[cfg.kind])


@pytest.mark.parametrize("text, line, reason", [
    ("kind = verify\n", 1, "a key comes before any [section] header"),
    ("[experiment]\nkind = verify\n\n[experiment]\nseed = 3\n", 4,
     "section [experiment] appears twice"),
], ids=["no-section-header", "repeated-section"])
def test_malformed_ini_is_exit_2_naming_file_and_line(tmp_path, capsys, text, line, reason):
    path = write(tmp_path, "bad.ini", text)
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config file {path!r}, line {line}: {reason}\n"


def test_decreasing_grid_is_exit_2(tmp_path):
    text = EXPANSION_INI.format(out=tmp_path / "o", workers=1).replace(
        "ells = 20 40 60", "ells = 60 40 20")
    path = write(tmp_path, "bad2.ini", text)
    assert run_experiment(path) == 2


@pytest.mark.parametrize("key, value", [("W", "nan"), ("W", "inf"), ("hopping", "nan")])
def test_non_finite_ensemble_is_exit_2(tmp_path, capsys, key, value):
    text = EXPANSION_INI.format(out=tmp_path / "o", workers=1).replace(
        f"\n{key} = ", f"\n{key} = {value}\n# was ")
    assert run_experiment(write(tmp_path, "nonfinite.ini", text)) == 2
    assert "must be finite" in capsys.readouterr().err


FORMULA_INI = """
[experiment]
kind = coefficient_formula
seed = 7
samples = 1
out = {out}
d = 1

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[coeff]
L = 4
R = 16
"""


@pytest.mark.parametrize("old, new", [
    ("bump(2.0, 3.0, 4)", "bump(nan, 3.0, 4)"),         # was all-zero coefficients
    ("bump(2.0, 3.0, 4)", "bump(2.0, inf, 4)"),         # was g = 1 near 2
    ("poly(0, 0, 1)", "poly(0, nan, 1)"),               # was NaN coefficients
    ("bump(2.0, 3.0, 4)", "indicator(nan, 2.0)"),       # was (-inf, 2]
], ids=["bump-nan-center", "bump-inf-width", "poly-nan-coeff", "indicator-nan-bound"])
def test_non_finite_function_parameter_is_exit_2(tmp_path, capsys, old, new):
    text = FORMULA_INI.format(out=tmp_path / "o").replace(old, new)
    assert run_experiment(write(tmp_path, "fn.ini", text)) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o" / "coefficients.json").exists()


@pytest.mark.parametrize("key, edits", [
    ("W", [("W = 8.0", "W = abc")]),
    ("L", [("L = 4", "L = five")]),
    ("samples", [("samples = 1", "samples = x")]),
    ("symbol.coeffs", [("kind = anderson\nW = 8.0", "kind = toeplitz1d\nsymbol.coeffs = 1:abc")]),
    ("ct_z", [("coefficient_formula", "verify"), ("R = 16", "ct_z = 5+1j nope")]),
], ids=["W", "L", "samples", "symbol.coeffs", "ct_z"])
def test_malformed_number_is_exit_2_naming_the_key(tmp_path, capsys, key, edits):
    text = FORMULA_INI.format(out=tmp_path / "o")
    for old, new in edits:
        text = text.replace(old, new)
    assert run_experiment(write(tmp_path, "num.ini", text)) == 2
    assert f"{key} = " in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("W = 8.0", "w = 8.0", "[ensemble] has no key 'w'"),
    ("samples = 80", "sample = 80", "[experiment] has no key 'sample'"),
    ("form = bump(2.0, 3.0, 4)", "shape = bump(2.0, 3.0, 4)", "[g] has no key 'shape'"),
    ("form = poly(0, 0, 1)", "", "[h] needs a 'form' key"),
    ("form = poly(0, 0, 1)", "form = entire(0, 0, 1)", "unknown function form 'entire'"),
    ("gate_crosscheck = true", "gate_crosscheck = ture", "gate_crosscheck = 'ture'"),
    ("hopping = 1.0", "hopping = 1.0\nseed = 5",
     "[ensemble] has no key 'seed': it belongs in [experiment]"),
    ("hopping = 1.0", "hopping = 1.0\nd = 1",
     "[ensemble] has no key 'd': it belongs in [experiment]"),
    ("kind = anderson\nW = 8.0", "kind = toeplitz1d\nsymbol.coeffs = 0:2",
     "[ensemble] kind = toeplitz1d reads no key 'hopping' (it reads: symbol.coeffs)"),
    ("W = 8.0", "W = 8.0\nperiod = 3",
     "[ensemble] kind = anderson reads no key 'period' (it reads: W hopping)"),
], ids=["ensemble-key", "experiment-key", "g-key-without-form", "h-without-form",
        "entire-form", "boolean-typo", "ensemble-seed", "ensemble-d",
        "toeplitz-hopping", "anderson-period"])
def test_fixed_section_typo_is_exit_2_before_the_first_sample(tmp_path, monkeypatch, capsys,
                                                               old, new, message):
    # [experiment], [ensemble], [g] and [h] are closed: a misspelt key would
    # otherwise leave its value at the default (W = 0, one sample)
    import szegolab.coefficients as coefficients
    calls = []

    def counted(*args, _orig=coefficients.spectral_data):
        calls.append(args[2])
        return _orig(*args)
    monkeypatch.setattr(coefficients, "spectral_data", counted)
    text = EXPANSION_INI.format(out=tmp_path / "o", workers=1)
    assert old in text
    assert run_experiment(write(tmp_path, "typo.ini", text.replace(old, new))) == 2
    assert calls == []
    assert message in capsys.readouterr().err


def test_periodic_samples_off_the_hull_are_exit_2_before_the_first_sample(
        tmp_path, monkeypatch, capsys):
    import szegolab.coefficients as coefficients

    def no_sample(*args):
        raise AssertionError("a sample ran before the refusal")
    monkeypatch.setattr(coefficients, "spectral_data", no_sample)
    text = EXPANSION_INI.format(out=tmp_path / "o", workers=1).replace(
        "kind = anderson\nW = 8.0", "kind = periodic\nperiod = 3\npotential_cell = 0 1.5 -0.7")
    assert run_experiment(write(tmp_path, "per.ini", text)) == 2
    err = capsys.readouterr().err
    assert "samples = 80" in err and "multiple of 3" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("old, new, message", [
    ("kind = anderson\nW = 8.0", "kind = periodic\nperiod = 1 1\npotential_cell = 0.5",
     "period vector dimension does not match the box"),
    ("kind = anderson\nW = 8.0", "kind = toeplitz1d\nsymbol.coeffs = 0:2",
     "toeplitz1d ensemble is only defined for d = 1"),
], ids=["periodic-period", "toeplitz1d"])
def test_ensemble_of_another_dimension_is_exit_2_before_the_first_sample(
        tmp_path, monkeypatch, capsys, old, new, message):
    # both were refused only by build_operator, inside the first sample
    import szegolab.coefficients as coefficients
    calls = []

    def counted(*args, _orig=coefficients.spectral_data):
        calls.append(args[2])
        return _orig(*args)
    monkeypatch.setattr(coefficients, "spectral_data", counted)
    text = FORMULA_INI.format(out=tmp_path / "o").replace(old, new)
    if "toeplitz1d" in new:
        text = text.replace("d = 1\n", "d = 2\n")
    assert run_experiment(write(tmp_path, "dim.ini", text)) == 2
    assert calls == []
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_short_fit_grid_is_exit_2_before_the_first_sample(tmp_path, monkeypatch, capsys):
    import szegolab.coefficients as coefficients

    def no_sample(*args):
        raise AssertionError("a sample ran before the refusal")
    monkeypatch.setattr(coefficients, "spectral_data", no_sample)
    text = EXPANSION_INI.format(out=tmp_path / "o", workers=1).replace(
        "ells = 20 40 60", "ells = 20 40")
    assert run_experiment(write(tmp_path, "short.ini", text)) == 2
    assert "need at least d+2 = 3 grid points, got 2" in capsys.readouterr().err


def test_non_increasing_grid_is_exit_2_before_the_first_sample(tmp_path, monkeypatch, capsys):
    import szegolab.coefficients as coefficients
    calls = []

    def counted(*args, _orig=coefficients.spectral_data):
        calls.append(args[2])
        return _orig(*args)
    monkeypatch.setattr(coefficients, "spectral_data", counted)
    with open(os.path.join(CONFIGS, "expansion_d1.ini"), encoding="utf-8") as fh:
        text = fh.read()
    assert "ells = 20 40 60 80" in text
    text = text.replace("ells = 20 40 60 80", "ells = 40 20 60 80").replace(
        "out = out/expansion_d1", f"out = {tmp_path / 'o'}")
    assert run_experiment(write(tmp_path, "unsorted.ini", text)) == 2
    assert calls == []
    assert "ell grid must be strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()       # a refused run leaves no output directory


CF_D2_REFUSED = """
[experiment]
kind = coefficient_formula
samples = 2
d = 2

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[formula]
L = -5
R = 12
"""


@pytest.mark.parametrize("config, old, new, message", [
    ("expansion_d1.ini", "ells = 20 40 60 80", "ells = -4 0 4 8", "below 1"),
    ("expansion_d1.ini", "formula_L = 80", "formula_L = -5", "probe depth L=-5"),
    ("expansion_d1.ini", "formula_L = 80", "", "needs formula_L"),
    (None, "", "", "probe depth L=-5"),
], ids=["empty-boxes", "negative-formula_L", "gate-without-formula_L", "negative-L"])
def test_sweep_that_measures_nothing_is_exit_2_before_the_first_sample(
        tmp_path, monkeypatch, capsys, config, old, new, message):
    # each of these ran to exit 0 on zeros, or ended in a traceback, or ran
    # without the gate it was asked for
    import szegolab.coefficients as coefficients

    def no_sample(*args):
        raise AssertionError("a sample ran before the refusal")
    monkeypatch.setattr(coefficients, "spectral_data", no_sample)
    text = CF_D2_REFUSED
    if config is not None:
        with open(os.path.join(CONFIGS, config), encoding="utf-8") as fh:
            text = fh.read()
        assert old in text
        text = text.replace(old, new)
    path = write(tmp_path, "refused.ini", text)
    assert main(["run", path, "--samples", "2", "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, old, new, message", [
    ("szego1d.ini", "gate_tol = 1e-3", "gate_tol = abc", "gate_tol = 'abc'"),
    ("logenh_free.ini", "expect = enhanced", "expect = enhancd", "expect = 'enhancd'"),
], ids=["szego1d-gate_tol", "log_enhancement-expect"])
def test_bad_gate_option_is_exit_2_before_any_work(tmp_path, monkeypatch, capsys, config,
                                                    old, new, message):
    # gate_tol was parsed after both artifacts were written, and expect was
    # compared only after every sample, so the run ended with exit 5
    import szegolab.cli as cli
    import szegolab.coefficients as coefficients

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the refusal")
    monkeypatch.setattr(coefficients, "spectral_data", no_work)
    monkeypatch.setattr(cli, "szego_1d_suite", no_work)
    with open(os.path.join(CONFIGS, config), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = write(tmp_path, config, text.replace(old, new))
    assert main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, old, new, message", [
    ("expansion_d1.ini", "R = 200", "R = 10", "probe depth L=80 needs 1 <= L <= R/2"),
    ("logenh_free.ini", "ells = 48 96 144 192 240 288 336 384", "ells = 48 96 144\nR = 40",
     "sweep box ell=96 leaves B_R"),
], ids=["expansion_fit", "log_enhancement"])
def test_sweep_box_beyond_B_R_refuses_run_but_not_verify(tmp_path, monkeypatch, capsys,
                                                         config, old, new, message):
    # verify reads neither ells nor R, so a grid too large for the ambient
    # box does not stop it; run refuses the grid when it plans the sweep
    import szegolab.coefficients as coefficients

    def no_sample(*args):
        raise AssertionError("a sample ran before the refusal")
    monkeypatch.setattr(coefficients, "spectral_data", no_sample)
    with open(os.path.join(CONFIGS, config), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = write(tmp_path, config, text.replace(old, new))
    assert main(["verify", path, "--samples", "2", "--out", str(tmp_path / "v")]) == 0
    assert main(["run", path, "--samples", "2", "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_nan_is_written_as_null_whatever_its_type(tmp_path):
    # a numpy NaN was written as bare NaN, which strict JSON refuses
    from szegolab.cli import write_json
    path = str(tmp_path / "nan.json")
    write_json(path, {"py": float("nan"), "f64": np.float64("nan"),
                      "f32": np.float32("nan"), "arr": np.array([1.0, np.nan])})

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh, parse_constant=refuse) == {
            "py": None, "f64": None, "f32": None, "arr": [1.0, None]}


@pytest.mark.parametrize("config, old, new, message", [
    ("expansion_d1.ini", "formula_L = 80", "formula_l = 80", "has no key 'formula_l'"),
    ("verify_d1.ini", "kernel_mode = exponential", "kernel_mod = polynomial",
     "has no key 'kernel_mod'"),
    ("expansion_d2.ini", "gate_crosscheck = true", "gate_crosscheck = true\n\n[more]\nR = 12",
     "'R' is set in both [sweep] and [more]"),
    ("logenh_free.ini", "kind = free", "kind = free\nW = 8.0",
     "[ensemble] kind = free reads no key 'W' (it reads: hopping)"),
], ids=["formula_L-case", "kernel_mode-typo", "R-in-two-sections", "W-of-the-free-chain"])
def test_option_key_no_kind_reads_is_exit_2_before_the_first_sample(tmp_path, monkeypatch,
                                                                    capsys, config, old, new,
                                                                    message):
    # a key no experiment kind reads would be dropped: the cross-check and its
    # gate, or the polynomial kernel fit, would silently not run.  So would
    # the first of two sections that set one key (R = 24 ran as R = 12), and
    # an [ensemble] key its kind does not read (W = 8 ran the free chain)
    import szegolab.coefficients as coefficients
    import szegolab.decay as decay

    def no_sample(*args):
        raise AssertionError("a sample ran before the refusal")
    monkeypatch.setattr(coefficients, "spectral_data", no_sample)
    monkeypatch.setattr(decay, "spectral_data", no_sample)
    with open(os.path.join(CONFIGS, config), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = write(tmp_path, config, text.replace(old, new))
    assert main(["run", path, "--samples", "3", "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_verify_accepts_the_option_keys_of_other_kinds():
    # `szegolab verify` may run a config written for another kind
    cfg = load_config(os.path.join(CONFIGS, "expansion_d1.ini"), {"kind": "verify"})
    assert cfg.kind == "verify" and cfg.options["formula_L"] == "80"


def test_readme_reference_config_loads(tmp_path):
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write(tmp_path, "readme.ini", block))
    assert cfg.kind == "expansion_fit" and cfg.ensemble.W == 8.0
    assert cfg.opt_bool("gate_crosscheck")


def test_library_import_does_not_load_scipy():
    # scipy costs every run its import time and memory; the library binds
    # LAPACK from numpy's own OpenBLAS instead
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, szegolab, szegolab.cli; "
            "sys.exit('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr or "importing szegolab loaded scipy"


def test_freed_heap_stays_mapped():
    # three 2 MiB arrays freed together leave more free heap than glibc's
    # default trim threshold, so each round page-faulted all 6 MiB in again
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from szegolab import mc\n"
        "def faults():\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    for _ in range(20):\n"
        "        blocks = [np.ones(1 << 18) for _ in range(3)]\n"
        "        del blocks\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "mc.retain_freed_heap()\n"
        "faults()\n"
        "print(faults())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath))
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100       # 19840 without the call


def test_command_line_retains_freed_heap(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(mc, "retain_freed_heap", lambda: calls.append(1))
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    assert calls == [1]


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


def without_workers(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("workers ="))


def test_workers_default_to_the_usable_cpus(tmp_path, monkeypatch, capsys):
    assert mc.usable_cpus() == len(os.sched_getaffinity(0))
    path = write(tmp_path, "exp.ini", without_workers(
        EXPANSION_INI.format(out=tmp_path / "o", workers=1)))
    assert load_config(path).workers == mc.usable_cpus()
    monkeypatch.setattr(mc, "usable_cpus", lambda: 3)
    assert load_config(path).workers == 3
    assert load_config(path, {"workers": "1"}).workers == 1       # --workers 1
    one = write(tmp_path, "one.ini", EXPANSION_INI.format(out=tmp_path / "o", workers=1))
    assert load_config(one).workers == 1
    zero = write(tmp_path, "zero.ini", EXPANSION_INI.format(out=tmp_path / "o", workers=0))
    assert main(["run", zero]) == 2
    assert main(["run", path, "--workers", "0"]) == 2
    assert capsys.readouterr().err.count("workers must be >= 1") == 2


def test_usable_cpus_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert mc.usable_cpus() == (os.cpu_count() or 1)


class _Stop(Exception):
    pass


def test_sweep_workers_are_capped_by_the_byte_budget(tmp_path, monkeypatch):
    # the d = 2 reference box: ten 2304-site operators fit the 2 GiB budget, so
    # one map call gets 10 of the 50 samples and no more run at once;
    # the map is stopped before it starts a thread or a sample
    from szegolab.lattices import MEMORY_BUDGET_BYTES, operator_bytes
    seen = []

    def recorded_map(fn, args, workers=1):
        seen.append(len(args))
        raise _Stop
    monkeypatch.setattr(mc, "ordered_map", recorded_map)
    with pytest.raises(_Stop):
        run_experiment(os.path.join(CONFIGS, "expansion_d2.ini"),
                       {"workers": "64", "out": str(tmp_path / "d2")})
    cap = MEMORY_BUDGET_BYTES // operator_bytes(48 ** 2, 8)
    assert seen == [cap] and cap == 10


def test_one_sample_chunks_write_the_same_bytes(tmp_path, monkeypatch):
    # a sweep and a verify run fold the same rows in the same order whatever
    # the chunk size: here one sample per ordered_map call
    cases = [("run", EXPANSION_INI.format(out="unused", workers=2),
              ("fit-report.json", "sweep.csv", "coefficients.json", "coefficients.csv")),
             ("verify", VERIFY_INI.format(samples=40, out="unused", workers=2, d=1, side=32),
              ("decay-report.json",))]
    sizes = []

    def recorded_map(fn, args, workers=1, _orig=mc.ordered_map):
        sizes.append(len(args))
        return _orig(fn, args, workers)
    monkeypatch.setattr(mc, "ordered_map", recorded_map)
    for command, text, names in cases:
        path = write(tmp_path, f"{command}.ini", text)
        outs = [tmp_path / f"{command}-{chunks}" for chunks in ("default", "single")]
        assert main([command, path, "--out", str(outs[0])]) == 0
        with monkeypatch.context() as patch:
            patch.setattr(mc, "CHUNK_BYTES", 1)
            sizes.clear()
            assert main([command, path, "--out", str(outs[1])]) == 0
        assert set(sizes) == {1}
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_sweep_rows_over_the_budget_are_exit_2_before_the_first_sample(tmp_path, monkeypatch,
                                                                       capsys):
    # 10^8 samples of 9 columns: 7.2 GB of rows, refused before they are allocated
    # (one map call used to take every sample: stopped here before it submits any)
    import szegolab.coefficients as coefficients
    sampled = []
    monkeypatch.setattr(coefficients, "spectral_data", lambda *a: sampled.append(a))
    monkeypatch.setattr(mc, "ordered_map", lambda *a, **k: sampled.append(a) or [])
    path = write(tmp_path, "many.ini", EXPANSION_INI.format(out=tmp_path / "many", workers=2))
    tracemalloc.start()
    try:
        code = main(["run", path, "--samples", str(10 ** 8)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "(7200000000 bytes)" in capsys.readouterr().err
    assert sampled == [] and not (tmp_path / "many").exists()
    assert peak < 10 ** 7


def test_empty_indicator_is_exit_2_at_load(tmp_path, capsys):
    # indicator(3, 1) is 0 everywhere: the sweep wrote A_hat = [0.0, 0.0] and
    # passed its gate
    with open(os.path.join(CONFIGS, "expansion_d1.ini"), encoding="utf-8") as fh:
        text = fh.read().replace("bump(2.0, 3.0, 4)", "indicator(3, 1)")
    path = write(tmp_path, "empty.ini", text)
    assert main(["run", path, "--samples", "4", "--out", str(tmp_path / "o")]) == 2
    assert "indicator(3.0, 1.0) is empty" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_default_workers_do_not_change_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(mc, "usable_cpus", lambda: 2)   # parallel on any host
    cases = [("run", EXPANSION_INI.format(out="unused", workers=1),
              ("fit-report.json", "sweep.csv", "coefficients.json", "coefficients.csv")),
             ("verify", VERIFY_INI.format(samples=40, out="unused", workers=1, d=1, side=32),
              ("decay-report.json",))]
    for command, text, names in cases:
        path = write(tmp_path, f"{command}.ini", without_workers(text))
        outs = [tmp_path / f"{command}-{flag}" for flag in ("default", "w1")]
        assert main([command, path, "--out", str(outs[0])]) == 0
        assert main([command, path, "--out", str(outs[1]), "--workers", "1"]) == 0
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


# smallest d = 2 sweep whose bytes moved with the BLAS thread count before
# sample work was pinned to one BLAS thread (196 sites, one sample)
BLAS_D2_INI = """
[experiment]
kind = expansion_fit
seed = 7
samples = 1
out = {out}
workers = 1
d = 2

[ensemble]
kind = anderson
W = 8.0
hopping = 1.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[sweep]
ells = 1 2 3 4
R = 7
formula_L = 2
gate_crosscheck = false
"""


def run_cli_with_blas_threads(threads, *args):
    """``python -m szegolab.cli *args`` in a fresh process at OPENBLAS_NUM_THREADS."""
    pythonpath = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, "-m", "szegolab.cli", *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# d = 1 samples go through LAPACK's dstedc, which calls dgemm
BLAS_D1_INI = """
[experiment]
kind = expansion_fit
seed = 7
samples = 2
out = {out}
workers = 1
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
ells = 20 40 60 80
R = 200
formula_L = 80
gate_crosscheck = false
"""


@pytest.mark.parametrize("ini", [BLAS_D2_INI, BLAS_D1_INI], ids=["d2", "d1"])
def test_blas_thread_count_does_not_change_bytes(tmp_path, ini):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        path = write(tmp_path, f"blas{threads}.ini", ini.format(out=out))
        run_cli_with_blas_threads(threads, "run", path)
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert names == ["coefficients.csv", "coefficients.json", "fit-report.json", "sweep.csv"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_blas_thread_count_does_not_change_szego1d_bytes(tmp_path):
    outs = [tmp_path / f"sz{threads}" for threads in ("1", "2")]
    for threads, out in zip(("1", "2"), outs):
        run_cli_with_blas_threads(threads, "szego1d", os.path.join(CONFIGS, "szego1d.ini"),
                                  "--out", str(out))
    names = sorted(os.listdir(outs[0]))
    assert names == ["szego1d.csv", "szego1d.json"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_oversized_box_is_exit_2_before_allocating(tmp_path, capsys):
    # d = 1, R = 4000: 8000 sites, 5 x 8 x 8000^2 bytes > the 2 GiB budget
    path = write(tmp_path, "big.ini", EXPANSION_INI.format(out=tmp_path / "big", workers=1)
                 .replace("R = 100", "R = 4000"))
    tracemalloc.start()
    try:
        code = run_experiment(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "2560000000 bytes" in capsys.readouterr().err
    assert peak < 8000 ** 2      # an eighth of one dense 8000 x 8000 matrix


def test_identities_cli_writes_zero_residuals(tmp_path):
    out = tmp_path / "ids"
    code = main(["identities", "--d", "3", "--side", "3", "--out", str(out)])
    assert code == 0
    ids = json.loads((out / "identities.json").read_text())
    assert all(v == 0 for v in ids["inclusion_exclusion"].values())
    assert all(v == 0 for v in ids["partition"].values())
    assert ids["c_recurrence_exact"]
    assert ids["telescoping"]["max_residual"] <= 1e-9


def test_identities_records_each_dimensions_own_defect(tmp_path, monkeypatch, capsys):
    import szegolab.coefficients as coefficients
    monkeypatch.setattr(coefficients, "inclusion_exclusion_check",
                        lambda n, l, k, side, d: int(d == 1))
    out = tmp_path / "ids"
    assert main(["identities", "--d", "3", "--side", "3", "--out", str(out)]) == 4
    ids = json.loads((out / "identities.json").read_text())
    assert ids["inclusion_exclusion"] == {"1": 1, "2": 0, "3": 0}
    assert "inclusion-exclusion defect = 1" in capsys.readouterr().err


def test_identities_gates_the_partition_block_sizes(tmp_path, monkeypatch, capsys):
    # the block sizes were recorded but never gated, so a wrong one exited 0
    import szegolab.coefficients as coefficients
    monkeypatch.setattr(coefficients, "partition_block_sizes", lambda d, n: 5)
    out = tmp_path / "ids"
    assert main(["identities", "--d", "2", "--side", "3", "--out", str(out)]) == 4
    assert json.loads((out / "identities.json").read_text())["constants"]["1"] == {"1": 5}
    assert ("partition block size (d=1, n=1) = 5, bound == d! = 1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, message", [
    (["--d", "0"], "max_d = 0"),
    (["--d", "-2"], "max_d = -2"),
], ids=["d-0", "d-negative"])
def test_identities_that_check_nothing_are_exit_2(tmp_path, capsys, argv, message):
    # each wrote empty sections and exited 0
    out = tmp_path / "ids"
    assert main(["identities", *argv, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_identities_hold_no_dense_family(tmp_path):
    # the telescoping check reads only diagonals, yet each family was drawn as
    # d+1 dense n x n matrices: 8 MiB at d = 3, side 8, and 12 GB at side 25
    tracemalloc.start()
    try:
        code = main(["identities", "--d", "3", "--side", "8", "--out", str(tmp_path / "ids")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 512 * 512 * 8      # one dense 512 x 512 float64 matrix


def test_identities_numeric_failure_is_exit_3(tmp_path, monkeypatch, capsys):
    import szegolab.coefficients as coefficients

    def broken(*args):
        raise NumericError("telescoping family is singular")
    monkeypatch.setattr(coefficients, "telescoping_check", broken)
    assert main(["identities", "--d", "1", "--out", str(tmp_path / "ids")]) == 3
    assert capsys.readouterr().err == "numeric failure: telescoping family is singular\n"


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


def test_szego1d_gate_outside_the_grid_is_exit_2(tmp_path, capsys):
    path = write(tmp_path, "szgrid.ini", f"""
[experiment]
kind = szego_1d
out = {tmp_path / "szgrid"}

[szego1d]
symbol = expcos(0.5)
l_grid = 50 100
gate_at_l = 75
""")
    assert run_experiment(path) == 2
    assert "gate_at_l = 75 is not in l_grid = [50, 100]" in capsys.readouterr().err


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


@pytest.mark.parametrize("config, edits, flags, artifact, quantity, bound, value", [
    ("expansion_d1.ini", [("kind = anderson\nW = 8.0\nhopping = 1.0", "kind = free"),
                          ("formula_L = 80", "formula_L = 10")], ["--samples", "1"],
     "fit-report.json", "|A1_fit - A1_formula|", "<= max(3 x combined stderr, 1e3 eps max|A1|) = ",
     lambda rep: rep["cross_check"]["gap"]),
    ("logenh_free.ini", [("expect = enhanced", "expect = flat")], [],
     "log-enhancement.json", "classification", "== 'flat'",
     lambda rep: rep["classification"]),
    ("verify_d1.ini", [("gate_min_mu = 0.0", "gate_min_mu = 100")], ["--samples", "4"],
     "decay-report.json", "kernel decay mu", "> 100.0",
     lambda rep: rep["kernel_decay"]["params"]["mu"]),
], ids=["expansion-crosscheck", "log_enhancement-expect", "verify-gate_min_mu"])
def test_failed_gate_is_exit_5_naming_quantity_bound_and_artifact(
        tmp_path, capsys, config, edits, flags, artifact, quantity, bound, value):
    with open(os.path.join(CONFIGS, config), encoding="utf-8") as fh:
        text = fh.read()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "o"
    assert main(["run", write(tmp_path, config, text), "--out", str(out), "--workers", "1",
                 *flags]) == 5
    path = out / artifact
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"gate failed: {quantity} = "
                           f"{value(json.loads(path.read_text()))!r}, bound {bound}")
    assert line.endswith(f"; artifact {path}")


@pytest.mark.parametrize("tol, code", [("1e-30", 5), ("nan", 2), ("inf", 2)])
def test_szego1d_non_finite_gate_tol_is_exit_2_before_the_suite(tmp_path, monkeypatch,
                                                                 capsys, tol, code):
    # a NaN bound failed no comparison: gate_tol = nan exited 0 where 1e-30 exits 5
    import szegolab.cli as cli
    ran = []

    def counted(*args, _orig=cli.szego_1d_suite, **kwargs):
        ran.append(True)
        return _orig(*args, **kwargs)
    monkeypatch.setattr(cli, "szego_1d_suite", counted)
    out = tmp_path / "szg"
    path = write(tmp_path, "szg.ini", f"""
[experiment]
kind = szego_1d
out = {out}

[szego1d]
symbol = expcos(0.5)
l_grid = 2 10
gate_at_l = 2
gate_tol = {tol}
""")
    assert run_experiment(path) == code
    if code == 2:
        assert f"gate_tol = {float(tol)!r}: a gate bound must be finite" in \
            capsys.readouterr().err
        assert not ran and not out.exists()


def test_szego1d_trace_grid_is_exit_2_before_any_determinant(tmp_path, monkeypatch, capsys):
    # the trace fit's grid was checked only after every determinant and spectrum
    import szegolab.harness as harness

    def no_matrix(*args):
        raise AssertionError("a Toeplitz matrix was built before the refusal")
    monkeypatch.setattr(harness, "toeplitz_matrix", no_matrix)
    out = tmp_path / "szg"
    path = write(tmp_path, "szg.ini", f"""
[experiment]
kind = szego_1d
out = {out}

[h]
form = poly(0, 0, 1)

[szego1d]
symbol = expcos(0.5)
l_grid = 400 800
""")
    assert run_experiment(path) == 2
    assert "need at least d+2 = 3 grid points, got 2" in capsys.readouterr().err
    assert not out.exists()


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


VERIFY_INI = """
[experiment]
kind = verify
seed = 3
samples = {samples}
out = {out}
workers = {workers}
d = {d}

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[verify]
box_side = {side}
kernel_mode = exponential
a1_p = 1.0
ct_z = 2.5+0j 3+0j
trace_inner = range(1,0,29)
trace_outer = orthant(1,+)
"""


def test_verify_samples_all_run_inside_mc_ordered_map(tmp_path, monkeypatch):
    # a benchmark job marks its first sample by patching ``ordered_map`` in
    # ``szegolab.mc`` and ``szegolab.decay``, and traces the probes through
    # the names ``cli`` and ``decay`` bind; every sample must pass through
    # them, and the passes map through ``mc.fold_samples``
    import szegolab.cli as cli
    import szegolab.decay as decay
    for name in ("fit_kernel_decay", "certify_a1", "combes_thomas_probe",
                 "trace_difference_probe"):
        assert getattr(cli, name) is getattr(decay, name)
    for name in ("spectral_data", "_restricted_diag", "ordered_map"):
        assert hasattr(decay, name)
    depth, calls = [0], []

    def recorded_map(fn, args, workers=1, _orig=mc.ordered_map):
        depth[0] += 1
        try:
            return _orig(fn, args, workers)
        finally:
            depth[0] -= 1

    def recorded_spectrum(*args, _orig=decay.spectral_data):
        calls.append(depth[0] > 0)
        return _orig(*args)

    monkeypatch.setattr(mc, "ordered_map", recorded_map)
    monkeypatch.setattr(decay, "spectral_data", recorded_spectrum)
    path = write(tmp_path, "ver.ini", VERIFY_INI.format(
        samples=5, out=tmp_path / "ver", workers=1, d=1, side=32))
    assert run_experiment(path) == 0
    rep = json.loads((tmp_path / "ver" / "decay-report.json").read_text())
    assert {"a1_certificate", "combes_thomas", "trace_difference"} <= set(rep)
    assert len(calls) == 10 and all(calls)      # kernel box + trace box, 5 each


@pytest.mark.parametrize("old, new", [
    ("kernel_mode = exponential", "kernel_mode = exponental"),
    ("kernel_mode = exponential", "kernel_mode = stretched"),
    ("a1_p = 1.0", "a1_p = -1"),
    ("box_side = 32", "box_side = 12"),
    ("trace_inner = range(1,0,29)", "trace_inner = rnage(1,0,29)"),
    ("a1_p = 1.0", "a1_p = 1.0\nct_theta = 0"),
    ("a1_p = 1.0", "a1_p = 1.0\nct_theta = -1"),
    ("a1_p = 1.0", "a1_p = 1.0\nct_theta = nan"),
    ("kernel_mode = exponential", "kernel_mode = polynomial\ngate_min_mu = 0.1"),
    ("a1_p = 1.0", "a1_p = nan"),
    ("a1_p = 1.0", "a1_p = inf"),
    ("a1_p = 1.0", "a1_p = 1.0\ngate_min_mu = nan"),
    ("a1_p = 1.0", "a1_p = 1.0\ngate_min_mu = inf"),
    ("ct_z = 2.5+0j 3+0j", "ct_z = 0+0j 3+0j"),
    ("trace_outer = orthant(1,+)", "trace_outer = range(1,0,20)"),
    ("trace_inner = range(1,0,29)", "trace_inner = range(1,500,600)"),
], ids=["kernel_mode-typo", "kernel_mode-stretched", "a1_p", "box_side", "trace_inner",
        "ct_theta-zero", "ct_theta-negative", "ct_theta-nan", "gate_min_mu-polynomial",
        "a1_p-nan", "a1_p-inf", "gate_min_mu-nan", "gate_min_mu-inf", "ct_z-zero",
        "trace_outer-without-inner", "trace_inner-off-the-box"])
def test_verify_refuses_bad_options_before_the_first_sample(tmp_path, monkeypatch, capsys,
                                                            old, new):
    import szegolab.decay as decay
    calls = []

    def counted(*args, _orig=decay.spectral_data):
        calls.append(args[2])
        return _orig(*args)
    monkeypatch.setattr(decay, "spectral_data", counted)
    text = VERIFY_INI.format(samples=3, out=tmp_path / "ver", workers=1, d=1, side=32)
    assert old in text
    assert run_experiment(write(tmp_path, "ver.ini", text.replace(old, new))) == 2
    assert calls == [] and not (tmp_path / "ver").exists()
    err = capsys.readouterr().err
    if old.startswith("kernel_mode"):
        assert "polynomial" in err and "exponential" in err
    for key in ("a1_p", "gate_min_mu"):
        if f"{key} = nan" in new or f"{key} = inf" in new:
            assert f"{key} = " in err and "finite" in err
    if new.startswith("ct_z"):      # z = 0 ended in a ZeroDivisionError traceback
        assert "ct_z = 0j" in err
    # both trace geometries were refused only after the kernel pass, the second
    # one after the trace pass too, as a numeric failure (exit 3)
    if new == "trace_outer = range(1,0,20)":
        assert "inner region is not contained in outer" in err
    if new == "trace_inner = range(1,500,600)":
        assert "0 inner sites" in err and "needs at least 3" in err


def test_verify_z_on_the_spectrum_of_g_is_exit_2_naming_z_and_sample(tmp_path, capsys):
    # an indicator g takes the value 1 on the spectrum, so R_1(g(H)) does not exist
    text = VERIFY_INI.format(samples=3, out=tmp_path / "ver", workers=1, d=1, side=32)
    text = text.replace("bump(2.0, 3.0, 4)", "indicator(-inf, 2.0)").replace(
        "ct_z = 2.5+0j 3+0j", "ct_z = 1+0j")
    assert run_experiment(write(tmp_path, "ver.ini", text)) == 2
    assert "ct_z = (1+0j) is an eigenvalue of g(H) in sample 0" in capsys.readouterr().err
    assert not (tmp_path / "ver").exists()


def test_verify_worker_count_does_not_change_bytes(tmp_path):
    outs = [tmp_path / f"w{workers}" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        path = write(tmp_path, f"ver{workers}.ini", VERIFY_INI.format(
            samples=40, out=out, workers=workers, d=1, side=32))
        assert run_experiment(path) == 0
    assert (outs[0] / "decay-report.json").read_bytes() == \
        (outs[1] / "decay-report.json").read_bytes()


def test_verify_over_budget_is_exit_2_before_first_sample(tmp_path, monkeypatch, capsys):
    # d = 2, side 64: the 4096-site operator fits the budget, but one sample
    # with its two resolvent blocks plus the accumulators does not
    import szegolab.decay as decay

    def no_sample(*args):
        raise AssertionError("a sample ran before the refusal")
    monkeypatch.setattr(decay, "spectral_data", no_sample)
    path = write(tmp_path, "big.ini", VERIFY_INI.format(
        samples=3, out=tmp_path / "big", workers=1, d=2, side=64))
    assert run_experiment(path) == 2
    assert "budget" in capsys.readouterr().err


def test_coefficient_formula_cli(tmp_path):
    out = tmp_path / "cf"
    path = write(tmp_path, "cf.ini", f"""
[experiment]
kind = coefficient_formula
seed = 7
samples = 2
out = {out}
d = 1

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = identity

[formula]
L = 10
include_error_term = true
""")
    assert run_experiment(path) == 0
    assert sorted(os.listdir(out)) == ["coefficients.csv", "coefficients.json"]
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert coeffs["E_L"]["n_samples"] == 2
    assert [s["mean"] for m, s in coeffs["A_fv"].items() if m != "0"] == [0.0]
    rows = (out / "coefficients.csv").read_text().splitlines()
    assert any(row.startswith("E_L,10,") for row in rows)


CF_D2_INI = """
[experiment]
kind = coefficient_formula
seed = 5
samples = 2
out = {out}
workers = 1
d = 2

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[formula]
L = 2
R = 6
include_error_term = {error_term}
"""

SUMMARY_KEYS = ["mean", "stderr", "n_samples"]


@pytest.mark.parametrize("error_term", ["true", "false"])
def test_coefficients_json_layout(tmp_path, error_term):
    # key order and nesting of coefficients.json are part of the artifact
    out = tmp_path / "cf"
    assert run_experiment(write(tmp_path, "cf.ini", CF_D2_INI.format(
        out=out, error_term=error_term))) == 0
    coeffs = json.loads((out / "coefficients.json").read_text())
    assert list(coeffs) == ["d", "L", "R", "c", "c_tilde_printed", "c_tilde_recurrence",
                            "A_fv", "A_mn", "E_L", "n_samples", "seed", "window",
                            "partition_free", "c_tilde_adjudication"]
    assert (coeffs["d"], coeffs["L"], coeffs["R"], coeffs["n_samples"], coeffs["seed"]) \
        == (2, 2, 6, 2, 5)
    assert coeffs["c"] == {"1": {"0": "-4", "1": "4"}, "2": {"0": "4", "1": "-8", "2": "8"}}
    for name, row2 in (("c_tilde_printed", ["1/4", "-1/2", "1/4"]),
                       ("c_tilde_recurrence", ["4", "-8", "4"])):
        assert list(coeffs[name]) == ["1", "2", "0"]        # the m = 0 row comes last
        assert list(coeffs[name]["2"].values()) == row2 and coeffs[name]["0"] == {"0": "1"}
    assert list(coeffs["A_fv"]) == ["0", "1", "2"]
    assert list(coeffs["A_mn"]) == ["1,1", "2,1", "2,2"]
    summaries = [*coeffs["A_fv"].values(), *coeffs["A_mn"].values()]
    if error_term == "true":
        summaries.append(coeffs["E_L"])
    else:
        assert coeffs["E_L"] is None
    assert all(list(s) == SUMMARY_KEYS and s["n_samples"] == 2 for s in summaries)
    assert len(coeffs["window"]) == 2 and coeffs["window"][0] <= coeffs["window"][1]
    pf = coeffs["partition_free"]
    assert list(pf) == ["L", "printed", "recurrence", "raw_terms"] and pf["L"] == 2
    assert list(pf["printed"]) == list(pf["recurrence"]) == ["1", "2"]
    assert [list(pf["raw_terms"][m]) for m in ("1", "2")] == [["0", "1"], ["0", "1", "2"]]
    assert list(pf["raw_terms"]["2"]["2"]) == SUMMARY_KEYS
    adjudication = coeffs["c_tilde_adjudication"]
    assert [(v["m"], v["L"]) for v in adjudication] == [(1, 2), (2, 2)]
    for verdict in adjudication:
        assert list(verdict) == ["m", "L", "winner", "candidates"]
        assert list(verdict["candidates"]) == ["printed", "recurrence"]
        assert all(list(c) == ["value", "stderr", "reference", "tolerance", "matches"]
                   for c in verdict["candidates"].values())
    rows = [row.split(",")[:4] for row in
            (out / "coefficients.csv").read_text().splitlines()]
    want = [["quantity", "L", "m", "n"], ["A_fv", "2", "0", ""], ["A_fv", "2", "1", ""],
            ["A_fv", "2", "2", ""], ["A_mn", "2", "1", "1"], ["A_mn", "2", "2", "1"],
            ["A_mn", "2", "2", "2"]]
    assert rows == want + ([["E_L", "2", "", ""]] if error_term == "true" else [])


def test_decay_report_layout(tmp_path):
    out = tmp_path / "ver"
    assert run_experiment(write(tmp_path, "ver.ini", VERIFY_INI.format(
        samples=2, out=out, workers=1, d=1, side=32))) == 0
    rep = json.loads((out / "decay-report.json").read_text())
    assert list(rep) == ["box_side", "d", "n_samples", "kernel_decay", "a1_certificate",
                         "combes_thomas", "trace_difference"]
    for name in ("kernel_decay", "combes_thomas", "trace_difference"):
        fit = rep[name]
        assert list(fit) == ["mode", "params", "prefactor", "r2", "n_samples",
                             "distance_range", "theta", "raw", "notes"], name
        assert list(fit["raw"]) == ["distances", "values"]
        assert len(fit["raw"]["distances"]) == len(fit["raw"]["values"]) >= 3
        assert fit["distance_range"] == [min(fit["raw"]["distances"]),
                                         max(fit["raw"]["distances"])]
    assert rep["combes_thomas"]["theta"] == 1.0
    cert = rep["a1_certificate"]
    assert list(cert) == ["C_p_estimate", "p", "argmax", "n_samples"]
    a, b, sample = cert["argmax"]
    assert len(a) == len(b) == 1 and all(isinstance(v, int) for v in a + b + [sample])
    assert (cert["p"], cert["n_samples"]) == (1.0, 2) and 0 <= sample < 2


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


def test_log_enhancement_outside_d1_is_exit_2_before_first_sample(tmp_path, monkeypatch,
                                                                  capsys):
    import szegolab.coefficients as coefficients

    def no_sample(*args):
        raise AssertionError("a sample ran before the refusal")
    monkeypatch.setattr(coefficients, "spectral_data", no_sample)
    path = write(tmp_path, "le.ini", f"""
[experiment]
kind = log_enhancement
samples = 2
out = {tmp_path / "le"}
d = 2

[ensemble]
kind = anderson
W = 8.0

[g]
form = bump(2.0, 3.0, 4)

[h]
form = poly(0, 0, 1)

[logfit]
ells = 8 16 24 32
""")
    assert run_experiment(path) == 2
    assert "d = 1" in capsys.readouterr().err
    assert not (tmp_path / "le").exists()


@pytest.mark.parametrize("workload", ["sweep_d1", "certify_d1", "oracle_hs"])
def test_traced_benchmark_job_records_every_expected_layer(tmp_path, monkeypatch, workload):
    # a traced job whose expected layer records no span drops that layer's
    # metrics from the benchmark's result line
    bench = os.path.join(ROOT, "perfbench")
    report = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, os.path.join(bench, "job.py"), workload, "7",
                           str(tmp_path), str(report), "--trace"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  os.path.join(bench, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_workloads", workloads)   # for its dataclasses
    spec.loader.exec_module(workloads)
    expected = workloads.WORKLOADS[workload].layers - {"coefficients._restricted_diag_from_sub"}

    def non_finite(word):
        raise ValueError(f"job report holds {word}")
    # json.dump writes a NaN or infinite value as a bare word that strict
    # JSON refuses, and a non-finite span value turns into a non-finite metric
    spans = json.loads(report.read_text(), parse_constant=non_finite)["spans"]
    recorded = {row[1] for row in spans}
    assert expected <= recorded, expected - recorded
    for row in spans:
        for key, value in row[6].items():
            assert np.isfinite(value), (row[1], key, value)


def test_benchmark_entry_points_resolve(monkeypatch):
    # the benchmark wraps these names at run time; a deleted one would silently
    # drop its layer from traced runs.  _restricted_diag_from_sub is the one
    # name that was deleted before this guard existed.
    bench = os.path.join(ROOT, "perfbench")
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  os.path.join(bench, "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    stale = {("szegolab.coefficients", "_restricted_diag_from_sub")}
    missing = {(mod, attr) for mod, attr, _name, _attrs in layers.HOOKS
               if not hasattr(importlib.import_module(mod), attr)}
    assert missing <= stale, missing
    for mod in layers.ORDERED_MAP_OWNERS:
        assert callable(importlib.import_module(mod).ordered_map), mod
    from szegolab import lattices, spectral
    for owner, attr in ((lattices.HermitianOperator, "from_matrix"),
                        (spectral, "hs_extension"), (spectral, "hs_discrepancy"),
                        (spectral.ScalarFunction, "bump")):
        assert callable(getattr(owner, attr, None)), attr
