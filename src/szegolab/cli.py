"""Command line interface and experiment runner with stable artifacts.

Artifacts are written with a fixed key order and shortest round-trip float
formatting, so identical configurations and seeds produce byte-identical
output whatever the worker count, at a fixed BLAS thread count; a different
BLAS thread count can change the last digits.  A failed gate prints its
quantity, value, bound and artifact path on stderr.

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure,
4 identity-check failure, 5 gated tolerance exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import coefficients as coeff
from .config import ExperimentConfig, load_config, parse_symbol
from .decay import (certify_a1, combes_thomas_probe, fit_kernel_decay,
                    trace_difference_probe)
from .errors import ConfigError, ModelError, NumericError, SzegolabError
from .harness import log_enhancement_probe, sweep_and_fit, szego_1d_suite
from .lattices import HermitianOperator, LatticeBox
from .regions import full_mask, parse_region

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IDENTITY = 4
EXIT_GATE = 5


def _jsonable(obj):
    if hasattr(obj, "to_jsonable"):
        return _jsonable(obj.to_jsonable())
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and obj != obj:  # nan
        return None
    return obj


def write_json(path: str, obj):
    text = json.dumps(_jsonable(obj), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def write_csv(path: str, header: List[str], rows: List[List]):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_coefficient_csv(path: str, table) -> None:
    rows = []
    for m, s in table.A_fv.items():
        rows.append(["A_fv", table.L, m, "", s.mean, s.stderr])
    for (m, n), s in table.A_mn.items():
        rows.append(["A_mn", table.L, m, n, s.mean, s.stderr])
    if table.E_L is not None:
        rows.append(["E_L", table.L, "", "", table.E_L.mean, table.E_L.stderr])
    write_csv(path, ["quantity", "L", "m", "n", "mean", "stderr"], rows)


def _gate_failed(code: int, quantity: str, value, bound: str, artifact: str) -> int:
    """Say on stderr which number failed its gate, then return ``code``."""
    print(f"gate failed: {quantity} = {value!r}, bound {bound}; artifact {artifact}",
          file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# experiment kinds
# ---------------------------------------------------------------------------

def _run_expansion_fit(cfg: ExperimentConfig) -> int:
    ells = cfg.opt_ints("ells")
    if not ells:
        raise ConfigError("expansion_fit needs an 'ells' grid")
    r = cfg.opt_int("R", 2 * max(ells))
    formula_l = cfg.opt_int("formula_L", 0) or None
    offset = cfg.opt_ints("offset")
    report, res = sweep_and_fit(cfg.ensemble, cfg.d, cfg.g, cfg.h, ells, r,
                                cfg.samples, formula_L=formula_l,
                                ell_offset=offset, workers=cfg.workers)
    fit_path = os.path.join(cfg.out_dir, "fit-report.json")
    write_json(fit_path, report.to_jsonable())
    rows = [[e, m, s, cfg.samples] for e, m, s in
            zip(report.ells, report.trace_means, report.trace_stderrs)]
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"),
              ["ell", "trace_mean", "trace_stderr", "n_samples"], rows)
    if res is not None and formula_l:
        table = res.table(formula_l)
        payload = table.to_jsonable()
        payload["partition_free"] = _jsonable(res.partition_free(formula_l))
        payload["c_tilde_adjudication"] = _jsonable(
            [res.adjudicate(formula_l, m) for m in range(1, cfg.d + 1)])
        write_json(os.path.join(cfg.out_dir, "coefficients.json"), payload)
        write_coefficient_csv(os.path.join(cfg.out_dir, "coefficients.csv"), table)
    check = report.cross_check
    if cfg.opt_bool("gate_crosscheck") and check is not None and not check["within_3_sigma"]:
        return _gate_failed(EXIT_GATE, "|A1_fit - A1_formula|", check["gap"],
                            f"<= 3 x combined stderr = {3.0 * check['combined_stderr']!r}",
                            fit_path)
    return EXIT_OK


def _run_coefficient_formula(cfg: ExperimentConfig) -> int:
    l_val = cfg.opt_int("L", 0)
    r = cfg.opt_int("R", 4 * l_val)
    if not l_val:
        raise ConfigError("coefficient_formula needs L")
    include_e = cfg.opt_bool("include_error_term")
    res = coeff.coefficient_sweep(cfg.ensemble, cfg.d, cfg.g, cfg.h, r, [l_val],
                                  cfg.samples, error_L=[l_val] if include_e else (),
                                  workers=cfg.workers)
    table = res.table(l_val)
    payload = table.to_jsonable()
    payload["partition_free"] = _jsonable(res.partition_free(l_val))
    payload["c_tilde_adjudication"] = _jsonable(
        [res.adjudicate(l_val, m) for m in range(1, cfg.d + 1)])
    write_json(os.path.join(cfg.out_dir, "coefficients.json"), payload)
    write_coefficient_csv(os.path.join(cfg.out_dir, "coefficients.csv"), table)
    return EXIT_OK


def _run_identity_checks(cfg: ExperimentConfig) -> int:
    max_d = cfg.opt_int("max_d", 3)
    side = cfg.opt_int("side", 4)
    n_families = cfg.opt_int("telescoping_families", 50)
    rng = np.random.default_rng(cfg.seed)
    results: Dict = {"side": side, "max_d": max_d, "inclusion_exclusion": {},
                     "partition": {}, "telescoping": {}, "constants": {}}
    worst_ie = 0
    for d in range(1, max_d + 1):
        box = LatticeBox.cube(d, 0, side - 1)
        results["partition"][d] = coeff.sd_partition_residual(box, 0, side - 1)
        for n in range(1, d + 1):
            ok_sizes = coeff.partition_block_sizes(d, n)
            results["constants"].setdefault(d, {})[n] = ok_sizes
            for l in range(d):
                for k in coeff.k_vectors(d, n, l):
                    res = coeff.inclusion_exclusion_check(n, l, k, side, d)
                    worst_ie = max(worst_ie, res)
        results["inclusion_exclusion"][d] = worst_ie
    worst_tel = 0.0
    for d in range(1, max_d + 1):
        box = LatticeBox.cube(d, 0, side - 1)
        n_sites = box.site_count
        for _ in range(n_families):
            fam = []
            for _n in range(d + 1):
                m = rng.standard_normal((n_sites, n_sites))
                fam.append(HermitianOperator(box, (m + m.T) / 2))
            resid = coeff.telescoping_check(fam, full_mask(box))
            worst_tel = max(worst_tel, resid)
    results["telescoping"]["max_residual"] = worst_tel
    results["telescoping"]["families_per_d"] = n_families
    # exact c recurrence over all dimensions
    rec_ok = True
    for d in range(1, max_d + 1):
        for m in range(1, d + 1):
            for n in range(0, m):
                if coeff.c_constant(d, m, n + 1) != -(m - n) * coeff.c_constant(d, m, n):
                    rec_ok = False
    results["c_recurrence_exact"] = rec_ok
    path = os.path.join(cfg.out_dir, "identities.json")
    write_json(path, results)
    worst_part = max(results["partition"].values(), default=0)
    for quantity, value, bound, failed in (
            ("inclusion-exclusion defect", worst_ie, "== 0", worst_ie != 0),
            ("c recurrence exact", rec_ok, "== True", not rec_ok),
            ("telescoping residual", worst_tel, "<= 1e-09", worst_tel > 1e-9),
            ("wedge partition residual", worst_part, "== 0", worst_part != 0)):
        if failed:
            return _gate_failed(EXIT_IDENTITY, quantity, value, bound, path)
    return EXIT_OK


def _run_szego_1d(cfg: ExperimentConfig) -> int:
    symbol = parse_symbol(cfg.options, k_max=cfg.opt_int("k_max", 32))
    grid = cfg.opt_ints("l_grid", "50 100 200 400")
    report = szego_1d_suite(symbol, cfg.h, grid, k_max=cfg.opt_int("k_max", 32))
    path = os.path.join(cfg.out_dir, "szego1d.json")
    write_json(path, report)
    rows = [[l, ld, gap] for l, ld, gap in
            zip(report["L_grid"], report["logdet"], report["logdet_minus_prediction"])]
    write_csv(os.path.join(cfg.out_dir, "szego1d.csv"),
              ["L", "logdet", "logdet_minus_prediction"], rows)
    gate_l = cfg.opt_int("gate_at_l", 0)
    if gate_l:
        tol = cfg.opt_float("gate_tol", 1e-3)
        idx = report["L_grid"].index(gate_l)
        gap = abs(report["logdet_minus_prediction"][idx])
        if gap > tol:
            return _gate_failed(EXIT_GATE, f"|logdet T_{gate_l} - prediction|", gap,
                                f"<= {tol!r}", path)
    return EXIT_OK


def _run_log_enhancement(cfg: ExperimentConfig) -> int:
    ells = cfg.opt_ints("ells", "48 96 144 192 240 288 336 384")
    r = cfg.opt_int("R", 0) or None
    report = log_enhancement_probe(cfg.ensemble, cfg.g, cfg.h, ells, cfg.samples,
                                   R=r, workers=cfg.workers)
    path = os.path.join(cfg.out_dir, "log-enhancement.json")
    write_json(path, report)
    rows = [[e, m, s] for e, m, s in
            zip(report["ells"], report["trace_means"], report["trace_stderrs"])]
    write_csv(os.path.join(cfg.out_dir, "log-enhancement.csv"),
              ["ell", "trace_mean", "trace_stderr"], rows)
    expect = cfg.options.get("expect", "").strip()
    if expect and report["classification"] != expect:
        return _gate_failed(EXIT_GATE, "classification", report["classification"],
                            f"== {expect!r}", path)
    return EXIT_OK


def _run_verify(cfg: ExperimentConfig) -> int:
    side = cfg.opt_int("box_side", 64)
    box = LatticeBox.cube(cfg.d, 0, side - 1) if cfg.d > 1 else LatticeBox.interval(0, side - 1)
    payload: Dict = {"box_side": side, "d": cfg.d, "n_samples": cfg.samples}
    mode = cfg.options.get("kernel_mode", "exponential").strip()
    kernel = fit_kernel_decay(cfg.ensemble, cfg.g, box, cfg.samples, mode=mode,
                              workers=cfg.workers)
    payload["kernel_decay"] = kernel.to_jsonable()
    if "a1_p" in cfg.options:
        cert = certify_a1(cfg.ensemble, cfg.g, cfg.opt_float("a1_p", 1.0), box,
                          cfg.samples, workers=cfg.workers)
        payload["a1_certificate"] = cert.to_jsonable()
    if "ct_z" in cfg.options:
        zs = [complex(v) for v in cfg.options["ct_z"].split()]
        theta = cfg.opt_float("ct_theta", 1.0)
        ct = combes_thomas_probe(cfg.ensemble, cfg.g, box, cfg.samples, zs, theta,
                                 workers=cfg.workers)
        payload["combes_thomas"] = ct.to_jsonable()
    if "trace_inner" in cfg.options and "trace_outer" in cfg.options:
        inner = parse_region(cfg.d, cfg.options["trace_inner"])
        outer = parse_region(cfg.d, cfg.options["trace_outer"])
        tbox_lo = cfg.opt_int("trace_box_lo", -side // 2)
        tbox_hi = cfg.opt_int("trace_box_hi", 3 * side // 2)
        tbox = LatticeBox.cube(cfg.d, tbox_lo, tbox_hi)
        td = trace_difference_probe(cfg.ensemble, cfg.g, cfg.h, inner, outer, tbox,
                                    cfg.samples, workers=cfg.workers)
        payload["trace_difference"] = td.to_jsonable()
    path = os.path.join(cfg.out_dir, "decay-report.json")
    write_json(path, payload)
    min_mu = cfg.opt_float("gate_min_mu", 0.0)
    mu = kernel.params.get("mu", 0.0)
    if min_mu and mu <= min_mu:
        return _gate_failed(EXIT_GATE, "kernel decay mu", mu, f"> {min_mu!r}", path)
    return EXIT_OK


_RUNNERS = {
    "expansion_fit": _run_expansion_fit,
    "coefficient_formula": _run_coefficient_formula,
    "identity_checks": _run_identity_checks,
    "szego_1d": _run_szego_1d,
    "log_enhancement": _run_log_enhancement,
    "verify": _run_verify,
}


def run_experiment(config_path: str, overrides: Optional[Dict[str, str]] = None) -> int:
    """Load, validate and run one experiment; returns the process exit code."""
    try:
        cfg = load_config(config_path, overrides)
    except SzegolabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(cfg.out_dir, exist_ok=True)
    try:
        return _RUNNERS[cfg.kind](cfg)
    except (ConfigError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="szegolab",
                                     description="trace-asymptotics laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--workers", type=int, default=None)

    add_common(sub.add_parser("run", help="run the experiment in a config file"))
    add_common(sub.add_parser("verify", help="decay certification only"))
    add_common(sub.add_parser("szego1d", help="classical 1-D Toeplitz suite"))
    ids = sub.add_parser("identities", help="exact identity checks")
    ids.add_argument("--d", type=int, default=3)
    ids.add_argument("--side", type=int, default=4)
    ids.add_argument("--out", default="out")
    ids.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "identities":
        cfg = ExperimentConfig(kind="identity_checks", seed=args.seed,
                               out_dir=args.out,
                               options={"max_d": str(args.d), "side": str(args.side)})
        os.makedirs(cfg.out_dir, exist_ok=True)
        try:
            return _run_identity_checks(cfg)
        except SzegolabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG

    overrides = {"seed": None if args.seed is None else str(args.seed),
                 "samples": None if args.samples is None else str(args.samples),
                 "out": args.out}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if args.workers is not None:
        overrides["workers"] = str(args.workers)
    if args.command == "verify":
        overrides["kind"] = "verify"
    elif args.command == "szego1d":
        overrides["kind"] = "szego_1d"
    return run_experiment(args.config, overrides)


if __name__ == "__main__":
    sys.exit(main())
