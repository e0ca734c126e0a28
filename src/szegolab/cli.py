"""Command line interface and experiment runner with stable artifacts.

Artifacts are written with a fixed key order and shortest round-trip float
formatting, and a sampled experiment writes the same bytes whatever its
``workers`` count or BLAS thread setting (see :mod:`szegolab.mc`).  The
command line keeps freed heap memory mapped from one sample to the next
(``mc.retain_freed_heap``).  A failed gate prints its quantity, value, bound
and artifact path on stderr.

Exit codes: 0 success, 2 invalid configuration, 3 numeric failure,
4 identity-check failure, 5 gated tolerance exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import coefficients as coeff
from . import mc
from .config import ExperimentConfig, load_config, parse_symbol
from .decay import (certify_a1, check_ct_theta, check_kernel_fit, check_schatten_p,
                    combes_thomas_probe, fit_kernel_decay, kernel_box_stats,
                    trace_difference_probe, trace_probe_geometry)
from .errors import ConfigError, ModelError, NumericError, SzegolabError, config_value
from .harness import LOG_VERDICTS, log_enhancement_probe, sweep_and_fit, szego_1d_suite
from .lattices import LatticeBox
from .regions import parse_region

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IDENTITY = 4
EXIT_GATE = 5

# random diagonal families per dimension in the telescoping check of `identities`
TELESCOPING_FAMILIES = 50


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (float, np.floating)) and obj != obj:  # nan: strict JSON has none
        return None
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _create(path: str):
    """Open ``path`` for writing, making its directory first: a run that is
    refused before its first artifact leaves no output directory behind."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def write_json(path: str, obj):
    text = json.dumps(_jsonable(obj), indent=2)
    with _create(path) as fh:
        fh.write(text + "\n")


def write_csv(path: str, header: List[str], rows: List[List]):
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_coefficient_csv(path: str, res: coeff.SweepResult, L: int) -> None:
    d = res.plan.d
    stats = [("A_fv", m, "", res.a_fv(L, m)) for m in range(d + 1)]
    stats += [("A_mn", m, n, res.stat("Amn", L, m, n))
              for m in range(1, d + 1) for n in range(1, m + 1)]
    if ("EL", L) in res.plan.terms:
        stats.append(("E_L", "", "", res.stat("EL", L)))
    write_csv(path, ["quantity", "L", "m", "n", "mean", "stderr"],
              [[q, L, m, n, s.mean, s.stderr] for q, m, n, s in stats])


def _constants(const, d: int, m_values) -> Dict:
    return {m: {n: const(d, m, n) for n in range(m + 1)} for m in m_values}


def write_coefficients(out_dir: str, res: coeff.SweepResult, L: int) -> None:
    """coefficients.json and coefficients.csv of a sweep's probe depth L."""
    d = res.plan.d
    tilde_rows = (*range(1, d + 1), 0)      # each c~ table ends with its m = 0 row
    payload = {
        "d": d, "L": L, "R": res.plan.R,
        "c": _constants(coeff.c_constant, d, range(1, d + 1)),
        "c_tilde_printed": _constants(coeff.c_tilde_printed, d, tilde_rows),
        "c_tilde_recurrence": _constants(coeff.c_tilde_recurrence, d, tilde_rows),
        "A_fv": {m: res.a_fv(L, m) for m in range(d + 1)},
        "A_mn": {f"{m},{n}": res.stat("Amn", L, m, n)
                 for m in range(1, d + 1) for n in range(1, m + 1)},
        "E_L": res.stat("EL", L) if ("EL", L) in res.plan.terms else None,
        "n_samples": res.n_samples,
        "seed": res.plan.spec.seed,
        "window": res.window,
        "partition_free": res.partition_free(L),
        "c_tilde_adjudication": [res.adjudicate(L, m) for m in range(1, d + 1)],
    }
    write_json(os.path.join(out_dir, "coefficients.json"), payload)
    write_coefficient_csv(os.path.join(out_dir, "coefficients.csv"), res, L)


def _gate_bound(cfg: ExperimentConfig, key: str, default: float) -> float:
    """A gate's bound, which must be finite: a NaN or infinite bound never trips."""
    bound = cfg.opt_float(key, default)
    if not math.isfinite(bound):
        raise ConfigError(f"{key} = {bound!r}: a gate bound must be finite")
    return bound


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
    gate = cfg.opt_bool("gate_crosscheck")
    if gate and not formula_l:
        raise ConfigError("gate_crosscheck gates the formula cross-check, which needs "
                          "formula_L")
    report, res = sweep_and_fit(cfg.ensemble, cfg.d, cfg.g, cfg.h, ells, r,
                                cfg.samples, formula_L=formula_l, workers=cfg.workers)
    fit_path = os.path.join(cfg.out_dir, "fit-report.json")
    write_json(fit_path, report)
    rows = [[e, m, s, cfg.samples] for e, m, s in
            zip(report.ells, report.trace_means, report.trace_stderrs)]
    write_csv(os.path.join(cfg.out_dir, "sweep.csv"),
              ["ell", "trace_mean", "trace_stderr", "n_samples"], rows)
    if formula_l:
        write_coefficients(cfg.out_dir, res, formula_l)
    check = report.cross_check
    if gate and check is not None and not check["within_3_sigma"]:
        bound = mc.agreement_bound(check["A1_fit"], check["A1_formula"].mean,
                                   check["combined_stderr"])
        return _gate_failed(EXIT_GATE, "|A1_fit - A1_formula|", check["gap"],
                            f"<= max(3 x combined stderr, 1e3 eps max|A1|) = {bound!r}",
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
    write_coefficients(cfg.out_dir, res, l_val)
    return EXIT_OK


def _run_identity_checks(max_d: int, side: int, seed: int, out_dir: str) -> int:
    if max_d < 1:       # the run would check nothing and still pass
        raise ConfigError(f"max_d = {max_d}: the identity checks need at least 1")
    rng = np.random.default_rng(seed)
    results: Dict = {"side": side, "max_d": max_d, "inclusion_exclusion": {},
                     "partition": {}, "telescoping": {}, "constants": {}}
    for d in range(1, max_d + 1):
        box = LatticeBox.cube(d, 0, side - 1)
        results["partition"][d] = coeff.sd_partition_residual(box)
        worst_d = 0
        for n in range(1, d + 1):
            results["constants"].setdefault(d, {})[n] = coeff.partition_block_sizes(d, n)
            for l in range(d):
                for k in coeff.k_vectors(d, n, l):
                    worst_d = max(worst_d, coeff.inclusion_exclusion_check(n, l, k, side, d))
        results["inclusion_exclusion"][d] = worst_d
    worst_tel = 0.0
    for d in range(1, max_d + 1):
        box = LatticeBox.cube(d, 0, side - 1)
        every = np.ones(box.site_count, bool)
        for _ in range(TELESCOPING_FAMILIES):
            diags = rng.standard_normal((d + 1, box.site_count))
            worst_tel = max(worst_tel, coeff.telescoping_check(box, diags, every))
    results["telescoping"]["max_residual"] = worst_tel
    results["telescoping"]["families_per_d"] = TELESCOPING_FAMILIES
    # exact c recurrence over all dimensions
    rec_ok = all(coeff.c_constant(d, m, n + 1) == -(m - n) * coeff.c_constant(d, m, n)
                 for d in range(1, max_d + 1) for m in range(1, d + 1) for n in range(m))
    results["c_recurrence_exact"] = rec_ok
    path = os.path.join(out_dir, "identities.json")
    write_json(path, results)
    worst_ie = max(results["inclusion_exclusion"].values(), default=0)
    worst_part = max(results["partition"].values(), default=0)
    blocks = [(f"partition block size (d={d}, n={n})", size, f"== d! = {math.factorial(d)}",
               size != math.factorial(d))
              for d, sizes in results["constants"].items() for n, size in sizes.items()]
    for quantity, value, bound, failed in (
            ("inclusion-exclusion defect", worst_ie, "== 0", worst_ie != 0),
            ("c recurrence exact", rec_ok, "== True", not rec_ok),
            ("telescoping residual", worst_tel, "<= 1e-09", worst_tel > 1e-9),
            ("wedge partition residual", worst_part, "== 0", worst_part != 0), *blocks):
        if failed:
            return _gate_failed(EXIT_IDENTITY, quantity, value, bound, path)
    return EXIT_OK


def _run_szego_1d(cfg: ExperimentConfig) -> int:
    symbol = parse_symbol(cfg.options, k_max=cfg.opt_int("k_max", 32))
    grid = cfg.opt_ints("l_grid", "50 100 200 400")
    gate_l = cfg.opt_int("gate_at_l", 0)
    if gate_l and gate_l not in grid:
        raise ConfigError(f"gate_at_l = {gate_l} is not in l_grid = {grid}")
    tol = _gate_bound(cfg, "gate_tol", 1e-3)
    report = szego_1d_suite(symbol, cfg.h, grid, k_max=cfg.opt_int("k_max", 32))
    path = os.path.join(cfg.out_dir, "szego1d.json")
    write_json(path, report)
    rows = [[l, ld, gap] for l, ld, gap in
            zip(report["L_grid"], report["logdet"], report["logdet_minus_prediction"])]
    write_csv(os.path.join(cfg.out_dir, "szego1d.csv"),
              ["L", "logdet", "logdet_minus_prediction"], rows)
    if gate_l:
        idx = grid.index(gate_l)
        gap = abs(report["logdet_minus_prediction"][idx])
        if gap > tol:
            return _gate_failed(EXIT_GATE, f"|logdet T_{gate_l} - prediction|", gap,
                                f"<= {tol!r}", path)
    return EXIT_OK


def _run_log_enhancement(cfg: ExperimentConfig) -> int:
    ells = cfg.opt_ints("ells", "48 96 144 192 240 288 336 384")
    r = cfg.opt_int("R", 0) or None
    expect = cfg.options.get("expect", "").strip()
    if expect and expect not in LOG_VERDICTS:
        raise ConfigError(f"expect = {expect!r} is not one of {', '.join(LOG_VERDICTS)}")
    report = log_enhancement_probe(cfg.ensemble, cfg.g, cfg.h, ells, cfg.samples,
                                   R=r, workers=cfg.workers)
    path = os.path.join(cfg.out_dir, "log-enhancement.json")
    write_json(path, report)
    rows = [[e, m, s] for e, m, s in
            zip(report["ells"], report["trace_means"], report["trace_stderrs"])]
    write_csv(os.path.join(cfg.out_dir, "log-enhancement.csv"),
              ["ell", "trace_mean", "trace_stderr"], rows)
    if expect and report["classification"] != expect:
        return _gate_failed(EXIT_GATE, "classification", report["classification"],
                            f"== {expect!r}", path)
    return EXIT_OK


def _run_verify(cfg: ExperimentConfig) -> int:
    side = cfg.opt_int("box_side", 64)
    box = LatticeBox.cube(cfg.d, 0, side - 1)
    mode = cfg.options.get("kernel_mode", "exponential").strip()
    check_kernel_fit(box, mode)
    p = cfg.opt_float("a1_p", 1.0)
    check_schatten_p(p)
    theta = cfg.opt_float("ct_theta", 1.0)
    check_ct_theta(theta)
    min_mu = _gate_bound(cfg, "gate_min_mu", 0.0)
    if min_mu and mode == "polynomial":
        raise ConfigError(f"gate_min_mu = {min_mu!r} gates the exponential rate mu, "
                          "which kernel_mode = polynomial does not fit")
    zs = config_value("ct_z", cfg.options.get("ct_z", ""),
                      lambda t: [complex(v) for v in t.split()])
    if cfg.has_trace_probe:
        inner = parse_region(cfg.d, cfg.options["trace_inner"])
        outer = parse_region(cfg.d, cfg.options["trace_outer"])
        tbox = LatticeBox.cube(cfg.d, cfg.opt_int("trace_box_lo", -side // 2),
                               cfg.opt_int("trace_box_hi", 3 * side // 2))
        trace_probe_geometry(inner, outer, tbox)
    payload: Dict = {"box_side": side, "d": cfg.d, "n_samples": cfg.samples}
    stats = kernel_box_stats(cfg.ensemble, cfg.g, box, cfg.samples, zs,
                             workers=cfg.workers)
    kernel = fit_kernel_decay(stats, mode=mode)
    payload["kernel_decay"] = kernel
    if "a1_p" in cfg.options:
        payload["a1_certificate"] = certify_a1(stats, p)
    if "ct_z" in cfg.options:
        payload["combes_thomas"] = combes_thomas_probe(stats, theta)
    if cfg.has_trace_probe:
        payload["trace_difference"] = trace_difference_probe(
            cfg.ensemble, cfg.g, cfg.h, inner, outer, tbox, cfg.samples, workers=cfg.workers)
    path = os.path.join(cfg.out_dir, "decay-report.json")
    write_json(path, payload)
    if min_mu and kernel.params["mu"] <= min_mu:
        return _gate_failed(EXIT_GATE, "kernel decay mu", kernel.params["mu"],
                            f"> {min_mu!r}", path)
    return EXIT_OK


_RUNNERS = {
    "expansion_fit": _run_expansion_fit,
    "coefficient_formula": _run_coefficient_formula,
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
    return _run(_RUNNERS[cfg.kind], cfg)


def _run(runner, *args) -> int:
    """Run ``runner(*args)``; map its failures to exit codes."""
    try:
        return runner(*args)
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
    mc.retain_freed_heap()
    if args.command == "identities":
        return _run(_run_identity_checks, args.d, args.side, args.seed, args.out)

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
