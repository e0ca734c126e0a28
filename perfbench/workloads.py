"""The benchmark's workloads, their seeded inputs, and the output checker.

Each workload is one batch job of the program, run in a fresh process.
Job 0 of every benchmark run uses the workload's reference seed, whose
headline values are pinned in ``reference.json``.  Later jobs of a seeded
workload use a seed derived from the benchmark's ``--seed``; the sweeps keep
the shipped seed for every job, because their 3-sigma cross-check gate is a
statistical test that trips on a few percent of seeds at the small budgets a
benchmark job can afford.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Headline values may differ from the reference by rounding only: one BLAS
# thread instead of two moves the 4-sample d=2 fit by up to 8e-11 relative,
# while a changed estimator or sample budget moves it by 1e-4 or more.
REL_TOL = 1e-7
ABS_TOL = 1e-12
ORACLE_MAX_ERR = 1e-5      # acceptance criterion 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # szegolab subcommand, or "oracle"
    config: Optional[str]   # shipped config, relative to the checkout root
    items: int              # Monte Carlo samples or oracle matrices per job
    ref_seed: int
    seeded: bool            # later jobs take seeds derived from --seed
    layers: frozenset       # span names a traced job must record

    def workers(self, root: str) -> int:
        """Worker count of the shipped config (the oracle runs serially)."""
        if self.config is None:
            return 1
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(os.path.join(root, self.config))
        return int(parser.get("experiment", "workers", fallback="1"))


_SWEEP_LAYERS = frozenset({
    "cli.load_config", "harness.sweep_and_fit", "coefficients.coefficient_sweep",
    "coefficients.make_sweep_plan", "coefficients._sample_stats",
    "coefficients.spectral_data", "coefficients.block_of_gH",
    "coefficients._restricted_diag_from_sub", "lattices.build_operator",
    "mc.ordered_map", "mc.task", "cli.write_json", "cli.write_csv"})

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("sweep_d2",
             "d=2 sweep, 2304 sites: the full eigh and BLAS/worker oversubscription dominate",
             "run", "configs/expansion_d2.ini", 4, 7, False, _SWEEP_LAYERS),
    Workload("sweep_d1",
             "d=1 sweep, 400 sites: ~60 ms samples, so per-sample Python, hand-off and reduction show",
             "run", "configs/expansion_d1.ini", 200, 7, False, _SWEEP_LAYERS),
    Workload("certify_d1",
             "decay certification: every sample diagonalized once per probe, no sweep or reduction",
             "verify", "configs/verify_d1.ini", 700, 3, True, frozenset({
                 "cli.load_config", "decay.fit_kernel_decay", "decay.certify_a1",
                 "decay.combes_thomas_probe", "decay.trace_difference_probe",
                 "coefficients.spectral_data", "coefficients._restricted_diag",
                 "lattices.build_operator", "mc.ordered_map", "cli.write_json"})),
    Workload("oracle_hs",
             "Helffer-Sjostrand quadrature vs spectral route on 16x16 matrices; no lattice or sweep",
             "oracle", None, 4, 12345, True, frozenset({
                 "spectral.hs_extension", "spectral.hs_discrepancy", "spectral.hs_apply",
                 "spectral.matrix_function", "numpy.linalg.solve"})),
)}


def job_seed(wl: Workload, run_seed: int, job: int) -> int:
    """Program seed of job ``job`` in a run with seed ``run_seed``."""
    return wl.ref_seed if job == 0 or not wl.seeded else 1000 * run_seed + job


def oracle_matrices(seed: int, count: int, n: int = 16, radius: float = 0.8
                    ) -> List[np.ndarray]:
    """Seeded complex Hermitian matrices scaled to spectral radius ``radius``.

    The recipe of acceptance criterion 8.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (m + m.conj().T) / 2
        out.append(m * (radius / np.abs(np.linalg.eigvalsh(m)).max()))
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def headline(wl: Workload, out_dir: str, report: Dict) -> Dict:
    """The workload's headline values, read from the job's artifacts."""
    if wl.command == "run":
        with open(os.path.join(out_dir, "fit-report.json"), encoding="utf-8") as fh:
            fit = json.load(fh)
        return {"A_hat": fit["A_hat"],
                "A1_formula": fit["cross_check"]["A1_formula"]["mean"],
                "within_3_sigma": fit["cross_check"]["within_3_sigma"]}
    if wl.command == "verify":
        with open(os.path.join(out_dir, "decay-report.json"), encoding="utf-8") as fh:
            dec = json.load(fh)
        return {"mu": dec["kernel_decay"]["params"]["mu"],
                "q_tilde": dec["trace_difference"]["params"]["q_tilde"]}
    return {"oracle_err": report["oracle_err"], "matrices": report["items"]}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def check(wl: Workload, values: Dict, reference: Optional[Dict]) -> List[str]:
    """Problems with one job's headline values; empty when the output is correct.

    ``reference`` is the pinned entry when the job ran at the reference seed,
    else None.  ``oracle_err`` is bounded, not pinned: a new
    quadrature may change it as long as it stays within criterion 8.
    """
    problems = []
    flat = [v for v in values.values() if not isinstance(v, (bool, list))]
    flat += [v for v in values.get("A_hat", [])]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in flat):
        problems.append(f"non-finite headline value in {values}")
    if values.get("within_3_sigma") is False:
        problems.append("cross-check gate not met")
    if "mu" in values and not values["mu"] > 0:
        problems.append(f"decay rate mu = {values['mu']} is not positive")
    if "oracle_err" in values:
        if not values["oracle_err"] <= ORACLE_MAX_ERR:
            problems.append(f"oracle_err {values['oracle_err']} > {ORACLE_MAX_ERR}")
        if values["matrices"] != wl.items:
            problems.append(f"{values['matrices']} of {wl.items} matrices checked")
    if reference is not None:
        for key in ("A_hat", "A1_formula", "mu", "q_tilde"):
            if key not in reference:
                continue
            got, want = values.get(key), reference[key]
            pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
            if (isinstance(want, list) and len(got) != len(want)) or \
                    not all(_close(g, w) for g, w in pairs):
                problems.append(f"{key} = {got} differs from reference {want}")
    return problems


def load_reference(wl: Workload) -> Dict:
    """The pinned reference entry; it must match the workload's budget."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)[wl.name]
    if ref["seed"] != wl.ref_seed or ref["items"] != wl.items:
        raise ValueError(f"reference for {wl.name} was made with seed {ref['seed']} "
                         f"and {ref['items']} items, the workload uses "
                         f"{wl.ref_seed} and {wl.items}")
    return ref
