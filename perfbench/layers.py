"""Which layer entry points a traced job wraps, and the per-layer metrics.

Each hook patches a function where its caller looks it up, because several
modules bind their dependencies by name at import time: ``coefficients``
binds ``build_operator``, ``decay`` binds ``spectral_data``,
``_restricted_diag`` and ``ordered_map``, ``harness`` binds
``coefficient_sweep``, and ``cli`` binds the ``decay`` and ``harness``
functions and ``load_config``.
"""

from __future__ import annotations

import importlib
import os
import statistics
from typing import Callable, Dict, List, Tuple

from spans import SpanIndex, Tracer


def _op_attrs(args, kwargs, op):
    return {"n": int(op.matrix.shape[0])}


def _spectrum_attrs(args, kwargs, out):
    lam, _u, gl = out
    return {"n": int(lam.shape[0]), "support": int((gl != 0).sum())}


def _bytes_attrs(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _value_attrs(args, kwargs, out):
    return {"value": float(out)}


def _solve_attrs(args, kwargs, out):
    a = args[0]
    systems = 1
    for k in a.shape[:-2]:
        systems *= int(k)
    return {"systems": systems}


# (module, attribute, span name, attrs function)
HOOKS: List[Tuple[str, str, str, Callable]] = [
    ("szegolab.lattices", "build_operator", "lattices.build_operator", _op_attrs),
    ("szegolab.coefficients", "build_operator", "lattices.build_operator", _op_attrs),
    ("szegolab.coefficients", "spectral_data", "coefficients.spectral_data", _spectrum_attrs),
    ("szegolab.decay", "spectral_data", "coefficients.spectral_data", _spectrum_attrs),
    ("szegolab.coefficients", "block_of_gH", "coefficients.block_of_gH", None),
    ("szegolab.coefficients", "_restricted_diag_from_sub",
     "coefficients._restricted_diag_from_sub", None),
    ("szegolab.coefficients", "_restricted_diag", "coefficients._restricted_diag", None),
    ("szegolab.decay", "_restricted_diag", "coefficients._restricted_diag", None),
    ("szegolab.coefficients", "_sample_stats", "coefficients._sample_stats", None),
    ("szegolab.coefficients", "make_sweep_plan", "coefficients.make_sweep_plan", None),
    ("szegolab.coefficients", "coefficient_sweep", "coefficients.coefficient_sweep", None),
    ("szegolab.harness", "coefficient_sweep", "coefficients.coefficient_sweep", None),
    ("szegolab.cli", "sweep_and_fit", "harness.sweep_and_fit", None),
    ("szegolab.cli", "fit_kernel_decay", "decay.fit_kernel_decay", None),
    ("szegolab.cli", "certify_a1", "decay.certify_a1", None),
    ("szegolab.cli", "combes_thomas_probe", "decay.combes_thomas_probe", None),
    ("szegolab.cli", "trace_difference_probe", "decay.trace_difference_probe", None),
    ("szegolab.spectral", "hs_extension", "spectral.hs_extension", None),
    ("szegolab.spectral", "hs_discrepancy", "spectral.hs_discrepancy", _value_attrs),
    ("szegolab.spectral", "hs_apply", "spectral.hs_apply", None),
    ("szegolab.spectral", "matrix_function", "spectral.matrix_function", None),
    ("numpy.linalg", "solve", "numpy.linalg.solve", _solve_attrs),
    ("szegolab.cli", "load_config", "cli.load_config", None),
    ("szegolab.cli", "write_json", "cli.write_json", _bytes_attrs),
    ("szegolab.cli", "write_csv", "cli.write_csv", _bytes_attrs),
    ("szegolab.cli", "write_coefficient_csv", "cli.write_coefficient_csv", None),
]

# modules whose ``ordered_map`` binding is patched to trace pool tasks
ORDERED_MAP_OWNERS = ("szegolab.mc", "szegolab.decay")


def install(tracer: Tracer) -> None:
    """Wrap every hooked entry point, and ``ordered_map`` with per-task spans."""
    for mod_name, attr, name, attrs_fn in HOOKS:
        tracer.wrap(importlib.import_module(mod_name), attr, name, attrs_fn)
    for mod_name in ORDERED_MAP_OWNERS:
        module = importlib.import_module(mod_name)
        orig = getattr(module, "ordered_map", None)
        if orig is None:
            tracer.missing.append(f"{mod_name}.ordered_map")
            continue
        setattr(module, "ordered_map", _traced_map(tracer, orig))


def _traced_map(tracer: Tracer, orig: Callable) -> Callable:
    def ordered_map(fn, args, workers=1):
        args = list(args)
        pool = min(workers, len(args)) if workers > 1 and len(args) > 1 else 1

        def body():
            map_id = tracer.current()[-1]
            return orig(lambda a: tracer.call("mc.task", fn, (a,), parent=map_id),
                        args, workers)
        return tracer.call("mc.ordered_map", body, attrs={"workers": pool})
    return ordered_map


# ---------------------------------------------------------------------------
# per-layer metrics of one traced job
# ---------------------------------------------------------------------------

def _pct(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _map_stats(ix: SpanIndex) -> Tuple[float, float]:
    """(idle worker time, busy share) over all ordered_map calls."""
    busy = capacity = 0.0
    for m in ix.named("mc.ordered_map"):
        slots = m[6].get("workers", 1) * (m[5] - m[4])
        capacity += slots
        busy += sum(t[5] - t[4] for t in ix.children.get(m[0], []) if t[1] == "mc.task")
    return capacity - busy, (busy / capacity if capacity > 0 else 0.0)


def _eigs_per_sample(ix: SpanIndex, job: Dict) -> float:
    under_decay = [r for r in ix.named("coefficients.spectral_data")
                   if ix.has_ancestor(r, "decay.")]
    return len(under_decay) / job["items"] if under_decay else 0.0


def _solves(ix: SpanIndex) -> int:
    return int(sum(r[6].get("systems", 0) for r in ix.named("numpy.linalg.solve")
                   if ix.has_ancestor(r, "spectral.hs_apply")))


def _support_frac(ix: SpanIndex) -> float:
    n = ix.attr_sum("n", "coefficients.spectral_data")
    return ix.attr_sum("support", "coefficients.spectral_data") / n if n else 0.0


def _oracle_err(ix: SpanIndex) -> float:
    return max((r[6].get("value", 0.0) for r in ix.named("spectral.hs_discrepancy")),
               default=0.0)


def _task_s(ix: SpanIndex) -> List[float]:
    return [t[5] - t[4] for t in ix.named("mc.task")]


_WRITES = ("cli.write_json", "cli.write_csv", "cli.write_coefficient_csv")

# name -> (unit, better, span names it is read from, f(SpanIndex, job report))
LAYER_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...], Callable]] = {
    "coefficients.spectrum_s": ("s", "lower", ("coefficients.spectral_data",),
                                lambda ix, job: ix.total_self("coefficients.spectral_data")),
    "coefficients.spectrum_calls": ("count", "lower", ("coefficients.spectral_data",),
                                    lambda ix, job: ix.count("coefficients.spectral_data")),
    "coefficients.eigh_n3": ("count", "lower", ("coefficients.spectral_data",),
                             lambda ix, job: sum(r[6]["n"] ** 3 for r in
                                                 ix.named("coefficients.spectral_data"))),
    "coefficients.support_frac": ("ratio", "higher", ("coefficients.spectral_data",),
                                  lambda ix, job: _support_frac(ix)),
    "coefficients.gH_s": ("s", "lower", ("coefficients.block_of_gH",),
                          lambda ix, job: ix.total("coefficients.block_of_gH")),
    "coefficients.restricted_h_s": ("s", "lower", ("coefficients._restricted_diag_from_sub",
                                                   "coefficients._restricted_diag"),
                                    lambda ix, job: ix.total(
                                        "coefficients._restricted_diag_from_sub",
                                        "coefficients._restricted_diag")),
    "coefficients.sample_self_s": ("s", "lower", ("coefficients._sample_stats",),
                                   lambda ix, job: ix.total_self("coefficients._sample_stats")),
    "coefficients.reduce_s": ("s", "lower", ("coefficients.coefficient_sweep",),
                              lambda ix, job: ix.total_self("coefficients.coefficient_sweep")),
    "coefficients.plan_s": ("s", "lower", ("coefficients.make_sweep_plan",),
                            lambda ix, job: ix.total("coefficients.make_sweep_plan")),
    "mc.tasks": ("count", "lower", ("mc.task",), lambda ix, job: ix.count("mc.task")),
    "mc.task_s.p50": ("s", "lower", ("mc.task",), lambda ix, job: _pct(_task_s(ix), 50)),
    "mc.task_s.p90": ("s", "lower", ("mc.task",), lambda ix, job: _pct(_task_s(ix), 90)),
    "mc.idle_s": ("s", "lower", ("mc.ordered_map",), lambda ix, job: _map_stats(ix)[0]),
    "mc.worker_util": ("ratio", "higher", ("mc.ordered_map",),
                       lambda ix, job: _map_stats(ix)[1]),
    "lattices.build_s": ("s", "lower", ("lattices.build_operator",),
                         lambda ix, job: ix.total("lattices.build_operator")),
    "lattices.sites_built": ("count", "lower", ("lattices.build_operator",),
                             lambda ix, job: ix.attr_sum("n", "lattices.build_operator")),
    "cli.config_s": ("s", "lower", ("cli.load_config",),
                     lambda ix, job: ix.total("cli.load_config")),
    "cli.write_s": ("s", "lower", _WRITES, lambda ix, job: ix.total_self(*_WRITES)),
    "cli.bytes_written": ("count", "lower", _WRITES,
                          lambda ix, job: ix.attr_sum("bytes", *_WRITES)),
    "spectral.ext_s": ("s", "lower", ("spectral.hs_extension",),
                       lambda ix, job: ix.total("spectral.hs_extension")),
    "spectral.hs_s": ("s", "lower", ("spectral.hs_apply",),
                      lambda ix, job: ix.total("spectral.hs_apply")),
    "spectral.solves": ("count", "lower", ("numpy.linalg.solve",),
                        lambda ix, job: _solves(ix)),
    "spectral.route_s": ("s", "lower", ("spectral.matrix_function",),
                         lambda ix, job: ix.total("spectral.matrix_function")),
    "spectral.oracle_err": ("2-norm", "lower", ("spectral.hs_discrepancy",),
                            lambda ix, job: _oracle_err(ix)),
    "decay.kernel_fit_s": ("s", "lower", ("decay.fit_kernel_decay",),
                           lambda ix, job: ix.total("decay.fit_kernel_decay")),
    "decay.a1_s": ("s", "lower", ("decay.certify_a1",),
                   lambda ix, job: ix.total("decay.certify_a1")),
    "decay.ct_s": ("s", "lower", ("decay.combes_thomas_probe",),
                   lambda ix, job: ix.total("decay.combes_thomas_probe")),
    "decay.trace_diff_s": ("s", "lower", ("decay.trace_difference_probe",),
                           lambda ix, job: ix.total("decay.trace_difference_probe")),
    "decay.eigs_per_sample": ("count", "lower", ("decay.fit_kernel_decay",
                                                 "coefficients.spectral_data"),
                              _eigs_per_sample),
    "trace.uncovered_frac": ("ratio", "lower", (),
                             lambda ix, job: ix.uncovered(job["t_launch"], job["t_exit"])
                             / (job["t_exit"] - job["t_launch"])),
}

# derived across jobs in the run, not from one job's spans
OVERHEAD_METRIC = ("trace.overhead_frac", "ratio", "lower")


def layer_metrics(rows, job: Dict, expected: frozenset) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer values of one traced job, and the metrics it could not observe.

    A metric whose spans the workload is expected to record, but none of
    which was recorded, is listed as unobserved instead of reported as zero.
    A metric of a layer the workload does not exercise reads 0.
    """
    ix = SpanIndex(rows)
    values, unobserved = {}, []
    for name, (_unit, _better, sources, fn) in LAYER_METRICS.items():
        if sources and not ix.seen(*sources) and expected.intersection(sources):
            unobserved.append(name)
            continue
        values[name] = float(fn(ix, job))
    return values, unobserved
