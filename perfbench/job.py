"""One batch job of a workload, run by ``run.py`` in a fresh process.

    python3 perfbench/job.py WORKLOAD SEED OUT_DIR REPORT [--trace | --probe]

Runs the program on the workload's inputs and writes a JSON report to REPORT
when it exits: when the first sample or matrix began, the items completed,
and, with ``--trace``, the recorded spans.  ``--probe`` stops the job as soon
as its first sample begins, so a run can measure set-up time several times
cheaply.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, oracle_matrices  # noqa: E402


class Job:
    def __init__(self, workload: str, seed: int, out_dir: str, report_path: str,
                 mode: str):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.out_dir = out_dir
        self.report_path = report_path
        self.mode = mode
        self.tracer = Tracer() if mode == "trace" else None
        self.report = {"t_first_item": None, "items": 0, "oracle_err": None}

    def write_report(self) -> None:
        if self.tracer is not None:
            self.report["spans"] = self.tracer.spans
            self.report["missing_hooks"] = self.tracer.missing
        with open(self.report_path, "w", encoding="utf-8") as fh:
            json.dump(self.report, fh)

    def first_item(self) -> None:
        """Mark the start of the first sample; a probe job ends here."""
        if self.report["t_first_item"] is None:
            self.report["t_first_item"] = time.monotonic()
            if self.mode == "probe":
                self.write_report()
                os._exit(0)

    def hook_first_item(self) -> None:
        """Note when sampling starts: the first ``ordered_map`` call."""
        from szegolab import decay, mc
        for module in (mc, decay):
            orig = module.ordered_map

            def marked(fn, args, workers=1, _orig=orig):
                self.first_item()
                return _orig(fn, args, workers)
            module.ordered_map = marked

    def run_program(self) -> int:
        if self.wl.command == "oracle":
            return self.run_oracle()
        from szegolab import cli
        return cli.main([self.wl.command, os.path.join(ROOT, self.wl.config),
                         "--seed", str(self.seed), "--samples", str(self.wl.items),
                         "--out", self.out_dir])

    def run_oracle(self) -> int:
        """Criterion 8's recipe: bump(0,2,6), extension order 4, 16x16 matrices."""
        from szegolab import lattices, spectral
        ext = spectral.hs_extension(spectral.ScalarFunction.bump(0.0, 2.0, 6), 4)
        mats = oracle_matrices(self.seed, self.wl.items)
        worst = 0.0
        for m in mats:
            self.first_item()
            err = spectral.hs_discrepancy(lattices.HermitianOperator.from_matrix(m), ext)
            worst = max(worst, err)
        self.report["oracle_err"] = worst
        return 0

    def main(self) -> int:
        try:
            if self.tracer is not None:
                import layers
                self.tracer.call("job.import", layers.install, (self.tracer,))
            self.hook_first_item()
            rc = self.run_program()
            self.report["items"] = self.wl.items
            return rc
        finally:
            self.write_report()


if __name__ == "__main__":
    argv = sys.argv[1:]
    mode = "plain"
    if argv[-1] in ("--trace", "--probe"):
        mode = argv.pop()[2:]
    name, seed, out_dir, report_path = argv
    sys.exit(Job(name, int(seed), out_dir, report_path, mode).main())
