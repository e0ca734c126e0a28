"""Write reference.json: each workload's headline values at its reference seed.

    python3 perfbench/make_reference.py

Run it only when a workload's definition changes; the benchmark compares
every reference-seed job against this file.
"""

import json
import os
import shutil
import sys

from run import ROOT, launch
from workloads import REFERENCE_PATH, WORKLOADS, headline


def main() -> int:
    work = os.path.join(ROOT, ".perfbench", f"reference-{os.getpid()}")
    out = {}
    try:
        for wl in WORKLOADS.values():
            job = launch(wl, wl.ref_seed, "plain", os.path.join(work, wl.name))
            if job["problems"]:
                print(f"{wl.name}: {job['problems']}", file=sys.stderr)
                return 1
            out[wl.name] = {"seed": wl.ref_seed, "items": wl.items,
                            **headline(wl, job["out_dir"], job["report"])}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
