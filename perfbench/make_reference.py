"""Write reference.json: each workload's quality and artifact digest per master seed.

    python3 perfbench/make_reference.py

Runs one pipeline per workload and acceptance master seed. A change that is
meant to alter the program's results rewrites the file in the same change
and says so; the benchmark marks a run incorrect when a master's scale_ra
or scale_fa_gap differs from the file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from workloads import ACCEPTANCE_FAMILY, BLAS_THREADS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / "reference"


def main() -> int:
    os.environ.pop("SCALE_SEED", None)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from scale_fu import cli

    WORK.mkdir(parents=True, exist_ok=True)
    out: dict[str, dict] = {}
    for name, w in WORKLOADS.items():
        out[name] = {}
        for master in ACCEPTANCE_FAMILY:
            cfg = WORK / "config.json"
            cfg.write_text(json.dumps(w.config(master), sort_keys=True) + "\n")
            res = harness.run_pipeline(cli.main, cfg, WORK / "run", w.request, master)
            if res.problems:
                print(f"{name} master {master}: output check failed: {res.problems}",
                      file=sys.stderr)
                return 1
            out[name][str(master)] = {"quality": res.quality,
                                      "artifacts": harness.combined_digest(res.digests)}
            print(name, master, out[name][str(master)], flush=True)
    shutil.rmtree(WORK)
    harness.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
