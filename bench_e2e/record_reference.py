#!/usr/bin/env python3
"""Write reference.json: seed-0 outputs that run.py compares against.

    python3 bench_e2e/record_reference.py

Records the attribute-56 patch scores of pool images 0 and 1 and the
faith-16 MIF/LIF curves of the first image of directory 0. Rerun only
when a change to the program is meant to change these outputs.
"""

import json
import shutil
import sys

import run

CALLS = {"attribute-56": (0, 1), "faith-16": (0,)}


def main() -> int:
    reference = {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    work = run.WORK_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        for name, indices in CALLS.items():
            (work / name).mkdir()
            workload = run.WORKLOADS[name](work / name, 0, None)
            reference[name] = {}
            for i in indices:
                out = work / name / f"call{i}"
                out.mkdir()
                argv, _ = workload.call(i, out)
                rc, _, _, err = run.call_cli(argv)
                if rc:
                    print(f"{name} call {i} failed: {err}", file=sys.stderr)
                    return 1
                reference[name].update(workload.reference_values(i, out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(reference) + "\n")
    print(f"wrote {run.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
