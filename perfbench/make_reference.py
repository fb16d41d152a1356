"""Write perfbench/reference.json: the seed-0 outputs of one job of each
workload, which later runs must reproduce to workloads.REL_TOL.

    python3 perfbench/make_reference.py

Regenerate only in a change whose new outputs are the accepted baseline,
and say so in that change; a change that claims a speed-up must leave
this file alone.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT_DIR, import_package


def main() -> int:
    import_package()
    import workloads

    reference = {}
    work_dir = OUT_DIR / "reference-work"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0, str(work_dir))
            workload.setup()
            result = workload.outputs(workload.run())
            broken = [k for k, ok in result.invariants.items() if not ok]
            if broken:
                print(f"{name}: invariants fail: {broken}", file=sys.stderr)
                return 1
            reference[name] = result.values
            print(f"{name}: {len(result.values)} reference values")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
