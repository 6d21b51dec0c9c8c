"""Record the model integers every workload case reports, as pins.json.

Run this at a commit whose costs are known good; every later benchmark run
compares against the file and counts any drift as a failed item, because a
speed-up may not change a model cost.  Each case runs traced, in its own
process, one after another.

    python3 perfbench/pin.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from worker import HERE, PINNED_LAYER_COUNTS, PINS, import_cbvcost


def pin_case(workload: str, case: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(case), "--trace", "--no-pins"],
        capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["failed"]:
        raise SystemExit(f"{workload} case {case} fails its references: {out['problems']}")
    return {"items": out["ints"],
            "layers": {k: out["layers"][k] for k in PINNED_LAYER_COUNTS}}


def main(argv=None) -> int:
    import_cbvcost()
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    for name, wl in WORKLOADS.items():
        if args.workload not in (None, name):
            continue
        pins[name] = {}
        for case in range(wl.cases):
            pins[name][str(case)] = pin_case(name, case)
            print(f"pinned {name} case {case}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
