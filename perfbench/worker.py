"""One pass of one workload, in the process that runs this file.

A pass is: import cbvcost from the checkout's ``src``, build the inputs
(set-up), run the measured phase once, check every output, and print one
JSON line with the timings, counts and failures.  ``run.py`` starts a fresh
process per pass, so peak RSS and set-up time belong to that pass alone.

    python3 perfbench/worker.py --workload mr_flip --seed 3 [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"

# layer counts that are model integers: pinned, compared in traced passes
PINNED_LAYER_COUNTS = (
    "turing.program_size",
    "machine_r.find_redex_pass.ops",
    "machine_r.substitute_pass.ops",
    "machine_r.reassemble_pass.ops",
    "machine_r.mr_normalize.iterations",
)


def import_cbvcost():
    """Import cbvcost from this checkout's sources, never from elsewhere."""
    if not (SRC / "cbvcost" / "__init__.py").is_file():
        raise SystemExit(f"cbvcost sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import cbvcost
    if Path(cbvcost.__file__).resolve().parent != SRC / "cbvcost":
        raise SystemExit(f"imported cbvcost from {cbvcost.__file__}, not from {SRC}")


def load_pins(workload: str, seed: int):
    from workloads import WORKLOADS
    with open(PINS) as fp:
        return json.load(fp)[workload][str(seed % WORKLOADS[workload].cases)]


def run_pass(workload: str, seed: int, *, traced: bool = False, tiny: bool = False,
             pins=None, spans_path: Path | None = None, t0: float | None = None) -> dict:
    """Set up and run one pass in this process; `pins` None skips the pinned check."""
    from tracer import Tracer
    from workloads import WORKLOADS, Item, check_pins

    wl = WORKLOADS[workload]
    case = seed % wl.cases
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        state = wl.setup(case, tiny)
        setup_done = time.monotonic()
        start = time.perf_counter()
        result = wl.run(state)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    items = result.items
    check_pins(items, pins and pins["items"])
    out = {
        "case": case,
        "setup_s": setup_done - t0 if t0 is not None else None,
        "wall_s": wall,
        "steps": result.steps,
        "tape_ops": result.tape_ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ints": {it.label: it.ints for it in items},
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        pinned = pins["layers"] if pins else {}
        drift = [f"{k} {layers[k]} != pinned {v}" for k, v in pinned.items() if layers[k] != v]
        items = items + [Item("traced layer counts", {}, drift)]
        out["layers"] = layers
        out["top"] = tracer.top_self_time()
        if spans_path is not None:
            tracer.write_spans(spans_path)
    out["attempted"] = len(items)
    out["failed"] = sum(1 for it in items if it.problems)
    out["problems"] = [f"{it.label}: {p}" for it in items for p in it.problems]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, help="time.monotonic() when the parent started this process")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, no pinned reference")
    p.add_argument("--no-pins", action="store_true", help="skip the pinned reference")
    p.add_argument("--spans", type=Path, help="write the traced spans to this CSV file")
    args = p.parse_args(argv)
    import_cbvcost()
    pins = None if args.tiny or args.no_pins else load_pins(args.workload, args.seed)
    out = run_pass(args.workload, args.seed, traced=args.trace, tiny=args.tiny, pins=pins,
                   spans_path=args.spans, t0=args.t0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
