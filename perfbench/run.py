"""cbvcost benchmark: one workload, measured in fresh processes, one at a time.

    python3 perfbench/run.py --workload tm_palindrome --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Each pass (set-up plus one measured
phase) runs in its own child process, started only after the previous one
has ended, so peak RSS and set-up time are per pass and set-up is cold.
Passes repeat for about --seconds (at least MIN_PASSES); the reported
figures are medians over passes.  Every output is checked against
an independent reference and against the integers pinned in pins.json.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones,
plus the tracing overhead: the traced minus the untraced wall time.  The
last line of output is one JSON object; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tm_palindrome", "mr_bounds_suite", "mr_flip")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# stop starting passes that would end past this point of a run
RUN_LIMIT_S = 160

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def run_pass(workload: str, seed: int, traced: bool, tiny: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(out_dir / f"spans-{workload}.csv")]
    if tiny:
        cmd.append("--tiny")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: int, tiny: bool, traced_too: bool):
    """Passes for about `seconds`; with traced_too, alternate untraced and traced.

    Another round starts only if it would end nearer to `seconds` than
    stopping now would, so a run lasts `seconds` give or take half a round.
    """
    plain, traced = [], []
    kinds = (False, True) if traced_too else (False,)
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for kind in kinds:
            (traced if kind else plain).append(run_pass(workload, seed, kind, tiny))
        now = time.monotonic()
        round_s, elapsed = now - t, now - start
        enough = len(plain) >= (1 if traced_too else MIN_PASSES)
        if enough and elapsed + round_s / 2 >= seconds or elapsed + round_s > RUN_LIMIT_S:
            return plain, traced


def end_to_end(passes: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "wall_s": med(p["wall_s"] for p in passes),
        "steps_per_s": med(p["steps"] / p["wall_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "setup_s": med(p["setup_s"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Counts from the first traced pass, self times as medians over traced passes."""
    layers = dict(traced[0]["layers"])
    for key in layers:
        if key.endswith(".self_s"):
            layers[key] = statistics.median(p["layers"][key] for p in traced)
    untraced = statistics.median(p["wall_s"] for p in plain)
    overhead = statistics.median(p["wall_s"] for p in traced) - untraced
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / untraced
    return layers


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name.endswith(("depth_mean", "depth_max")):
        return "frames"
    if name.endswith(("reduct_size_mean", "program_size")):
        return "nodes"
    return "count"


def report(workload: str, seed: int, trace: bool, seconds: int, tiny: bool = False) -> dict:
    plain, traced = run_passes(workload, seed, seconds, tiny, trace)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"FAILED {workload}: {problem}")
    e2e = end_to_end(plain)
    tape_ops = [p["tape_ops"] / p["wall_s"] for p in plain if p["tape_ops"]]
    print(f"{workload} seed {seed} (case {plain[0]['case']}): "
          f"{len(plain)} untraced, {len(traced)} traced passes")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:14.6g} {END_TO_END_UNITS[name]}")
    if tape_ops:
        print(f"  {'tape_ops_per_s':<16} {statistics.median(tape_ops):14.6g} 1/s")
    else:
        print(f"  {'tape_ops_per_s':<16} {'-':>14} 1/s (machine-r does not run)")
    print(f"  {'failed_frac':<16} {failed / attempted:14.6g} ratio ({failed}/{attempted} items)")
    if trace:
        layers = per_layer(plain, traced)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        print(f"  tracing overhead {layers['trace.overhead_s']:.3f} s "
              f"({100 * layers['trace.overhead_frac']:.1f}% of untraced wall)")
        print("  top self time: " + ", ".join(f"{n} {s:.3f} s" for n, s in traced[0]["top"]))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs without the pinned reference (smoke check)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cbvcost" / "__init__.py").is_file():
        print(f"cbvcost sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: report(w, args.seed, bool(args.trace), args.seconds, args.tiny)
               for w in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
