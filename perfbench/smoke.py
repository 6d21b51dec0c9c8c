"""Smoke check of the benchmark itself, on tiny inputs (about half a minute).

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that a corrupted pinned reference is counted as a failed item, that the
traced run leaves every cbvcost module attribute as it found it, and that
the benchmark fails without printing a result when the sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from worker import HERE, ROOT, import_cbvcost, run_pass

REPORTED = ("wall_s", "steps_per_s", "tape_ops_per_s", "peak_rss_mb", "setup_s",
            "failed_frac")


def bench_run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def check_printed_metrics(spec: dict, workload: str) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = bench_run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] and result["failed"] == 0, lines
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, trace, set(got) ^ set(want))
        if trace == 0:
            for name in REPORTED:
                line = next(ln for ln in lines if ln.split()[:1] == [name])
                assert len(line.split()) >= 3, line   # name, value, unit


def check_corrupted_reference(workload: str) -> None:
    clean = run_pass(workload, 0, traced=True, tiny=True)
    pins = {"items": clean["ints"], "layers": {"machine_r.mr_normalize.iterations":
                                               clean["layers"]["machine_r.mr_normalize.iterations"]}}
    assert run_pass(workload, 0, traced=True, tiny=True, pins=pins)["failed"] == 0
    label, ints = next(iter(pins["items"].items()))
    key = sorted(ints)[0]
    bad = json.loads(json.dumps(pins))
    bad["items"][label][key] = "corrupted"
    out = run_pass(workload, 0, tiny=True, pins=bad)
    assert out["failed"] == 1 and out["failed"] / out["attempted"] > 0, out["problems"]
    bad = json.loads(json.dumps(pins))
    bad["layers"]["machine_r.mr_normalize.iterations"] += 1
    assert run_pass(workload, 0, traced=True, tiny=True, pins=bad)["failed"] == 1


def check_restored(workload: str) -> None:
    import cbvcost
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "cbvcost" or name.startswith("cbvcost.")]
    before = {m.__name__: dict(vars(m)) for m in modules}
    run_pass(workload, 0, traced=True, tiny=True)
    for m in modules:
        for attr, value in before[m.__name__].items():
            assert getattr(m, attr) is value, f"{m.__name__}.{attr} was not restored"
    assert cbvcost.reduction.substitute_top is cbvcost.terms.substitute_top


def check_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench_run("mr_flip", 0, cwd=bare)
        assert proc.returncode != 0 and proc.stdout.strip() == "", proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    import_cbvcost()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("tm_palindrome", "mr_bounds_suite", "mr_flip"):
        check_printed_metrics(spec, workload)
        check_corrupted_reference(workload)
        check_restored(workload)
    check_without_sources()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
