"""The benchmark still finds every name it wraps or calls.

perfbench/tracer.py replaces functions of the package by name, and
perfbench/workloads.py calls them; a name removed or renamed, or a
signature changed, would otherwise surface only in a benchmark run
(`perfbench/run.py`).  The tracer and the tiny workloads run in-process;
nothing under perfbench/ is written.
"""

import importlib.util
import pathlib
import sys

import pytest

from cbvcost import bench, encodings, machine_r, parse_term, reduction, terms, theta, turing

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_wrap():
    modules = (bench, encodings, machine_r, reduction, theta, turing)
    before = [dict(vars(m)) for m in modules]
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()  # AttributeError if a wrapped name is gone
        assert tracer.sites
        for module, attr, original in tracer.sites:
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
        # leftmost runs on the closure machine, which builds no reduct
        reduction.normalize(parse_term(r"(\x.x)(\y.y)"), reduction.RIGHTMOST)
        assert tracer.calls["reduction.normalize"] == 1
        assert tracer.calls["terms.substitute_top"] == 1
        # nor does its read-back substitute through substitute_top
        reduction.normalize(parse_term(r"(\x.\y.x)(\z.z)"), reduction.LEFTMOST)
        assert tracer.calls["reduction.normalize"] == 2
        assert tracer.calls["terms.substitute_top"] == 1
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_traced_machine_r_passes_add_up_to_the_run():
    # the pinned per-pass ops of mr_flip are only meaningful if the three
    # passes carry every operation of a run, and the find pass runs once per
    # iteration plus the last scan that sees the normal form
    io_alphabet = encodings.Alphabet("01")
    program = turing.build_function(turing.flip_machine(), io_alphabet)
    string = theta.encode_theta(
        terms.App(program, encodings.encode_string(io_alphabet, "01")))
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()
        result = machine_r.mr_normalize(string)
    finally:
        tracer.uninstall()
    assert result.normalized
    layers = tracer.layer_metrics()
    passes = ("find_redex_pass", "substitute_pass", "reassemble_pass")
    assert sum(layers[f"machine_r.{p}.ops"] for p in passes) == result.op_count
    iterations = len(result.iterations)
    assert layers["machine_r.mr_normalize.iterations"] == iterations > 100
    assert tracer.calls["machine_r.find_redex_pass"] == iterations + 1
    assert tracer.calls["machine_r.substitute_pass"] == iterations
    assert tracer.calls["machine_r.reassemble_pass"] == iterations


@pytest.mark.parametrize("workload", ["tm_palindrome", "mr_bounds_suite", "mr_flip"])
def test_tiny_workloads_run_without_a_problem(workload):
    wl = _load("workloads").WORKLOADS[workload]
    result = wl.run(wl.setup(0, True))
    assert result.items and result.steps > 0
    assert [p for item in result.items for p in item.problems] == []
