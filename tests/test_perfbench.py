"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py replaces functions of the package by name; a name
removed or renamed here would otherwise surface only in a traced
benchmark run (`perfbench/run.py --trace 1`).  The tracer is installed
and uninstalled in-process; nothing under perfbench/ is written.
"""

import importlib.util
import pathlib

from cbvcost import bench, encodings, machine_r, parse_term, reduction, theta, turing

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_wrap():
    modules = (bench, encodings, machine_r, reduction, theta, turing)
    before = [dict(vars(m)) for m in modules]
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()  # AttributeError if a wrapped name is gone
        assert tracer.sites
        for module, attr, original in tracer.sites:
            assert getattr(module, attr).__wrapped__ is original, (module.__name__, attr)
        reduction.normalize(parse_term(r"(\x.x)(\y.y)"))
        assert tracer.calls["reduction.normalize"] == 1
        assert tracer.calls["terms.substitute_top"] == 1
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
