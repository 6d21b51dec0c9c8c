"""Span tracing of cbvcost from outside the package.

A Tracer replaces public functions at the module attributes where their
callers look them up (for example ``cbvcost.reduction.substitute_top``,
which ``step_at`` calls) with wrappers that record one span per call:
name, start, end and parent span.  Spans stay in memory, in flat integer
arrays, and are written out by ``write_spans``.  Self time (a span's
duration minus the time covered by its child spans) and layer counters are
accumulated as calls return.  ``uninstall`` puts every original function
back.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

from cbvcost import bench, encodings, machine_r, reduction, theta, turing

PROBE_PARENT = "bench.make_normalizing_corpus"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        # open spans: [span index, name id, child nanoseconds]
        self._open: list[list[int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # divergence-probe bookkeeping for the current corpus build:
        # one [candidate term, probe steps spent on it] per sampled term
        self._candidates: list[list] = []
        self.sites: list[tuple[object, str, object]] = []

    # --- span recording ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self) -> str | None:
        return self.names[self._open[-1][1]] if self._open else None

    def _wrap(self, fn, name: str, before=None, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        opened = self._open
        starts, ends = self.span_start, self.span_end
        calls, self_ns = self.calls, self.self_ns

        def traced(*args, **kwargs):
            enter = clock()
            token = before(args) if before is not None else None
            idx = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(opened[-1][0] if opened else -1)
            starts.append(0)
            ends.append(0)
            frame = [idx, nid, 0]
            opened.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                starts[idx] = start
                ends[idx] = end
                calls[name] += 1
                self_ns[name] += end - start - frame[2]
            if after is not None:
                after(args, result, token)
            # the parent is charged the whole wrapper, so this wrapper's own
            # bookkeeping counts in nobody's self time
            if opened:
                opened[-1][2] += clock() - enter
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(module, attr)
        self.sites.append((module, attr, original))
        setattr(module, attr, self._wrap(original, name, before, after))

    def count(self, module, attr: str, on_call) -> None:
        """Wrap without a span: `on_call(args, result)` only counts."""
        original = getattr(module, attr)
        self.sites.append((module, attr, original))

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            on_call(args, result)
            return result

        counted.__wrapped__ = original
        setattr(module, attr, counted)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.sites):
            setattr(module, attr, original)

    # --- the cbvcost layer boundaries ---------------------------------------

    def install(self) -> None:
        c = self.counts

        def add(key, fn):
            def after(args, result, token):
                c[key] += fn(args, result)
            return after

        def redex_path_after(args, result, token):
            c["reduction.redex_path.depth_sum"] += len(result)
            if len(result) > c["reduction.redex_path.depth_max"]:
                c["reduction.redex_path.depth_max"] = len(result)

        def normalize_after(args, result, token):
            c["reduction.normalize.steps"] += result.steps
            c["reduction.normalize.weight"] += result.trace.total_cost
            if self.current() == PROBE_PARENT:
                c["bench.probe.steps"] += result.steps
                if self._candidates:
                    self._candidates[-1][1] += result.steps

        def op_count_before(args):
            return args[0].op_count

        def ops_after(key):
            def after(args, result, token):
                c[key] += args[0].op_count - token
            return after

        def candidate(args, result):
            if self.current() == PROBE_PARENT:
                c["bench.probe.candidates"] += 1
                self._candidates.append([result, 0])

        def corpus_after(args, result, token):
            kept = {id(t) for t in result}
            c["bench.probe.accepted"] += len(result)
            c["bench.probe.wasted_steps"] += sum(
                steps for t, steps in self._candidates if id(t) not in kept)
            self._candidates.clear()

        self.wrap(reduction, "substitute_top", "terms.substitute_top",
                  after=add("terms.substitute_top.reduct_size", lambda a, r: r.size))
        self.wrap(reduction, "redex_path", "reduction.redex_path", after=redex_path_after)
        self.wrap(reduction, "step_at", "reduction.step_at")
        for module in (reduction, bench, turing):
            self.wrap(module, "normalize", "reduction.normalize", after=normalize_after)

        encoded = add("theta.encode_theta.symbols", lambda a, r: len(r))
        for module in (theta, bench):
            self.wrap(module, "encode_theta", "theta.encode_theta", after=encoded)
        decoded = add("theta.decode_theta.symbols", lambda a, r: len(a[0]))
        for module in (theta, machine_r):
            self.wrap(module, "decode_theta", "theta.decode_theta", after=decoded)

        for attr in ("build_append", "build_convert", "encode_string", "decode_string"):
            for module in (encodings, turing, bench):
                if hasattr(module, attr):
                    self.wrap(module, attr, f"encodings.{attr}")

        def program_after(args, result, token):
            c["turing.program_size"] = result.size  # every build yields the same program

        self.wrap(turing, "build_function", "turing.build_function", after=program_after)
        for attr in ("build_init", "build_trans", "build_final", "simulate_tm"):
            self.wrap(turing, attr, f"turing.{attr}")
        for module in (turing, bench):
            self.wrap(module, "run_compiled", "turing.run_compiled")

        for attr in ("find_redex_pass", "substitute_pass", "reassemble_pass"):
            self.wrap(machine_r, attr, f"machine_r.{attr}",
                      before=op_count_before, after=ops_after(f"machine_r.{attr}.ops"))
        iterated = add("machine_r.mr_normalize.iterations", lambda a, r: len(r.iterations))
        for module in (machine_r, bench):
            self.wrap(module, "mr_normalize", "machine_r.mr_normalize", after=iterated)

        self.wrap(bench, "make_normalizing_corpus", PROBE_PARENT, after=corpus_after)
        self.count(bench, "random_closed_term", candidate)

    # --- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer figure the traced run reports, by metric name."""
        c = self.counts
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_ns.get(name, 0) / 1e9
        for key in COUNT_NAMES:
            out[key] = c.get(key, 0)
        subs = self.calls.get("terms.substitute_top", 0)
        out["terms.substitute_top.reduct_size_mean"] = (
            c["terms.substitute_top.reduct_size"] / subs if subs else 0.0)
        paths = self.calls.get("reduction.redex_path", 0)
        out["reduction.redex_path.depth_mean"] = (
            c["reduction.redex_path.depth_sum"] / paths if paths else 0.0)
        cand = c["bench.probe.candidates"]
        out["bench.probe.accept_ratio"] = c["bench.probe.accepted"] / cand if cand else 0.0
        steps = c["bench.probe.steps"]
        out["bench.probe.wasted_step_frac"] = (
            c["bench.probe.wasted_steps"] / steps if steps else 0.0)
        return out

    def top_self_time(self, k: int = 5) -> list[tuple[str, float]]:
        ranked = sorted(self.self_ns.items(), key=lambda kv: -kv[1])
        return [(name, ns / 1e9) for name, ns in ranked[:k]]

    def write_spans(self, path) -> None:
        """One CSV row per span: name, start_ns, end_ns, parent row (-1: root)."""
        with open(path, "w") as fp:
            fp.write("name,start_ns,end_ns,parent\n")
            names = self.names
            for nid, s, e, p in zip(self.span_name, self.span_start,
                                    self.span_end, self.span_parent):
                fp.write(f"{names[nid]},{s},{e},{p}\n")


SPAN_NAMES = (
    "terms.substitute_top",
    "reduction.redex_path",
    "reduction.step_at",
    "reduction.normalize",
    "theta.encode_theta",
    "theta.decode_theta",
    "encodings.build_append",
    "encodings.build_convert",
    "encodings.encode_string",
    "encodings.decode_string",
    "turing.build_function",
    "turing.build_init",
    "turing.build_trans",
    "turing.build_final",
    "turing.simulate_tm",
    "turing.run_compiled",
    "machine_r.find_redex_pass",
    "machine_r.substitute_pass",
    "machine_r.reassemble_pass",
    "machine_r.mr_normalize",
    "bench.make_normalizing_corpus",
)

COUNT_NAMES = (
    "reduction.redex_path.depth_max",
    "reduction.normalize.steps",
    "reduction.normalize.weight",
    "theta.encode_theta.symbols",
    "theta.decode_theta.symbols",
    "turing.program_size",
    "machine_r.find_redex_pass.ops",
    "machine_r.substitute_pass.ops",
    "machine_r.reassemble_pass.ops",
    "machine_r.mr_normalize.iterations",
    "bench.probe.candidates",
    "bench.probe.accepted",
    "bench.probe.steps",
)
