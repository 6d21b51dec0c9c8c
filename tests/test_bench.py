import hashlib

import pytest

from cbvcost import bench, parse_term, reduction, terms
from cbvcost.theta import encode_theta

# sha256 of the theta strings, one per line, of the seed-42 base corpus
# followed by the seed-43 doubled corpus that MachineRBounds builds;
# recorded before the probe used cycle detection
CORPUS_SHA256 = "2c37c76830128a136c112d7d7670a7bd0acbf174f9fc1f2bc47c5fd07a7d88ad"


@pytest.fixture
def fired(monkeypatch):
    """Count the β-steps the probe fires."""
    count = [0]

    class CountingZipper(reduction.Zipper):
        def fire(self, k):
            count[0] += 1
            return super().fire(k)

    monkeypatch.setattr(bench, "Zipper", CountingZipper)
    return count


@pytest.mark.parametrize("text", [
    r"(\x.x x)(\x.x x)",
    r"(\y.(\x.x x)(\x.x x))(\z.z)",  # one step into the cycle
    r"(\w.(\y.(\x.x x)(\x.x x))(\z.z))(\z.z)",  # two steps into it
])
def test_probe_stops_at_a_cycle(text, fired):
    assert not bench.normalizes_within(parse_term(text), 10_000, 50_000)
    assert fired[0] <= 4


def test_probe_builds_few_applications_per_step(fired, monkeypatch):
    # the spine grows by two frames per step, and no term repeats; a step
    # that rebuilt the spine would build about 2,000 applications on average
    built = [0]
    init = terms.App.__init__

    def counting_init(self, fun, arg):
        built[0] += 1
        init(self, fun, arg)

    monkeypatch.setattr(terms.App, "__init__", counting_init)
    t = parse_term(r"(\x.x) (\x.x x) (\x.x (x x) x)")
    assert not bench.normalizes_within(t, 2000, 50_000)
    assert fired[0] == 2000
    assert built[0] <= 10 * fired[0]


def test_probe_records_no_step(monkeypatch):
    # the probe only compares terms; recording a step would copy the whole
    # path, which grows two frames per step here, into a position tuple
    traces = []

    class WatchedZipper(reduction.Zipper):
        def fire(self, k):
            traces.append(self.trace)
            super().fire(k)

    monkeypatch.setattr(bench, "Zipper", WatchedZipper)
    t = parse_term(r"(\x.x) (\x.x x) (\x.x (x x) x)")
    assert not bench.normalizes_within(t, 200, 50_000)
    assert len(traces) == 200 and all(trace is None for trace in traces)


def test_probe_accepts_a_normalizing_term():
    assert bench.normalizes_within(parse_term(r"(\x.x)(\y.y)"), 1500, 50_000)


def test_probe_needs_fuel_beyond_the_last_step():
    t = parse_term(r"(\x.x)(\y.y)")
    assert not bench.normalizes_within(t, 1, 50_000)
    assert bench.normalizes_within(t, 2, 50_000)


def test_probe_rejects_a_reduct_over_the_size_limit():
    t = parse_term(r"(\x.x x x x)(\y.\z.\w.w)")  # size 13, first reduct 19
    assert bench.normalizes_within(t, 100, 10**6)
    assert not bench.normalizes_within(t, 100, t.size)


def test_seeded_corpora_unchanged():
    base = bench.make_normalizing_corpus(42, 120, 12)
    doubled = bench.make_normalizing_corpus(43, 60, 24, 13)
    blob = "\n".join(encode_theta(t) for t in base + doubled).encode()
    assert hashlib.sha256(blob).hexdigest() == CORPUS_SHA256


def test_machine_r_bounds_with_no_base_iteration_has_no_failures():
    # at seeds 1 and 2 no base-scale term iterates, so there is no
    # per-iteration constant to grow from
    for seed in (1, 2):
        report = bench.suite_machine_r_bounds(seed, 2)
        assert all(r[3] == 0 for r in report.rows if r[0] == "base")
        assert any(r[3] > 0 for r in report.rows if r[0] == "doubled")
        assert report.failures == []
