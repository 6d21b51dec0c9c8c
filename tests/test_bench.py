import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DEEP_SLOW_TERM
from reference import brent_normalizes_within

from cbvcost import bench, parse_term, random_closed_term, reduction, terms
from cbvcost.theta import encode_theta

# sha256 of the theta strings, one per line, of the seed-42 base corpus
# followed by the seed-43 doubled corpus that MachineRBounds builds;
# recorded before the probe used cycle detection
CORPUS_SHA256 = "2c37c76830128a136c112d7d7670a7bd0acbf174f9fc1f2bc47c5fd07a7d88ad"

# the MachineRBounds seeds that perfbench/workloads.py rotates through, and
# the same digest over the corpora of all of them; recorded before the probe
# proved pumping
SUITE_SEEDS = (
    2, 11, 17, 21, 30, 41, 45, 58, 64, 84, 85, 89, 96, 109, 110, 112, 113,
    116, 120, 125, 127, 129, 130, 139, 145, 146, 148, 151, 152, 153, 155,
    157, 158,
)
SUITE_SEEDS_SHA256 = "f2462042649d16017d0fb35003dee381c3de5209098668cf37b632a8c23a431c"


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
    # a step that rebuilt the spine would build about 600 applications on
    # average
    built = [0]
    init = terms.App.__init__

    def counting_init(self, fun, arg):
        built[0] += 1
        init(self, fun, arg)

    monkeypatch.setattr(terms.App, "__init__", counting_init)
    assert not bench.normalizes_within(DEEP_SLOW_TERM, 2000, 50_000)
    assert fired[0] == 2000
    assert built[0] <= 10 * fired[0]


@pytest.mark.parametrize("text", [
    r"(\x.x) (\x.x x) (\x.x (x x) x)",  # the spine grows two frames per step
    r"(\x.x x)(\x.x (x x))",
    r"(\x.x x x)(\x.x x x)",
])
def test_probe_proves_a_growing_term_diverges(text, fired):
    # no term repeats, so only the pumping proof stops these before the fuel
    assert not bench.normalizes_within(parse_term(text), 10_000, 50_000)
    assert fired[0] <= 4


@pytest.mark.parametrize("text", [
    # the reduct holds the start term under a binder, off the leftmost path
    r"(\x.\y.x x)(\x.\y.x x)",
    r"(\x.\y.y (x x))(\x.\y.y (x x))",
])
def test_probe_accepts_a_term_that_recurs_off_the_leftmost_path(text):
    assert bench.normalizes_within(parse_term(text), 1500, 50_000)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 1500), st.integers(8, 50_000))
def test_probe_decides_like_the_cycle_only_probe(seed, fuel, size_limit):
    t = random_closed_term(random.Random(seed), 32)
    assert (bench.normalizes_within(t, fuel, size_limit)
            == brent_normalizes_within(t, fuel, size_limit))


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


def _corpora_sha256(seeds) -> str:
    """sha256 of the theta strings, one per line, of the base and doubled
    corpora that MachineRBounds builds at each seed, in order."""
    thetas = []
    for seed in seeds:
        base = bench.make_normalizing_corpus(seed, 120, 12)
        doubled = bench.make_normalizing_corpus(seed + 1, 60, 24, 13)
        thetas.extend(encode_theta(t) for t in base + doubled)
    return hashlib.sha256("\n".join(thetas).encode()).hexdigest()


def test_seeded_corpora_unchanged():
    assert _corpora_sha256([42]) == CORPUS_SHA256


def test_suite_seed_corpora_unchanged():
    assert _corpora_sha256(SUITE_SEEDS) == SUITE_SEEDS_SHA256


def test_machine_r_bounds_with_no_base_iteration_has_no_failures():
    # at seeds 1 and 2 no base-scale term iterates, so there is no
    # per-iteration constant to grow from
    for seed in (1, 2):
        report = bench.suite_machine_r_bounds(seed, 2)
        assert all(r[3] == 0 for r in report.rows if r[0] == "base")
        assert any(r[3] > 0 for r in report.rows if r[0] == "doubled")
        assert report.failures == []
