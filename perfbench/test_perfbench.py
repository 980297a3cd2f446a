"""Self-tests of the benchmark harness on a tiny corpus.

Run from the repository root:  python -m pytest -q perfbench
"""

import dataclasses
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

from hitset.lp import solve_cover_lp  # noqa: E402

TINY = wl.Workload(
    "tiny",
    (wl.Group("K1,3", 9, 0.4, 2), wl.Group("P3", 8, 0.3, 1, "int", typical=("triangles",))),
    exact=True,
    lp_check=True,
)


def _corpus(seed):
    return wl.build_corpus(TINY, seed, wl.host_seeds(TINY, seed))


def _ticks():
    clock = iter(range(1000))
    return lambda: next(clock)


def test_self_time_subtracts_nested_lp_spans():
    module = types.SimpleNamespace()
    module.lp = lambda: None

    def cover():
        module.lp()
        module.lp()

    module.cover = cover
    tracer = Tracer(clock=_ticks())
    tracer.wrap(module, "lp", "lp.cover_loop")
    tracer.wrap(module, "cover", "coloring.cover")
    with tracer.span("pipeline.solve"):
        module.cover()
    tracer.restore()
    assert module.cover is cover
    names = [s.name for s in tracer.spans]
    assert names == ["pipeline.solve", "coloring.cover", "lp.cover_loop", "lp.cover_loop"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1]
    # ticks: solve 0..7, cover 1..6, lp 2..3 and 4..5
    assert [s.duration for s in tracer.spans] == [7, 5, 1, 1]
    assert self_times(tracer.spans) == [2, 3, 1, 1]


def test_counter_lands_on_innermost_span():
    tracer = Tracer(clock=_ticks())
    with tracer.span("outer"):
        with tracer.span("localratio.decompose"):
            tracer.count("searches")
            tracer.count("searches")
    assert tracer.spans[1].attrs == {"searches": 2}
    assert tracer.spans[0].attrs == {}


def test_workloads_match_benchmark_json():
    assert list(wl.WORKLOADS) == [w["name"] for w in harness.benchmark()["workloads"]]


def test_percentile_reports_samples_beyond_it():
    assert harness.percentile(range(1, 101), 0.9) == (90, 10)
    assert harness.percentile(range(1, 101), 0.5) == (50, 50)
    assert harness.percentile(range(1, 21), 0.9) == (18, 2)
    assert harness.percentile([3.0], 0.9) == (3.0, 0)


def test_tiny_corpus_passes_checks_and_is_seeded():
    cases = _corpus(7)
    assert cases == _corpus(7)
    assert cases != _corpus(8)
    records, passes = harness.run_corpus(TINY, cases, 0)
    assert passes == 1
    harness.check_records(TINY, records)
    assert [r.problems for r in records] == [[], [], []]
    assert sum(r.attempted for r in records) == 6
    assert sum(r.failed for r in records) == 0
    metrics, _ = harness.end_to_end(records, 1, 0.5, 40.0)
    assert set(metrics) == {"solve_total_s", "setup_s", "peak_rss_mib"}


def test_forced_check_failure_counts_every_execution():
    cases = _corpus(7)
    # the benchmark's own copy of the weights disagrees with the instance text
    cases[0] = dataclasses.replace(cases[0], weights=(2,) * len(cases[0].weights))
    records, _ = harness.run_corpus(TINY, cases, 0)
    harness.check_records(TINY, records)
    assert records[0].problems
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    assert failed == records[0].attempted == 2
    assert failed / attempted > 0


def test_timeout_is_a_failure_not_a_drop(monkeypatch):
    monkeypatch.setattr(harness, "OP_TIMEOUT_S", 1e-4)
    records, _ = harness.run_corpus(TINY, _corpus(7), 0)
    assert sum(r.attempted for r in records) == 6
    assert all(e == "timeout" for r in records for e in r.errors)
    assert sum(r.failed for r in records) == sum(len(r.errors) for r in records) > 0


def test_traced_run_reports_every_layer_metric():
    cases = _corpus(7)
    tracer = Tracer()
    records, _ = harness.run_corpus(TINY, cases, 0, tracer)
    metrics, _ = harness.per_layer(records, 1, tracer)
    assert set(metrics) == set(harness.units("per_layer"))
    assert metrics["lp.certificate.s"][0] > 0
    assert metrics["oracle.verify_goodness.calls"][0] == len(cases)
    assert harness.pipeline.solve_cover_lp is solve_cover_lp
    # the untraced executions of a traced run leave no spans
    ranges = [r for rec in records for r in rec.traced_spans + rec.traced_exact_spans]
    assert sum(len(r) for r in ranges) == len(tracer.spans)


def test_typical_hosts_meet_their_statistics():
    seeds = wl.host_seeds(TINY, 7)
    for case, group in zip(_corpus(7), TINY.groups[:1] * 2 + TINY.groups[1:]):
        u, v = (list(x) for x in zip(*case.edges))
        assert wl._is_typical(group, wl.np.array(u), wl.np.array(v))
    assert len(seeds) == 3


def test_total_takes_a_fixed_number_of_executions():
    records, passes = harness.run_corpus(dataclasses.replace(TINY, passes=2), _corpus(7), 0)
    assert passes == 2
    assert all(len(r.solve_s) == 2 for r in records)
    records[0].solve_s.append(0.0)  # a later execution never counts
    assert harness._total(records, "solve_s", 2) == sum(min(r.solve_s[:2]) for r in records)
    assert harness._total(records, "solve_s", 1) == sum(r.solve_s[0] for r in records)


def test_normalised_total_takes_median_scaled_executions():
    a, b = (harness.Record(c) for c in _corpus(7)[:2])
    ref = harness.REFERENCE_S
    a.solve_s, a.kernel_s = [1.0, 3.0, 4.0, 0.1], [ref, 6 * ref, ref, ref]
    b.solve_s, b.kernel_s = [3.0, 2.0], [ref, ref / 2]
    # a scales to 1, 0.5, 4 (and 0.1, beyond the count); b to 3, 4
    assert harness.normalised_total([a, b], 3) == pytest.approx(1.0 + 3.5)
    assert harness.normalised_total([a, b], 1) == pytest.approx(4.0)


def test_every_untraced_solve_has_its_kernel_time():
    records, _ = harness.run_corpus(dataclasses.replace(TINY, passes=2), _corpus(7), 0)
    assert all(len(r.kernel_s) == len(r.solve_s) == 2 for r in records)
    assert all(k > 0 for r in records for k in r.kernel_s)
