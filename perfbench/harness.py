"""Closed-loop measurement of hitset over one seeded workload.

One process, one client: timed operations run back to back, round robin
over the corpus, until ``seconds`` have passed and the workload's fixed
number of full passes is done.  A solve operation is ``parse_graph`` -> ``solve`` ->
``solution_document``; on workloads marked ``exact`` the oracle
``exact_min_hitting_set`` is a second timed operation per instance, run
in the first pass only.  Every untraced solve is bracketed by two runs
of the calibration kernel, and ``solve_total_s`` totals each instance's
median execution in those first passes, its time scaled to the
kernel's reference speed (see ``normalised_total``).

Each operation runs under a wall-clock alarm.  An operation that raises
or hits the alarm is recorded as failed, and so is every execution of an
instance whose output fails a check or differs from its first output.
Nothing failed is dropped: it stays in ``attempted`` and ``failed``.

With tracing on, every instance runs once untraced and once traced per
pass (alternating which goes first), so the same run yields the
per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from pathlib import Path

from hitset import coloring, localratio, oracle, pipeline
from hitset.cli import solution_document
from hitset.copies import EnumerationBudget
from hitset.graphs import parse_graph
from hitset.patterns import Pattern

import workloads as wl
from calibration import REFERENCE_S, kernel_s
from spans import Tracer, self_times

OP_TIMEOUT_S = 60.0
# no operation starts after this many seconds of measuring; the ones left
# are recorded as timeouts, so a run always ends well inside 180 s
RUN_CAP_S = 110.0
SETUP_REPEATS = 5


@cache
def benchmark() -> dict:
    """BENCHMARK.json: the metric names and units and the workload reasons."""
    return json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    """Unit of each metric of ``kind``, "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in benchmark()[kind]}


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that ran out of time."""


@contextmanager
def _alarm(seconds: float):
    def expire(signum, frame):
        raise OpTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _no_span(name):
    return nullcontext()


def _parse(case: wl.Case):
    return parse_graph(case.host_text), Pattern(parse_graph(case.pattern_text).graph)


def _solve_op(case: wl.Case, span):
    t0 = time.perf_counter()
    with span("graphs.parse"):
        g, h = _parse(case)
    budget = EnumerationBudget()
    with span("pipeline.solve"):
        sol = pipeline.solve(g, h, budget)
    with span("cli.document"):
        doc = solution_document(sol)
    return doc, sol, budget.used, time.perf_counter() - t0


def _exact_op(case: wl.Case, span):
    g, h = _parse(case)
    t0 = time.perf_counter()
    with span("oracle.exact"):
        vertices, weight = oracle.exact_min_hitting_set(g, h, budget=EnumerationBudget())
    elapsed = time.perf_counter() - t0
    return f"vertices: {' '.join(map(str, vertices))}\nweight: {weight}\n", elapsed


@dataclass
class Record:
    """Everything measured for one corpus instance."""

    case: wl.Case
    solve_s: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # mean kernel time around each solve_s
    traced_s: list[float] = field(default_factory=list)
    exact_s: list[float] = field(default_factory=list)
    docs: list[str] = field(default_factory=list)
    exacts: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    solution: pipeline.Solution | None = None
    budget_used: int = 0
    traced_spans: list[range] = field(default_factory=list)
    traced_exact_spans: list[range] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.docs) + len(self.exacts) + len(self.errors)

    @property
    def failed(self) -> int:
        if self.problems:
            return self.attempted
        bad = sum(d != self.docs[0] for d in self.docs) + sum(x != self.exacts[0] for x in self.exacts)
        return len(self.errors) + bad


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and how many samples lie beyond its rank."""
    xs = sorted(values)
    rank = max(1, math.ceil(q * len(xs)))
    return xs[rank - 1], len(xs) - rank


def setup(workload: wl.Workload, seed: int) -> tuple[list[wl.Case], float]:
    """The corpus, and the median wall time of a fresh interpreter that
    imports hitset and generates and serializes the corpus.

    Host seeds are chosen first and outside the timing, so the rejection
    sampling of typical hosts, whose number of draws follows the seed,
    is not part of set-up.
    """
    seeds = wl.host_seeds(workload, seed)
    cases = wl.build_corpus(workload, seed, seeds)
    paths = [str(Path(wl.__file__).resolve().parent), str(Path(pipeline.__file__).resolve().parent.parent)]
    code = (
        f"import json, sys; sys.path[:0] = {paths!r}; import hitset, workloads; "
        f"workloads.build_corpus(workloads.WORKLOADS[{workload.name!r}], {seed}, json.loads(sys.argv[1]))"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, json.dumps(seeds)], check=True)
        times.append(time.perf_counter() - t0)
    return cases, statistics.median(times)


def _install(tracer: Tracer) -> None:
    def lp_size(span, args, kwargs, result):
        span.attrs["rows"] = len(args[0].covered_vertices())
        span.attrs["cols"] = len(args[0].hyperedges)

    def enumerate_name(g, h, budget=None, *, allowed=None):
        return "copies.enumerate." + ("full" if allowed is None else "residual")

    tracer.wrap(pipeline, "solve_cover_lp", "lp.certificate", lp_size)
    tracer.wrap(coloring, "solve_cover_lp", "lp.cover_loop", lp_size)
    tracer.wrap(pipeline, "cover_colored_hypergraph", "coloring.cover",
                lambda s, a, k, r: s.attrs.update(steps=len(r.steps)))
    tracer.wrap(pipeline, "color_digraph", "coloring.color_digraph")
    tracer.wrap(pipeline, "find_rooted_copy", "copies.find_rooted_copy",
                lambda s, a, k, r: s.attrs.update(hit=int(r is not None)))
    tracer.wrap(pipeline, "decompose_weights", "localratio.decompose",
                lambda s, a, k, r: s.attrs.update(steps=len(r.steps)))
    tracer.count_calls(localratio, "embeddings", "searches")
    tracer.wrap(pipeline, "enumerate_copies", enumerate_name,
                lambda s, a, k, r: s.attrs.update(copies=len(r)))
    tracer.wrap(pipeline, "verify_goodness", "oracle.verify_goodness")
    tracer.wrap(pipeline, "classify_pattern", "patterns.classify")
    tracer.wrap(pipeline, "construct_good_graph", "patterns.gadget")
    tracer.wrap(oracle, "build_copy_hypergraph", "oracle.build_hypergraph")
    tracer.wrap(oracle, "min_weight_cover", "oracle.min_weight_cover")


@contextmanager
def _installed(tracer: Tracer | None):
    """Wrap the layers for one traced execution only; untraced ones call the originals."""
    if tracer is None:
        yield
        return
    _install(tracer)
    try:
        yield
    finally:
        tracer.restore()


def _attempt(rec: Record, limit: float, op):
    """``op()`` under the alarm; on a timeout or error, record it and return None."""
    try:
        with _alarm(limit):
            return op()
    except OpTimeout:
        rec.errors.append("timeout")
    except Exception as exc:  # any error is a failed operation, never a crash of the run
        rec.errors.append(f"{type(exc).__name__}: {exc}")
    return None


def _execute(rec: Record, tracer: Tracer | None, cap: float, exact: bool) -> None:
    """One solve (and oracle call) of one instance, timed and recorded."""
    remaining = cap - time.perf_counter()
    if remaining <= 0:
        rec.errors.extend(["timeout: run cap reached before the operation started"] * (1 + exact))
        return
    span = tracer.span if tracer else _no_span
    if tracer:
        tracer.instance = rec.case.id
    first = len(tracer.spans) if tracer else 0
    before = kernel_s()
    out = _attempt(rec, min(OP_TIMEOUT_S, remaining), lambda: _solve_op(rec.case, span))
    if out is not None:
        doc, sol, used, elapsed = out
        if tracer:
            rec.traced_s.append(elapsed)
        else:
            rec.solve_s.append(elapsed)
            rec.kernel_s.append((before + kernel_s()) / 2)
        # an output equal to the first is kept as a reference to it, so memory
        # does not grow with the number of passes
        rec.docs.append(rec.docs[0] if rec.docs and doc == rec.docs[0] else doc)
        if rec.solution is None:
            rec.solution, rec.budget_used = sol, used
        if tracer:
            rec.traced_spans.append(range(first, len(tracer.spans)))
    if not exact:
        return
    first = len(tracer.spans) if tracer else 0
    limit = max(1e-3, min(OP_TIMEOUT_S, cap - time.perf_counter()))
    out = _attempt(rec, limit, lambda: _exact_op(rec.case, span))
    if out is not None:
        text, elapsed = out
        rec.exacts.append(text)
        if tracer:
            rec.traced_exact_spans.append(range(first, len(tracer.spans)))
        else:
            rec.exact_s.append(elapsed)


def run_corpus(workload: wl.Workload, cases, seconds: float, tracer: Tracer | None = None):
    """Closed loop over the corpus until ``seconds`` have passed and
    ``workload.passes`` passes are done; returns the records and the passes."""
    records = [Record(c) for c in cases]
    start = time.perf_counter()
    deadline, cap = start + seconds, start + RUN_CAP_S
    passes = 0
    while True:
        for rec in records:
            if passes >= workload.passes and time.perf_counter() >= deadline:
                return records, passes
            modes = [None]
            if tracer:
                modes = [None, tracer] if passes % 2 == 0 else [tracer, None]
            for mode in modes:
                with _installed(mode):
                    _execute(rec, mode, cap, workload.exact and not passes)
        passes += 1
        if passes >= workload.passes and time.perf_counter() >= deadline:
            return records, passes


def check_records(workload: wl.Workload, records) -> None:
    import checks  # networkx and scipy load only after the measured part

    for rec in records:
        if rec.docs:
            exact_text = rec.exacts[0] if rec.exacts else None
            rec.problems = checks.check_solution(
                rec.case, rec.docs[0], lp_check=workload.lp_check, exact_text=exact_text
            )
        elif rec.exacts:
            rec.problems = checks.check_exact(rec.case, rec.exacts[0])[0]


def fingerprint(records) -> str:
    """SHA-256 of every instance's first solution document and oracle result."""
    digest = hashlib.sha256()
    for rec in records:
        digest.update(f"{rec.case.id}\n".encode())
        digest.update((rec.docs[0] if rec.docs else "<failed>\n").encode())
        if rec.exacts:
            digest.update(rec.exacts[0].encode())
    return digest.hexdigest()


def _total(records, attr: str, passes: int, pick=min) -> float:
    """Corpus total of each instance's fastest (or ``pick``-ed) execution
    among its first ``passes``.

    The fastest of an instance's executions spread over the run is its
    cost with the least interference from other guests on the host.  On
    a shared 2-vCPU machine, over 25 s windows of one long sparse-trees
    run, the quartile spread of the median-based total was 0.16 and that
    of the minimum-based total 0.095.  A fixed sample count keeps faster
    code from getting a lower minimum only by running more passes.
    """
    return sum(pick(getattr(r, attr)[:passes]) for r in records if getattr(r, attr))


def normalised_total(records, passes: int) -> float:
    """Corpus total of each instance's median execution among its first
    ``passes``, each execution's time scaled to the calibration kernel's
    reference speed.

    Each solve time is multiplied by ``REFERENCE_S`` over the mean of the
    kernel times taken right before and after it.  That removes most of
    the speed the machine had at that moment, but not all: the kernel
    sees the machine just outside the solve, so a scaled time errs both
    ways, and the median, unlike the minimum, does not pick the execution
    whose error was lowest.  Over ten seeds per workload on the reference
    machine the quartile spread of this total was 0.119 on sparse-trees,
    0.058 on large-sparse and 0.053 on small-dense, against 0.234, 0.108
    and 0.226 for the sum of per-instance fastest raw times.
    """
    return sum(
        statistics.median(t * REFERENCE_S / k for t, k in zip(r.solve_s[:passes], r.kernel_s))
        for r in records
        if r.solve_s
    )


def end_to_end(records, passes: int, setup_s: float, peak_rss_mib: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics every workload reports, and information lines
    with sample counts, quality ratios and the metrics of one workload only."""
    from checks import read_document

    per_case = [min(r.solve_s[:passes]) for r in records if r.solve_s]
    gaps, opt_ratios = [], []
    for rec in records:
        if not rec.docs or rec.problems:
            continue
        rows = read_document(rec.docs[0])
        weight, lower = Fraction(rows["weight"]), Fraction(rows["lower_bound"])
        if lower > 0:
            gaps.append(weight / lower)
        if rec.exacts:
            opt = Fraction(read_document(rec.exacts[0])["weight"])
            if opt > 0:
                opt_ratios.append(weight / opt)
    values = {"solve_total_s": normalised_total(records, passes), "setup_s": setup_s, "peak_rss_mib": peak_rss_mib}
    metrics = {name: (values[name], unit) for name, unit in units("end_to_end").items()}
    kernels = [k for r in records for k in r.kernel_s[:passes]]
    info = [
        f"solve_total_s takes each instance's median of its first {passes} executions, "
        "in seconds at the calibration kernel's reference speed",
        f"raw wall time: sum of per-instance fastest {_total(records, 'solve_s', passes):.6f} s, "
        f"of per-instance medians {_total(records, 'solve_s', passes, statistics.median):.6f} s",
        f"calibration kernel {statistics.median(kernels) * 1e3 if kernels else 0:.4f} ms median, "
        f"reference {REFERENCE_S * 1e3:g} ms",
    ]
    for q in (0.5, 0.9, 0.99):
        value, beyond = percentile(per_case, q) if per_case else (0.0, 0)
        if q == 0.5 or beyond >= 10:
            info.append(f"solve_s.p{round(q * 100)} {value:.6f} s ({len(per_case)} instances, {beyond} beyond)")
    if gaps:
        geomean = math.exp(statistics.fmean(math.log(g) for g in gaps))
        info.append(f"gap.geomean {geomean:.6f} ratio ({len(gaps)} instances with lower_bound > 0)")
        info.append(f"gap.max {float(max(gaps)):.6f} ratio")
    if any(r.exact_s for r in records):
        info.append(f"exact_total_s {_total(records, 'exact_s', passes):.6f} s")
    if opt_ratios:
        info.append(f"opt_ratio.max {float(max(opt_ratios)):.6f} ratio ({len(opt_ratios)} instances)")
    return metrics, info


def _execution_counts(spans, own, indices) -> dict[str, float]:
    """Per-layer times and counts of one traced execution."""
    out: dict[str, float] = {}
    # spans whose total duration is a metric
    layer_times = {name[:-2] for name in units("per_layer") if name.endswith(".s")}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i in indices:
        s = spans[i]
        if s.name in layer_times:
            add(f"{s.name}.s", s.duration)
        if s.name in ("coloring.cover", "pipeline.solve"):
            add(f"{s.name}.self_s", own[i])
        if s.name in ("lp.certificate", "lp.cover_loop"):
            add(f"{s.name}.rows", s.attrs["rows"])
            add(f"{s.name}.cols", s.attrs["cols"])
            add(f"{s.name}.calls", 1)
        elif s.name == "coloring.cover":
            add("coloring.cover.steps", s.attrs["steps"])
        elif s.name == "copies.find_rooted_copy":
            add("copies.find_rooted_copy.calls", 1)
            add("copies.find_rooted_copy.hits", s.attrs["hit"])
        elif s.name == "localratio.decompose":
            add("localratio.steps", s.attrs["steps"])
            add("localratio.searches", s.attrs.get("searches", 0))
        elif s.name.startswith("copies.enumerate."):
            add(f"{s.name}.copies", s.attrs["copies"])
        elif s.name == "oracle.verify_goodness":
            add("oracle.verify_goodness.calls", 1)
    return out


def per_layer(records, passes: int, tracer: Tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics of one corpus pass, from the traced executions.

    Each instance contributes the mean over its traced executions in the
    first ``passes``, so the values are per pass.  Oracle layers
    include the timed oracle calls.  Also returns each layer's share of
    the traced solve time, by self time.
    """
    own = self_times(tracer.spans)
    layer_units = units("per_layer")
    sums: dict[str, float] = {key: 0.0 for key in layer_units}
    shares: dict[str, float] = {}
    arcs = colors = colored = 0
    for rec in records:
        solves = rec.traced_spans[:passes]
        for runs in (solves, rec.traced_exact_spans):
            for indices in runs:
                for key, value in _execution_counts(tracer.spans, own, indices).items():
                    sums[key] = sums.get(key, 0.0) + value / len(runs)
        for indices in solves:
            for i in indices:
                name = tracer.spans[i].name
                shares[name] = shares.get(name, 0.0) + own[i] / len(solves)
        detail = rec.solution.detail if rec.solution else None
        if detail is not None and detail.coloring is not None:
            arcs += len(detail.conflict_arcs)
            colors += len(set(detail.coloring.colors))
            colored += 1
    calls = sums["copies.find_rooted_copy.calls"]
    sums["copies.find_rooted_copy.hit_ratio"] = sums.pop("copies.find_rooted_copy.hits", 0) / calls if calls else 0.0
    sums["coloring.arcs"] = arcs
    sums["coloring.colors_used"] = colors / colored if colored else 0.0
    full = sums["copies.enumerate.full.copies"]
    used = sum(r.budget_used for r in records if r.solution)
    sums["copies.budget_charge_ratio"] = used / full if full else 0.0
    traced = _total(records, "traced_s", passes)
    untraced = _total(records, "solve_s", passes)
    sums["trace.overhead_frac"] = traced / untraced - 1 if traced and untraced else 0.0
    for key in [k for k in sums if k not in layer_units]:
        del sums[key]
    info = [f"traced solve_total_s {traced:.6f} s, untraced {untraced:.6f} s"]
    # shares are of the mean traced time, averaged like the layer times
    traced_mean = max(_total(records, "traced_s", passes, statistics.fmean), 1e-9)
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        info.append(f"share {name} {value / traced_mean:.2%} of traced solve time (self time)")
    return {k: (v, layer_units[k]) for k, v in sums.items()}, info


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    return path
