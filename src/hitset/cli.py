"""Command-line front end for batch solving, analysis and generation.

Documents are plain structured text: one "key: value" line per field,
keys sorted, rationals printed exactly as "a/b".  Explanatory output
lives in '#' comment lines so every document stays machine-parseable.
Identical command lines with identical seeds produce byte-identical
output.

Exit codes: 0 success, 2 parse/usage error, 3 enumeration budget
exceeded, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .copies import DEFAULT_MAX_COPIES, EnumerationBudget
from .errors import (
    BudgetExceededError,
    InvalidColoringError,
    ParseError,
    VerificationError,
)
from .generators import (
    GLParams,
    gadget_edge_glue,
    gadget_vertex_glue,
    gl_random_instance,
    parse_hypergraph_text,
    random_graph,
    serialize_tagged_graph,
)
from .graphs import (
    _INTEGER,
    Pattern,
    _decode_text,
    _parse_int,
    parse_graph,
    serialize_graph,
    unit_weights,
)
from .localratio import decompose_weights
from .oracle import DEFAULT_CAP, exact_min_hitting_set, exact_min_vertex_cover, verify_goodness
from .patterns import classify_pattern, construct_good_graph
from .pipeline import Solution, guaranteed_factor, solve, verify_solution


def _read_weighted_graph(path: str):
    return parse_graph(Path(path).read_bytes())


def _read_pattern(path: str) -> Pattern:
    return Pattern(_read_weighted_graph(path).graph)


def _rational(x) -> str:
    """``str(x)``, lifting Python's int-to-str digit limit for this one call only."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def solution_document(sol: Solution, explain: bool = False) -> str:
    rows = {
        "classification": sol.classification,
        "guaranteed_factor": _rational(sol.guaranteed_factor),
        "lower_bound": _rational(sol.lower_bound),
        "vertices": " ".join(map(str, sol.hitting_set)),
        "weight": _rational(sol.weight),
    }
    if sol.warning is not None:
        rows["warning"] = sol.warning
    lines = [f"{key}: {rows[key]}" for key in sorted(rows)]
    if explain:
        d = sol.detail
        for num, st in enumerate(d.trace.steps, start=1):
            image = " ".join(f"{x}->{y}" for x, y in enumerate(st.embedding))
            scale = _rational(st.scale)
            lines.append(f"# subtraction step {num}: gadget 0 scale {scale} image {image}")
        lines.append("# zero set: " + " ".join(map(str, sorted(d.trace.zero_set))))
        if d.residual_vertices:
            lines.append("# residual vertices: " + " ".join(map(str, d.residual_vertices)))
        if d.coloring is not None:
            pairs = " ".join(f"{v}:{c}" for v, c in enumerate(d.coloring.colors))
            lines.append(f"# colouring (palette {d.coloring.t}): {pairs}")
        if d.conflict_arcs:
            lines.append(
                "# conflict arcs: " + " ".join(f"{u}->{w}" for u, w in d.conflict_arcs)
            )
        for num, step in enumerate(d.cover_steps, start=1):
            lines.append(f"# cover step {num}: {step}")
    return "\n".join(lines) + "\n"


def parse_solution_document(text: str | bytes) -> tuple[int, ...]:
    """Extract the hitting set from a solution document."""
    for lineno, raw in enumerate(_decode_text(text).splitlines(), start=1):
        if raw.startswith("vertices:"):
            body = raw.split(":", 1)[1].strip()
            if not body:
                return ()
            fields = body.split()
            if not all(_INTEGER.fullmatch(x) for x in fields):
                raise ParseError(lineno, "malformed", "vertices must be integers")
            return tuple(_parse_int(x, lineno, "vertex id") for x in fields)
    raise ParseError(1, "malformed", "no 'vertices:' line in solution document")


def _cmd_solve(args) -> int:
    g = _read_weighted_graph(args.graph)
    h = _read_pattern(args.pattern)
    sol = solve(g, h, EnumerationBudget(args.budget))
    sys.stdout.write(solution_document(sol, explain=args.explain))
    return 0


def _cmd_exact(args) -> int:
    g = _read_weighted_graph(args.graph)
    if args.vertex_cover:
        size = exact_min_vertex_cover(g.graph, cap=args.cap)
        sys.stdout.write(f"vertex_cover_size: {size}\n")
        return 0
    if args.pattern is None:
        print("error: exact needs a pattern file (or --vertex-cover)", file=sys.stderr)
        return 2
    h = _read_pattern(args.pattern)
    vertices, weight = exact_min_hitting_set(
        g, h, cap=args.cap, budget=EnumerationBudget(args.budget)
    )
    sys.stdout.write(f"vertices: {' '.join(map(str, vertices))}\nweight: {_rational(weight)}\n")
    return 0


def _cmd_analyze(args) -> int:
    h = _read_pattern(args.pattern)
    cls = classify_pattern(h)
    d = cls.decomposition
    lines = [
        f"classification: {cls.kind}",
        f"guaranteed_factor: {_rational(guaranteed_factor(h, d))}",
        f"k: {h.k}",
    ]
    if d is None:
        sys.stdout.write("\n".join(sorted(lines)) + "\n")
        return 0
    good = construct_good_graph(h, d)
    if not verify_goodness(good, h):
        raise VerificationError("gadget failed its goodness certificate")
    lines.append(f"root: {d.root}")
    out = "\n".join(sorted(lines)) + "\n"
    for i, branch in enumerate(d.branches):
        out += f"# branch {i}: {' '.join(map(str, branch))}\n"
    witness = " ".join(f"{a}->{b}" for a, b in d.embedding)
    out += f"# witness: branch {d.small_index} into branch {d.big_index} via {witness}\n"
    out += f"# gadget total weight: {_rational(sum(good.weights))}\n"
    out += "# gadget graph:\n"
    for line in serialize_graph(good).splitlines():
        out += f"# {line}\n"
    sys.stdout.write(out)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "random":
        g = random_graph(args.n, args.p, args.seed)
        sys.stdout.write(serialize_graph(unit_weights(g)))
        return 0
    if args.kind in ("vc-edge-gadget", "vc-vertex-gadget"):
        base = _read_weighted_graph(args.base).graph
        h = _read_pattern(args.pattern)
        glue = gadget_edge_glue if args.kind == "vc-edge-gadget" else gadget_vertex_glue
        out, provenance = glue(base, h)
        text = serialize_graph(unit_weights(out)) + "# provenance\n"
        for new_id, (site, hv) in sorted(provenance.items()):
            ids = site if isinstance(site, tuple) else (site,)  # a base edge or a base vertex
            text += f"# v {new_id} {' '.join(map(str, ids))} {hv}\n"
        sys.stdout.write(text)
        return 0
    # the one kind left that argparse admits is gl
    base_n, base_edges = parse_hypergraph_text(Path(args.base).read_bytes())
    h = _read_pattern(args.pattern)
    params = GLParams(base_n, base_edges, args.cloud_size, args.multiplier, args.seed)
    tg = gl_random_instance(h, params)
    sys.stdout.write(serialize_tagged_graph(tg))
    return 0


def _cmd_verify(args) -> int:
    g = _read_weighted_graph(args.graph)
    h = _read_pattern(args.pattern)
    vertices = parse_solution_document(Path(args.solution).read_bytes())
    if any(not 0 <= v < g.n for v in vertices):
        print("error: solution vertex out of range", file=sys.stderr)
        return 2
    ok = verify_solution(g.graph, h, vertices)
    sys.stdout.write("VALID\n" if ok else "INVALID\n")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    h = _read_pattern(args.pattern)
    header = (
        "instance\tk\tn\tbaseline_weight\tpipeline_weight\texact_opt"
        "\ttau_star\tbaseline_ratio\tpipeline_ratio"
    )
    rows = []
    for i in range(args.count):
        g = unit_weights(random_graph(args.n, args.p, args.seed + i))
        # the trivial k-factor: the zero set of subtracting the unit-weight pattern, a
        # gadget with no certificate needed (its identity copy covers every vertex)
        baseline = decompose_weights(g, unit_weights(h.graph), EnumerationBudget(args.budget))
        baseline_weight = g.total(baseline.zero_set)
        pipe_sol = solve(g, h, EnumerationBudget(args.budget))
        tau = pipe_sol.detail.tau_star
        opt = None
        if g.n <= args.cap:
            _, opt = exact_min_hitting_set(
                g, h, cap=args.cap, budget=EnumerationBudget(args.budget)
            )
        def ratio(weight):
            if opt is None or opt == 0:
                return "-"
            return _rational(weight / opt)
        rows.append(
            f"r{i:04d}\t{h.k}\t{g.n}\t{_rational(baseline_weight)}\t{_rational(pipe_sol.weight)}"
            f"\t{_rational(opt) if opt is not None else '-'}\t{_rational(tau)}"
            f"\t{ratio(baseline_weight)}\t{ratio(pipe_sol.weight)}"
        )
    sys.stdout.write("\n".join([header, *rows]) + "\n")
    return 0


def _nonnegative(text: str) -> int:
    """argparse type for budgets, caps and counts: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hitset",
        description="Approximate and exact minimum-weight pattern hitting sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="approximate a minimum hitting set")
    p_solve.add_argument("graph")
    p_solve.add_argument("pattern")
    p_solve.add_argument("--budget", type=_nonnegative, default=DEFAULT_MAX_COPIES)
    p_solve.add_argument("--explain", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_exact = sub.add_parser("exact", help="exact optimum by branch and bound")
    p_exact.add_argument("graph")
    p_exact.add_argument("pattern", nargs="?")
    p_exact.add_argument("--cap", type=_nonnegative, default=DEFAULT_CAP)
    p_exact.add_argument("--budget", type=_nonnegative, default=DEFAULT_MAX_COPIES)
    p_exact.add_argument("--vertex-cover", action="store_true")
    p_exact.set_defaults(func=_cmd_exact)

    p_analyze = sub.add_parser("analyze", help="classify a pattern and build its gadget")
    p_analyze.add_argument("pattern")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_gen = sub.add_parser("gen", help="generate instances")
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    for kind in ("vc-edge-gadget", "vc-vertex-gadget"):
        pg = gen_sub.add_parser(kind)
        pg.add_argument("--base", required=True)
        pg.add_argument("--pattern", required=True)
        pg.set_defaults(func=_cmd_gen, kind=kind)
    pg = gen_sub.add_parser("gl")
    pg.add_argument("--base", required=True, help="base hypergraph file")
    pg.add_argument("--pattern", required=True)
    pg.add_argument("--cloud-size", type=int, required=True)
    pg.add_argument("--multiplier", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=_cmd_gen, kind="gl")
    pg = gen_sub.add_parser("random")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--p", type=float, required=True)
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=_cmd_gen, kind="random")

    p_verify = sub.add_parser("verify", help="check a solution document")
    p_verify.add_argument("graph")
    p_verify.add_argument("pattern")
    p_verify.add_argument("solution")
    p_verify.set_defaults(func=_cmd_verify)

    p_bench = sub.add_parser("bench", help="baseline vs pipeline over a seeded corpus")
    p_bench.add_argument("--pattern", required=True)
    p_bench.add_argument("--count", type=_nonnegative, default=10)
    p_bench.add_argument("--n", type=int, default=10)
    p_bench.add_argument("--p", type=float, default=0.4)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--cap", type=_nonnegative, default=DEFAULT_CAP)
    p_bench.add_argument("--budget", type=_nonnegative, default=DEFAULT_MAX_COPIES)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (VerificationError, InvalidColoringError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
