"""Command-line front end.

Exit codes: 0 success (an infinite dimension is an answer, not an error),
1 usage error, 2 invalid or disconnected input graph, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families, harness
from .families import InvalidParameter, NoKnownWitness, parse_family_spec
from .graph import (
    Graph,
    GraphError,
    all_pairs_distances,
    build_graph,
    diameter,
    major_vertex_report,
    twin_partition,
)
from .resolving import detect_infinite, md_lower_bound
from .search import (
    OutcomeKind,
    SearchAborted,
    SearchConfig,
    compute_dim,
    compute_md,
    verify_witness,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_GRAPH = 2
EXIT_ABORTED = 3


class ParseError(ValueError):
    """Malformed edge-list text; message carries the line number."""


def parse_edge_list(text: str) -> Graph:
    """Parse the shared edge-list format.

    '#' lines are comments; an optional first data line "n=<int>" fixes the
    vertex count, otherwise it is one more than the largest id seen; every
    other data line is "u v".
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    linenos: list[int] = []
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_data and line.startswith("n="):
            try:
                n = int(line[2:])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {line!r}") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            saw_data = True
            continue
        saw_data = True
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        edges.append((u, v))
        linenos.append(lineno)

    if n is None:
        # clamp at 0 so all-negative ids are rejected as out-of-range edges
        n = max(0, 1 + max((max(e) for e in edges), default=-1))
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        # n >= 0 on every path, so build_graph only rejects single edges
        raise type(exc)(f"line {linenos[exc.edge_index]}: {exc}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "family", None):
        return families.generate(parse_family_spec(args.family))
    if getattr(args, "input", None):
        with open(args.input, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    raise ParseError("no input: give a file path or --family")


def _config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        max_vertices=args.max_vertices, workers=args.parallel, progress=args.progress
    )


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _parse_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ParseError(f"bad vertex set {text!r}; expected comma-separated ids") from None


def _cmd_md(args) -> int:
    g = _load_graph(args)
    outcome = compute_md(g, _config(args))
    payload: dict = {"command": "md", "n": g.n, "kind": outcome.kind.value}
    if outcome.is_finite:
        payload.update(value=outcome.value, witness=list(outcome.witness))
    elif outcome.is_infinite:
        payload.update(certificate=outcome.certificate.kind.value)
        if outcome.certificate.twin_class:
            payload.update(twin_class=list(outcome.certificate.twin_class))
    else:
        payload.update(reason=outcome.reason)
    _emit(args, payload, outcome.describe())
    return EXIT_ABORTED if outcome.kind is OutcomeKind.ABORTED else EXIT_OK


def _cmd_dim(args) -> int:
    g = _load_graph(args)
    value, witness = compute_dim(g, _config(args))
    _emit(
        args,
        {"command": "dim", "n": g.n, "value": value, "witness": list(witness)},
        f"dim = {value}, witness = {{{', '.join(map(str, witness))}}}",
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args)
    w = _parse_set(args.set)
    report = verify_witness(g, w)
    payload = {
        "command": "verify",
        "witness": list(report.witness),
        "m_resolving": report.multiset.resolving,
        "metric_resolving": report.metric.resolving,
        "representations": [list(r) for r in report.representations],
        "vectors": [list(v) for v in report.vectors],
    }
    lines = [
        f"m-resolving: {'yes' if report.multiset.resolving else 'no'}",
        f"metric-resolving: {'yes' if report.metric.resolving else 'no'}",
    ]
    for label, rep in (("multiset", report.multiset), ("metric", report.metric)):
        if rep.first_collision:
            u, v, shared = rep.first_collision
            payload[f"{label}_collision"] = {"vertices": [u, v], "shared": list(shared)}
            lines.append(f"{label} collision: vertices {u} and {v} share {list(shared)}")
    lines.append("representations (vertex: multiset | vector):")
    for v in range(g.n):
        lines.append(
            f"  {v}: {list(report.representations[v])} | {list(report.vectors[v])}"
        )
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    g = _load_graph(args)
    dm = all_pairs_distances(g)
    tp = twin_partition(g)
    lb = md_lower_bound(g, dm, tp, major_vertex_report(g, dm))
    cert = detect_infinite(g, dm, tp)
    payload = {
        "command": "bounds",
        "n": g.n,
        "diameter": diameter(dm),
        "lower_bound": lb.value,
        "bounds": lb.bounds,
        "achieved_by": list(lb.achieved_by),
        "infinite_certificate": cert.kind.value if cert else None,
    }
    lines = [f"md lower bound = {lb.value} (via {', '.join(lb.achieved_by)})"]
    lines += [f"  {tag}: {v}" for tag, v in lb.bounds.items()]
    if cert:
        lines.append(f"infinite: yes ({cert.describe()})")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_family(args) -> int:
    spec = parse_family_spec(args.spec)
    if args.action == "emit":
        g = families.generate(spec)
        edge_lines = "\n".join(f"{u} {v}" for u, v in g.edges())
        text = f"# {spec}\nn={g.n}\n{edge_lines}" + ("\n" if edge_lines else "")
        _emit(
            args,
            {"command": "family", "spec": str(spec), "n": g.n,
             "edges": [list(e) for e in g.edges()]},
            text.rstrip("\n"),
        )
        return EXIT_OK
    if args.action == "md":
        expected = families.expected_md(spec)
        payload = {
            "command": "family",
            "spec": str(spec),
            "expected": expected.kind.value,
            "value": expected.value,
            "note": expected.note,
        }
        if expected.value is not None:
            text = f"expected md = {expected.value}"
        elif expected.kind.value == "infinite":
            text = "expected md = infinite"
        else:
            text = f"expected md unspecified: {expected.note}"
        _emit(args, payload, text)
        return EXIT_OK
    try:
        w = families.witness_for(spec)
    except NoKnownWitness as exc:
        _emit(args, {"command": "family", "spec": str(spec), "witness": None,
                     "note": str(exc)}, str(exc))
        return EXIT_OK
    _emit(
        args,
        {"command": "family", "spec": str(spec), "witness": list(w)},
        f"witness = {{{', '.join(map(str, w))}}}",
    )
    return EXIT_OK


def _cmd_tables(args) -> int:
    sel = args.selector
    try:
        if sel.startswith("cycle:"):
            rows = harness.cycle_table(int(sel.split(":", 1)[1]))
        elif sel.startswith("grid:"):
            m, n = (int(x) for x in sel.split(":", 1)[1].split("x"))
            rows = harness.grid_table(m, n)
        else:
            raise ValueError(f"selector must be cycle:N or grid:MxN, got {sel!r}")
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    payload = {
        "command": "tables",
        "selector": sel,
        "rows": [
            {"vertex": r.vertex, "computed": list(r.computed),
             "closed_form": list(r.closed_form), "match": r.match}
            for r in rows
        ],
        "mismatches": len(harness.table_mismatches(rows)),
    }
    lines = [
        f"{r.vertex}: computed {list(r.computed)} closed {list(r.closed_form)}"
        + ("" if r.match else "   << MISMATCH")
        for r in rows
    ]
    lines.append(f"mismatches: {len(harness.table_mismatches(rows))}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_scan(args) -> int:
    report = harness.scan_small_graphs(args.n, dedup=args.dedup, cfg=_config(args))
    text = [
        f"scan n={report.n} dedup={report.dedup}: "
        f"{report.graphs_connected} connected of {report.graphs_total} enumerated",
        f"md histogram: {report.md_histogram}",
        f"diameter<=2 fraction: {report.diameter2_fraction:.4f}",
        f"violations: {report.violations or 'none'}",
    ]
    text += ["  " + c.render() for c in report.conjecture_findings]
    _emit(args, report.to_dict(), "\n".join(text))
    return EXIT_OK


def _cmd_suite(args) -> int:
    checks = harness.run_reproduction_suite(
        _config(args), scan_n=args.scan_n, scan_dedup=args.dedup
    )
    _emit(
        args,
        {"command": "suite", "checks": [c.to_dict() for c in checks]},
        harness.render_checks(checks),
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser, graph_input: bool = True) -> None:
    sub.add_argument("--json", action="store_true", help="structured output")
    sub.add_argument("--parallel", type=int, default=1, metavar="K",
                     help="worker processes (default 1)")
    sub.add_argument("--max-vertices", type=int, default=24, metavar="N",
                     help="exhaustive-search cap (default 24)")
    sub.add_argument("--progress", action="store_true", help="progress notes on stderr")
    if graph_input:
        sub.add_argument("input", nargs="?", help="edge-list file")
        sub.add_argument("--family", metavar="SPEC",
                         help="family spec such as cycle:9 or grid:4x5")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("md", help="exact multiset dimension")
    _add_common(p)
    p.set_defaults(func=_cmd_md)

    p = subs.add_parser("dim", help="exact metric dimension")
    _add_common(p)
    p.set_defaults(func=_cmd_dim)

    p = subs.add_parser("verify", help="check one vertex set both ways")
    _add_common(p)
    p.add_argument("--set", required=True, metavar="A,B,C", help="vertex ids")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("bounds", help="lower bounds and infiniteness certificates")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("family", help="emit a family graph, its known md, or witness")
    _add_common(p, graph_input=False)
    p.add_argument("spec", help="family spec such as karytree:2x3")
    p.add_argument("--action", choices=("emit", "md", "witness"), default="emit")
    p.set_defaults(func=_cmd_family)

    p = subs.add_parser("tables", help="closed-form vs computed representations")
    _add_common(p, graph_input=False)
    p.add_argument("selector", help="cycle:N or grid:MxN")
    p.set_defaults(func=_cmd_tables)

    p = subs.add_parser("scan", help="solve every connected graph of one order")
    _add_common(p, graph_input=False)
    p.add_argument("--n", type=int, default=6, help="order to scan (2..7, default 6)")
    p.add_argument("--dedup", action="store_true",
                   help="one representative per isomorphism class")
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("suite", help="run the full reproduction suite")
    _add_common(p, graph_input=False)
    p.add_argument("--scan-n", type=int, default=6, help="scan order (default 6)")
    p.add_argument("--dedup", action="store_true", help="dedup the suite scan")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ParseError, GraphError, InvalidParameter) as exc:
        print(f"mdim: {exc}", file=sys.stderr)
        return EXIT_BAD_GRAPH
    except SearchAborted as exc:
        print(f"mdim: aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    except FileNotFoundError as exc:
        print(f"mdim: {exc}", file=sys.stderr)
        return EXIT_BAD_GRAPH


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
