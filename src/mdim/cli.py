"""Command-line front end.

Exit codes: 0 success (an infinite dimension is an answer, not an error),
1 usage error, 2 invalid or disconnected input graph, 3 size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import families, harness
from .families import FamilyKind, InvalidParameter, NoKnownWitness, parse_family_spec
from .graph import (
    Graph,
    GraphError,
    all_pairs_distances,
    build_graph,
    major_vertex_report,
    twin_partition,
)
from .resolving import detect_infinite, dim_lower_bound, md_lower_bound
from .search import (
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
    return SearchConfig(max_vertices=args.max_vertices, progress=args.progress)


def _parse_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise ParseError(f"bad vertex set {text!r}; expected comma-separated ids") from None


def _cmd_md(args) -> tuple[dict, str]:
    g = _load_graph(args)
    outcome = compute_md(g, _config(args))
    payload: dict = {"command": "md", "n": g.n, "kind": outcome.kind.value}
    if outcome.is_finite:
        payload.update(value=outcome.value, witness=list(outcome.witness))
    else:
        payload.update(certificate=outcome.certificate.kind.value)
        if outcome.certificate.twin_class:
            payload.update(twin_class=list(outcome.certificate.twin_class))
    return payload, outcome.describe()


def _cmd_dim(args) -> tuple[dict, str]:
    g = _load_graph(args)
    value, witness = compute_dim(g, _config(args))
    return (
        {"command": "dim", "n": g.n, "value": value, "witness": list(witness)},
        f"dim = {value}, witness = {{{', '.join(map(str, witness))}}}",
    )


def _cmd_verify(args) -> tuple[dict, str]:
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
    return payload, "\n".join(lines)


def _cmd_bounds(args) -> tuple[dict, str]:
    g = _load_graph(args)
    dm = all_pairs_distances(g)
    tp = twin_partition(g)
    mr = major_vertex_report(g, dm)
    lb = md_lower_bound(g, dm, tp, mr)
    dim_lb = dim_lower_bound(g, dm, tp, mr)
    cert = detect_infinite(g, dm, tp)
    payload = {
        "command": "bounds",
        "n": g.n,
        "diameter": dm.diameter,
        "lower_bound": lb.value,
        "bounds": lb.bounds,
        "achieved_by": list(lb.achieved_by),
        "dim_lower_bound": dim_lb.value,
        "dim_bounds": dim_lb.bounds,
        "dim_achieved_by": list(dim_lb.achieved_by),
        "infinite_certificate": cert.kind.value if cert else None,
    }
    lines = []
    for name, report in (("md", lb), ("dim", dim_lb)):
        lines.append(
            f"{name} lower bound = {report.value} (via {', '.join(report.achieved_by)})"
        )
        lines += [f"  {tag}: {v}" for tag, v in report.bounds.items()]
    if cert:
        lines.append(f"infinite: yes ({cert.describe()})")
    return payload, "\n".join(lines)


def _cmd_family(args) -> tuple[dict, str]:
    spec = parse_family_spec(args.spec)
    payload: dict = {"command": "family", "spec": str(spec)}
    if args.action == "emit":
        g = families.generate(spec)
        payload.update(n=g.n, edges=[list(e) for e in g.edges()])
        lines = [f"# {spec}", f"n={g.n}"] + [f"{u} {v}" for u, v in g.edges()]
        return payload, "\n".join(lines)
    if args.action == "md":
        expected = families.expected_md(spec)
        payload.update(expected=expected.kind.value, value=expected.value, note=expected.note)
        if expected.value is not None:
            return payload, f"expected md = {expected.value}"
        if expected.kind is families.MdKind.INFINITE:
            return payload, "expected md = infinite"
        return payload, f"expected md unspecified: {expected.note}"
    try:
        w = families.witness_for(spec)
    except NoKnownWitness as exc:
        payload.update(witness=None, note=str(exc))
        return payload, str(exc)
    payload.update(witness=list(w))
    return payload, f"witness = {{{', '.join(map(str, w))}}}"


def _cmd_tables(args) -> tuple[dict, str]:
    spec = parse_family_spec(args.selector)
    table = {FamilyKind.CYCLE: harness.cycle_table, FamilyKind.GRID: harness.grid_table}
    if spec.kind not in table:
        raise ParseError(f"selector must be cycle:N or grid:MxN, got {args.selector!r}")
    try:
        rows = table[spec.kind](*spec.params)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    mismatches = len(harness.table_mismatches(rows))
    payload = {
        "command": "tables",
        "selector": args.selector,
        "rows": [
            {"vertex": r.vertex, "computed": list(r.computed),
             "closed_form": list(r.closed_form), "match": r.match}
            for r in rows
        ],
        "mismatches": mismatches,
    }
    lines = [
        f"{r.vertex}: computed {list(r.computed)} closed {list(r.closed_form)}"
        + ("" if r.match else "   << MISMATCH")
        for r in rows
    ]
    lines.append(f"mismatches: {mismatches}")
    return payload, "\n".join(lines)


def _cmd_scan(args) -> tuple[dict, str]:
    report = harness.scan_small_graphs(args.n, dedup=args.dedup)
    text = [
        f"scan n={report.n} dedup={report.dedup}: "
        f"{report.graphs_connected} connected of {report.graphs_total} enumerated",
        f"md histogram: {report.md_histogram}",
        f"diameter<=2 fraction: {report.diameter2_fraction:.4f}",
        f"violations: {report.violations or 'none'}",
    ]
    text += ["  " + c.render() for c in report.conjecture_findings]
    return report.to_dict(), "\n".join(text)


def _cmd_suite(args) -> tuple[dict, str]:
    checks = harness.run_reproduction_suite(_config(args), scan_n=args.scan_n)
    return (
        {"command": "suite", "checks": [c.to_dict() for c in checks]},
        harness.render_checks(checks),
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least_one(what: str) -> Callable[[str], int]:
    """The argparse type of a count of at least 1, named ``what`` in errors."""

    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < 1:
            raise argparse.ArgumentTypeError(f"expected {what} of at least 1, got {text!r}")
        return int(text)

    return parse


def _add_common(
    sub: argparse.ArgumentParser,
    graph_input: bool = True,
    progress: bool = False,
    cap: bool = False,
) -> None:
    """Add --json and the options the subcommand reads: the graph input,
    ``progress`` for --progress and ``cap`` for --max-vertices."""
    sub.add_argument("--json", action="store_true", help="structured output")
    if progress:
        sub.add_argument("--progress", action="store_true",
                         help="progress notes on stderr")
    if cap:
        sub.add_argument("--max-vertices", type=_at_least_one("a vertex cap"),
                         default=SearchConfig._field_defaults["max_vertices"],
                         metavar="N", help="exhaustive-search cap (default %(default)s)")
    if graph_input:
        # one graph source: main refuses a file together with --family once
        # parsing is done, so that an unknown option followed by a value
        # is still reported as unrecognized rather than as a second source
        sub.add_argument("input", nargs="?", help="edge-list file")
        sub.add_argument("--family", metavar="SPEC",
                         help="family spec such as cycle:9 or grid:4x5")
        sub.set_defaults(usage_error=sub.error)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdim", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("md", help="exact multiset dimension")
    _add_common(p, progress=True, cap=True)
    p.set_defaults(func=_cmd_md)

    p = subs.add_parser("dim", help="exact metric dimension")
    _add_common(p, progress=True, cap=True)
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
    p.add_argument("--n", type=int, choices=harness.SCAN_ORDERS, default=6,
                   metavar="N", help="order to scan (2..7, default 6)")
    p.add_argument("--dedup", action="store_true",
                   help="one representative per isomorphism class")
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("suite", help="run the full reproduction suite")
    _add_common(p, graph_input=False, progress=True, cap=True)
    p.add_argument("--scan-n", type=int, choices=harness.SCAN_ORDERS, default=6,
                   metavar="N", help="scan order (2..7, default 6)")
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "input", None) and getattr(args, "family", None):
            args.usage_error("argument --family: not allowed with argument input")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        payload, text = args.func(args)
    except (ParseError, GraphError, InvalidParameter, FileNotFoundError) as exc:
        print(f"mdim: {exc}", file=sys.stderr)
        return EXIT_BAD_GRAPH
    except SearchAborted as exc:
        print(f"mdim: aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED
    try:
        print(json.dumps(payload, sort_keys=True) if args.json else text, flush=True)
    except BrokenPipeError:
        # the reader stopped early and the answer is complete; devnull on
        # fd 1 takes what is still buffered, so the interpreter's last
        # flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
