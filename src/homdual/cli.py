"""Command dispatch, corpus management and JSON run reports.

Exit codes: 0 verdict pass, 1 verdict fail, 2 error (a search stopped at
its node budget is one).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from . import __version__
from .catalog import GraphFilters, generate_all_graphs
from .coloring import find_low_td_coloring, make_coloring, verify_p_centered
from .duality import (
    DEFAULT_REP_ORDER,
    build_dual,
    power_local_property,
    regular_partition_report,
    representatives,
    truncated_power,
    verify_duality,
)
from .errors import GraphError, InternalCheckError
from .formats import graph6_pieces, parse_edge_list, parse_graph_lines, to_graph6
from .graphs import Graph, bits
from .powers import (
    INFINITY,
    exact_distance_graph,
    exact_power,
    odd_girth,
    odd_power_experiment,
)
from .sparsity import (
    degeneracy,
    grad_r,
    min_indegree_orientation,
    tree_depth,
)

SCHEMA = "sd-report/1"
EMIT_LIMIT = 500  # largest power, exact power or dual whose graph6 goes into the report


def _read_graphs(path: str, fmt: str = "g6") -> list[Graph]:
    """The graphs in a file: an edge list is one graph, graph6 one per line."""
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    return [parse_edge_list(text)] if fmt == "edges" else parse_graph_lines(text)


def _load_graph(path: Optional[str], fmt: str = "g6") -> Graph:
    if not path:
        raise GraphError("provide an input graph with --in")
    graphs = _read_graphs(path, fmt)
    if len(graphs) != 1:
        raise GraphError(f"{path} holds {len(graphs)} graphs, expected one")
    return graphs[0]


def _load_corpus(args) -> list[Graph]:
    if args.gen:
        filters = GraphFilters(
            max_degree=args.max_degree,
            connected=args.connected,
            triangle_free=args.triangle_free,
        )
        return generate_all_graphs(args.n_max, filters)
    if not args.infile:
        raise GraphError("provide --in or --gen")
    return _read_graphs(args.infile, args.format)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _coloring_arg(G: Graph, spec: str):
    colors = [int(t) for t in spec.split(",")]
    if len(colors) != G.n:
        raise GraphError(f"coloring has {len(colors)} entries for {G.n} vertices")
    return make_coloring(G, colors)


def _cmd_td(args, G):
    cert = tree_depth(G)
    results = {
        "value": cert.value,
        "optimal": cert.optimal,
        "parents": [(-1 if p is None else p) for p in cert.forest.parent],
    }
    return {"n": G.n, "m": G.edge_count()}, results, True


def _cmd_grad(args, G):
    res = grad_r(G, args.rank)
    results = {
        "rank": args.rank,
        "value": _frac(res.value),
        "exact": res.exact,
        "witness_balls": [list(bits(b)) for b in res.witness.balls],
    }
    return {"n": G.n, "rank": args.rank}, results, True


def _cmd_orient(args, G):
    orient, k = min_indegree_orientation(G)
    d, order = degeneracy(G)
    results = {
        "max_indegree": k,
        "arcs": [list(a) for a in orient.arcs],
        "degeneracy": d,
        "peel_order": order,
    }
    return {"n": G.n}, results, True


def _cmd_centered_verify(args, G):
    c = _coloring_arg(G, args.coloring)
    ok, counter = verify_p_centered(G, c, args.p)
    results = {
        "p": args.p,
        "centered": ok,
        "counterexample": None if counter is None else list(bits(counter)),
    }
    return {"n": G.n, "p": args.p}, results, ok


def _cmd_lowtd_find(args, G):
    res = find_low_td_coloring(G, args.p)
    results = {
        "k": res.coloring.k,
        "colors": list(res.coloring.colors),
        "exhaustive": res.exhaustive,
    }
    verdict = res.exhaustive if args.exhaustive else True
    return {"n": G.n, "p": args.p}, results, verdict


def _cmd_power(args, U):
    H = _load_graph(args.template)
    TP = truncated_power(U, H, args.p)
    if not power_local_property(TP):
        raise InternalCheckError("the truncated power fails the local property")
    results = {
        "order": TP.D.n,
        "edges": TP.D.edge_count(),
        "graph6": to_graph6(TP.D) if TP.D.n <= EMIT_LIMIT else None,
    }
    return {"u": U.n, "h": H.n, "p": args.p}, results, True


def _cmd_dual_build(args, corpus):
    f_set = _read_graphs(args.forbid)
    build = build_dual(corpus, f_set)
    text = to_graph6(build.D) if build.D.n <= EMIT_LIMIT else None
    results = {"provenance": build.provenance, "dual_graph6": text}
    if args.dual_out:  # piece by piece: no copy of the whole string
        with open(args.dual_out, "w", encoding="ascii") as fh:
            fh.writelines(graph6_pieces(build.D))
            fh.write("\n")
    return {"corpus": len(corpus), "forbid": len(f_set)}, results, True


def _cmd_dual_verify(args, corpus):
    f_set = _read_graphs(args.forbid)
    D = _load_graph(args.dual) if args.dual else build_dual(corpus, f_set).D
    report = verify_duality(corpus, f_set, D, budget=args.limit_nodes)
    return ({"corpus": len(corpus), "forbid": len(f_set), "dual_order": D.n},
            report.to_dict(), report.verdict)


def _cmd_exact_power(args, G):
    if args.kind == "path":
        P = exact_power(G, args.p)
    else:
        P = exact_distance_graph(G, args.p)
    og = odd_girth(G)
    results = {
        "kind": args.kind,
        "p": args.p,
        "graph6": to_graph6(P) if P.n <= EMIT_LIMIT else None,
        "odd_girth": "infinity" if og == INFINITY else og,
    }
    return {"n": G.n, "p": args.p}, results, True


def _cmd_experiment(args, corpus):
    rep = odd_power_experiment(corpus, args.p, n_claim=args.n_claim)
    return {"corpus": len(corpus), "p": args.p}, rep, rep.get("claim_holds", True)


def _cmd_regular_partition(args, G):
    c = _coloring_arg(G, args.coloring)
    if args.reps:
        reps = _read_graphs(args.reps)
    else:
        reps = representatives(args.p, args.n_rep)
    rep = regular_partition_report(G, c, args.p, reps)
    return {"n": G.n, "p": args.p}, rep, rep["ok"]


def _positive(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1 (got {n})")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="homdual")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, handler, help, corpus=False):
        """A subcommand with the shared options. Its handler takes the parsed
        arguments and the loaded input graph (or corpus, with the generator's
        options) and returns the report's parameters, results and verdict."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--in", dest="infile", help="input graph file")
        sp.add_argument("--format", choices=("g6", "edges"), default="g6",
                        help="format of --in; other graph files are graph6")
        sp.add_argument("--out", help="write the JSON report here instead of stdout")
        sp.add_argument("--timing", action="store_true",
                        help="include wall time (breaks byte-determinism)")
        if corpus:
            sp.add_argument("--gen", action="store_true", help="use the built-in generator")
            sp.add_argument("--n-max", dest="n_max", type=int, default=5)
            sp.add_argument("--max-degree", dest="max_degree", type=int, default=None)
            sp.add_argument("--connected", action="store_true")
            sp.add_argument("--triangle-free", dest="triangle_free", action="store_true")
        load = _load_corpus if corpus else (lambda a: _load_graph(a.infile, a.format))
        sp.set_defaults(func=handler, load=load)
        return sp

    command("td", _cmd_td, "exact tree-depth with witness")

    sp = command("grad", _cmd_grad, "greatest reduced average density")
    sp.add_argument("--rank", type=int, default=0)

    command("orient", _cmd_orient, "min max-indegree orientation + degeneracy")

    sp = command("centered-verify", _cmd_centered_verify, "check a p-centered coloring")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--coloring", required=True, help="comma-separated colors")

    sp = command("lowtd-find", _cmd_lowtd_find, "find a low tree-depth coloring")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--exhaustive", action="store_true",
                    help="fail instead of falling back to the heuristic")

    sp = command("power", _cmd_power, "build a truncated power")
    sp.add_argument("--template", required=True, help="template graph file")
    sp.add_argument("--p", type=int, required=True)

    sp = command("dual-build", _cmd_dual_build, "run the dual construction pipeline",
                 corpus=True)
    sp.add_argument("--forbid", required=True, help="graph6 file, one per line")
    sp.add_argument("--dual-out", dest="dual_out", help="write the dual as graph6")

    sp = command("dual-verify", _cmd_dual_verify, "verify a duality over a corpus",
                 corpus=True)
    sp.add_argument("--forbid", required=True)
    sp.add_argument("--dual", help="graph6 file with the dual (default: rebuild)")
    sp.add_argument("--limit-nodes", dest="limit_nodes", type=_positive, default=None,
                    help="search-node budget per homomorphism question; a search "
                         "stopped by it is an error (exit 2)")

    sp = command("exact-power", _cmd_exact_power, "exact path/distance power")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--kind", choices=("path", "distance"), default="path")

    sp = command("experiment-odd-power", _cmd_experiment, "odd exact-power chromatic scan",
                 corpus=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n-claim", dest="n_claim", type=int, default=None)

    sp = command("regular-partition", _cmd_regular_partition,
                 "match components to representatives")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--coloring", required=True)
    sp.add_argument("--reps", help="graph6 file of representatives")
    sp.add_argument("--n-rep", dest="n_rep", type=_positive, default=DEFAULT_REP_ORDER)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        parameters, results, verdict = args.func(args, args.load(args))
        doc = {
            "schema": SCHEMA,
            "command": args.command,
            "parameters": parameters,
            "results": results,
            "verdict": "pass" if verdict else "fail",
            "provenance": {
                "version": __version__,
                "limit_nodes": getattr(args, "limit_nodes", None),
            },
            "wall_time_ms": None,
        }
        if args.timing:
            doc["wall_time_ms"] = int((time.perf_counter() - start) * 1000)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if args.out:  # a failed write is an error like any other
            with open(args.out, "w", encoding="ascii") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (GraphError, OSError, ValueError, MemoryError, RecursionError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0 if verdict else 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
