"""Command-line surface for the solvers, classifiers, and experiments.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 resource
limit exceeded, 4 internal contradiction (a certified guarantee failed).

Graph sources accept a generator spec (``P6``, ``C5``, ``2P3``, ``P4+P2``,
``butterfly:5,9,4``, ``spider:1,2,4``, ``tadpole:2,5``, ``Lk:3``, ``kbip:3,4``,
``gprime:2``, ``claw``, ``hourglass``, ``threep1``; see
``generators.parse_spec``), ``g6:<line>`` for a raw graph6 line, and
``file:<path>`` for the first graph of a graph6 file. A family list, for
``classify-family`` and ``explore --forbid``, separates its specs by ``;``.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import graph6
from .cover import (
    CoverContext,
    covered_pairs,
    covers_bruteforce,
    classify_pair,
    family_covers_all,
    pairs_for_profile,
    render_pair_table,
    structure_profile,
)
from .errors import ContradictionError, InvalidInputError, ResourceLimitError
from .generators import _shown, graph_from_text, parse_spec_list, from_spec
from .graph import Graph
from .iso import free_filter
from .harness import (
    EnumerationSpec,
    evaluate_graphs,
    max_poc,
    tetrachotomy_classify,
    unboundedness_witnesses,
)
from .constructive import connectify_by_paths, connectify_p5sp1, connectify_sp3
from .solvers import min_cds, min_cfvs, min_ds, min_fvs
from .verification import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_CONTRADICTION = 4


def load_graph(source: str) -> Graph:
    if source.startswith("g6:"):
        return graph6.decode(source[3:])
    if source.startswith("file:"):
        graphs = graph6.read_file(source[5:])
        if not graphs:
            raise InvalidInputError(f"no graphs in {source[5:]!r}")
        return graphs[0]
    return graph_from_text(source)


def load_family(text: str) -> list[Graph]:
    return [from_spec(spec) for spec in parse_spec_list(text)]


def _cmd_solve(args) -> int:
    g = load_graph(args.source)
    solver = {"fvs": min_fvs, "cfvs": min_cfvs, "ds": min_ds, "cds": min_cds}[args.quantity]
    res = solver(g, args.limit)
    payload = {
        "source": args.source,
        "quantity": args.quantity,
        "n": g.n,
        "edges": g.edge_count,
        "optimum": res.optimum,
        "witness": sorted(res.witness),
        "explored": res.explored,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"{args.quantity}({args.source}) = {res.optimum}")
        print(f"witness: {sorted(res.witness)}")
        print(f"explored: {res.explored}")
    return EXIT_OK


def _cmd_covers(args) -> int:
    h = load_graph(args.pattern)
    mode = args.mode
    results = {}
    if mode in ("brute", "both"):
        results["brute"] = covers_bruteforce(h, args.i, args.j)
    if mode in ("symbolic", "both"):
        results["symbolic"] = covered_pairs(h).contains(args.i, args.j)
    for name in sorted(results):
        print(f"{name}: covers ({args.i},{args.j}) = {results[name]}")
    if mode == "both" and results["brute"] != results["symbolic"]:
        raise ContradictionError("covering routes disagree")
    return EXIT_OK


def _cmd_table(args) -> int:
    h = load_graph(args.pattern)
    lo, _, hi = args.range.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        got = _shown(args.range)
        raise InvalidInputError(f"--range must look like 3..12, got {got}") from None
    profile = structure_profile(h)
    table = render_pair_table(pairs_for_profile(profile), lo, hi)
    print(f"profile: {profile.describe()}")
    print(table)
    return EXIT_OK


def _cmd_classify(args) -> int:
    if args.pattern2 is not None and args.witnesses is not None:
        raise InvalidInputError("--witnesses applies to one pattern only")
    h1 = load_graph(args.pattern)
    if args.pattern2 is None:
        res = tetrachotomy_classify(h1)
        if args.witnesses is not None and res.verdict != "class-iv":
            raise InvalidInputError(
                f"--witnesses applies to class-iv patterns only, "
                f"{_shown(args.pattern)} is {res.verdict}"
            )
        count = 3 if args.witnesses is None else args.witnesses
        # witnesses first, so a refused run prints nothing
        witnesses = unboundedness_witnesses(h1, count) if res.uncovered_pair else []
        print(f"{args.pattern}: {res.verdict}")
        print(f"reason: {res.reason}")
        if res.constant is not None:
            print(f"certified constant: {res.constant}")
        if res.uncovered_pair is not None:
            print(f"uncovered pair: {res.uncovered_pair}")
        for b, f, c in witnesses:
            print(f"  witness n={b.n}: fvs={f} cfvs={c}")
    else:
        h2 = load_graph(args.pattern2)
        res = classify_pair(h1, h2)
        print(f"({args.pattern}, {args.pattern2}): {res.verdict}")
        print(f"reason: {res.reason}")
        if res.uncovered_pair is not None:
            print(f"uncovered pair: {res.uncovered_pair}")
    return EXIT_OK


def _cmd_classify_family(args) -> int:
    family = load_family(args.specs)
    res = family_covers_all(family)
    print(f"family of {len(family)}: {res.verdict}")
    print(f"reason: {res.reason}")
    if res.bounded:
        n_ctx = CoverContext.for_graphs(family).N
        print(f"certified ratio constant: {res.constant} (bridge context {n_ctx})")
    elif res.uncovered_pair is not None:
        print(f"uncovered pair: {res.uncovered_pair}")
        print(f"witness family: {res.witness}")
    return EXIT_OK


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path!r}: {exc.strerror}") from None


def _cmd_connectify(args) -> int:
    if args.method == "paths" and args.s is not None:
        raise InvalidInputError("--s applies to --method p5 and sp3 only")
    g = load_graph(args.source)
    if args.method == "paths":
        seed = min_fvs(g).witness
        result, trace = connectify_by_paths(g, seed)
    elif args.method == "p5":
        result, trace = connectify_p5sp1(g, 0 if args.s is None else args.s)
    else:
        result, trace = connectify_sp3(g, 2 if args.s is None else args.s)
    if args.trace:
        _write(args.trace, trace.to_json())
    print(f"connected FVS: {sorted(result)}")
    print(f"size: {len(result)}  certified bound: {trace.claimed_bound}")
    if args.trace:
        print(f"trace written to {args.trace}")
    return EXIT_OK


def _cmd_explore(args) -> int:
    if args.g6_in and args.n_max is not None:
        raise InvalidInputError("--n-max applies without --g6-in only")
    forbidden = ()
    if args.forbid is not None:
        forbidden = tuple(load_family(args.forbid))
        if not forbidden:
            raise InvalidInputError("the family must be nonempty")
    if args.g6_in:
        graphs = graph6.read_file(args.g6_in)
        label = f"graph6 file {args.g6_in}"
        if forbidden:
            free = free_filter(forbidden)
            graphs = [g for g in graphs if free(g)]
            label += f", forbidding {len(forbidden)} pattern(s)"
        report = evaluate_graphs(graphs, label, args.limit)
    else:
        n_max = 6 if args.n_max is None else args.n_max
        report = max_poc(EnumerationSpec(n_max=n_max, forbidden=forbidden), args.limit)
    stamp = None if args.no_timestamp else datetime.now(timezone.utc).isoformat()
    if args.out:
        _write(args.out, report.to_json(stamp))
        print(f"report written to {args.out}")
        print(report.to_text().splitlines()[-1])
    else:
        print(report.to_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    worst = EXIT_OK
    for num, res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"[{mark}] criterion {num:2d} {res.criterion}: {res.detail}")
        if not res.passed:
            worst = EXIT_VERIFY_FAILED
    return worst


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as a one-line input error."""

    given: tuple[str, ...] = ()  # the arguments this parser was last handed

    def parse_known_args(self, args=None, namespace=None):
        self.given = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # argparse echoes an argument, or what follows an option's "=", bare or
        # quoted, newlines included. Each long one is cut, the longest first,
        # and then argparse's list of choices goes: a cut argument is no near miss.
        texts = {text for arg in self.given for text in (arg, arg.partition("=")[2])}
        shown = message
        for text in sorted(texts, key=len, reverse=True):
            cut = _shown(text)
            if cut != repr(text):
                shown = shown.replace(repr(text), cut).replace(text, cut)
        if shown != message:
            shown = shown.split(" (choose from ")[0]
        raise InvalidInputError(f"{self.prog}: {shown}".replace("\n", "\\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pocfvs",
        description="Exact feedback-vertex-set connectivity-price toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact optima with witnesses")
    p.add_argument("source")
    group = p.add_mutually_exclusive_group()
    for name in ("fvs", "cfvs", "ds", "cds"):
        group.add_argument(
            f"--{name}", dest="quantity", action="store_const", const=name
        )
    p.set_defaults(quantity="fvs", func=_cmd_solve)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("covers", help="does the pattern cover the pair (i, j)?")
    p.add_argument("pattern")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--brute", dest="mode", action="store_const", const="brute")
    mode.add_argument("--symbolic", dest="mode", action="store_const", const="symbolic")
    mode.add_argument("--both", dest="mode", action="store_const", const="both")
    p.set_defaults(mode="both", func=_cmd_covers)

    p = sub.add_parser("table", help="tick grid of covered pairs")
    p.add_argument("pattern")
    p.add_argument("--range", required=True, help="e.g. 3..12")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("classify", help="single- or two-pattern classification")
    p.add_argument("pattern")
    p.add_argument("pattern2", nargs="?", default=None)
    p.add_argument(
        "--witnesses", type=int, default=None, help="butterfly witnesses for class iv (default 3)"
    )
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("classify-family", help="boundedness of a finite family")
    p.add_argument("specs", help="';'-separated generator specs")
    p.set_defaults(func=_cmd_classify_family)

    p = sub.add_parser("connectify", help="run a constructive procedure")
    p.add_argument("source")
    p.add_argument("--method", choices=("paths", "p5", "sp3"), required=True)
    p.add_argument("--s", type=int, default=None, help="sp3 default 2, p5 default 0")
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_connectify)

    p = sub.add_parser("explore", help="ratio/difference experiment report")
    p.add_argument("--n-max", type=int, default=None, help="default 6; not with --g6-in")
    p.add_argument("--forbid", default=None)
    p.add_argument("--g6-in", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--no-timestamp", action="store_true")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("verify", help="run the cross-validation batteries")
    p.add_argument(
        "--suite",
        choices=("lemmas", "witnesses", "constructive", "all"),
        default="all",
    )
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InvalidInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ContradictionError as exc:
        print(f"internal contradiction: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION


if __name__ == "__main__":
    sys.exit(main())
