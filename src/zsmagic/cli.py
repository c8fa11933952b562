"""Command-line front end.

Verbs: ``info``, ``zsp``, ``bijection``, ``kotzig``, ``label``, ``verify``,
``search``, ``scan``.  Certificates are printed on stdout in the text
formats of the owning modules (lines starting with ``#`` are annotations
the parsers ignore), so output can be piped to a file and re-checked with
``verify``.

Exit codes: 0 success or accepted certificate, 1 rejected certificate or
scan counterexample, 2 invalid input, 3 proven nonexistence or
obstruction, 4 search budget exhausted.  ``scan`` exits 1 when any row
is a counterexample, else 4 when the budget cut any row, else 0.
``--json`` switches to a single machine-readable document per invocation;
identical invocations produce byte-identical documents.  Each verb's
handler returns its exit code, its document and its text, and ``main``
writes one of the two in one call.

Each handler imports the modules only its verb uses: ``info``, ``zsp`` and
``bijection`` load ``groups`` and ``zsp``, ``kotzig`` adds ``kotzig``,
``label`` adds ``graphs``, and ``verify``, ``search`` and ``scan`` load the
``oracle`` and with it every module.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import NonexistenceError, ParameterError, ZsmagicError
from .groups import (
    DEFAULT_BUDGET,
    canonical_factors,
    checked,
    format_element,
    in_class_g,
    involution_count,
    parse_group_spec,
    sum_all,
)
from .zsp import bijection_to_text, partition_to_text, triple_bijection, verify_triple_bijection
from .zsp import zsp as build_zsp

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INVALID = 2
EXIT_NONEXISTENT = 3
EXIT_BUDGET = 4


def _canonical_string(spec) -> str:
    return "x".join(f"Z{f}" for f in canonical_factors(spec)) or "Z1"


def _handle_info(args):
    spec = parse_group_spec(args.group)
    doc = {
        "command": "info",
        "group": str(spec),
        "order": spec.order,
        "canonical": _canonical_string(spec),
        "involutions": involution_count(spec),
        "class_g": in_class_g(spec),
        "sum_all": format_element(sum_all(spec)),
    }
    text = (
        f"group: {spec}\n"
        f"order: {spec.order}\n"
        f"canonical: {doc['canonical']}\n"
        f"involutions: {doc['involutions']}\n"
        f"in class G: {'yes' if doc['class_g'] else 'no'}\n"
        f"sum of all elements: {doc['sum_all']}\n"
    )
    return EXIT_OK, doc, text


def _handle_zsp(args):
    spec = parse_group_spec(args.group)
    # the constructor verifies the partition and raises if the check fails
    partition = build_zsp(spec, args.m)
    cert = partition_to_text(partition)
    doc = {
        "command": "zsp",
        "group": str(spec),
        "m": args.m,
        "blocks": len(partition.blocks),
        "certificate": cert,
        "verified": True,
    }
    return EXIT_OK, doc, cert + "# verified: accept\n"


def _handle_bijection(args):
    spec = parse_group_spec(args.group)
    tb = triple_bijection(spec)
    cert = bijection_to_text(checked(tb, verify_triple_bijection(tb)))
    doc = {
        "command": "bijection",
        "group": str(spec),
        "certificate": cert,
        "verified": True,
    }
    return EXIT_OK, doc, cert + "# verified: accept\n"


def _handle_kotzig(args):
    from . import kotzig
    # build_group_kotzig and build_int_kotzig verify the array and raise on failure
    if args.int_mode:
        try:
            k = int(args.target)
        except ValueError:
            raise ParameterError(f"--int expects an integer column count, got {args.target!r}")
        array = kotzig.build_int_kotzig(args.j, k)
        column_sum = str(array.column_sum())
    else:
        spec = parse_group_spec(args.target)
        array = kotzig.build_group_kotzig(spec, args.j)
        column_sum = format_element(array.column_sum())
    cert = kotzig.array_to_text(array)
    doc = {
        "command": "kotzig",
        "target": args.target,
        "j": args.j,
        "int_mode": args.int_mode,
        "column_sum": column_sum,
        "certificate": cert,
        "verified": True,
    }
    return EXIT_OK, doc, cert + f"# column sum: {column_sum}\n# verified: accept\n"


def _handle_label(args):
    from . import graphs
    base = graphs.graph_from_text(Path(args.graphfile).read_text())
    spec = parse_group_spec(args.group)
    if args.kind == "blowup":
        labeling = graphs.blowup_label(base, args.n, spec)
    elif args.kind == "even":
        labeling = graphs.blowup_even_label(base, args.n, spec)
    else:
        labeling = graphs.eulerian_bipartite_label(base, args.n, spec)
    product = graphs.lex_product(base, graphs.empty_graph(args.n))
    verdict = graphs.verify_labeling(product, labeling)
    if args.emit_graph:
        Path(args.emit_graph).write_text(graphs.graph_to_text(product))
    cert = graphs.labeling_to_text(labeling)
    doc = {
        "command": "label",
        "kind": args.kind,
        "group": str(spec),
        "n": args.n,
        "status": verdict.status,
        "magic_constant": format_element(verdict.mu) if verdict.mu is not None else None,
        "certificate": cert,
    }
    return EXIT_OK, doc, cert + f"# status: {verdict.status}\n# magic constant: {doc['magic_constant']}\n"


def _verify_payload(text: str, graph_path: str | None):
    from . import graphs, oracle
    word, witness, verify = oracle.certificate_from_text(text)
    if witness is None:
        return word, True, "no witness to check"
    if verify is not None:
        check = verify(witness)
        return word, bool(check.ok), check.reason
    if graph_path is None:
        return word, True, "bijection onto the group (no graph supplied)"
    g = graphs.graph_from_text(Path(graph_path).read_text())
    verdict = graphs.verify_labeling(g, witness)
    reason = None if verdict.is_magic else f"weights differ at vertices {verdict.witness}"
    return word, verdict.is_magic, reason


def _handle_verify(args):
    text = Path(args.certificate).read_text()
    kind, ok, reason = _verify_payload(text, args.graph)
    doc = {
        "command": "verify",
        "kind": kind,
        "accepted": ok,
        "reason": reason,
    }
    text = f"{'accept' if ok else 'reject'}: {kind}" + (f" ({reason})" if reason else "") + "\n"
    return (EXIT_OK if ok else EXIT_REJECT), doc, text


def _report_exit(report) -> int:
    if report.found:
        return EXIT_OK
    return EXIT_NONEXISTENT if report.exhausted else EXIT_BUDGET


_SEARCH_ARGS = {
    "zsp": ("group", "m"),
    "bijection": ("group",),
    "kotzig": ("target", "j"),
    "labeling": ("graphfile", "group"),
}


def _check_budget(budget: int) -> None:
    if budget < 1:
        raise ParameterError(f"--budget must be at least 1, got {budget}")


def _handle_search(args):
    from . import graphs, oracle
    expected = _SEARCH_ARGS[args.kind]
    if len(args.args) != len(expected):
        raise ParameterError(
            f"search {args.kind} expects {' '.join(expected)}, got {len(args.args)} argument(s)"
        )
    if args.int_mode and args.kind != "kotzig":
        raise ParameterError(f"--int applies to search kotzig only, not search {args.kind}")
    _check_budget(args.budget)
    kind = args.kind
    if args.kind == "zsp":
        spec = parse_group_spec(args.args[0])
        report = oracle.search_zsp(spec, int(args.args[1]), args.budget)
    elif args.kind == "bijection":
        spec = parse_group_spec(args.args[0])
        report = oracle.search_triple_bijection(spec, args.budget)
    elif args.kind == "kotzig":
        target = int(args.args[0]) if args.int_mode else parse_group_spec(args.args[0])
        report = oracle.search_kotzig(target, int(args.args[1]), args.budget)
        kind = "kotzig-int" if args.int_mode else "kotzig"
    else:
        g = graphs.graph_from_text(Path(args.args[0]).read_text())
        spec = parse_group_spec(args.args[1])
        report = oracle.search_labeling(g, spec, args.budget)
    cert = oracle.report_to_text(report, kind)
    doc = {
        "command": "search",
        "kind": args.kind,
        "found": report.found,
        "exhausted": report.exhausted,
        "nodes": report.nodes,
        "certificate": cert,
    }
    return _report_exit(report), doc, cert


def _handle_scan(args):
    from . import oracle
    _check_budget(args.budget)
    rows = [
        {
            "group": str(spec),
            "sizes": list(sizes),
            "found": report.found,
            "exhausted": report.exhausted,
            "nodes": report.nodes,
        }
        for spec, sizes, report in oracle.scan_conjecture(args.max_order, args.budget)
    ]
    # counterexamples to the partition conjecture outrank budget cuts, whatever the row order
    counterexamples = [r for r in rows if r["exhausted"] and not r["found"]]
    if counterexamples:
        exit_code = EXIT_REJECT
    elif all(r["exhausted"] for r in rows):
        exit_code = EXIT_OK
    else:
        exit_code = EXIT_BUDGET
    doc = {
        "command": "scan",
        "max_order": args.max_order,
        "instances": rows,
        "counterexamples": counterexamples,
    }
    text = "".join(
        f"# {r['group']} sizes={','.join(str(s) for s in r['sizes'])}: "
        f"{'found' if r['found'] else 'NOT FOUND' if r['exhausted'] else 'budget spent'} nodes={r['nodes']}\n"
        for r in rows
    )
    text += (
        f"scanned {len(rows)} instances up to order {args.max_order}; "
        f"counterexamples: {len(doc['counterexamples'])}\n"
    )
    return exit_code, doc, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsmagic",
        description="zero-sum partitions, Kotzig arrays and group distance magic labelings",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="order, canonical form, involutions, class membership")
    p.add_argument("group")
    p.set_defaults(handler=_handle_info)

    p = sub.add_parser("zsp", help="build an m-zero-sum partition")
    p.add_argument("group")
    p.add_argument("m", type=int)
    p.set_defaults(handler=_handle_zsp)

    p = sub.add_parser("bijection", help="build a triple bijection")
    p.add_argument("group")
    p.set_defaults(handler=_handle_bijection)

    p = sub.add_parser("kotzig", help="build a j x k Kotzig array")
    p.add_argument("target", help="group spec, or k with --int")
    p.add_argument("j", type=int)
    p.add_argument("--int", dest="int_mode", action="store_true", help="integer array on 0..k-1")
    p.set_defaults(handler=_handle_kotzig)

    p = sub.add_parser("label", help="build a magic labeling of a blow-up")
    p.add_argument("kind", choices=("blowup", "eulerian", "even"))
    p.add_argument("graphfile")
    p.add_argument("n", type=int)
    p.add_argument("group")
    p.add_argument("--emit-graph", help="also write the blown-up graph to this file")
    p.set_defaults(handler=_handle_label)

    p = sub.add_parser("verify", help="re-check a certificate file")
    p.add_argument("certificate")
    p.add_argument("--graph", help="graph file for labeling certificates")
    p.set_defaults(handler=_handle_verify)

    p = sub.add_parser("search", help="exhaustive search oracles")
    p.add_argument("kind", choices=tuple(_SEARCH_ARGS))
    p.add_argument("args", nargs="+")
    p.add_argument("--int", dest="int_mode", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=_handle_search)

    p = sub.add_parser("scan", help="zero-sum partition conjecture scan")
    p.add_argument("max_order", type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=_handle_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    try:
        code, doc, text = args.handler(args)
    except NonexistenceError as exc:
        return _emit_error(args, "nonexistence", exc, EXIT_NONEXISTENT)
    except (ZsmagicError, ValueError) as exc:
        return _emit_error(args, "invalid-input", exc, EXIT_INVALID)
    except OSError as exc:
        return _emit_error(args, "io", exc, EXIT_INVALID)
    # one write of the whole text: a certificate can run to a million lines
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" if args.json else text)
    return code


def _emit_error(args, kind: str, exc: Exception, code: int) -> int:
    if getattr(args, "json", False):
        doc = {
            "command": getattr(args, "command", None),
            "status": "error",
            "error_kind": kind,
            "message": str(exc),
        }
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(f"error ({kind}): {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
