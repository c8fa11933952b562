"""Workload inputs and jobs.

Inputs are generated from the seed only; the program sees nothing but the
generated specs, graphs and certificate texts.  A job is one user request,
made as the same sequence of public ``zsmagic`` calls the CLI handler makes:
parse, build, verify, serialize for a write; parse, verify for a read;
search, serialize the report for an oracle call.

Every call into ``zsmagic`` goes through ``tracer.call(name, fn, *args)`` so
a traced pass records one span per public call and an untraced pass makes
the same calls directly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import zsmagic as z
from zsmagic.oracle import DEFAULT_BUDGET

import checker
import mutants

# -- fixed instance lists ------------------------------------------------------------

# Closed-form and product routes on even orders from 3,780 to 32,768.
CERTIFY_CLOSED = [
    ("zsp", {"group": "Z2xZ2xZ4xZ4xZ8xZ8", "m": 4}),
    ("zsp", {"group": "x".join(["Z2"] * 12), "m": 4}),
    ("zsp", {"group": "Z2xZ6xZ384", "m": 6}),
    ("zsp", {"group": "Z2xZ2xZ4xZ4xZ8xZ8", "m": 8}),
    ("zsp", {"group": "Z2xZ2xZ4xZ4xZ8xZ8", "m": 16}),
    ("zsp", {"group": "Z2xZ6xZ384", "m": 16}),
    ("zsp", {"group": "Z2xZ2xZ945", "m": 4}),
    ("bijection", {"group": "Z128xZ256"}),
    ("bijection", {"group": "Z2xZ2xZ1024"}),
    ("bijection", {"group": "Z4xZ8xZ128"}),
    ("bijection", {"group": "Z2xZ6xZ384"}),
    ("kotzig", {"group": "Z2xZ2xZ1024", "j": 4}),
    ("kotzig", {"group": "Z2xZ6xZ384", "j": 5}),
    ("kotzig", {"group": "Z4xZ4xZ256", "j": 7}),
]

# Routes that search inside the constructors today: odd orders, even orders
# lifting an odd part, and odd-row integer arrays.  Odd orders stop at 57 so
# a pass takes seconds; the growth from Z45 to Z57 still shows.
ODD_M3_GROUPS = ("Z45", "Z3xZ15", "Z3xZ3xZ5", "Z9xZ5", "Z51", "Z3xZ17", "Z57", "Z3xZ19", "Z5xZ15")
CERTIFY_SEARCHING = [
    ("zsp", {"group": g, "m": 3}) for g in ODD_M3_GROUPS + ("Z2xZ2xZ45", "Z2xZ2xZ4xZ4xZ15")
] + [("kotzig-int", {"j": j, "k": k}) for j in (3, 5) for k in (21, 23, 25)]

BLOWUP = {"base_order": 60, "n": 3, "group": "Z2xZ2xZ45"}
INT_EVEN_ROWS = (4, 6, 8)

# Certificates re-read by ``recheck``: every even-order ``certify`` instance.
RECHECK_ZSP = [a for kind, a in CERTIFY_CLOSED if kind == "zsp"] + [
    {"group": "Z2xZ2xZ45", "m": 3},
    {"group": "Z2xZ2xZ4xZ4xZ15", "m": 3},
]

# Cubic graphs on 10 vertices: order 2 mod 4 with odd degrees, so every
# search over Z10 ends in a nonexistence proof.
CUBIC10 = {
    "petersen": [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
    "prism": [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
    "moebius": [(i, (i + 1) % 10) for i in range(10)] + [(i, i + 5) for i in range(5)],
}
EXHAUST_BUDGET = 10**6
# Caps each seeded random graph so a new seed changes which instances are
# decided, not the most work a pass can do.
RANDOM_GRAPH_BUDGET = 40_000
RANDOM_GRAPHS = ((8, 2), (10, 2))  # (order, count)
ORDER8_GROUPS = ("Z8", "Z2xZ4", "Z2xZ2xZ2")
SCAN_ORDER = 24


def graph_text(n: int, edges) -> str:
    return "\n".join([f"p {n}"] + [f"e {u} {v}" for u, v in edges]) + "\n"


def complete_edges(n: int):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{purpose}")


# -- input generation ------------------------------------------------------------------


def certify_jobs(seed: int) -> list[dict]:
    rng = _rng("certify", seed, "jobs")
    specs = list(CERTIFY_CLOSED)
    specs += [("kotzig-int", {"j": j, "k": rng.randrange(3780, 8193, 2)}) for j in INT_EVEN_ROWS]
    specs.append(
        (
            "label-blowup",
            {
                "graph": graph_text(BLOWUP["base_order"], complete_edges(BLOWUP["base_order"])),
                "n": BLOWUP["n"],
                "group": BLOWUP["group"],
            },
        )
    )
    specs += CERTIFY_SEARCHING
    return _number(specs, rng)


def search_jobs(seed: int) -> list[dict]:
    rng = _rng("search", seed, "jobs")
    specs = [
        ("search-labeling", {"graph": graph_text(10, edges), "group": "Z10", "budget": DEFAULT_BUDGET})
        for edges in CUBIC10.values()
    ]
    specs.append(
        (
            "search-labeling",
            {
                "graph": graph_text(10, [(u, 5 + v) for u in range(5) for v in range(5)]),
                "group": "Z10",
                "budget": EXHAUST_BUDGET,
            },
        )
    )
    for order, count in RANDOM_GRAPHS:
        for _ in range(count):
            edges = [e for e in complete_edges(order) if rng.random() < 0.5]
            group = rng.choice(ORDER8_GROUPS) if order == 8 else "Z10"
            specs.append(
                (
                    "search-labeling",
                    {"graph": graph_text(order, edges), "group": group, "budget": RANDOM_GRAPH_BUDGET},
                )
            )
    specs += [("search-bijection", {"group": g}) for g in ("Z2xZ8", "Z2xZ2xZ4")]
    specs += [
        ("search-kotzig", {"group": g, "j": j})
        for g, j in (("Z2xZ8", 3), ("Z2xZ2xZ4", 3), ("Z2xZ2xZ2", 5))
    ]
    specs += [("search-zsp", {"group": g, "m": 3}) for g in ("Z2xZ12", "Z2xZ2xZ6", "Z24")]
    specs.append(("scan", {"max_order": SCAN_ORDER}))
    return _number(specs, rng)


def recheck_bases() -> list[str]:
    """Certificates of the even-order ``certify`` instances, built with the
    public constructors, in a fixed order."""
    out = []
    for a in RECHECK_ZSP:
        spec = z.parse_group_spec(a["group"])
        out.append(z.partition_to_text(z.zsp(spec, a["m"])))
    for kind, a in CERTIFY_CLOSED:
        if kind == "bijection":
            out.append(z.bijection_to_text(z.triple_bijection(z.parse_group_spec(a["group"]))))
    for kind, a in CERTIFY_CLOSED:
        if kind == "kotzig":
            out.append(z.array_to_text(z.build_group_kotzig(z.parse_group_spec(a["group"]), a["j"])))
    for j in INT_EVEN_ROWS:
        out.append(z.array_to_text(z.build_int_kotzig(j, 4096)))
    return out


def recheck_blowup() -> tuple[str, str]:
    """The K60 blow-up labeling and the blown-up graph it is checked against."""
    base = z.complete_graph(BLOWUP["base_order"])
    spec = z.parse_group_spec(BLOWUP["group"])
    labeling = z.blowup_label(base, BLOWUP["n"], spec)
    product = z.lex_product(base, z.empty_graph(BLOWUP["n"]))
    return z.labeling_to_text(labeling), z.graph_to_text(product)


def derive_checks(bases, labeling, graph, rng: random.Random):
    """One shuffled valid copy and one mutant per base certificate, plus a
    second mutant for every fourth base.  The mutant class rotates with the
    position, so the share of each class and the work a pass does do not
    depend on the seed.  The extra mutants make the input counts odd
    (45 jobs, 11 files), which puts the pooled p50 and p90 inside one
    input's samples rather than on the edge between two inputs."""
    items = [(text, None) for text in bases] + [(labeling, graph)]
    out = []
    for i, (text, graph_text_) in enumerate(items):
        g = mutants.shuffle(graph_text_, rng) if graph_text_ else None
        out.append(("verify", {"text": mutants.shuffle(text, rng), "graph": g, "intent": "valid"}))
        for c in range(i, i + 1 + (i % 4 == 3)):
            cls = mutants.CLASSES[c % len(mutants.CLASSES)]
            mutant = mutants.mutate(mutants.shuffle(text, rng), cls, rng)
            out.append(("verify", {"text": mutant, "graph": g, "intent": cls}))
    return out


def recheck_jobs(seed: int) -> list[dict]:
    rng = _rng("recheck", seed, "jobs")
    labeling, graph = recheck_blowup()
    return _number(derive_checks(recheck_bases(), labeling, graph, rng), rng)


def _number(specs, rng: random.Random) -> list[dict]:
    jobs = [{"id": f"j{i:02d}", "kind": kind, "args": args} for i, (kind, args) in enumerate(specs)]
    rng.shuffle(jobs)
    return jobs


GENERATORS = {"certify": certify_jobs, "recheck": recheck_jobs, "search": search_jobs}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# -- jobs ----------------------------------------------------------------------------------


@dataclass
class Outcome:
    """What a job hands back: the text the CLI would print, plus counts."""

    text: str
    verified: bool | None = None  # the program's own verifier on its output
    verdict: str | None = None  # recheck: "accept" or "reject"
    layer: str | None = None  # recheck: layer whose certificate was read
    nodes: int = 0
    searches: int = 0
    decided: int = 0
    raw: object = field(default=None, repr=False)


def _job_zsp(tr, a):
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    partition = tr.call("zsp.zsp", z.zsp, spec, a["m"])
    check = tr.call("zsp.verify_zsp", z.verify_zsp, spec, partition, a["m"])
    return Outcome(tr.call("zsp.partition_to_text", z.partition_to_text, partition), check.ok)


def _job_bijection(tr, a):
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    tb = tr.call("zsp.triple_bijection", z.triple_bijection, spec)
    check = tr.call("zsp.verify_triple_bijection", z.verify_triple_bijection, tb)
    return Outcome(tr.call("zsp.bijection_to_text", z.bijection_to_text, tb), check.ok)


def _job_kotzig(tr, a):
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    array = tr.call("kotzig.build_group_kotzig", z.build_group_kotzig, spec, a["j"])
    check = tr.call("kotzig.verify_kotzig", z.verify_kotzig, array)
    return Outcome(tr.call("kotzig.array_to_text", z.array_to_text, array), check.ok)


def _job_kotzig_int(tr, a):
    array = tr.call("kotzig.build_int_kotzig", z.build_int_kotzig, a["j"], a["k"])
    check = tr.call("kotzig.verify_kotzig", z.verify_kotzig, array)
    return Outcome(tr.call("kotzig.array_to_text", z.array_to_text, array), check.ok)


def _job_label_blowup(tr, a):
    base = tr.call("graphs.graph_from_text", z.graph_from_text, a["graph"])
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    labeling = tr.call("graphs.blowup_label", z.blowup_label, base, a["n"], spec)
    product = tr.call("graphs.lex_product", z.lex_product, base, z.empty_graph(a["n"]))
    verdict = tr.call("graphs.verify_labeling", z.verify_labeling, product, labeling)
    return Outcome(tr.call("graphs.labeling_to_text", z.labeling_to_text, labeling), verdict.is_magic)


def _first_keyword(text: str) -> str:
    for line in text.splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            return line.split()[0]
    return ""


def _read(tr, kind, text, graph):
    """The calls ``zsmagic verify`` makes for one certificate; True on accept."""
    if kind == "partition":
        p = tr.call("zsp.partition_from_text", z.partition_from_text, text)
        return tr.call("zsp.verify_zsp", z.verify_zsp, p.spec, p, p.m).ok
    if kind == "bijection":
        tb = tr.call("zsp.bijection_from_text", z.bijection_from_text, text)
        return tr.call("zsp.verify_triple_bijection", z.verify_triple_bijection, tb).ok
    if kind in ("kotzig", "kotzig-int"):
        array = tr.call("kotzig.array_from_text", z.array_from_text, text)
        return tr.call("kotzig.verify_kotzig", z.verify_kotzig, array).ok
    labeling = tr.call("graphs.labeling_from_text", z.labeling_from_text, text)
    g = tr.call("graphs.graph_from_text", z.graph_from_text, graph)
    return tr.call("graphs.verify_labeling", z.verify_labeling, g, labeling).is_magic


_LAYER_OF = {"partition": "zsp", "bijection": "zsp", "kotzig": "kotzig", "kotzig-int": "kotzig", "labeling": "graphs"}


def _job_verify(tr, a):
    kind = _first_keyword(a["text"])
    try:
        ok = _read(tr, kind, a["text"], a["graph"])
    except (z.ZsmagicError, ValueError):  # the CLI's exit 2: a rejection
        ok = False
    verdict = "accept" if ok else "reject"
    return Outcome(verdict, verdict=verdict, layer=_LAYER_OF[kind])


def _report(tr, report, kind):
    text = tr.call("oracle.report_to_text", z.report_to_text, report, kind)
    decided = int(report.found or report.exhausted)
    return Outcome(text, nodes=report.nodes, searches=1, decided=decided)


def _job_search_labeling(tr, a):
    g = tr.call("graphs.graph_from_text", z.graph_from_text, a["graph"])
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    report = tr.call("oracle.search_labeling", z.search_labeling, g, spec, a["budget"])
    return _report(tr, report, "labeling")


def _job_search_bijection(tr, a):
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    report = tr.call("oracle.search_triple_bijection", z.search_triple_bijection, spec, DEFAULT_BUDGET)
    return _report(tr, report, "bijection")


def _job_search_kotzig(tr, a):
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    report = tr.call("oracle.search_kotzig", z.search_kotzig, spec, a["j"], DEFAULT_BUDGET)
    return _report(tr, report, "kotzig")


def _job_search_zsp(tr, a):
    spec = tr.call("groups.parse_group_spec", z.parse_group_spec, a["group"])
    report = tr.call("oracle.search_zsp", z.search_zsp, spec, a["m"], DEFAULT_BUDGET)
    return _report(tr, report, "zsp")


def _scan(max_order):
    return list(z.scan_conjecture(max_order, DEFAULT_BUDGET))


def _job_scan(tr, a):
    rows = tr.call("oracle.scan_conjecture", _scan, a["max_order"])
    lines = [
        f"# {spec} sizes={','.join(map(str, sizes))}: "
        f"{'found' if r.found else 'NOT FOUND'} nodes={r.nodes}"
        for spec, sizes, r in rows
    ]
    missing = sum(1 for _, _, r in rows if r.exhausted and not r.found)
    lines.append(f"scanned {len(rows)} instances up to order {a['max_order']}; counterexamples: {missing}")
    return Outcome(
        "\n".join(lines) + "\n",
        nodes=sum(r.nodes for _, _, r in rows),
        searches=len(rows),
        decided=sum(1 for _, _, r in rows if r.found or r.exhausted),
        raw=rows,
    )


RUNNERS = {
    "zsp": _job_zsp,
    "bijection": _job_bijection,
    "kotzig": _job_kotzig,
    "kotzig-int": _job_kotzig_int,
    "label-blowup": _job_label_blowup,
    "verify": _job_verify,
    "search-labeling": _job_search_labeling,
    "search-bijection": _job_search_bijection,
    "search-kotzig": _job_search_kotzig,
    "search-zsp": _job_search_zsp,
    "scan": _job_scan,
}


def scan_witnesses(rows) -> list[str]:
    """Sized-partition certificates for the checker, rendered outside the
    timed region."""
    out = []
    for spec, sizes, report in rows:
        if report.found:
            _, blocks = report.witness
            body = [" ".join(checker.format_element(e) for e in b) for b in blocks]
            sizes_field = ",".join(str(len(b)) for b in blocks)
            out.append("\n".join([f"partition-sizes {spec} sizes={sizes_field}"] + body) + "\n")
    return out


# -- command-line requests ---------------------------------------------------------------

K4_BASE = graph_text(4, complete_edges(4))


def cli_requests(workload: str, seed: int, directory) -> list[dict]:
    """Write the files a workload's ``zsmagic`` invocations read and return the
    invocations, each with what its output must satisfy."""
    if workload == "certify":
        base = directory / "k4.graph"
        base.write_text(K4_BASE)
        emitted = directory / "k4-blowup.graph"
        return [
            {"argv": ["zsp", "Z2xZ6xZ48", "4"], "expect": {"header": "partition Z2xZ6xZ48 m=4"}},
            {"argv": ["bijection", "Z2xZ2xZ64"], "expect": {"header": "bijection Z2xZ2xZ64"}},
            {"argv": ["kotzig", "Z2xZ6xZ24", "5"], "expect": {"header": "kotzig Z2xZ6xZ24 j=5 k=288"}},
            {"argv": ["kotzig", "15", "3", "--int"], "expect": {"header": "kotzig-int k=15 j=3"}},
            {
                "argv": ["label", "blowup", str(base), "3", "Z2xZ2xZ3", "--emit-graph", str(emitted)],
                "expect": {"header": "labeling Z2xZ2xZ3", "base": K4_BASE, "fiber": 3, "emitted": str(emitted)},
            },
        ]
    if workload == "search":
        return [
            {"argv": ["search", "bijection", "Z2xZ4"], "expect": {"report": "bijection"}},
            {"argv": ["search", "kotzig", "Z2xZ4", "3"], "expect": {"report": "kotzig"}},
            {"argv": ["scan", "20"], "expect": {"scan": 20}},
        ]
    rng = _rng("recheck", seed, "cli")
    spec = z.parse_group_spec
    bases = [
        z.partition_to_text(z.zsp(spec("Z2xZ6xZ48"), 4)),
        z.bijection_to_text(z.triple_bijection(spec("Z2xZ2xZ64"))),
        z.array_to_text(z.build_group_kotzig(spec("Z2xZ6xZ24"), 5)),
        z.array_to_text(z.build_int_kotzig(4, 64)),
    ]
    k4 = z.complete_graph(4)
    labeling = z.labeling_to_text(z.blowup_label(k4, 3, spec("Z2xZ2xZ3")))
    graph = z.graph_to_text(z.lex_product(k4, z.empty_graph(3)))
    out = []
    for i, (_, a) in enumerate(derive_checks(bases, labeling, graph, rng)):
        path = directory / f"cert{i:02d}.txt"
        path.write_text(a["text"])
        argv = ["verify", str(path)]
        if a["graph"] is not None:
            graph_path = directory / f"cert{i:02d}.graph"
            graph_path.write_text(a["graph"])
            argv += ["--graph", str(graph_path)]
        out.append({"argv": argv, "expect": {"verdict_of": str(path), "graph": a["graph"], "intent": a["intent"]}})
    return out
