"""Self-tests of the benchmark's seeded inputs and its metric list."""

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import zsmagic as z  # noqa: E402

# recheck's generator builds large certificates; its seeded stage is
# exercised on small ones below.
CHEAP = ["certify", "search"]


@pytest.mark.parametrize("workload", CHEAP)
def test_same_seed_gives_the_same_digest(workload):
    generate = workloads.GENERATORS[workload]
    assert workloads.digest(generate(7)) == workloads.digest(generate(7))


@pytest.mark.parametrize("workload", CHEAP)
def test_other_seed_gives_another_digest_with_the_same_job_count(workload):
    generate = workloads.GENERATORS[workload]
    a, b = generate(7), generate(8)
    assert workloads.digest(a) != workloads.digest(b)
    assert len(a) == len(b)


def _small_bases():
    spec = z.parse_group_spec("Z2xZ2xZ6")
    base = z.complete_graph(8)
    bases = [
        z.partition_to_text(z.zsp(spec, 4)),
        z.bijection_to_text(z.triple_bijection(spec)),
        z.array_to_text(z.build_group_kotzig(spec, 5)),
        z.array_to_text(z.build_int_kotzig(4, 12)),
    ]
    labeling = z.labeling_to_text(z.blowup_label(base, 3, spec))
    graph = z.graph_to_text(z.lex_product(base, z.empty_graph(3)))
    return bases, labeling, graph


def test_recheck_inputs_are_seeded_and_half_mutants():
    bases, labeling, graph = _small_bases()
    same = [workloads.derive_checks(bases, labeling, graph, random.Random("s:1")) for _ in range(2)]
    other = workloads.derive_checks(bases, labeling, graph, random.Random("s:2"))
    assert workloads.digest(same[0]) == workloads.digest(same[1])
    assert workloads.digest(same[0]) != workloads.digest(other)
    intents = [a["intent"] for _, a in other]
    assert len(other) == len(same[0]) == 11  # five bases: a valid copy each, six mutants
    assert intents.count("valid") == 5
    assert {"element", "drop", "header"} <= set(intents)


def test_recheck_verdicts_follow_the_checker():
    bases, labeling, graph = _small_bases()
    for kind, a in workloads.derive_checks(bases, labeling, graph, random.Random("s:3")):
        expected = run.expected_verdict(a["text"], a["graph"], a["intent"])
        outcome = workloads.RUNNERS[kind](tracing.NullTracer(), a)
        known_lenient = a["intent"] == "header" and a["text"].startswith("kotzig")
        assert (outcome.verdict == expected) or known_lenient, a["text"][:60]


def test_benchmark_json_lists_metrics_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    reported = set(tracing.layer_metrics([], [])) | set(worker.groups_probe(workloads))
    reported |= {"cli.import_ms", "cli.main_ms", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} <= reported
    fake = SimpleNamespace(
        passes=[{"traced": False, "wall_s": 1.0, "jobs": [{"ms": 1.0}], "rss_mb": 1.0, "setup_s": 1.0}],
        cli=[{"timed": False, "ms": 1.0}],
    )
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(fake)[0])
