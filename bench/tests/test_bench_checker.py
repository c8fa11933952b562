"""Self-tests of the benchmark's independent checker and its mutants."""

import math
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checker  # noqa: E402
import mutants  # noqa: E402
import zsmagic as z  # noqa: E402

SMALL_CLASS_G = [s for s in z.abelian_groups_up_to(24) if z.in_class_g(s)]


def _blowup_adj(base, n):
    order, adj = checker.parse_graph(z.graph_to_text(base))
    return checker.blowup(order, adj, n)


@pytest.mark.parametrize("spec", SMALL_CLASS_G, ids=str)
def test_checker_accepts_constructor_outputs(spec):
    n = spec.order
    for m in range(3, n + 1):
        if n % m == 0:
            assert checker.check_partition(z.partition_to_text(z.zsp(spec, m))) is None
            labeling = z.blowup_label(z.complete_graph(n // m), m, spec)
            adj = _blowup_adj(z.complete_graph(n // m), m)
            assert checker.check_labeling(z.labeling_to_text(labeling), adj) is None
    assert checker.check_bijection(z.bijection_to_text(z.triple_bijection(spec))) is None
    for j in (2, 3, 4, 5):
        assert checker.check_kotzig(z.array_to_text(z.build_group_kotzig(spec, j))) is None
    if n % 3 == 0 or n <= 16:
        kind = "zsp" if n % 3 == 0 else "bijection"
        report = z.search_zsp(spec, 3) if kind == "zsp" else z.search_triple_bijection(spec)
        reason, fields = checker.check_report(z.report_to_text(report, kind), kind)
        assert reason is None and fields["found"]


@pytest.mark.parametrize("j,k", [(2, 6), (3, 7), (4, 9), (5, 11), (6, 24)])
def test_checker_accepts_integer_kotzig_arrays(j, k):
    assert checker.check_kotzig(z.array_to_text(z.build_int_kotzig(j, k))) is None


def _certificates():
    spec = z.parse_group_spec("Z2xZ2xZ6")
    base = z.complete_graph(8)
    return [
        (z.partition_to_text(z.zsp(spec, 4)), None),
        (z.partition_to_text(z.zsp(spec, 3)), None),
        (z.bijection_to_text(z.triple_bijection(spec)), None),
        (z.array_to_text(z.build_group_kotzig(spec, 5)), None),
        (z.array_to_text(z.build_int_kotzig(4, 12)), None),
        (
            z.labeling_to_text(z.blowup_label(base, 3, spec)),
            z.graph_to_text(z.lex_product(base, z.empty_graph(3))),
        ),
    ]


@pytest.mark.parametrize("cls", mutants.CLASSES)
def test_checker_rejects_each_mutant_class(cls):
    for text, graph in _certificates():
        for seed in range(8):
            rng = random.Random(seed)
            shuffled = mutants.shuffle(text, rng)
            assert checker.check_certificate(shuffled, graph) is None
            mutant = mutants.mutate(shuffled, cls, rng)
            assert checker.check_certificate(mutant, graph) is not None, (cls, mutant[:80])


def test_checker_holds_kotzig_headers_to_the_body():
    text = z.array_to_text(z.build_group_kotzig(z.parse_group_spec("Z5"), 3))
    assert checker.check_kotzig(text.replace("j=3", "j=7", 1)) is not None
    assert checker.check_kotzig("kotzig Z5 j=7 k=5\n") is not None
    assert checker.check_kotzig("kotzig-int k=3 j=2\n") is not None


def test_checker_requires_a_witness_when_found():
    reason, _ = checker.check_report("report kind=zsp found=true exhausted=true nodes=3\n", "zsp")
    assert reason is not None


def test_brute_force_agrees_with_the_oracle():
    cube = [(0, 1), (1, 3), (3, 2), (2, 0), (4, 5), (5, 7), (7, 6), (6, 4)] + [(i, i + 4) for i in range(4)]
    _, adj = checker.parse_graph("p 8\n" + "".join(f"e {u} {v}\n" for u, v in cube))
    found = z.search_labeling(z.Graph(8, cube), z.parse_group_spec("Z2xZ2xZ2"))
    assert checker.labeling_exists(8, adj, (2, 2, 2)) == found.found


def test_scan_instance_count_matches_the_scan():
    assert checker.scan_instance_count(16) == sum(1 for _ in z.scan_conjecture(16))
    assert checker.scan_instance_count(24) == 294


def test_blowup_matches_lex_product():
    base = z.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    product = z.lex_product(base, z.empty_graph(3))
    order, adj = checker.parse_graph(z.graph_to_text(product))
    assert order == 15 and [sorted(a) for a in adj] == [sorted(a) for a in _blowup_adj(base, 3)]
    assert math.prod(checker.parse_spec("Z2xZ6")) == 12
