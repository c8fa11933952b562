"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
per-criterion timings.  Every tolerance is exact (constructions either
verify or they do not); the asserted time budgets are wall-clock bounds.
"""

import time

import pytest
from conftest import images

from zsmagic import (
    GroupSpec,
    ImpossibilityError,
    NonexistenceError,
    OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION,
    ZsmagicError,
    base_tables,
    blowup_even_label,
    blowup_label,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    eulerian_bipartite_label,
    in_class_g,
    involution_count,
    lex_product,
    obstruction_check,
    parse_group_spec,
    scan_conjecture,
    search_kotzig,
    search_labeling,
    search_triple_bijection,
    search_zsp,
    triple_bijection,
    verify_kotzig,
    verify_labeling,
    verify_triple_bijection,
    verify_zsp,
    zsp,
)
from zsmagic.groups import abelian_groups_up_to
from zsmagic.kotzig import build_group_kotzig, build_int_kotzig
from zsmagic.zsp import RESIDUE_TRIPLES_2_2_8


class _Timer:
    def __init__(self, criterion: str, budget_s: float):
        self.criterion = criterion
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.criterion}: {status} ({elapsed:.2f}s / budget {self.budget_s:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.criterion} exceeded {self.budget_s}s"
        return False


def test_criterion_1_seed_tables_verbatim():
    with _Timer("1 (seed tables exact)", 1.0):
        tables = base_tables()
        assert set(tables) == {(2, 2, 2), (2, 2, 4), (2, 2, 8)}
        for factors, tb in tables.items():
            check = verify_triple_bijection(tb)
            assert check.ok, (factors, check.reason)
        assert RESIDUE_TRIPLES_2_2_8 == (
            (2, 3, 3), (7, 2, 7), (5, 6, 5), (6, 1, 1), (1, 5, 2), (3, 7, 6),
        )
        # spot columns pinned from the printed tables
        t2 = tables[(2, 2, 2)]
        assert images(t2, (0, 0, 1)) == ((1, 1, 1), (1, 1, 0))
        t4 = tables[(2, 2, 4)]
        assert images(t4, (1, 1, 3)) == ((0, 1, 2), (1, 0, 3))
        t8 = tables[(2, 2, 8)]
        assert images(t8, (0, 0, 0)) == ((0, 1, 0), (0, 1, 0))
        for a, b, c in RESIDUE_TRIPLES_2_2_8:
            assert images(t8, (1, 0, a)) == ((1, 1, b), (0, 1, c))


def test_criterion_2_partition_positive_direction():
    with _Timer("2 (partitions exist in class G, order <= 48)", 30.0):
        instances = 0
        for spec in abelian_groups_up_to(48):
            if not in_class_g(spec):
                continue
            for m in range(3, spec.order + 1):
                if spec.order % m:
                    continue
                partition = zsp(spec, m)
                check = verify_zsp(spec, partition, m)
                assert check.ok, (spec, m, check.reason)
                instances += 1
        assert instances > 150


def test_criterion_3_partition_negative_direction():
    with _Timer("3 (partitions refused outside class G, order <= 16)", 60.0):
        for spec in abelian_groups_up_to(16):
            if involution_count(spec) == 1:
                for m in range(3, spec.order + 1):
                    if spec.order % m:
                        continue
                    report = search_zsp(spec, m)
                    assert not report.found and report.exhausted, (spec, m)
                    with pytest.raises(NonexistenceError):
                        zsp(spec, m)
            report = search_zsp(spec, 2)
            assert not report.found and report.exhausted, spec
            with pytest.raises(ImpossibilityError):
                zsp(spec, 2)


def test_criterion_4_triple_bijections_at_scale():
    with _Timer("4 (triple bijections, order <= 64)", 60.0):
        for spec in abelian_groups_up_to(64):
            if not in_class_g(spec):
                continue
            check = verify_triple_bijection(triple_bijection(spec))
            assert check.ok, (spec, check.reason)
        for factors in ((2,), (4,), (8,), (16,), (6,), (12,)):
            spec = GroupSpec(factors)
            report = search_triple_bijection(spec)
            assert not report.found and report.exhausted, spec
            with pytest.raises(NonexistenceError):
                triple_bijection(spec)


def test_criterion_5_kotzig_arrays():
    with _Timer("5 (Kotzig arrays)", 60.0):
        for spec in abelian_groups_up_to(16):
            for j in range(2, 7):
                if j % 2 == 1 and not in_class_g(spec):
                    with pytest.raises(ZsmagicError):
                        build_group_kotzig(spec, j)
                    continue
                array = build_group_kotzig(spec, j)
                assert verify_kotzig(array).ok, (spec, j)
                assert array.column_sum() == spec.identity()
        for factors in ((4,), (6,)):
            report = search_kotzig(GroupSpec(factors), 3)
            assert not report.found and report.exhausted, factors
        for j in range(2, 6):
            for k in range(2, 10):
                if (j * (k - 1)) % 2:
                    continue
                array = build_int_kotzig(j, k)
                assert verify_kotzig(array).ok, (j, k)
                assert array.column_sum() == j * (k - 1) // 2
        report = search_kotzig(4, 3)
        assert not report.found and report.exhausted


def test_criterion_6_flagship_blowup():
    with _Timer("6 (complete four-partite flagship)", 1.0):
        base = complete_graph(4)
        spec = parse_group_spec("Z2xZ2xZ3")
        product = lex_product(base, empty_graph(3))
        # the blow-up is the complete 4-partite graph on 3+3+3+3 vertices
        for u in range(4):
            for v in range(3):
                for x in range(4):
                    for y in range(3):
                        a, b = u * 3 + v, x * 3 + y
                        if a != b:
                            assert (b in product.adj[a]) == (u != x)
        verdict = verify_labeling(product, blowup_label(base, 3, spec))
        assert verdict.is_magic and verdict.mu == (0, 0, 0)
        obstruction = obstruction_check(product, parse_group_spec("Z12"))
        assert obstruction.status == "impossible"
        assert obstruction.obstruction == OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION


def test_criterion_7_bipartite_and_even_blowups():
    with _Timer("7 (Eulerian bipartite and even blow-ups)", 1.0):
        for spec_text in ("Z2xZ9", "Z2xZ3xZ3"):
            spec = parse_group_spec(spec_text)
            lab = eulerian_bipartite_label(cycle_graph(6), 3, spec)
            verdict = verify_labeling(lex_product(cycle_graph(6), empty_graph(3)), lab)
            assert verdict.is_magic and verdict.mu == spec.identity(), spec_text
        for base, n2, spec_text in (
            (cycle_graph(4), 2, "Z8"),
            (complete_graph(3), 2, "Z6"),
            (complete_graph(2), 2, "Z4"),
        ):
            spec = parse_group_spec(spec_text)
            lab = blowup_even_label(base, n2, spec)
            verdict = verify_labeling(lex_product(base, empty_graph(n2)), lab)
            assert verdict.is_magic, spec_text


def test_criterion_8_odd_degree_obstruction_empirical():
    with _Timer("8 (no magic labeling of K_{3,3} over Z6)", 30.0):
        report = search_labeling(complete_bipartite_graph(3, 3), GroupSpec((6,)))
        assert not report.found and report.exhausted


def test_criterion_9_conjecture_scan():
    with _Timer("9 (unequal-part zero-sum scan, order <= 16)", 600.0):
        instances = 0
        for spec, sizes, report in scan_conjecture(16):
            assert report.exhausted, (spec, sizes)
            assert report.found, (spec, sizes)
            instances += 1
        assert instances == 79


@pytest.mark.parametrize("group", ["Z81", "Z105", "x".join(["Z3"] * 7), "Z2xZ2xZ81"])
def test_criterion_10_odd_block_partitions_at_scale(group):
    # closed-form coset lift; a backtracking search took 25 s on Z81
    with _Timer(f"10 (3-block partition of {group})", 5.0):
        spec = parse_group_spec(group)
        check = verify_zsp(spec, zsp(spec, 3), 3)
        assert check.ok, check.reason


@pytest.mark.parametrize("j, k", [(3, 999), (5, 1001)])
def test_criterion_11_odd_row_integer_arrays_at_scale(j, k):
    # closed-form 3 x k base block; a backtracking search took 9 s at k = 29
    with _Timer(f"11 ({j} x {k} integer array)", 5.0):
        array = build_int_kotzig(j, k)
        assert verify_kotzig(array).ok
        assert array.column_sum() == j * (k - 1) // 2
