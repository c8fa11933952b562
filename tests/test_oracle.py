import hashlib
import itertools
import random
from functools import partial

import pytest
from conftest import elements

from zsmagic import (
    GroupSpec,
    ImpossibilityError,
    NonexistenceError,
    ParameterError,
    ZsmagicError,
    build_group_kotzig,
    build_int_kotzig,
    complete_bipartite_graph,
    complete_graph,
    conjecture_scan,
    cycle_graph,
    format_element,
    in_class_g,
    involutions,
    obstruction_check,
    parse_group_spec,
    report_to_text,
    scan_conjecture,
    search_kotzig,
    search_labeling,
    search_triple_bijection,
    search_zsp,
    triple_bijection,
    verify_kotzig,
    verify_labeling,
    verify_sized_partition,
    verify_triple_bijection,
    verify_zsp,
    zsp,
)
from zsmagic import oracle
from zsmagic.graphs import Graph, Verdict
from zsmagic.groups import Check, abelian_groups_up_to, sum_all
from zsmagic.oracle import DEFAULT_BUDGET, KOTZIG_CELL_CAP


class TestSearchZsp:
    def test_z6_nonexistence(self):
        report = search_zsp(GroupSpec((6,)), 3)
        assert not report.found and report.exhausted

    def test_z9_found(self):
        report = search_zsp(GroupSpec((9,)), 3)
        assert report.found and report.exhausted
        assert verify_zsp(GroupSpec((9,)), report.witness, 3).ok

    def test_klein_four_whole_group(self):
        spec = GroupSpec((2, 2))
        report = search_zsp(spec, 4)
        assert report.found
        assert elements(spec, report.witness.blocks) == (((0, 0), (0, 1), (1, 0), (1, 1)),)

    def test_least_witness_is_deterministic(self):
        a = search_zsp(GroupSpec((9,)), 3)
        b = search_zsp(GroupSpec((9,)), 3)
        assert a.witness.blocks == b.witness.blocks

    def test_budget(self):
        report = search_zsp(GroupSpec((2, 2, 3)), 3, budget=3)
        assert not report.found and not report.exhausted
        assert report.nodes >= 3

    def test_order_cap(self):
        with pytest.raises(ParameterError):
            search_zsp(GroupSpec((25,)), 5)

    @pytest.mark.parametrize("m", [0, -3])
    def test_block_size_must_be_positive(self, m):
        with pytest.raises(ParameterError, match="block size must be positive"):
            search_zsp(GroupSpec((9,)), m)

    def test_m2_everywhere_nonexistent(self):
        for spec in abelian_groups_up_to(12):
            report = search_zsp(spec, 2)
            assert not report.found and report.exhausted, spec


class TestSearchTripleBijection:
    def test_z4_nonexistence(self):
        report = search_triple_bijection(GroupSpec((4,)))
        assert not report.found and report.exhausted

    def test_klein_four_found(self):
        report = search_triple_bijection(GroupSpec((2, 2)))
        assert report.found
        assert verify_triple_bijection(report.witness).ok

    def test_z3_closed_form_among_solutions(self):
        report = search_triple_bijection(GroupSpec((3,)))
        assert report.found
        from zsmagic import TripleBijection

        closed = TripleBijection(GroupSpec((3,)), (0, 1, 2), (0, 1, 2))
        assert verify_triple_bijection(closed).ok  # phi = id, psi = -2g = g for Z3

    def test_order_cap(self):
        with pytest.raises(ParameterError):
            search_triple_bijection(GroupSpec((18,)))


class TestSearchKotzig:
    def test_group_obstruction_z4(self):
        report = search_kotzig(GroupSpec((4,)), 3)
        assert not report.found and report.exhausted

    def test_group_obstruction_z6(self):
        report = search_kotzig(GroupSpec((6,)), 3)
        assert not report.found and report.exhausted

    def test_group_found(self):
        report = search_kotzig(GroupSpec((2, 2)), 3)
        assert report.found
        assert verify_kotzig(report.witness).ok

    def test_int_found(self):
        report = search_kotzig(3, 3)
        assert report.found
        assert verify_kotzig(report.witness).ok

    def test_int_parity_nonexistence(self):
        report = search_kotzig(4, 3)
        assert not report.found and report.exhausted

    def test_cell_cap(self):
        with pytest.raises(ParameterError):
            search_kotzig(GroupSpec((16,)), 4)

    def test_bad_target(self):
        with pytest.raises(ParameterError):
            search_kotzig("Z4", 2)

    def test_group_row_count_must_be_positive(self):
        with pytest.raises(ParameterError, match="row count must be positive"):
            search_kotzig(GroupSpec((3,)), 0)

    @pytest.mark.parametrize("k, j", [(0, 3), (3, 0), (-2, 2)])
    def test_int_dimensions_must_be_positive(self, k, j):
        with pytest.raises(ParameterError, match="grid dimensions must be positive"):
            search_kotzig(k, j)

    def test_int_cell_cap(self):
        with pytest.raises(ParameterError, match="capped at 48 cells"):
            search_kotzig(7, 7)

    @pytest.mark.parametrize(
        "target, j, message",
        [
            (GroupSpec((3,)), 0, "row count must be positive, got 0"),
            (GroupSpec((100,)), -1, "row count must be positive, got -1"),
            (0, 3, "grid dimensions must be positive, got 3 x 0"),
            (3, 0, "grid dimensions must be positive, got 0 x 3"),
            (100, 0, "grid dimensions must be positive, got 0 x 100"),
            (GroupSpec((7,)), 7, "exhaustive array search capped at 48 cells"),
            (GroupSpec((2, 25)), 1, "exhaustive array search capped at 48 cells"),
            (49, 1, "exhaustive array search capped at 48 cells"),
            (7, 7, "exhaustive array search capped at 48 cells"),
            ("Z4", 2, "target must be a GroupSpec or an integer, got 'Z4'"),
            ("Z4", 0, "target must be a GroupSpec or an integer, got 'Z4'"),
            (None, 100, "target must be a GroupSpec or an integer, got None"),
        ],
    )
    def test_pinned_refusals(self, target, j, message):
        with pytest.raises(ParameterError) as caught:
            search_kotzig(target, j)
        assert str(caught.value) == message

    @pytest.mark.parametrize("target, j", [(GroupSpec((16,)), 3), (GroupSpec((48,)), 1), (16, 3), (48, 1)])
    def test_cell_cap_admits_48_cells(self, target, j):
        assert search_kotzig(target, j, budget=10).nodes <= 11


class TestGridBudget:
    """A search cut at budget b reports b + 1 nodes, and one given at least
    its full count reports that count and the least witness; the sized-block
    and labeling kernels count their nodes as the grid kernel does."""

    @pytest.mark.parametrize(
        "search",
        [
            pytest.param(lambda b: search_triple_bijection(parse_group_spec("Z2xZ4"), b), id="bijection-Z2xZ4"),
            pytest.param(lambda b: search_kotzig(parse_group_spec("Z2xZ2xZ2"), 3, b), id="kotzig-Z2xZ2xZ2-j3"),
            pytest.param(lambda b: search_kotzig(parse_group_spec("Z2xZ4"), 4, b), id="kotzig-Z2xZ4-j4"),
            pytest.param(lambda b: search_kotzig(parse_group_spec("Z6"), 2, b), id="kotzig-Z6-j2"),
            pytest.param(lambda b: search_kotzig(parse_group_spec("Z2xZ2"), 5, b), id="kotzig-Z2xZ2-j5"),
            pytest.param(lambda b: search_kotzig(5, 3, b), id="int-k5-j3"),
            pytest.param(lambda b: search_kotzig(4, 4, b), id="int-k4-j4"),
            # the sized-block kernel, from the identity's open block and from the root
            pytest.param(lambda b: search_zsp(parse_group_spec("Z9"), 3, b), id="zsp-Z9-m3"),
            pytest.param(lambda b: search_zsp(parse_group_spec("Z2xZ2xZ3"), 3, b), id="zsp-Z2xZ2xZ3-m3"),
            pytest.param(lambda b: conjecture_scan(parse_group_spec("Z2xZ2xZ2"), (3, 4), b), id="scan-Z2xZ2xZ2-3-4"),
            pytest.param(
                lambda b: conjecture_scan(parse_group_spec("Z2xZ2xZ4"), (3, 3, 3, 6), b), id="scan-Z2xZ2xZ4-3-3-3-6"
            ),
            # the labeling kernel
            pytest.param(lambda b: search_labeling(cycle_graph(4), parse_group_spec("Z2xZ2"), b), id="labeling-C4-Z2xZ2"),
            pytest.param(lambda b: search_labeling(cycle_graph(4), parse_group_spec("Z4"), b), id="labeling-C4-Z4"),
        ],
    )
    def test_every_budget(self, search):
        whole = search(DEFAULT_BUDGET)
        assert whole.found and whole.exhausted
        full = whole.nodes
        for b in range(1, full + 2):
            report = search(b)
            assert (report.found, report.exhausted, report.nodes) == (b >= full, b >= full, min(b + 1, full)), b
            if report.found:
                assert report.witness == whole.witness

    @pytest.mark.parametrize(
        "spec",
        [spec for spec in abelian_groups_up_to(12) if in_class_g(spec)] + [parse_group_spec("Z2xZ8")],
        ids=str,
    )
    def test_bijection_is_the_three_row_array(self, spec):
        array, bijection = search_kotzig(spec, 3), search_triple_bijection(spec)
        assert array.nodes == bijection.nodes
        assert array.found and bijection.found
        assert elements(spec, array.witness.rows[1]) == tuple(map(spec.element_at, bijection.witness.phi))


def _truncated_tetrahedron() -> Graph:
    # corner (i, j) of triangle i points to triangle j
    corners = [(i, j) for i in range(4) for j in range(4) if i != j]
    edges = [(a, b) for a in corners for b in corners if a < b and (a[0] == b[0] or a == b[::-1])]
    return Graph(12, [(corners.index(a), corners.index(b)) for a, b in edges])


def _prism(k: int) -> Graph:
    rims = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    return Graph(2 * k, rims + [(i, k + i) for i in range(k)])


class TestSearchLabeling:
    def test_k33_z6_exhausts_empty(self):
        report = search_labeling(complete_bipartite_graph(3, 3), GroupSpec((6,)))
        assert not report.found and report.exhausted

    def test_c4_found_least(self):
        spec = GroupSpec((4,))
        report = search_labeling(cycle_graph(4), spec)
        assert report.found
        assert elements(spec, report.witness.assignment) == ((0,), (1,), (3,), (2,))
        assert verify_labeling(cycle_graph(4), report.witness).is_magic

    def test_k2_z2_nonexistence(self):
        report = search_labeling(complete_graph(2), GroupSpec((2,)))
        assert not report.found and report.exhausted

    def test_order_mismatch(self):
        with pytest.raises(ParameterError, match="graph order 4 does not match group order 6"):
            search_labeling(cycle_graph(4), GroupSpec((6,)))

    def test_obstructed_instances_come_back_empty(self):
        # odd-regular graph with a single-involution group, order 8
        cube = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                         (0, 4), (1, 5), (2, 6), (3, 7)])
        report = search_labeling(cube, GroupSpec((8,)))
        assert not report.found and report.exhausted

    @pytest.mark.parametrize(
        "graph, group, found",
        [
            pytest.param(_truncated_tetrahedron(), "Z12", False, id="truncated-tetrahedron-Z12"),
            pytest.param(_truncated_tetrahedron(), "Z2xZ6", True, id="truncated-tetrahedron-Z2xZ6"),
            pytest.param(_prism(6), "Z12", False, id="hexagonal-prism-Z12"),
        ],
    )
    def test_order_12_decided(self, graph, group, found):
        spec = parse_group_spec(group)
        report = search_labeling(graph, spec)
        assert report.exhausted and report.found == found
        assert (obstruction_check(graph, spec).status == "impossible") == (not found)

    def test_order_cap(self):
        with pytest.raises(ParameterError):
            search_labeling(complete_graph(13), GroupSpec((13,)))


def _least_magic_labeling(g: Graph, factors):
    """Brute force over all labelings, least first in the order the search
    uses (labels by vertex index, elements in coordinate order); plain
    modular arithmetic, no oracle."""
    def weight(labels, x):
        return tuple(sum(labels[u][i] for u in g.adj[x]) % f for i, f in enumerate(factors))

    for labels in itertools.permutations(itertools.product(*(range(f) for f in factors))):
        mu = weight(labels, 0)
        if all(weight(labels, x) == mu for x in range(1, g.n)):
            return labels
    return None


class TestLabelingCuts:
    """The root check and the pair checks remove only branches with no magic
    completion: verdicts and least witnesses agree with brute force."""

    @staticmethod
    def _random_graphs(n: int):
        """Seeded G(n, p) graphs, then seeded circulants (regular, and magic more often)."""
        rng = random.Random(n)
        for density in (0.3, 0.5, 0.7):
            yield Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
        for _ in range(2):
            jumps = [s for s in range(1, n // 2 + 1) if rng.random() < 0.5]
            yield Graph(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in jumps})

    @pytest.mark.parametrize("n", range(4, 9))
    def test_random_graphs_agree_with_brute_force(self, n):
        for g in self._random_graphs(n):
            for spec in abelian_groups_up_to(n, min_order=n):
                least = _least_magic_labeling(g, spec.factors)
                report = search_labeling(g, spec)
                assert report.exhausted and report.found == (least is not None), (list(g.edges()), spec)
                assert report.witness is None or elements(spec, report.witness.assignment) == least

    def test_regular_atlas_rows_with_nonzero_total_decided_at_root(self):
        nx = pytest.importorskip("networkx")
        decided = 0
        for atlas_graph in nx.graph_atlas_g():
            g = Graph(atlas_graph.number_of_nodes(), atlas_graph.edges())
            if g.n == 0 or not g.is_regular:
                continue
            for spec in abelian_groups_up_to(g.n, min_order=g.n):
                if spec.scale(g.degrees[0], sum_all(spec)) != spec.identity():
                    assert search_labeling(g, spec) == oracle.SearchReport(False, True, 0)
                    decided += 1
        assert decided > 0

    def test_k12_over_z2xz6_exhausts_within_a_small_budget(self):
        report = search_labeling(complete_graph(12), parse_group_spec("Z2xZ6"), budget=1000)
        assert not report.found and report.exhausted


class TestConjectureScan:
    def test_involution_block(self):
        spec = GroupSpec((2, 2))
        report = conjecture_scan(spec, (3,))
        assert report.found
        blocks = report.witness[1]
        assert set(blocks[0]) == set(involutions(spec))

    def test_mixed_sizes(self):
        spec = GroupSpec((2, 2, 3))
        for sizes in [(3, 4, 4), (3, 3, 5), (11,)]:
            report = conjecture_scan(spec, sizes)
            assert report.found, sizes
            assert verify_sized_partition(spec, report.witness[1], sizes).ok

    def test_sizes_validation(self):
        spec = GroupSpec((2, 2, 3))
        with pytest.raises(ParameterError):
            conjecture_scan(spec, (2, 4, 5))
        with pytest.raises(ParameterError):
            conjecture_scan(spec, (3, 3))
        with pytest.raises(ParameterError):
            conjecture_scan(GroupSpec((6,)), (5,))

    def test_order_cap(self):
        # Z2xZ2xZ8 qualifies, with seven involutions, but is past the cap
        with pytest.raises(ParameterError, match="capped at order 24"):
            conjecture_scan(GroupSpec((2, 2, 8)), (3,) * 9 + (4,))

    @pytest.mark.parametrize(
        "bad", [(2, 0, 0), (0, -1, 0), (0, 1), (0, 0, 1, 0)], ids=["unreduced", "negative", "short", "long"]
    )
    def test_sized_partition_element_outside_the_group(self, bad):
        # an element that is not a reduced element of the group is named as written
        spec = GroupSpec((2, 2, 2))
        blocks = ((bad, (0, 1, 0), (0, 1, 1)), ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)))
        check = verify_sized_partition(spec, blocks, (3, 4))
        assert (check.ok, check.row) == (False, 0)
        assert check.reason == f"block 0 contains {format_element(bad)} outside the universe"

    def test_driver_to_order_12(self):
        rows = list(scan_conjecture(12))
        assert rows
        for spec, sizes, report in rows:
            assert report.found and report.exhausted, (spec, sizes)

    def test_witness_blocks_hold_element_tuples(self):
        """A scan witness is ``(spec, blocks)`` with each block a tuple of element
        tuples of the spec's arity, as ``bench/workloads.py`` formats it, while
        the other certificate objects hold element indices."""
        rows = list(scan_conjecture(16))
        assert rows
        for spec, sizes, report in rows:
            witness_spec, blocks = report.witness
            assert witness_spec == spec and sorted(map(len, blocks)) == sorted(sizes)
            for block in blocks:
                assert type(block) is tuple
                assert all(type(e) is tuple and len(e) == spec.arity and all(type(x) is int for x in e) for e in block)


class TestAgreement:
    def test_constructor_matches_search_up_to_16(self):
        for spec in abelian_groups_up_to(16):
            n = spec.order
            for m in range(3, n + 1):
                if n % m:
                    continue
                report = search_zsp(spec, m)
                assert report.exhausted
                if in_class_g(spec):
                    partition = zsp(spec, m)
                    assert report.found
                    assert verify_zsp(spec, partition, m).ok
                    assert verify_zsp(spec, report.witness, m).ok
                else:
                    assert not report.found
                    with pytest.raises(ZsmagicError):
                        zsp(spec, m)

    def test_m2_constructor_refusal_matches(self):
        for spec in abelian_groups_up_to(12):
            assert not search_zsp(spec, 2).found
            with pytest.raises(ImpossibilityError):
                zsp(spec, 2)

    def test_constructors_refuse_exactly_what_the_oracles_rule_out(self):
        """Over every group to order 16 and every parameter the constructor
        accepts within the search caps (block sizes m >= 2 dividing the
        order, any j and k >= 1), a constructor raises NonexistenceError
        exactly when its oracle reports found=false, exhausted=true."""

        def rows():
            for spec in abelian_groups_up_to(16, min_order=1):
                for m in range(2, spec.order + 1):
                    if spec.order % m == 0:
                        yield f"zsp {spec} {m}", partial(zsp, spec, m), partial(search_zsp, spec, m)
                yield f"bijection {spec}", partial(triple_bijection, spec), partial(search_triple_bijection, spec)
                for j in range(1, KOTZIG_CELL_CAP // spec.order + 1):
                    yield f"kotzig {spec} {j}", partial(build_group_kotzig, spec, j), partial(search_kotzig, spec, j)
            for k in range(1, KOTZIG_CELL_CAP + 1):
                for j in range(1, KOTZIG_CELL_CAP // k + 1):
                    yield f"kotzig {k} {j} --int", partial(build_int_kotzig, j, k), partial(search_kotzig, k, j)

        def refuses(build):
            try:
                build()
            except NonexistenceError:
                return True
            return False

        wrong = []
        for name, build, search in rows():
            report = search()
            assert report.exhausted, name
            if refuses(build) == report.found:
                wrong.append(name)
        assert wrong == []


class TestReverification:
    """A found witness goes through its owning verifier before it is reported."""

    @pytest.mark.parametrize(
        "verifier, rejection, search",
        [
            pytest.param(
                "verify_zsp", Check(False, row=0, reason="rejected"),
                lambda: search_zsp(GroupSpec((9,)), 3), id="zsp",
            ),
            pytest.param(
                "verify_triple_bijection", Check(False, col=0, reason="rejected"),
                lambda: search_triple_bijection(GroupSpec((2, 2))), id="bijection",
            ),
            pytest.param(
                "verify_kotzig", Check(False, row=0, col=0, reason="rejected"),
                lambda: search_kotzig(GroupSpec((2, 2)), 3), id="kotzig",
            ),
            pytest.param(
                "verify_kotzig", Check(False, row=0, col=0, reason="rejected"),
                lambda: search_kotzig(3, 3), id="kotzig-int",
            ),
            pytest.param(
                "verify_labeling", Verdict("not-magic", None, (0, 1)),
                lambda: search_labeling(cycle_graph(4), GroupSpec((4,))), id="labeling",
            ),
            pytest.param(  # the scan checks its index blocks with the check behind verify_sized_partition
                "_check_sized", Check(False, row=0, reason="rejected"),
                lambda: conjecture_scan(GroupSpec((2, 2, 3)), (3, 4, 4)), id="sized-partition",
            ),
        ],
    )
    def test_rejected_witness_raises(self, monkeypatch, verifier, rejection, search):
        assert search().found
        monkeypatch.setattr(oracle, verifier, lambda *args: rejection)
        with pytest.raises(AssertionError, match="re-verification"):
            search()


# -- pinned reports ----------------------------------------------------------------
#
# Every report text (witness and node count) of a sweep over all the search
# entry points, full and budget-truncated, recorded before the searches were
# merged into shared kernels.  Non-canonical presentations change the element
# enumeration and with it the least witness and the node counts.

_PRESENTATIONS = ("Z6xZ2", "Z3xZ2xZ2", "Z2xZ10", "Z4xZ6", "Z2xZ2xZ6", "Z8xZ2", "Z4xZ2xZ2")


def _zsp_reports():
    specs = [*abelian_groups_up_to(24), *map(parse_group_spec, _PRESENTATIONS)]
    for spec in specs:
        for m in range(1, spec.order + 1):
            if spec.order % m == 0:
                for budget in (1, 2, 3, 5, 50, DEFAULT_BUDGET):
                    yield report_to_text(search_zsp(spec, m, budget), "zsp")


def _scan_reports():
    for budget, max_order in ((DEFAULT_BUDGET, 24), (1, 16), (2, 16), (3, 16), (7, 16), (20, 16)):
        for _spec, _sizes, report in scan_conjecture(max_order, budget):
            yield report_to_text(report, "sized-partition")


def _kotzig_reports():
    targets = [*abelian_groups_up_to(24), *map(parse_group_spec, _PRESENTATIONS[:2]), *range(1, 25)]
    for target in targets:
        kind = "kotzig-int" if isinstance(target, int) else "kotzig"
        k = target if isinstance(target, int) else target.order
        for j in range(1, KOTZIG_CELL_CAP // k + 1):
            for budget in (2, 50, DEFAULT_BUDGET):
                yield report_to_text(search_kotzig(target, j, budget), kind)


def _bijection_reports():
    for spec in abelian_groups_up_to(10, min_order=1):
        for budget in (1, 3, 10, DEFAULT_BUDGET):
            yield report_to_text(search_triple_bijection(spec, budget), "bijection")


def _labeling_reports():
    graphs = [(cycle_graph(n), n <= 8) for n in range(3, 11)]
    graphs += [(complete_graph(n), n <= 7) for n in range(1, 11)]
    for g, full in graphs:
        for spec in abelian_groups_up_to(g.n, min_order=g.n):
            for budget in (1, 5, 2000) + ((DEFAULT_BUDGET,) if full else ()):
                yield report_to_text(search_labeling(g, spec, budget), "labeling")


_SWEEPS = {
    "zsp": _zsp_reports,
    "scan": _scan_reports,
    "kotzig": _kotzig_reports,
    "bijection": _bijection_reports,
    "labeling": _labeling_reports,
}


@pytest.mark.parametrize(
    "name, count, digest",
    [
        ("zsp", 1170, "60c8c25c9007598e3756028bcafd5f7d3be2b8447a25da2ef37f30de6de59d95"),
        ("scan", 689, "fed8655840dddd4fa75b85924c36b92cf04cd32d31e9b5a5db92ab00c74d5abc"),
        ("kotzig", 1083, "e4ffed883c432ac7410f9117d60930f279cc60191360a4835252ee6bb2ef53b2"),
        ("bijection", 56, "fe0c6a8c410baee71e05d5cdcad7363fc2ce3877a46a01c31346e8377d00547f"),
        ("labeling", 95, "0268ba89fe3a2dd4b138414efa55e21f7f1204d52acc07465b3300eebf9cd7bd"),
    ],
)
def test_pinned_reports(name, count, digest):
    texts = list(_SWEEPS[name]())
    assert len(texts) == count
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == digest


def test_pinned_labeling_verdicts():
    """(found, exhausted, witness) of every atlas graph over every group of its
    order at the default budget, recorded before the labeling search was
    reduced by symmetry; node counts are left out on purpose."""
    nx = pytest.importorskip("networkx")
    rows = []
    for atlas_graph in nx.graph_atlas_g():
        g = Graph(atlas_graph.number_of_nodes(), atlas_graph.edges())
        for spec in abelian_groups_up_to(g.n, min_order=max(g.n, 1)):
            report = search_labeling(g, spec)
            if obstruction_check(g, spec).status == "impossible":
                assert not report.found and report.exhausted, (atlas_graph.edges(), spec)
            rows.append((report.found, report.exhausted, report.witness and elements(spec, report.witness.assignment)))
    assert len(rows) == 1263
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "3de621484ca03c30e8a6e45b53b523fedb7c331be062305c59d566c8e14821f2"
    )
