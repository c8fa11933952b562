import random
import tracemalloc
from itertools import product

import pytest
from conftest import indices
from hypothesis import given, settings
from hypothesis import strategies as st

from zsmagic import (
    Graph,
    GroupSpec,
    Labeling,
    NonexistenceError,
    OBSTRUCTION_ODD_DEGREES_ORDER_2_MOD_4,
    OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION,
    ParameterError,
    bipartite_blowup_exists,
    blowup_even_label,
    blowup_label,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    eulerian_bipartite_label,
    lex_product,
    obstruction_check,
    parse_group_spec,
    path_graph,
    verify_labeling,
)
from zsmagic.graphs import weights


class TestGraphModel:
    def test_simple_validation(self):
        with pytest.raises(ParameterError):
            Graph(3, [(0, 0)])
        with pytest.raises(ParameterError):
            Graph(3, [(0, 5)])

    def test_vertex_count_must_be_nonnegative(self):
        with pytest.raises(ParameterError, match="nonnegative"):
            Graph(-1)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_cycle_needs_three_vertices(self, n):
        with pytest.raises(ParameterError, match="at least 3 vertices"):
            cycle_graph(n)

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_degree_flags(self):
        assert complete_graph(4).is_regular
        assert complete_graph(4).regular_degree == 3
        assert complete_graph(4).all_degrees_odd
        assert cycle_graph(5).all_degrees_even
        assert not path_graph(3).is_regular

    def test_bipartition_recomputed_when_inconsistent(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        v1, v2 = g.bipartition()
        assert set(v1) in ({0, 2}, {1, 3})

    def test_component_roots_on_first_side(self):
        g = Graph(4, [(0, 2), (1, 3)])
        assert g.bipartition() == ((0, 1), (2, 3))

    def test_odd_cycle_not_bipartite(self):
        assert cycle_graph(5).bipartition() is None

    def test_balanced_bipartition_swaps_components(self):
        # two paths of length 2: default coloring gives sides of sizes 4 and 2
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        v1, v2 = g.balanced_bipartition()
        assert len(v1) == len(v2) == 3

    @pytest.mark.parametrize("edges", [[(0, 1), (2, 3), (3, 4)], [(0, 1), (2, 3), (4, 5)]], ids=["swapped", "balanced"])
    def test_balanced_bipartition_runs_one_bfs(self, monkeypatch, edges):
        passes = []
        original = Graph._bfs_components

        def counting(self):
            passes.append(self.n)
            return original(self)

        monkeypatch.setattr(Graph, "_bfs_components", counting)
        v1, v2 = Graph(6, edges).balanced_bipartition()
        assert len(v1) == len(v2) == 3 and passes == [6]

    @pytest.mark.parametrize("seed", range(6))
    def test_balanced_bipartition_matches_component_orientations(self, seed):
        """Random disconnected bipartite graphs of up to 12 components: a coloring is
        returned exactly when some choice of each component's side reaches n/2."""
        rng = random.Random(seed)
        for _ in range(50):
            sizes = []
            for _ in range(rng.randint(1, 12)):
                a = rng.randint(1, 4)
                sizes.append((a, rng.randint(0 if a == 1 else 1, 4)))
            n = sum(a + b for a, b in sizes)
            names = rng.sample(range(n), n)
            edges, start = [], 0
            for a, b in sizes:
                left, right = list(range(start, start + a)), list(range(start + a, start + a + b))
                if b:
                    # a random spanning tree, each vertex joined to an earlier one of the other side,
                    # then a few more crossing edges
                    added, rest = [[left[0]], [right[0]]], [(0, u) for u in left[1:]] + [(1, v) for v in right[1:]]
                    edges.append((left[0], right[0]))
                    for side, u in rng.sample(rest, len(rest)):
                        edges.append((u, rng.choice(added[1 - side])))
                        added[side].append(u)
                    edges += [(rng.choice(left), rng.choice(right)) for _ in range(rng.randint(0, 3))]
                start += a + b
            g = Graph(n, [(names[u], names[v]) for u, v in edges])
            feasible = n % 2 == 0 and any(
                sum(side[t] for side, t in zip(sizes, choice)) == n // 2
                for choice in product((0, 1), repeat=len(sizes))
            )
            balanced = g.balanced_bipartition()
            assert (balanced is not None) == feasible, sizes
            if balanced is not None:
                v1, v2 = balanced
                assert len(v1) == len(v2) == n // 2 and sorted(v1 + v2) == list(range(n))
                side = {v: 0 for v in v1} | {v: 1 for v in v2}
                assert all(side[u] != side[v] for u, v in g.edges())

    def test_balanced_bipartition_of_many_components_stays_small(self):
        tracemalloc.start()
        try:
            v1, v2 = Graph(2002).balanced_bipartition()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(v1) == len(v2) == 1001
        assert peak < 32 * 2**20


class TestLexProduct:
    def test_k2_blowup_is_k22(self):
        assert lex_product(complete_graph(2), empty_graph(2)) == complete_bipartite_graph(2, 2)

    def test_k4_blowup_is_complete_four_partite(self):
        g = lex_product(complete_graph(4), empty_graph(3))
        for u in range(4):
            for v in range(3):
                for x in range(4):
                    for y in range(3):
                        a, b = u * 3 + v, x * 3 + y
                        if a != b:
                            assert (b in g.adj[a]) == (u != x)

    def test_identity_blowup(self):
        assert lex_product(cycle_graph(3), empty_graph(1)) == cycle_graph(3)

    def test_degree_law(self):
        g, h = path_graph(3), cycle_graph(4)
        prod = lex_product(g, h)
        for u in range(g.n):
            for v in range(h.n):
                assert prod.degrees[u * h.n + v] == h.n * g.degrees[u] + h.degrees[v]

    def test_fibre_shares_one_neighbourhood(self):
        g = lex_product(cycle_graph(4), empty_graph(3))
        assert g.adj[0] is g.adj[1] is g.adj[2] == (3, 4, 5, 9, 10, 11)
        # a vertex with neighbours inside its fibre gets its own tuple; the others keep the shared one
        g = lex_product(cycle_graph(4), Graph(3, [(0, 1)]))
        assert g.adj[0] == (1, 3, 4, 5, 9, 10, 11) and g.adj[2] == (3, 4, 5, 9, 10, 11)
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert c4.adj[0] is c4.adj[2] and c4.adj[1] is c4.adj[3]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_definition(self, data):
        n = data.draw(st.integers(1, 7), label="base order")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # a subset of pairs: vertices left out of every pair stay isolated
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])))
        m = data.draw(st.integers(1, 5), label="fibre order")
        inner = [(v, y) for v in range(m) for y in range(v + 1, m)]
        h = Graph(m, data.draw(st.lists(st.sampled_from(inner), unique=True) if inner else st.just([])))
        edges = [(u * m + v, x * m + y) for u, x in g.edges() for v in range(m) for y in range(m)]
        edges += [(u * m + v, u * m + y) for u in range(n) for v, y in h.edges()]
        expected = Graph(n * m, edges)
        product = lex_product(g, h)
        assert (product.n, product.adj, product.degrees) == (expected.n, expected.adj, expected.degrees)
        spec = parse_group_spec(f"Z{n * m}")
        lab = Labeling(spec, tuple(data.draw(st.permutations(range(n * m)), label="labels")))
        by_vertex = [spec.sum(spec.element_at(lab.assignment[x]) for x in nbrs) for nbrs in expected.adj]
        assert weights(product, lab) == weights(expected, lab) == by_vertex


class TestVerifyLabeling:
    def test_flagship_magic(self):
        spec = parse_group_spec("Z2xZ2xZ3")
        g = lex_product(complete_graph(4), empty_graph(3))
        verdict = verify_labeling(g, blowup_label(complete_graph(4), 3, spec))
        assert verdict.is_magic and verdict.mu == (0, 0, 0)

    def test_cycle_labeling_around_c4(self):
        spec = GroupSpec((4,))
        around = verify_labeling(cycle_graph(4), Labeling(spec, indices(spec, ((0,), (1,), (2,), (3,)))))
        assert around.status == "not-magic" and around.witness == (0, 1)
        swapped = verify_labeling(cycle_graph(4), Labeling(spec, indices(spec, ((0,), (1,), (3,), (2,)))))
        assert swapped.is_magic and swapped.mu == (3,)

    def test_path_not_magic(self):
        spec = GroupSpec((3,))
        verdict = verify_labeling(path_graph(3), Labeling(spec, indices(spec, ((0,), (1,), (2,)))))
        assert verdict.status == "not-magic"
        assert verdict.witness == (0, 1)

    def test_empty_neighborhood_weighs_identity(self):
        spec = GroupSpec((3,))
        lab = Labeling(spec, indices(spec, ((1,), (2,), (0,))))
        assert weights(empty_graph(3), lab) == [(0,), (0,), (0,)]
        assert verify_labeling(empty_graph(3), lab).is_magic

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            spec = GroupSpec((4,))
            verify_labeling(path_graph(3), Labeling(spec, indices(spec, ((0,), (1,), (2,), (3,)))))

    def test_labeling_must_be_bijection(self):
        with pytest.raises(ParameterError):
            spec = GroupSpec((3,))
            Labeling(spec, indices(spec, ((0,), (0,), (1,))))


class TestBlowupLabel:
    def test_c3_by_z9(self):
        base = cycle_graph(3)
        lab = blowup_label(base, 3, GroupSpec((9,)))
        verdict = verify_labeling(lex_product(base, empty_graph(3)), lab)
        assert verdict.is_magic and verdict.mu == (0,)

    def test_non_regular_base_still_magic(self):
        base = path_graph(4)
        lab = blowup_label(base, 3, GroupSpec((2, 2, 3)))
        verdict = verify_labeling(lex_product(base, empty_graph(3)), lab)
        assert verdict.is_magic and verdict.mu == (0, 0, 0)

    def test_group_not_admissible(self):
        with pytest.raises(NonexistenceError):
            blowup_label(complete_graph(4), 3, parse_group_spec("Z12"))

    def test_order_mismatch(self):
        with pytest.raises(ParameterError):
            blowup_label(complete_graph(4), 3, GroupSpec((9,)))

    def test_small_fiber_rejected(self):
        with pytest.raises(ParameterError):
            blowup_label(complete_graph(4), 2, GroupSpec((2, 2, 2)))


class TestBlowupEvenLabel:
    @pytest.mark.parametrize(
        "base,n2,spec_text",
        [
            (complete_graph(2), 2, "Z4"),
            (cycle_graph(4), 2, "Z8"),
            (complete_graph(3), 2, "Z6"),
            (cycle_graph(4), 4, "Z2xZ8"),
        ],
    )
    def test_constant_weight(self, base, n2, spec_text):
        spec = parse_group_spec(spec_text)
        lab = blowup_even_label(base, n2, spec)
        verdict = verify_labeling(lex_product(base, empty_graph(n2)), lab)
        assert verdict.is_magic
        # each vertex weighs r * (n2/2) * s, s the least element outside 2G
        doubled = {spec.scale(2, e) for e in spec.elements()}
        s = next(e for e in spec.elements() if e not in doubled)
        assert verdict.mu == spec.scale(base.regular_degree * (n2 // 2), s)

    def test_irregular_base_rejected(self):
        with pytest.raises(ParameterError):
            blowup_even_label(path_graph(3), 2, GroupSpec((6,)))

    @pytest.mark.parametrize("n2", [0, 3])
    def test_fiber_must_be_even_and_positive(self, n2):
        with pytest.raises(ParameterError, match="even and >= 2"):
            blowup_even_label(complete_graph(3), n2, GroupSpec((9,)))


class TestEulerianBipartiteLabel:
    @pytest.mark.parametrize("spec_text", ["Z2xZ9", "Z2xZ3xZ3", "Z18", "Z3xZ6"])
    def test_c6_order_18(self, spec_text):
        spec = parse_group_spec(spec_text)
        lab = eulerian_bipartite_label(cycle_graph(6), 3, spec)
        verdict = verify_labeling(lex_product(cycle_graph(6), empty_graph(3)), lab)
        assert verdict.is_magic and verdict.mu == spec.identity()

    def test_wrong_base_order(self):
        with pytest.raises(ParameterError, match="2 mod 4"):
            eulerian_bipartite_label(cycle_graph(4), 3, parse_group_spec("Z12"))

    def test_odd_degree_base_rejected(self):
        with pytest.raises(ParameterError, match="even"):
            eulerian_bipartite_label(complete_bipartite_graph(3, 3), 3, parse_group_spec("Z18"))

    def test_even_fiber_rejected(self):
        with pytest.raises(ParameterError):
            eulerian_bipartite_label(cycle_graph(6), 4, parse_group_spec("Z2xZ3xZ4"))

    def test_base_without_balanced_bipartition(self):
        # two triangles: order 6, every degree 2, but not bipartite
        triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(ParameterError, match="no bipartition with equal sides"):
            eulerian_bipartite_label(triangles, 3, parse_group_spec("Z18"))


class TestObstructions:
    def test_k33_z6(self):
        verdict = obstruction_check(complete_bipartite_graph(3, 3), parse_group_spec("Z6"))
        assert verdict.status == "impossible"
        assert verdict.obstruction == OBSTRUCTION_ODD_DEGREES_ORDER_2_MOD_4

    def test_blown_up_k4_z12(self):
        g = lex_product(complete_graph(4), empty_graph(3))
        verdict = obstruction_check(g, parse_group_spec("Z12"))
        assert verdict.status == "impossible"
        assert verdict.obstruction == OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION

    def test_c4_unknown(self):
        assert obstruction_check(cycle_graph(4), GroupSpec((4,))).status == "unknown"

    def test_order_mismatch(self):
        with pytest.raises(ParameterError):
            obstruction_check(cycle_graph(4), GroupSpec((5,)))


class TestBipartiteBlowupExists:
    def test_c6_odd_fiber(self):
        assert bipartite_blowup_exists(cycle_graph(6), 3) is True

    def test_k33_odd_fiber(self):
        assert bipartite_blowup_exists(complete_bipartite_graph(3, 3), 3) is False

    def test_k33_even_fiber(self):
        assert bipartite_blowup_exists(complete_bipartite_graph(3, 3), 2) is True

    def test_witnesses_back_the_predicate(self):
        # even fiber: pair construction on K33; odd fiber: Eulerian route on C6
        lab = blowup_even_label(complete_bipartite_graph(3, 3), 2, parse_group_spec("Z12"))
        g = lex_product(complete_bipartite_graph(3, 3), empty_graph(2))
        assert verify_labeling(g, lab).is_magic
        lab = eulerian_bipartite_label(cycle_graph(6), 3, parse_group_spec("Z2xZ9"))
        g = lex_product(cycle_graph(6), empty_graph(3))
        assert verify_labeling(g, lab).is_magic

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            bipartite_blowup_exists(path_graph(4), 2)
        with pytest.raises(ParameterError):
            bipartite_blowup_exists(cycle_graph(4), 2)
        with pytest.raises(ParameterError):
            bipartite_blowup_exists(cycle_graph(6), 1)

    def test_regular_base_must_be_bipartite(self):
        with pytest.raises(ParameterError, match="must be bipartite"):
            bipartite_blowup_exists(complete_graph(6), 2)


class TestNetworkxCrossCheck:
    """Every graph of the networkx atlas (all graphs on up to 7 vertices)."""

    @pytest.fixture(scope="class")
    def atlas(self):
        nx = pytest.importorskip("networkx")
        return nx, [(h, Graph(h.number_of_nodes(), h.edges())) for h in nx.graph_atlas_g()]

    def test_lex_product(self, atlas):
        nx, graphs = atlas
        fibers = [(h, g) for h, g in graphs if 1 <= g.n <= 2]
        for base_nx, base in graphs:
            for fiber_nx, fiber in fibers:
                product = lex_product(base, fiber)
                expected = nx.lexicographic_product(base_nx, fiber_nx)
                nf = fiber.n
                edges = {tuple(sorted((u * nf + v, x * nf + y))) for (u, v), (x, y) in expected.edges()}
                assert product.n == expected.number_of_nodes()
                assert set(product.edges()) == edges, (base_nx.edges(), fiber_nx.edges())

    def test_bipartitions(self, atlas):
        nx, graphs = atlas
        for h, g in graphs:
            bip = g.bipartition()
            assert (bip is not None) == nx.is_bipartite(h), h.edges()
            balanced = g.balanced_bipartition()
            if bip is None:
                assert balanced is None
                continue
            # a balanced coloring picks one side of every component, summing to n/2
            totals = {0}
            for comp in nx.connected_components(h):
                sides = nx.bipartite.sets(h.subgraph(comp))
                totals = {t + len(side) for t in totals for side in sides}
            assert (balanced is not None) == (g.n % 2 == 0 and g.n // 2 in totals), h.edges()
            for v1, v2 in filter(None, (bip, balanced)):
                assert sorted(v1 + v2) == list(range(g.n))
                assert all((u in v1) != (v in v1) for u, v in g.edges())
            if balanced is not None:
                assert len(balanced[0]) == len(balanced[1])
