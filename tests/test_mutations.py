"""Edited certificates, one valid certificate per family: every verifier must
reject an element replaced by another group element, two entries swapped so
that a sum breaks, and a dropped block or row.  The column-sum verifiers are
also held against a plain reference that adds whole elements."""

from dataclasses import replace

import pytest
from conftest import elements, indices
from hypothesis import given, settings
from hypothesis import strategies as st

from zsmagic import (
    GroupKotzigArray,
    Labeling,
    ParameterError,
    TripleBijection,
    ZeroSumPartition,
    blowup_label,
    build_group_kotzig,
    build_int_kotzig,
    complete_graph,
    empty_graph,
    format_element,
    lex_product,
    parse_group_spec,
    triple_bijection,
    verify_kotzig,
    verify_labeling,
    verify_triple_bijection,
    verify_zsp,
    zsp,
)
from zsmagic.graphs import weights
from zsmagic.oracle import conjecture_scan, verify_sized_partition

SPEC = parse_group_spec("Z2xZ6xZ12")


def _element_sum(spec, elems):
    total = spec.identity()
    for e in elems:
        total = tuple((x + y) % f for x, y, f in zip(total, e, spec.factors))
    return total


def _swap(rows, a, b):
    """Swap entries a = (row, col) and b = (row, col) of a tuple of tuples."""
    grid = [list(r) for r in rows]
    (ra, ca), (rb, cb) = a, b
    grid[ra][ca], grid[rb][cb] = grid[rb][cb], grid[ra][ca]
    return tuple(tuple(r) for r in grid)


def _other_element(spec, e):
    return spec.element_at((spec.index_of(e) + 1) % spec.order)


class TestPartition:
    m = 6

    @pytest.fixture
    def blocks(self):
        return elements(SPEC, zsp(SPEC, self.m).blocks)

    def test_valid(self, blocks):
        assert verify_zsp(SPEC, ZeroSumPartition(SPEC, self.m, indices(SPEC, blocks)), self.m).ok

    def test_replaced_element(self, blocks):
        block = list(blocks[3])
        block[2] = _other_element(SPEC, block[2])
        edited = blocks[:3] + (tuple(block),) + blocks[4:]
        assert not verify_zsp(SPEC, indices(SPEC, edited), self.m).ok

    @pytest.mark.parametrize("a, b", [((2, 0), (5, 3)), ((0, 1), (1, 1)), ((7, 5), (4, 2))])
    def test_swap_across_blocks(self, blocks, a, b):
        edited = _swap(blocks, a, b)
        check = verify_zsp(SPEC, ZeroSumPartition(SPEC, self.m, indices(SPEC, edited)), self.m)
        first = min(a[0], b[0])
        assert not check.ok
        assert check.row == first
        assert check.reason == f"block {first} sums to {format_element(_element_sum(SPEC, edited[first]))}"

    def test_dropped_block(self, blocks):
        check = verify_zsp(SPEC, indices(SPEC, blocks[:-1]), self.m)
        assert not check.ok and check.reason == "blocks do not cover the universe"


class TestTripleBijection:
    @pytest.fixture
    def tb(self):
        return triple_bijection(SPEC)

    def test_valid(self, tb):
        assert verify_triple_bijection(tb).ok

    def test_replaced_element(self, tb):
        phi = list(tb.phi)
        phi[10] = phi[11]
        assert not verify_triple_bijection(TripleBijection(SPEC, tuple(phi), tb.psi)).ok

    @pytest.mark.parametrize("i, j", [(0, 1), (40, 7), (100, 143)])
    def test_swap_across_columns(self, tb, i, j):
        psi = list(tb.psi)
        psi[i], psi[j] = psi[j], psi[i]
        check = verify_triple_bijection(TripleBijection(SPEC, tb.phi, tuple(psi)))
        assert not check.ok and check.col == min(i, j)

    def test_dropped_row(self, tb):
        check = verify_triple_bijection(TripleBijection(SPEC, tb.phi[:-1], tb.psi[:-1]))
        assert not check.ok and check.reason == "phi is not a permutation"

    @given(st.lists(st.tuples(st.integers(0, 143), st.integers(0, 143), st.booleans()), max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, swaps):
        tb = triple_bijection(SPEC)
        perms = [list(tb.phi), list(tb.psi)]
        for i, j, which in swaps:
            perm = perms[which]
            perm[i], perm[j] = perm[j], perm[i]
        check = verify_triple_bijection(TripleBijection(SPEC, *map(tuple, perms)))
        elems = SPEC.elements()
        expected = None
        for i, g in enumerate(elems):
            total = _element_sum(SPEC, (g, elems[perms[0][i]], elems[perms[1][i]]))
            if total != SPEC.identity():
                expected = (i, f"column at {format_element(g)} sums to {format_element(total)}")
                break
        assert (check.ok, check.col, check.reason) == ((True, None, None) if expected is None else (False, *expected))


@pytest.mark.parametrize(
    "array",
    [build_group_kotzig(SPEC, 5), build_int_kotzig(5, 15)],
    ids=["group", "int"],
)
class TestKotzig:
    def test_valid(self, array):
        assert verify_kotzig(array).ok

    def test_replaced_element(self, array):
        row = array.rows[2]
        edited = array.rows[:2] + (row[:4] + row[5:6] + row[5:],) + array.rows[3:]
        check = verify_kotzig(replace(array, rows=edited))
        assert not check.ok and check.row == 2

    @pytest.mark.parametrize("c1, c2", [(1, 2), (9, 4), (14, 3)])
    def test_swap_across_columns(self, array, c1, c2):
        check = verify_kotzig(replace(array, rows=_swap(array.rows, (3, c1), (3, c2))))
        assert not check.ok and check.col == min(c1, c2)

    def test_dropped_row(self, array):
        assert not verify_kotzig(replace(array, rows=array.rows[:-1])).ok


def test_group_kotzig_matches_reference():
    """Column sums per coordinate equal the sums of whole elements."""
    array = build_group_kotzig(SPEC, 7)
    rows = _swap(elements(SPEC, array.rows), (1, 3), (1, 77))
    rows = _swap(rows, (4, 20), (4, 90))
    check = verify_kotzig(GroupKotzigArray(SPEC, indices(SPEC, rows)))
    sums = [_element_sum(SPEC, col) for col in zip(*rows)]
    bad = next(c for c in range(1, len(sums)) if sums[c] != sums[0])
    assert (check.ok, check.col) == (False, bad)
    assert check.reason == f"column {bad} sums to {sums[bad]}, column 0 to {sums[0]}"


class TestLabeling:
    spec = parse_group_spec("Z2xZ2xZ3")
    graph = lex_product(complete_graph(4), empty_graph(3))

    @pytest.fixture
    def labels(self):
        return elements(self.spec, blowup_label(complete_graph(4), 3, self.spec).assignment)

    def test_valid(self, labels):
        assert verify_labeling(self.graph, Labeling(self.spec, indices(self.spec, labels))).is_magic

    def test_replaced_element(self, labels):
        with pytest.raises(ParameterError):
            Labeling(self.spec, indices(self.spec, labels[:4] + (_other_element(self.spec, labels[4]),) + labels[5:]))

    @pytest.mark.parametrize("u, v", [(0, 3), (1, 11), (5, 7)])
    def test_swap_across_fibers(self, labels, u, v):
        edited = list(labels)
        edited[u], edited[v] = edited[v], edited[u]
        verdict = verify_labeling(self.graph, Labeling(self.spec, indices(self.spec, edited)))
        assert verdict.status == "not-magic"

    def test_dropped_vertex(self, labels):
        with pytest.raises(ParameterError):
            Labeling(self.spec, indices(self.spec, labels[:-1]))

    def test_weights_match_reference(self, labels):
        edited = (labels[7],) + labels[1:7] + (labels[0],) + labels[8:]
        expected = [_element_sum(self.spec, [edited[w] for w in adj]) for adj in self.graph.adj]
        assert weights(self.graph, Labeling(self.spec, indices(self.spec, edited))) == expected


class TestSizedPartition:
    spec = parse_group_spec("Z2xZ2xZ4")
    sizes = (3, 3, 4, 5)

    @pytest.fixture
    def blocks(self):
        report = conjecture_scan(self.spec, self.sizes)
        assert report.found
        return report.witness[1]

    def test_valid(self, blocks):
        assert verify_sized_partition(self.spec, blocks, self.sizes).ok

    def test_replaced_element(self, blocks):
        first = blocks[0]
        edited = (first[:1] + (_other_element(self.spec, first[1]),) + first[2:],) + blocks[1:]
        assert not verify_sized_partition(self.spec, edited, self.sizes).ok

    def test_swap_across_blocks(self, blocks):
        edited = _swap(blocks, (1, 0), (2, 1))
        check = verify_sized_partition(self.spec, edited, self.sizes)
        assert not check.ok and check.row == 1
        assert check.reason == f"block 1 sums to {format_element(_element_sum(self.spec, edited[1]))}"

    def test_dropped_block(self, blocks):
        assert not verify_sized_partition(self.spec, blocks[:-1], self.sizes).ok
