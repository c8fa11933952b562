"""The verifiers against a plain reference that adds whole elements.

Each reference below repeats a verifier's checks in their documented order
but sums element tuples with ``GroupSpec.sum``; every result field (``ok``,
the location and the reason) must be equal.  The carry-boundary tests build
sums whose terms sit at the largest coordinate value f - 1, so a packed sum
without enough room per coordinate would carry into its neighbour.
"""

import math
from collections import Counter

from conftest import group_specs
from hypothesis import given, settings
from hypothesis import strategies as st

from zsmagic import (
    Graph,
    GroupKotzigArray,
    GroupSpec,
    Labeling,
    TripleBijection,
    ZsmagicError,
    build_group_kotzig,
    triple_bijection,
    verify_kotzig,
    verify_labeling,
    verify_triple_bijection,
    verify_zsp,
    zsp,
)
from zsmagic.graphs import weights
from zsmagic.groups import Check, format_element
from zsmagic.oracle import verify_sized_partition

# -- references ---------------------------------------------------------------------


def _name(spec, i):
    return format_element(spec.element_at(i))


def _ref_blocks(spec, blocks, universe):
    seen = set()
    for i, block in enumerate(blocks):
        for e in block:
            if e not in universe:
                return Check(False, row=i, reason=f"block {i} contains {_name(spec, e)} outside the universe")
            if e in seen:
                return Check(False, row=i, reason=f"block {i} repeats {_name(spec, e)}")
            seen.add(e)
    if len(seen) != len(universe):
        return Check(False, reason="blocks do not cover the universe")
    for i, block in enumerate(blocks):
        total = spec.sum(map(spec.element_at, block))
        if total != spec.identity():
            return Check(False, row=i, reason=f"block {i} sums to {format_element(total)}")
    return Check(True)


def ref_verify_zsp(spec, blocks, m):
    for i, block in enumerate(blocks):
        if len(block) != m or len(set(block)) != m:
            return Check(False, row=i, reason=f"block {i} does not have {m} distinct elements")
    return _ref_blocks(spec, blocks, range(spec.order))


def ref_verify_sized_partition(spec, index_blocks, sizes):
    if Counter(map(len, index_blocks)) != Counter(sizes):
        return Check(False, reason="block sizes do not match")
    return _ref_blocks(spec, index_blocks, range(1, spec.order))


def ref_verify_triple_bijection(tb):
    spec, n = tb.spec, tb.spec.order
    for name, perm in (("phi", tb.phi), ("psi", tb.psi)):
        if sorted(perm) != list(range(n)):
            return Check(False, reason=f"{name} is not a permutation")
    for g in range(n):
        total = spec.sum(map(spec.element_at, (g, tb.phi[g], tb.psi[g])))
        if total != spec.identity():
            return Check(False, col=g, reason=f"column at {_name(spec, g)} sums to {format_element(total)}")
    return Check(True)


def ref_verify_kotzig(array):
    spec, n = array.spec, array.spec.order
    for r, row in enumerate(array.rows):
        if sorted(row) != list(range(n)):
            return Check(False, row=r, reason=f"row {r} is not a permutation of the group")
    if not array.rows:
        return Check(False, reason="the array has no rows")
    sums = [spec.sum(spec.element_at(row[c]) for row in array.rows) for c in range(n)]
    for c in range(1, n):
        if sums[c] != sums[0]:
            return Check(False, col=c, reason=f"column {c} sums to {sums[c]}, column 0 to {sums[0]}")
    return Check(True)


def ref_weights(g, labeling):
    spec = labeling.spec
    return [spec.sum(spec.element_at(labeling.assignment[u]) for u in adj) for adj in g.adj]


# -- inputs --------------------------------------------------------------------------


def _built(build, *args):
    try:
        return build(*args)
    except ZsmagicError:
        return None


def _swap(rows, data, n):
    """Swap two entries, within a row or between two rows."""
    rows = [list(r) for r in rows]
    r1, r2 = (data.draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    i1, i2 = (data.draw(st.integers(0, len(rows[r]) - 1)) for r in (r1, r2))
    rows[r1][i1], rows[r2][i2] = rows[r2][i2], rows[r1][i1]
    return rows


def _overwrite(rows, data, n):
    """Overwrite one entry with an index of the group or just past it."""
    rows = [list(r) for r in rows]
    r = data.draw(st.integers(0, len(rows) - 1))
    i = data.draw(st.integers(0, len(rows[r]) - 1))
    rows[r][i] = data.draw(st.integers(0, n))
    return rows


def _edit(rows, data, n):
    if not rows or not any(rows):
        return rows
    edit = data.draw(st.sampled_from([None, _swap, _overwrite]))
    return rows if edit is None else edit(rows, data, n)


def _chunks(items, m):
    return [items[i : i + m] for i in range(0, len(items), m)]


_SPECS = group_specs(max_order=96, max_factors=4, max_factor=16)


class TestAgainstReference:
    @given(_SPECS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_verify_zsp(self, spec, data):
        n = spec.order
        m = data.draw(st.integers(1, min(n, 12)))
        built = data.draw(st.booleans()) and _built(zsp, spec, m)
        blocks = list(built.blocks) if built else _chunks(data.draw(st.permutations(range(n))), m)
        blocks = [tuple(b) for b in _edit(blocks, data, n - 1)]
        assert verify_zsp(spec, blocks, m) == ref_verify_zsp(spec, blocks, m)

    @given(_SPECS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_verify_sized_partition(self, spec, data):
        n = spec.order
        rest = data.draw(st.permutations(range(1, n)))
        cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 2)), max_size=6)))
        blocks = [rest[a:b] for a, b in zip([0, *cuts], [*cuts, n - 1]) if a < b]
        blocks = _edit(blocks, data, n - 1)
        sizes = list(map(len, blocks))
        if data.draw(st.sampled_from((False,) * 3 + (True,))):
            sizes[0] += 1
        elements = [tuple(map(spec.element_at, b)) for b in blocks]
        assert verify_sized_partition(spec, elements, sizes) == ref_verify_sized_partition(spec, blocks, sizes)

    @given(_SPECS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_verify_triple_bijection(self, spec, data):
        n = spec.order
        built = data.draw(st.booleans()) and _built(triple_bijection, spec)
        if built:
            rows = [built.phi, built.psi]
        else:
            rows = [data.draw(st.permutations(range(n))) for _ in range(2)]
        phi, psi = _edit(rows, data, n)
        if data.draw(st.sampled_from((False,) * 3 + (True,))):
            phi = phi[:-1]
        tb = TripleBijection(spec, tuple(phi), tuple(psi))
        assert verify_triple_bijection(tb) == ref_verify_triple_bijection(tb)

    @given(_SPECS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_verify_kotzig(self, spec, data):
        n = spec.order
        j = data.draw(st.sampled_from((0, 1, 2, 3, 4, 5, 6)))
        built = data.draw(st.booleans()) and _built(build_group_kotzig, spec, j)
        rows = list(built.rows) if built else [data.draw(st.permutations(range(n))) for _ in range(j)]
        if rows and data.draw(st.booleans()):  # translate a row: the column sums stay constant
            t = spec.element_at(data.draw(st.integers(0, n - 1)))
            rows[0] = [spec.index_of(spec.add(spec.element_at(x), t)) for x in rows[0]]
        array = GroupKotzigArray(spec, tuple(map(tuple, _edit(rows, data, n))))
        assert verify_kotzig(array) == ref_verify_kotzig(array)

    @given(_SPECS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_weights(self, spec, data):
        n = spec.order
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, data.draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else ())
        labeling = Labeling(spec, tuple(data.draw(st.permutations(range(n)))))
        ws = ref_weights(g, labeling)
        assert weights(g, labeling) == ws
        verdict = verify_labeling(g, labeling)
        first = next((v for v in range(1, n) if ws[v] != ws[0]), None)
        assert (verdict.status, verdict.mu, verdict.witness) == (
            ("magic", ws[0], None) if first is None else ("not-magic", None, (0, first))
        )


# -- carry boundary ------------------------------------------------------------------

CARRY_SPECS = [
    (2, 2, 2),
    (4, 4),
    (2, 4, 8),
    (3, 3),
    (3, 3, 3),
    (2, 6),
    (6, 6),
    (2, 2, 3),
    (9, 3),
    (2, 12, 5),
    (16,),
    (7,),
]


class TestCarryBoundary:
    """Sums whose terms all reach f - 1 in a coordinate, the largest value a
    coordinate holds before it is summed."""

    def test_bijection_columns(self):
        # on Z3^k, phi = psi = identity is a triple bijection (3g = 0); the last
        # column is three copies of the element with every coordinate at 2
        for k in (1, 2, 3):
            spec = GroupSpec((3,) * k)
            ident = tuple(range(spec.order))
            tb = TripleBijection(spec, ident, ident)
            assert verify_triple_bijection(tb) == Check(True)
        for factors in CARRY_SPECS:  # elsewhere 3g = 0 fails somewhere: the reference names where
            spec = GroupSpec(factors)
            ident = tuple(range(spec.order))
            tb = TripleBijection(spec, ident, ident)
            assert verify_triple_bijection(tb) == ref_verify_triple_bijection(tb)

    def test_kotzig_columns(self):
        # j identical rows with j a multiple of every factor sum each column to j * g = 0;
        # the last column is j copies of the element with every coordinate at f - 1
        for factors in CARRY_SPECS:
            spec = GroupSpec(factors)
            ident = tuple(range(spec.order))
            for j in (max(factors), 2 * max(factors) - 1, spec.order):
                array = GroupKotzigArray(spec, (ident,) * j)
                assert verify_kotzig(array) == ref_verify_kotzig(array)
            assert verify_kotzig(GroupKotzigArray(spec, (ident,) * math.lcm(*factors))) == Check(True)

    def test_partition_blocks(self):
        # blocks are distinct elements, so the most a block can put in coordinate t is
        # every term at f_t - 1: the slices x_t = c, the slice c = f_t - 1 first
        for factors in CARRY_SPECS:
            spec = GroupSpec(factors)
            for t, f in enumerate(factors):
                slices = [
                    tuple(i for i in range(spec.order) if spec.element_at(i)[t] == c) for c in reversed(range(f))
                ]
                m = len(slices[0])
                assert verify_zsp(spec, slices, m) == ref_verify_zsp(spec, slices, m)

    def test_zero_sum_slices_accepted(self):
        # on Z_f^k (k >= 3, or k >= 2 for odd f) the slices x_t = c all sum to zero
        for factors in [(2, 2, 2), (4, 4, 4), (3, 3), (5, 5), (2, 2, 2, 2)]:
            spec = GroupSpec(factors)
            for t, f in enumerate(factors):
                slices = [
                    tuple(i for i in range(spec.order) if spec.element_at(i)[t] == c) for c in reversed(range(f))
                ]
                assert verify_zsp(spec, slices, len(slices[0])) == Check(True)

    def test_neighbourhoods(self):
        # vertex 0 (the identity) is joined to every vertex whose element has x_t = f_t - 1
        for factors in CARRY_SPECS:
            spec = GroupSpec(factors)
            labeling = Labeling(spec, tuple(range(spec.order)))
            for t, f in enumerate(factors):
                top = [i for i in range(spec.order) if spec.element_at(i)[t] == f - 1]
                g = Graph(spec.order, [(0, v) for v in top])
                assert weights(g, labeling) == ref_weights(g, labeling)
            everything = Graph(spec.order, [(0, v) for v in range(1, spec.order)])
            assert weights(everything, labeling) == ref_weights(everything, labeling)
