import hashlib
import math
import tracemalloc
from itertools import permutations

import pytest
from conftest import elements, group_specs, images, indices
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zsmagic import (
    DivisibilityError,
    GroupSpec,
    ImpossibilityError,
    NonexistenceError,
    ParameterError,
    base_tables,
    build_group_kotzig,
    build_int_kotzig,
    bijection_to_text,
    in_class_g,
    involution_count,
    involution_quadruples,
    involutions,
    partition_to_text,
    search_triple_bijection,
    triple_bijection,
    verify_kotzig,
    verify_triple_bijection,
    verify_zsp,
    zsp,
    zsp_even,
    zsp_odd,
)
from zsmagic.groups import abelian_groups_up_to, multiples, two_part_split
from zsmagic.zsp import RESIDUE_TRIPLES_2_2_8, _tb_from_phi


class TestSeedTables:
    def test_all_three_pass_invariants(self):
        tables = base_tables()
        assert set(tables) == {(2, 2, 2), (2, 2, 4), (2, 2, 8)}
        for factors, tb in tables.items():
            assert verify_triple_bijection(tb).ok, factors

    def test_sample_columns_2_2_2(self):
        tb = base_tables()[(2, 2, 2)]
        assert images(tb, (0, 0, 0)) == ((0, 0, 1), (0, 0, 1))
        assert images(tb, (0, 0, 1)) == ((1, 1, 1), (1, 1, 0))
        assert images(tb, (1, 1, 1)) == ((1, 0, 1), (0, 1, 0))

    def test_sample_columns_2_2_4(self):
        tb = base_tables()[(2, 2, 4)]
        assert images(tb, (0, 1, 0)) == ((1, 1, 2), (1, 0, 2))
        assert images(tb, (0, 0, 3)) == ((0, 0, 0), (0, 0, 1))
        assert images(tb, (1, 0, 2)) == ((1, 1, 3), (0, 1, 3))

    def test_residue_triples(self):
        assert RESIDUE_TRIPLES_2_2_8 == (
            (2, 3, 3),
            (7, 2, 7),
            (5, 6, 5),
            (6, 1, 1),
            (1, 5, 2),
            (3, 7, 6),
        )
        tb = base_tables()[(2, 2, 8)]
        for a, b, c in RESIDUE_TRIPLES_2_2_8:
            assert images(tb, (0, 0, a)) == ((0, 0, b), (0, 0, c))
            assert images(tb, (0, 1, a)) == ((1, 0, b), (1, 1, c))
            assert images(tb, (1, 0, a)) == ((1, 1, b), (0, 1, c))
            assert images(tb, (1, 1, a)) == ((0, 1, b), (1, 0, c))


class TestInvolutionQuadruples:
    def test_klein_four_single_block(self):
        spec = GroupSpec((2, 2))
        part = involution_quadruples(spec)
        assert elements(spec, part.blocks) == (((0, 0), (0, 1), (1, 0), (1, 1)),)

    def test_rank_three_prefix_structure(self):
        spec = GroupSpec((2, 2, 2))
        part = involution_quadruples(spec)
        assert len(part.blocks) == 2
        prefixes = [{e[0] for e in blk} for blk in elements(spec, part.blocks)]
        assert sorted(map(tuple, prefixes)) == [(0,), (1,)]

    def test_rank_four(self):
        spec = GroupSpec((2, 2, 2, 2))
        part = involution_quadruples(spec)
        assert len(part.blocks) == 4
        universe = (spec.identity(),) + involutions(spec)
        assert verify_zsp(spec, part, 4, universe=set(indices(spec, universe))).ok

    def test_single_involution_rejected(self):
        with pytest.raises(ParameterError):
            involution_quadruples(GroupSpec((4,)))

    @given(group_specs(max_order=64))
    @settings(max_examples=40)
    def test_partitions_closure_into_zero_sum_quadruples(self, spec):
        rank = sum(1 for f in spec.factors if f % 2 == 0)
        if rank < 2:
            return
        part = involution_quadruples(spec)
        assert len(part.blocks) == 2 ** (rank - 2)
        universe = (spec.identity(),) + involutions(spec)
        assert verify_zsp(spec, part, 4, universe=set(indices(spec, universe))).ok


class TestTripleBijection:
    def test_seed_example(self):
        tb = triple_bijection(GroupSpec((2, 2, 2)))
        assert images(tb, (0, 0, 1)) == ((1, 1, 1), (1, 1, 0))

    def test_odd_closed_form(self):
        tb = triple_bijection(GroupSpec((5,)))
        assert images(tb, (1,)) == ((1,), (3,))

    @given(
        st.lists(st.integers(1, 31).map(lambda x: 2 * x + 1), min_size=1, max_size=4)
        .filter(lambda fs: math.prod(fs) <= 4095)
        .map(lambda fs: GroupSpec(tuple(fs)))
    )
    @example(GroupSpec((15,)))
    @example(GroupSpec((3, 45)))
    @example(GroupSpec((4095,)))
    @settings(max_examples=60, deadline=None)
    def test_odd_order_is_the_identity(self, spec):
        # on odd order phi is the identity and psi is g -> -2g, with no 2-part split
        tb = triple_bijection(spec)
        assert tb.phi == tuple(range(spec.order))
        assert list(tb.psi) == multiples(spec, -2)

    def test_klein_four_by_search(self):
        tb = triple_bijection(GroupSpec((2, 2)))
        assert verify_triple_bijection(tb).ok

    def test_single_involution_refused(self):
        for factors in ((2,), (4,), (6,), (12,)):
            with pytest.raises(NonexistenceError):
                triple_bijection(GroupSpec(factors))

    def test_mixed_presentation(self):
        for factors in ((6, 2), (12, 2), (2, 18), (6, 6)):
            spec = GroupSpec(factors)
            assert verify_triple_bijection(triple_bijection(spec)).ok, factors

    def test_ladder_consistency_with_search(self):
        # where both the structured route and the exhaustive oracle apply,
        # both verify
        for factors in ((2, 2, 3), (2, 2, 2), (2, 4)):
            spec = GroupSpec(factors)
            assert verify_triple_bijection(triple_bijection(spec)).ok
            report = search_triple_bijection(spec)
            assert report.found and verify_triple_bijection(report.witness).ok

    def test_search_cap(self):
        with pytest.raises(ParameterError):
            search_triple_bijection(GroupSpec((2, 16)))

    def test_works_for_every_admissible_group_up_to_48(self):
        for spec in abelian_groups_up_to(48):
            if in_class_g(spec):
                assert verify_triple_bijection(triple_bijection(spec)).ok, spec

    def test_doubling_rung_on_every_rank_three_two_group_up_to_2_14(self):
        # every rank-3 2-group class outside the seed tables, past the order-64 sweeps;
        # to order 1024 also the odd-m partition and odd-j array of its product with Z3
        classes = [
            (1 << a, 1 << b, 1 << c)
            for a in range(1, 13)
            for b in range(a, 13)
            for c in range(b, 13)
            if a + b + c <= 14 and (1 << a, 1 << b, 1 << c) not in base_tables()
        ]
        assert len(classes) == 80
        for factors in classes:
            spec = GroupSpec(factors)
            assert verify_triple_bijection(triple_bijection(spec)).ok, factors
            if spec.order <= 1024:
                spec3 = GroupSpec(factors + (3,))
                assert verify_zsp(spec3, zsp(spec3, 3), 3).ok, factors
                assert verify_kotzig(build_group_kotzig(spec3, 3)).ok, factors

    def test_pinned_bijections(self):
        # every coordinate order reaches the ladder with another enumeration;
        # the larger groups reach the doubling rung at depth and the product
        # of three 2-parts
        orders = {
            (s.order, p) for s in abelian_groups_up_to(64) if in_class_g(s) for p in permutations(s.factors)
        }
        factors = [p for _order, p in sorted(orders)]
        factors += [(2, 2, 1024), (4, 8, 128), (2, 6, 384), (2, 2, 4, 4, 8), (2,) * 6]
        assert len(factors) == 207
        texts = [bijection_to_text(triple_bijection(GroupSpec(f))) for f in factors]
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
            "a37e9a89ab4c2d026dafaa2eb91e0e6802e2cf42decfa25c5297aea97883cfe1"
        )

    def test_pinned_rank_two_and_seed_bijections(self):
        # every Z_m x Z_n with 2 <= m <= n powers of 2 up to order 2^14, the three seed
        # tables and an odd order: the triple bijections that no rank-3 rung reaches
        pairs = [(1 << a, 1 << b) for a in range(1, 14) for b in range(a, 14) if a + b <= 14]
        assert len(pairs) == 49
        factors = pairs + list(base_tables()) + [(5,)]
        texts = [bijection_to_text(triple_bijection(GroupSpec(f))) for f in factors]
        assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
            "25098e14e8b26a8608e30f5659692a0afb0cce14b486478b41621b1d16394b6f"
        )


class TestIndexSums:
    """The ladder's index arithmetic against ``GroupSpec.add`` and ``neg``, on
    presentations with unsorted, odd and single factors and on Z1."""

    @given(group_specs(max_order=96, max_factors=4), st.data())
    @example(GroupSpec(()), None)
    @example(GroupSpec((6, 2)), None)
    @example(GroupSpec((9,)), None)
    @example(GroupSpec((3, 5, 2)), None)
    @settings(max_examples=60)
    def test_minus_sum_of_random_index_pairs(self, spec, data):
        n = spec.order
        phi = [data.draw(st.integers(0, n - 1)) for _ in range(n)] if data else [(7 * i + 3) % n for i in range(n)]
        psi = _tb_from_phi(spec, phi).psi
        for i, j in enumerate(phi):
            assert psi[i] == spec.index_of(spec.neg(spec.add(spec.element_at(i), spec.element_at(j))))

    def test_psi_is_minus_g_minus_phi_in_every_factor_order(self):
        for spec in abelian_groups_up_to(64):
            for factors in set(permutations(spec.factors)) if in_class_g(spec) else ():
                s = GroupSpec(factors)
                tb = triple_bijection(s)
                for g, (p, q) in enumerate(zip(tb.phi, tb.psi)):
                    assert q == s.index_of(s.neg(s.add(s.element_at(g), s.element_at(p)))), (factors, g)


class TestVerifyZsp:
    def test_accepts_z9_triples(self):
        spec = GroupSpec((9,))
        blocks = [[(0,), (1,), (8,)], [(2,), (3,), (4,)], [(5,), (6,), (7,)]]
        assert verify_zsp(spec, indices(spec, blocks), 3).ok

    def test_rejects_bad_sum_and_reports_block(self):
        spec = GroupSpec((9,))
        blocks = [[(0,), (1,), (2,)], [(3,), (4,), (5,)], [(6,), (7,), (8,)]]
        check = verify_zsp(spec, indices(spec, blocks), 3)
        assert not check.ok
        assert check.row == 0
        assert "sums to 3" in check.reason

    def test_rejects_pairs(self):
        spec = GroupSpec((4,))
        check = verify_zsp(spec, indices(spec, [[(0,), (1,)], [(2,), (3,)]]), 2)
        assert not check.ok
        assert check.row == 0

    def test_rejects_bad_size(self):
        spec = GroupSpec((9,))
        check = verify_zsp(spec, indices(spec, [[(0,), (1,)], [(2,)]]), 3)
        assert not check.ok

    def test_rejects_missing_cover(self):
        spec = GroupSpec((3, 3))
        part = zsp(spec, 3)
        check = verify_zsp(spec, part.blocks[:-1], 3)
        assert not check.ok
        assert "cover" in check.reason

    def test_rejects_duplicates(self):
        spec = GroupSpec((9,))
        blocks = [[(0,), (1,), (8,)], [(1,), (3,), (5,)], [(2,), (6,), (7,)]]
        assert not verify_zsp(spec, indices(spec, blocks), 3).ok

    @pytest.mark.parametrize("bad", [-1, 3, 5])
    def test_rejects_an_index_outside_the_group(self, bad):
        # rejected as a result, with the index named as written: it is no element to format
        check = verify_zsp(GroupSpec((3,)), [(bad, 0, 1)], 3)
        assert (check.ok, check.row) == (False, 0)
        assert check.reason == f"block 0 contains index {bad} outside the universe"


class TestZspEven:
    def test_klein_four_whole_group(self):
        spec = GroupSpec((2, 2))
        part = zsp_even(spec, 4)
        assert elements(spec, part.blocks) == (((0, 0), (0, 1), (1, 0), (1, 1)),)

    def test_z2z2z3_blocks_of_six(self):
        spec = GroupSpec((2, 2, 3))
        part = zsp_even(spec, 6)
        assert len(part.blocks) == 2
        assert verify_zsp(spec, part, 6).ok

    def test_single_involution_refused(self):
        with pytest.raises(NonexistenceError):
            zsp_even(GroupSpec((8,)), 4)

    @pytest.mark.parametrize(
        "factors, m, digest",
        [
            # m = 2 mod 4: every block is seeded with a reserved inverse pair
            ((2, 6, 48), 6, "5d1e067d3dae01b02ae47691c548b57b4a16c27c2cf0e06cd4e4b5feeae95c15"),
            # m = 0 mod 4: blocks start empty
            ((2,) * 6, 4, "8f90b18a0a7b1ea6afe2a89c38a049b58419225959e693c3888b7abf6b4ded26"),
        ],
    )
    def test_pinned_certificates(self, factors, m, digest):
        text = partition_to_text(zsp(GroupSpec(factors), m))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            zsp_even(GroupSpec((2, 2, 3)), 3)
        with pytest.raises(DivisibilityError):
            zsp_even(GroupSpec((2, 2)), 8)


class TestZspOdd:
    def test_z9(self):
        spec = GroupSpec((9,))
        part = zsp_odd(spec, 3)
        assert verify_zsp(spec, part, 3).ok

    def test_z2z2z3_lifting(self):
        spec = GroupSpec((2, 2, 3))
        part = zsp_odd(spec, 3)
        assert len(part.blocks) == 4
        assert verify_zsp(spec, part, 3).ok

    @pytest.mark.parametrize("m", [1, 4])
    def test_block_size_must_be_odd_and_at_least_three(self, m):
        with pytest.raises(ParameterError, match="odd and >= 3"):
            zsp_odd(GroupSpec((9,)), m)

    def test_z6_refused(self):
        with pytest.raises(NonexistenceError):
            zsp_odd(GroupSpec((6,)), 3)

    def test_mixed_presentation_lifting(self):
        spec = GroupSpec((6, 6))
        part = zsp_odd(spec, 3)
        assert verify_zsp(spec, part, 3).ok

    def test_every_odd_order_group_up_to_243(self):
        instances = 0
        for spec in abelian_groups_up_to(243):
            if spec.order % 2 == 0:
                continue
            for m in range(3, spec.order + 1, 2):
                if spec.order % m == 0:
                    assert verify_zsp(spec, zsp(spec, m), m).ok, (spec, m)
                    instances += 1
        assert instances == 476

    def test_mixed_odd_presentations(self):
        # the subgroup is picked factor by factor, so no prime-power
        # refinement is needed
        for factors in ((3, 15), (5, 15), (9, 15, 5), (15, 15), (21, 3)):
            spec = GroupSpec(factors)
            for m in range(3, spec.order + 1, 2):
                if spec.order % m == 0:
                    assert verify_zsp(spec, zsp_odd(spec, m), m).ok, (spec, m)


class TestZspDispatcher:
    def test_quadruples_in_z2z2z3(self):
        spec = GroupSpec((2, 2, 3))
        part = zsp(spec, 4)
        assert len(part.blocks) == 3
        assert verify_zsp(spec, part, 4).ok

    def test_whole_group_z7(self):
        spec = GroupSpec((7,))
        part = zsp(spec, 7)
        assert elements(spec, part.blocks) == (((0,), (1,), (2,), (3,), (4,), (5,), (6,)),)

    def test_m_two_always_impossible(self):
        with pytest.raises(ImpossibilityError):
            zsp(GroupSpec((4,)), 2)
        with pytest.raises(ImpossibilityError):
            zsp(GroupSpec((9,)), 2)

    def test_divisibility(self):
        with pytest.raises(DivisibilityError):
            zsp(GroupSpec((9,)), 6)

    def test_m_one_rejected(self):
        with pytest.raises(ParameterError):
            zsp(GroupSpec((9,)), 1)

    def test_single_involution_refused(self):
        with pytest.raises(NonexistenceError):
            zsp(GroupSpec((12,)), 3)

    def test_all_groups_to_32_all_divisors(self):
        for spec in abelian_groups_up_to(32):
            if not in_class_g(spec):
                continue
            for m in range(3, spec.order + 1):
                if spec.order % m == 0:
                    assert verify_zsp(spec, zsp(spec, m), m).ok, (spec, m)


@pytest.mark.parametrize(
    "build",
    [
        lambda: zsp(GroupSpec((1594323,)), 3),
        lambda: zsp_odd(GroupSpec((2, 2, 3 * 2305843009213693951)), 3),
        lambda: triple_bijection(GroupSpec((2, 2, 2305843009213693951))),
        lambda: two_part_split(GroupSpec((2, 2, 2305843009213693951))),
        lambda: build_int_kotzig(2, 200000000),
        lambda: involution_quadruples(GroupSpec((2,) * 22)),
    ],
    ids=["zsp-odd-order", "zsp-odd", "bijection", "split", "int-kotzig", "quadruples"],
)
def test_orders_above_the_bound_are_refused_before_any_work(build):
    # refused before factoring the huge prime factor or building anything of that size
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match="exceeds the bound"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
