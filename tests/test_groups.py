import pytest
from conftest import elements, elements_of, group_specs
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zsmagic import (
    ArityError,
    GroupSpec,
    GroupSpecError,
    ParameterError,
    abelian_isomorphism_classes,
    canonical_factors,
    format_element,
    in_class_g,
    involution_count,
    involutions,
    parse_element,
    parse_group_spec,
    sum_all,
    two_part_split,
    two_torsion_rank,
)
from zsmagic.groups import (
    abelian_groups_up_to,
    element_names,
    element_texts,
    involution_closure,
    read_indices,
    write_rows,
)


class TestSpecGrammar:
    def test_parse_basic(self):
        assert parse_group_spec("Z2xZ2xZ4").factors == (2, 2, 4)
        assert parse_group_spec("z6").factors == (6,)
        assert parse_group_spec("Z2xz3").factors == (2, 3)

    def test_parse_errors_name_token(self):
        with pytest.raises(GroupSpecError, match="Q8"):
            parse_group_spec("Z2xQ8")
        with pytest.raises(GroupSpecError, match="Z1"):
            parse_group_spec("Z1xZ4")
        with pytest.raises(GroupSpecError):
            parse_group_spec("")

    def test_roundtrip(self):
        assert str(parse_group_spec("Z2xZ9")) == "Z2xZ9"

    def test_trivial_group_roundtrip(self):
        # Z1 alone is how the trivial group prints; as a product factor it stays refused
        assert str(GroupSpec(())) == "Z1"
        assert parse_group_spec("Z1") == parse_group_spec("z1") == GroupSpec(())

    def test_factor_validation(self):
        with pytest.raises(GroupSpecError):
            GroupSpec((1, 4))


class TestArithmetic:
    def test_add_z4(self):
        z4 = GroupSpec((4,))
        assert z4.add((3,), (2,)) == (1,)

    def test_neg_z2z4(self):
        assert GroupSpec((2, 4)).neg((1, 3)) == (1, 1)

    def test_scale_kills_two_torsion(self):
        assert GroupSpec((2, 2, 8)).scale(2, (1, 1, 3)) == (0, 0, 6)

    def test_negative_scale(self):
        z5 = GroupSpec((5,))
        assert z5.scale(-2, (1,)) == (3,)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            GroupSpec((2, 2)).add((1,), (0, 1))

    @given(group_specs(max_order=48))
    @settings(max_examples=60)
    def test_group_laws(self, spec):
        a = spec.element_at(min(3, spec.order - 1))
        b = spec.element_at(spec.order - 1)
        assert spec.add(a, spec.neg(a)) == spec.identity()
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.scale(3, a) == spec.add(a, spec.add(a, a))


def _raw_elements(spec, min_size=0, max_size=None):
    """Integer sequences of the right arity, unreduced: negative and large too."""
    coord = st.integers(-(10**12), 10**12) | st.integers(-40, 40)
    element = st.tuples(*[coord] * spec.arity)
    if max_size is None:
        return element
    return st.lists(element, min_size=min_size, max_size=max_size)


class TestArithmeticAgainstReference:
    """The arithmetic methods against the plain formula tuple(int(...) % f)."""

    @given(st.data())
    @settings(max_examples=150)
    def test_binary_and_unary(self, data):
        spec = data.draw(group_specs(max_order=10**12, max_factors=4, max_factor=1000))
        a = data.draw(_raw_elements(spec))
        b = data.draw(_raw_elements(spec))
        k = data.draw(st.integers(-(10**6), 10**6))
        fs = spec.factors
        assert spec.add(a, b) == tuple((int(x) + int(y)) % f for x, y, f in zip(a, b, fs))
        assert spec.sub(a, b) == tuple((int(x) - int(y)) % f for x, y, f in zip(a, b, fs))
        assert spec.neg(a) == tuple(-int(x) % f for x, f in zip(a, fs))
        assert spec.scale(k, a) == tuple(k * int(x) % f for x, f in zip(a, fs))
        assert spec.reduce(a) == tuple(int(x) % f for x, f in zip(a, fs))
        index = 0
        for x, f in zip(a, fs):
            index = index * f + int(x) % f
        assert spec.index_of(a) == index
        assert spec.element_at(spec.index_of(a)) == spec.reduce(a)

    @given(st.data())
    @settings(max_examples=100)
    def test_sum(self, data):
        spec = data.draw(group_specs(max_order=10**12, max_factors=4, max_factor=1000))
        elems = data.draw(_raw_elements(spec, 0, 12))
        expected = tuple(sum(int(e[t]) for e in elems) % f for t, f in enumerate(spec.factors))
        assert spec.sum(elems) == expected
        assert spec.sum(iter(elems)) == expected
        assert spec.sum(list(map(list, elems))) == expected

    @pytest.mark.parametrize(
        "call",
        [
            lambda g, bad, ok: g.reduce(bad),
            lambda g, bad, ok: g.add(bad, ok),
            lambda g, bad, ok: g.add(ok, bad),
            lambda g, bad, ok: g.sub(bad, ok),
            lambda g, bad, ok: g.sub(ok, bad),
            lambda g, bad, ok: g.neg(bad),
            lambda g, bad, ok: g.scale(3, bad),
            lambda g, bad, ok: g.sum([ok, bad, ok]),
            lambda g, bad, ok: g.index_of(bad),
        ],
        ids=["reduce", "add-left", "add-right", "sub-left", "sub-right", "neg", "scale", "sum", "index_of"],
    )
    @pytest.mark.parametrize("bad", [(1,), (1, 2, 3), ()])
    def test_wrong_arity_raises(self, call, bad):
        spec = GroupSpec((4, 6))
        with pytest.raises(ArityError):
            call(spec, bad, (1, 1))


class TestEnumeration:
    def test_z2z2_order(self):
        assert GroupSpec((2, 2)).elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_element_at_z6(self):
        assert GroupSpec((6,)).element_at(5) == (5,)

    @pytest.mark.parametrize("index", [-1, 6])
    def test_element_at_out_of_range(self, index):
        with pytest.raises(ParameterError, match=f"index {index} out of range for Z6"):
            GroupSpec((6,)).element_at(index)

    def test_index_of_mixed_radix(self):
        assert GroupSpec((2, 4)).index_of((1, 2)) == 6

    def test_order_bound(self):
        with pytest.raises(ParameterError):
            GroupSpec((2,) * 21).elements()
        assert len(GroupSpec((2, 2)).elements()) == 4

    @given(group_specs())
    @settings(max_examples=40)
    def test_index_inverse(self, spec):
        for i in (0, spec.order // 2, spec.order - 1):
            assert spec.index_of(spec.element_at(i)) == i

    def test_sorting_matches_index_order(self):
        spec = GroupSpec((3, 4))
        elems = spec.elements()
        assert sorted(elems) == elems


class TestInvolutions:
    def test_z4(self):
        assert involutions(GroupSpec((4,))) == ((2,),)

    def test_z2z2z3(self):
        assert involutions(GroupSpec((2, 2, 3))) == (
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 0),
        )

    def test_z9_empty(self):
        assert involutions(GroupSpec((9,))) == ()

    @given(group_specs(max_order=64))
    @settings(max_examples=50)
    def test_count_matches_rank(self, spec):
        elems = involutions(spec)
        assert len(elems) == 2 ** two_torsion_rank(spec) - 1 == involution_count(spec)
        for e in elems:
            assert spec.scale(2, e) == spec.identity()
            assert e != spec.identity()


class TestInvolutionClosure:
    @given(group_specs(max_order=256, max_factors=5))
    @example(GroupSpec(()))
    @example(GroupSpec((9,)))
    @example(GroupSpec((3, 5, 7)))
    @settings(max_examples=60)
    def test_indices_of_the_elements_of_order_at_most_two(self, spec):
        closure = involution_closure(spec)
        identity = spec.identity()
        assert closure == [i for i in range(spec.order) if spec.scale(2, spec.element_at(i)) == identity]
        for run in zip(*[iter(closure)] * 4):
            assert spec.sum(map(spec.element_at, run)) == identity


class TestSumAll:
    def test_z4(self):
        assert sum_all(GroupSpec((4,))) == (2,)

    def test_z5(self):
        assert sum_all(GroupSpec((5,))) == (0,)

    def test_z2z2(self):
        assert sum_all(GroupSpec((2, 2))) == (0, 0)

    def test_every_presentation_up_to_64(self):
        def presentations(bound):
            yield ()
            for f in range(2, bound + 1):
                for rest in presentations(bound // f):
                    yield (f, *rest)

        for factors in presentations(64):
            spec = GroupSpec(factors)
            assert sum_all(spec) == spec.sum(spec.elements()), spec

    def test_closed_form_matches_literal_fold_up_to_256(self):
        for spec in abelian_groups_up_to(256):
            assert sum_all(spec) == spec.sum(spec.elements()), spec


class TestClassG:
    def test_examples(self):
        assert in_class_g(GroupSpec((7,)))
        assert not in_class_g(GroupSpec((6,)))
        assert in_class_g(GroupSpec((2, 2, 4)))

    def test_z2z2z4_has_seven_involutions(self):
        assert involution_count(GroupSpec((2, 2, 4))) == 7


class TestCanonicalForm:
    def test_idempotent(self):
        spec = GroupSpec((6, 10))
        canon = GroupSpec(canonical_factors(spec))
        assert canonical_factors(canon) == canonical_factors(spec)

    def test_z6_is_z2xz3(self):
        assert canonical_factors(GroupSpec((6,))) == canonical_factors(GroupSpec((2, 3))) == (2, 3)

    def test_non_isomorphic(self):
        assert canonical_factors(GroupSpec((4,))) != canonical_factors(GroupSpec((2, 2)))

    @given(group_specs(max_order=64))
    @settings(max_examples=50)
    def test_presentation_invariance(self, spec):
        canon = GroupSpec(canonical_factors(spec))
        assert canon.order == spec.order
        assert involution_count(canon) == involution_count(spec)
        assert in_class_g(canon) == in_class_g(spec)
        assert (sum_all(spec) == spec.identity()) == (sum_all(canon) == canon.identity())


class TestSplits:
    def test_two_part_split_z18(self):
        two_spec, odd_spec, merged = two_part_split(GroupSpec((18,)))
        assert two_spec.factors == (2,)
        assert odd_spec.factors == (9,)
        # 7 is 1 mod 2 and 7 mod 9
        assert merged[1 * 9 + 7] == 7

    @given(group_specs(max_order=64, max_factors=4, max_factor=12))
    @settings(max_examples=40)
    def test_refinement_roundtrip(self, spec):
        two_spec, odd_spec, merged = two_part_split(spec)
        assert tuple(sorted(two_spec.factors + odd_spec.factors)) == canonical_factors(spec)
        assert all(f % 2 == 0 for f in two_spec.factors) and odd_spec.order % 2 == 1
        assert sorted(merged) == list(range(spec.order))
        assert merged[0] == 0
        # the merged table and its inverse undo each other on every index
        inverse = [0] * spec.order
        for pair, idx in enumerate(merged):
            inverse[idx] = pair
        assert all(merged[inverse[i]] == i for i in range(spec.order))

    @given(group_specs(max_order=64, max_factors=4, max_factor=12))
    @settings(max_examples=40)
    @example(GroupSpec((3, 6)))
    def test_split_is_homomorphic(self, spec):
        two_spec, odd_spec, merged = two_part_split(spec)
        n_odd = odd_spec.order

        def element(t, o):
            return spec.element_at(merged[t * n_odd + o])

        # a map that fixes 0 and adds every generator of the product is a homomorphism
        assert merged[0] == 0
        gens = [(i, 0) for i in two_spec.strides] + [(0, i) for i in odd_spec.strides]
        for t in range(two_spec.order):
            for o in range(n_odd):
                for gt, go in gens:
                    t2 = two_spec.index_of(two_spec.add(two_spec.element_at(t), two_spec.element_at(gt)))
                    o2 = odd_spec.index_of(odd_spec.add(odd_spec.element_at(o), odd_spec.element_at(go)))
                    assert element(t2, o2) == spec.add(element(t, o), element(gt, go))


class TestIsomorphismClasses:
    def test_order_16(self):
        classes = abelian_isomorphism_classes(16)
        assert len(classes) == 5
        assert GroupSpec((2, 2, 2, 2)) in classes
        assert GroupSpec((16,)) in classes

    @pytest.mark.parametrize("order", [0, -4])
    def test_order_must_be_positive(self, order):
        with pytest.raises(ParameterError, match="order must be positive"):
            abelian_isomorphism_classes(order)

    def test_order_12(self):
        classes = abelian_isomorphism_classes(12)
        assert sorted(c.factors for c in classes) == [(2, 2, 3), (4, 3)]

    def test_counts_well_known(self):
        # number of Abelian groups of order 2^k is the partition count p(k)
        assert len(abelian_isomorphism_classes(32)) == 7
        assert len(abelian_isomorphism_classes(36)) == 4


class TestElementText:
    def test_single_factor_bare(self):
        assert format_element((5,)) == "5"
        assert parse_element("5") == (5,)

    def test_tuple(self):
        assert format_element((1, 0, 2)) == "(1,0,2)"
        assert parse_element("(1,0,2)") == (1, 0, 2)

    @given(group_specs(), st.data())
    @settings(max_examples=40)
    def test_roundtrip(self, spec, data):
        e = data.draw(elements_of(spec))
        assert spec.reduce(parse_element(format_element(e))) == e


# pieces of element tokens, valid and not; an element token is a few of them run together
TOKEN_PIECES = ["(", ")", ",", "0", "1", "7", "-3", "12", " 2", "x", "", "()", "(1,2)", "1_0", "),("]


def _read_one_by_one(spec, rows):
    """The reference reader: one ``parse_element`` and one ``reduce`` per token."""
    try:
        return [tuple(spec.reduce(parse_element(t)) for t in row) for row in rows]
    except ArityError as exc:
        raise GroupSpecError(str(exc)) from exc


class TestReadElements:
    @given(group_specs(), st.data())
    @settings(max_examples=60)
    def test_rows_roundtrip(self, spec, data):
        rows = data.draw(st.lists(st.lists(elements_of(spec), max_size=4), max_size=4))
        text = write_rows(element_texts(spec), "header", [list(map(spec.index_of, r)) for r in rows])
        read = read_indices(spec, [ln.split() for ln in text.splitlines()[1:]])
        assert list(elements(spec, read)) == [tuple(r) for r in rows]

    @given(
        st.sampled_from([GroupSpec(()), GroupSpec((5,)), GroupSpec((2, 4)), GroupSpec((3, 3, 6))]),
        st.lists(st.lists(st.lists(st.sampled_from(TOKEN_PIECES), max_size=5).map("".join), max_size=3), max_size=3),
    )
    @settings(max_examples=400)
    def test_agrees_with_reading_one_token_at_a_time(self, spec, rows):
        """Same elements as the reference, or a ``GroupSpecError`` from both."""
        try:
            expected = _read_one_by_one(spec, rows)
        except GroupSpecError:
            with pytest.raises(GroupSpecError):
                elements(spec, read_indices(spec, rows))
            with pytest.raises(GroupSpecError):
                list(read_indices(spec, rows))
        else:
            assert list(elements(spec, read_indices(spec, rows))) == expected
            assert list(read_indices(spec, rows)) == [list(map(spec.index_of, row)) for row in expected]

    @pytest.mark.parametrize("spec", [GroupSpec(()), GroupSpec((5,)), GroupSpec((2, 2, 3))], ids=str)
    @given(data=st.data())
    @settings(max_examples=60)
    def test_written_and_other_spellings_in_one_row(self, spec, data):
        """A body that covers the group, with rows mixing tokens spelled as
        ``format_element`` writes them and other spellings, reads as the reference does."""
        written = [format_element(e) for e in spec.elements()]
        others = ["(7)", "-1", "(1, 5)", "(-1,+2)", "(7, -1, +2)", "(1,5,-1)"]
        extra = data.draw(st.lists(st.sampled_from(others), max_size=3))
        rows = [data.draw(st.permutations(written + extra)), data.draw(st.lists(st.sampled_from(written + others), max_size=4))]
        try:
            expected = _read_one_by_one(spec, rows)
        except GroupSpecError:
            with pytest.raises(GroupSpecError):
                elements(spec, read_indices(spec, rows))
        else:
            assert list(elements(spec, read_indices(spec, rows))) == expected

    @given(group_specs(max_order=256, max_factors=4))
    @example(GroupSpec(()))
    @settings(max_examples=60)
    def test_element_names(self, spec):
        assert element_names(spec) == {format_element(e): i for i, e in enumerate(spec.elements())}
        assert element_texts(spec) == [format_element(spec.element_at(i)) for i in range(spec.order)]

    def test_unwritten_spellings_still_read(self):
        for spec, rows, expected in [
            (GroupSpec((5,)), [["(7)", "-1"]], [((2,), (4,))]),
            (GroupSpec(()), [["()"], []], [((),), ()]),
            (GroupSpec((2, 4)), [["(1, 5)", "(-1,+2)"]], [((1, 1), (1, 2))]),
        ]:
            assert list(elements(spec, read_indices(spec, rows))) == expected

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([["(0,0),(0,1)"], ["(1,0)"], ["(1,1)"]], id="two-elements-in-one-token"),
            pytest.param([["(0,0),(0,1)", "(1 1)"]], id="two-elements-in-one-token-then-a-split-one"),
            pytest.param([["(0,0)", "(1"], ["1)"]], id="one-element-split-over-two-tokens"),
            pytest.param([["(0,0)", "(1", "1)"]], id="one-element-split-within-a-row"),
        ],
    )
    def test_each_token_is_one_element(self, rows):
        with pytest.raises(GroupSpecError, match="bad element"):
            list(read_indices(GroupSpec((2, 2)), rows))

    def test_long_bodies_read_in_chunks(self):
        spec = GroupSpec((7, 9))
        rows = [[f"({r % 7},{c})" for c in range(r % 5)] for r in range(5000)]
        expected = [tuple((r % 7, c) for c in range(r % 5)) for r in range(5000)]
        assert list(elements(spec, read_indices(spec, rows))) == expected
        rows[4321][0] = "(1,2,3)"
        with pytest.raises(GroupSpecError, match=r"element \(1, 2, 3\) has 3 coordinates"):
            list(read_indices(spec, rows))
