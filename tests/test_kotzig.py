import tracemalloc

import pytest
from conftest import elements, indices

from zsmagic import (
    GroupSpec,
    ImpossibilityError,
    IntKotzigArray,
    GroupKotzigArray,
    NonexistenceError,
    ParameterError,
    build_group_kotzig,
    build_int_kotzig,
    in_class_g,
    verify_kotzig,
)
from zsmagic.groups import Check, abelian_groups_up_to

Z3 = GroupSpec((3,))
GROUP_ROW = "row %d is not a permutation of the group"
INT_ROW = "row %d is not a permutation of 0..2"


class TestGroupBuilders:
    def test_two_rows_z3(self):
        spec = GroupSpec((3,))
        array = build_group_kotzig(spec, 2)
        assert elements(spec, array.rows) == (((0,), (1,), (2,)), ((0,), (2,), (1,)))
        assert array.column_sum() == (0,)

    def test_two_rows_self_inverse_group(self):
        array = build_group_kotzig(GroupSpec((2, 2)), 2)
        assert array.rows[0] == array.rows[1]
        assert array.column_sum() == (0, 0)

    def test_two_rows_z4(self):
        spec = GroupSpec((4,))
        array = build_group_kotzig(spec, 2)
        assert elements(spec, array.rows) == (((0,), (1,), (2,), (3,)), ((0,), (3,), (2,), (1,)))

    def test_three_rows_odd_group(self):
        spec = GroupSpec((5,))
        array = build_group_kotzig(spec, 3)
        assert array.rows[0] == array.rows[1]  # odd order: phi is the identity
        assert elements(spec, array.rows)[2] == tuple(((-2 * g) % 5,) for g in range(5))
        assert verify_kotzig(array).ok

    def test_three_rows_from_seed_table(self):
        spec = GroupSpec((2, 2, 2))
        array = build_group_kotzig(spec, 3)
        assert verify_kotzig(array).ok
        assert array.column_sum() == (0, 0, 0)

    def test_three_rows_single_involution_refused(self):
        with pytest.raises(NonexistenceError):
            build_group_kotzig(GroupSpec((6,)), 3)

    def test_stacked_even(self):
        array = build_group_kotzig(GroupSpec((4,)), 4)
        assert array.j == 4
        assert verify_kotzig(array).ok
        assert array.column_sum() == (0,)

    def test_stacked_odd(self):
        array = build_group_kotzig(GroupSpec((2, 2, 3)), 5)
        assert array.j == 5 and array.k == 12
        assert verify_kotzig(array).ok
        assert array.column_sum() == (0, 0, 0)

    def test_odd_rows_single_involution_refused(self):
        with pytest.raises(NonexistenceError):
            build_group_kotzig(GroupSpec((4,)), 3)

    def test_single_row_impossible(self):
        with pytest.raises(ImpossibilityError):
            build_group_kotzig(GroupSpec((4,)), 1)

    def test_single_row_trivial_group(self):
        array = build_group_kotzig(GroupSpec(()), 1)
        assert array.rows == ((0,),)
        assert verify_kotzig(array).ok

    def test_full_parameter_range(self):
        for spec in abelian_groups_up_to(16):
            for j in range(2, 7):
                if j % 2 == 1 and not in_class_g(spec):
                    continue
                array = build_group_kotzig(spec, j)
                assert verify_kotzig(array).ok
                assert array.column_sum() == spec.identity()


class TestIntBuilders:
    def test_two_by_four(self):
        array = build_int_kotzig(2, 4)
        assert array.rows == ((0, 1, 2, 3), (3, 2, 1, 0))
        assert array.column_sum() == 3

    def test_three_by_three(self):
        array = build_int_kotzig(3, 3)
        assert verify_kotzig(array).ok
        assert array.column_sum() == 3

    def test_parity_obstruction(self):
        with pytest.raises(NonexistenceError):
            build_int_kotzig(3, 4)

    @pytest.mark.parametrize("j, k", [(0, 3), (3, 0), (-1, 1)])
    def test_dimensions_must_be_positive(self, j, k):
        with pytest.raises(ParameterError, match="grid dimensions must be positive"):
            build_int_kotzig(j, k)

    def test_single_row_impossible(self):
        with pytest.raises(ImpossibilityError):
            build_int_kotzig(1, 5)

    def test_single_cell(self):
        array = build_int_kotzig(1, 1)
        assert array.rows == ((0,),)
        assert verify_kotzig(array).ok

    def test_column_sum_formula(self):
        for j in range(2, 6):
            for k in range(2, 10):
                if (j * (k - 1)) % 2 != 0:
                    continue
                array = build_int_kotzig(j, k)
                assert verify_kotzig(array).ok
                assert array.column_sum() == j * (k - 1) // 2


class TestVerifier:
    def test_accepts_built_arrays(self):
        assert verify_kotzig(build_group_kotzig(GroupSpec((3,)), 2)).ok
        assert verify_kotzig(build_int_kotzig(2, 4)).ok

    def test_rejects_duplicate_row(self):
        spec = GroupSpec((3,))
        row = ((0,), (1,), (2,))
        check = verify_kotzig(GroupKotzigArray(spec, indices(spec, (row, row))))
        assert not check.ok
        assert check.col == 1

    def test_rejects_non_permutation_row(self):
        check = verify_kotzig(IntKotzigArray(3, ((0, 1, 2), (0, 0, 2))))
        assert not check.ok
        assert check.row == 1

    def test_accepts_nonidentity_constant_sum(self):
        spec = GroupSpec((3,))
        rows = (((0,), (1,), (2,)), ((1,), (0,), (2,)))
        array = GroupKotzigArray(spec, indices(spec, rows))
        assert verify_kotzig(array).ok
        assert array.column_sum() == (1,)

    def test_rejects_array_without_rows(self):
        assert not verify_kotzig(GroupKotzigArray(GroupSpec((5,)), ())).ok
        assert not verify_kotzig(IntKotzigArray(3, ())).ok

    def test_rejects_unknown_type(self):
        with pytest.raises(ParameterError, match=r"not a Kotzig array: \[\[0, 1\], \[1, 0\]\]"):
            verify_kotzig([[0, 1], [1, 0]])

    @pytest.mark.parametrize(
        "array, verdict",
        [
            (GroupKotzigArray(Z3, ((0, 1, 2), (0, 0, 2), (0, 1))), Check(False, row=1, reason=GROUP_ROW % 1)),
            (GroupKotzigArray(Z3, ((0, 1, 2), (0, 1), (0, 0, 2))), Check(False, row=1, reason=GROUP_ROW % 1)),
            (GroupKotzigArray(Z3, ((0, 1),)), Check(False, row=0, reason=GROUP_ROW % 0)),
            (GroupKotzigArray(Z3, ((0, 1, 2, 0),)), Check(False, row=0, reason=GROUP_ROW % 0)),
            (GroupKotzigArray(Z3, ((2, 1, 0), (0, 1, 3))), Check(False, row=1, reason=GROUP_ROW % 1)),
            (IntKotzigArray(3, ((0, 1, 2), (0, 0, 2), (0, 1))), Check(False, row=1, reason=INT_ROW % 1)),
            (IntKotzigArray(3, ((0, 1, 2), (2, 1), (0, 0, 2))), Check(False, row=1, reason=INT_ROW % 1)),
            (IntKotzigArray(3, ((0, 1),)), Check(False, row=0, reason=INT_ROW % 0)),
            (IntKotzigArray(3, ((2, 1, 0), (0, 1, 3))), Check(False, row=1, reason=INT_ROW % 1)),
            (GroupKotzigArray(Z3, ()), Check(False, reason="the array has no rows")),
            (IntKotzigArray(3, ()), Check(False, reason="the array has no rows")),
            (
                GroupKotzigArray(Z3, ((0, 1, 2), (0, 1, 2))),
                Check(False, col=1, reason="column 1 sums to (2,), column 0 to (0,)"),
            ),
            (
                IntKotzigArray(3, ((0, 1, 2), (0, 1, 2))),
                Check(False, col=1, reason="column 1 sums to 2, column 0 to 0"),
            ),
            (
                GroupKotzigArray(Z3, ((2, 1, 0), (1, 0, 2))),
                Check(False, col=1, reason="column 1 sums to (1,), column 0 to (0,)"),
            ),
        ],
    )
    def test_pinned_reasons(self, array, verdict):
        """The first failing row wins, whatever comes after it; columns are read only once every row passes."""
        assert verify_kotzig(array) == verdict

    @pytest.mark.parametrize(
        "array, verdict",
        [
            (GroupKotzigArray(GroupSpec((1 << 21,)), ()), Check(False, reason="the array has no rows")),
            (
                GroupKotzigArray(GroupSpec((1 << 21,)), ((0,),)),
                Check(False, row=0, reason="row 0 is not a permutation of the group"),
            ),
            (
                IntKotzigArray(1 << 24, ((0,),)),
                Check(False, row=0, reason=f"row 0 is not a permutation of 0..{(1 << 24) - 1}"),
            ),
        ],
        ids=["group-past-bound-empty", "group-past-bound-short-row", "int-short-row"],
    )
    def test_short_array_rejected_without_order_sized_rows(self, array, verdict):
        """An empty or short-row array is rejected before anything of the group's size is
        built, and is rejected, not refused, past the order bound."""
        tracemalloc.start()
        try:
            check = verify_kotzig(array)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert check == verdict
        assert peak < 16 * 2**20
