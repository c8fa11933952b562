"""Builders and verifiers for group and integer Kotzig arrays.

A Kotzig array is a j x k grid whose rows are permutations (of a group of
order k, or of 0..k-1) and whose columns all have the same sum.  A group
array holds element indices; the verifier sums each column once from a
``groups.PackedTable``.  Group arrays built here always reach column
sum identity; the verifier accepts any constant column sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GroupSpecError,
    ImpossibilityError,
    NonexistenceError,
    ParameterError,
)
from .groups import Check, Element, GroupSpec, PackedTable, check_order, checked, header_fields, in_class_g
from .groups import element_texts, multiples, parse_group_spec, parse_ints, read_header, read_indices, write_rows
from .zsp import triple_bijection


@dataclass(frozen=True)
class GroupKotzigArray:
    spec: GroupSpec
    rows: tuple[tuple[int, ...], ...]

    @property
    def j(self) -> int:
        return len(self.rows)

    @property
    def k(self) -> int:
        return self.spec.order

    def column_sum(self) -> Element:
        return self.spec.sum(self.spec.element_at(row[0]) for row in self.rows)


@dataclass(frozen=True)
class IntKotzigArray:
    k: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def j(self) -> int:
        return len(self.rows)

    def column_sum(self) -> int:
        return sum(row[0] for row in self.rows)


def verify_kotzig(array) -> Check:
    """Check the row-permutation and constant-column-sum properties.

    Reports the first violating row or column.  Group arrays may have any
    constant column sum; integer column sums are forced to j(k-1)/2 by
    the row sums anyway.  An array without rows is rejected, and nothing
    of size k is built until row 0 has k entries.  Once every row is a
    permutation, each group column is summed once from a ``PackedTable``.
    """
    if isinstance(array, GroupKotzigArray):
        what = "the group"
    elif isinstance(array, IntKotzigArray):
        what = f"0..{array.k - 1}"
    else:
        raise ParameterError(f"not a Kotzig array: {array!r}")
    rows, k = array.rows, array.k
    if not rows:
        return Check(False, reason="the array has no rows")
    identity = tuple(range(k)) if len(rows[0]) == k else ()
    reverse = identity[::-1]
    for r, row in enumerate(rows):
        if len(row) != k or (row != identity and row != reverse and not set(row).issuperset(identity)):
            return Check(False, row=r, reason=f"row {r} is not a permutation of {what}")
    if isinstance(array, GroupKotzigArray):
        packed = PackedTable(array.spec, array.j)
        sums = list(map(sum, zip(*(map(packed.table.__getitem__, row) for row in rows))))
        c, name = packed.first_unlike(sums, sums[0]), packed.element
    else:
        sums, name = list(map(sum, zip(*rows))), str
        c = next(c for c, s in enumerate(sums) if s != sums[0]) if len(set(sums)) > 1 else None
    if c is not None:
        return Check(False, col=c, reason=f"column {c} sums to {name(sums[c])}, column 0 to {name(sums[0])}")
    return Check(True)


def _rows_2(spec: GroupSpec) -> tuple[tuple[int, ...], ...]:
    check_order(spec.order)
    return (tuple(range(spec.order)), tuple(multiples(spec, -1)))


def build_group_kotzig(spec: GroupSpec, j: int) -> GroupKotzigArray:
    """j x k group Kotzig array; exists when j is even, or j > 1 and the
    group is of odd order or has more than one involution, or the group
    is trivial (its 1 x 1 array is the identity).

    Even j stacks copies of the 2 x k array; odd j uses one 3 x k array
    plus 2 x k fillers.  For odd j and a single-involution group the total
    grid sum equals the involution while constant columns force identity,
    so the build refuses.  The stacked array is verified once.
    """
    if j < 1:
        raise ParameterError(f"row count must be positive, got {j}")
    if j == 1:
        if spec.order > 1:
            raise ImpossibilityError("a 1 x k array has constant column sums only for the trivial group")
        rows = ((0,),)
    elif j % 2 == 0:
        rows = _rows_2(spec) * (j // 2)
    elif not in_class_g(spec):
        raise NonexistenceError(
            f"{spec} has exactly one involution: an odd row count would make "
            "the grid total equal that involution, not the identity"
        )
    else:
        tb = triple_bijection(spec)
        rows = (tuple(range(spec.order)), tb.phi, tb.psi) + (_rows_2(spec) * ((j - 3) // 2) if j > 3 else ())
    array = GroupKotzigArray(spec, rows)
    return checked(array, verify_kotzig(array))


def _int_base_3xk(k: int) -> tuple[tuple[int, ...], ...]:
    """3 x k block for odd k with column sums 3h, h = (k-1)/2.

    Row 2 is row 1 rotated by h.  Row 3, forced to 3h - c - row2[c], takes
    the even values k-1, k-3, ..., 0 on columns c <= h and the odd values
    k-2, k-4, ..., 1 on the rest, so it is a permutation too.
    """
    half = (k - 1) // 2
    row2 = tuple((c + half) % k for c in range(k))
    return (tuple(range(k)), row2, tuple(3 * half - c - v for c, v in enumerate(row2)))


def build_int_kotzig(j: int, k: int) -> IntKotzigArray:
    """j x k integer Kotzig array; exists when j > 1 and j(k-1) is even,
    or j = k = 1 (the 1 x 1 array 0).

    Even j stacks (identity row, reversed row) pairs; odd j (so k odd)
    adds one closed-form 3 x k block.
    """
    if j < 1 or k < 1:
        raise ParameterError(f"grid dimensions must be positive, got {j} x {k}")
    check_order(k, "column count")
    if j == 1:
        if k > 1:
            raise ImpossibilityError("a 1 x k array has constant column sums only for k = 1")
        rows = ((0,),)
    elif (j * (k - 1)) % 2 != 0:
        raise NonexistenceError(
            f"no {j} x {k} array exists: the column sum j(k-1)/2 = "
            f"{j * (k - 1) / 2} is not an integer"
        )
    else:
        pair = (tuple(range(k)), tuple(k - 1 - c for c in range(k)))
        rows = pair * (j // 2) if j % 2 == 0 else _int_base_3xk(k) + pair * ((j - 3) // 2)
    array = IntKotzigArray(k, rows)
    return checked(array, verify_kotzig(array))


# -- certificates ----------------------------------------------------------------


def array_to_text(array) -> str:
    if isinstance(array, GroupKotzigArray):
        return write_rows(element_texts(array.spec), f"kotzig {array.spec} j={array.j} k={array.k}", array.rows)
    return write_rows([str(v) for v in range(array.k)], f"kotzig-int k={array.k} j={array.j}", array.rows)


def array_from_text(text: str):
    """Parse a Kotzig certificate; the header's j and k must match the body."""
    header, body = read_header(text, "Kotzig array certificate", {"kotzig": 4, "kotzig-int": 3})
    rows = map(str.split, body)
    if header[0] == "kotzig":
        spec = parse_group_spec(header[1])
        fields = header_fields(header[2:], ints=("j", "k"))
        array = GroupKotzigArray(spec, tuple(map(tuple, read_indices(spec, rows))))
    else:
        fields = header_fields(header[1:], ints=("j", "k"))
        array = IntKotzigArray(fields["k"], tuple(tuple(parse_ints(row)) for row in rows))
    if array.j < 1 or (fields["j"], fields["k"]) != (array.j, array.k):
        raise GroupSpecError(
            f"header says j={fields['j']} k={fields['k']}, "
            f"the body has {array.j} rows over {array.k} values"
        )
    if any(len(row) != array.k for row in array.rows):
        raise GroupSpecError("row length does not match k")
    return array
