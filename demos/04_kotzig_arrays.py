"""Kotzig arrays: grids whose rows are permutations and whose columns
share one sum.

Group arrays over a group of order k exist for j rows whenever j is
even, or j > 1 and the group is of odd order or has more than one
involution; a single row has constant columns only when k = 1.  Integer
arrays on 0..k-1 exist whenever j > 1 and j(k-1) is even, or j = k = 1.

Run:  python demos/04_kotzig_arrays.py
"""

from zsmagic import (
    NonexistenceError,
    array_to_text,
    build_group_kotzig,
    build_int_kotzig,
    parse_group_spec,
    verify_kotzig,
)

# 2 x k: enumeration over its negations.
print(array_to_text(build_group_kotzig(parse_group_spec("Z5"), 2)))

# Odd row counts stack one 3-row block (from a triple bijection) over
# 2-row blocks; columns sum to the identity.
array = build_group_kotzig(parse_group_spec("Z2xZ2xZ3"), 5)
print(array_to_text(array))
print("verified:", verify_kotzig(array).ok, "column sum:", array.column_sum())

# Single-involution groups refuse odd row counts: summing the whole grid
# gives the involution, while constant columns force the identity.
try:
    build_group_kotzig(parse_group_spec("Z4"), 3)
except NonexistenceError as exc:
    print("Z4 with 3 rows:", exc)

# Integer arrays: even j stacks identity/reversed pairs; odd j (odd k)
# adds a closed-form 3 x k block (row 2 rotated by (k-1)/2, row 3 forced).
# Column sums are j(k-1)/2.
print(array_to_text(build_int_kotzig(2, 4)))
print(array_to_text(build_int_kotzig(5, 7)))
try:
    build_int_kotzig(3, 4)
except NonexistenceError as exc:
    print("3 x 4 integer array:", exc)
