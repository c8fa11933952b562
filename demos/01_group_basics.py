"""Tour of the group layer: parsing, arithmetic, involutions, 2-part splits.

Run:  python demos/01_group_basics.py
"""

from zsmagic import (
    canonical_factors,
    format_element,
    in_class_g,
    involutions,
    parse_group_spec,
    sum_all,
    two_part_split,
)

# Groups are direct products of cyclic groups, written Z2xZ2xZ4.
spec = parse_group_spec("Z2xZ2xZ4")
print(f"group {spec}: order {spec.order}")

# Elements are residue tuples; arithmetic is componentwise.
a, b = (1, 0, 3), (1, 1, 2)
print(f"{a} + {b} = {spec.add(a, b)}")
print(f"-{a} = {spec.neg(a)}")
print(f"5 * {a} = {spec.scale(5, a)}")

# Enumeration is mixed radix: sorting tuples sorts by index.
print("first five elements:", spec.elements()[:5])
print("index of (1,0,2):", spec.index_of((1, 0, 2)))

# Involutions are the order-2 elements; their count is 2^rank - 1.
invs = involutions(spec)
print(f"{len(invs)} involutions:", [format_element(e) for e in invs])

# The sum of all elements is the unique involution when there is exactly
# one, and the identity otherwise; the closed form matches the fold.
for text in ("Z4", "Z5", "Z2xZ2"):
    s = parse_group_spec(text)
    assert sum_all(s) == s.sum(s.elements())
    print(f"sum of all elements of {s}: {format_element(sum_all(s))}")

# Class G = odd order or more than one involution.  These are exactly the
# groups whose nonzero structure supports zero-sum constructions.
for text in ("Z7", "Z6", "Z2xZ2xZ4"):
    print(f"{text} in class G: {in_class_g(parse_group_spec(text))}")

# Isomorphic presentations share a canonical form.
print("canonical(Z6) =", canonical_factors(parse_group_spec("Z6")))
print("canonical(Z2xZ3) =", canonical_factors(parse_group_spec("Z2xZ3")))

# Every group splits as (2-part) x (odd part), as an index table: merged[t * |odd| + o]
# is the index of the element whose 2-part has index t and whose odd part has index o.
spec = parse_group_spec("Z12xZ6")
two_spec, odd_spec, merged = two_part_split(spec)
x = (7, 5)
two, odd = (7 % 4, 5 % 2), (7 % 3, 5 % 3)  # the residues of each coordinate, CRT style
t, o = two_spec.index_of(two), odd_spec.index_of(odd)
assert spec.element_at(merged[t * odd_spec.order + o]) == x
assert sorted(merged) == list(range(spec.order))  # the split is a bijection
print(
    f"{spec} = ({two_spec}) x ({odd_spec}); "
    f"{format_element(x)} splits as {format_element(two)} + {format_element(odd)}"
)
