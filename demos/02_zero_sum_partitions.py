"""Equal-size zero-sum partitions: constructions and the verifier.

A group has the m-zero-sum-partition property when it splits into
disjoint m-element blocks, each summing to the identity.  For m >= 3 this
happens exactly when the order is odd or the group has more than one
involution; m = 2 is impossible because the identity has no partner.

Run:  python demos/02_zero_sum_partitions.py
"""

from zsmagic import (
    NonexistenceError,
    format_element,
    involution_quadruples,
    involutions,
    parse_group_spec,
    partition_to_text,
    verify_zsp,
    zsp,
)

# Odd order: a coset lift.  The representatives of a subgroup H of index
# m are shifted to sum to zero; each h in H then gives the block
# {a_r + c_r h} with c = (1, 1, -2, 1, -1, ...).  It is a closed form, so
# large groups are cheap too.
z9 = parse_group_spec("Z9")
print(partition_to_text(zsp(z9, 3)))
z3_7 = parse_group_spec("x".join(["Z3"] * 7))
print(f"{z3_7}: {len(zsp(z3_7, 3).blocks)} blocks of 3")

# Even order, odd block size: the odd part is partitioned first, then each
# block is lifted once per 2-part element through a triple bijection.
z2z2z3 = parse_group_spec("Z2xZ2xZ3")
part = zsp(z2z2z3, 3)
print(partition_to_text(part))
print("verifier says:", verify_zsp(z2z2z3, part, 3))

# Even block size: involution quadruples plus inverse pairs.
quads = involution_quadruples(parse_group_spec("Z2xZ2xZ2"))
print("involution quadruples of Z2xZ2xZ2:")
for block in quads.blocks:  # element indices; format them as elements
    print("  " + " ".join(format_element(quads.spec.element_at(i)) for i in block))
print(partition_to_text(zsp(z2z2z3, 4)))

# Groups with exactly one involution refuse: the element sum is the
# involution, but the blocks would sum to the identity.
try:
    zsp(parse_group_spec("Z6"), 3)
except NonexistenceError as exc:
    print("Z6:", exc)

# The verifier reports the first failing block.  Blocks hold element
# indices; in Z9 the element k has index k.
bad = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
print("tampered partition:", verify_zsp(z9, bad, 3))

print("involutions of Z2xZ2xZ3:", involutions(z2z2z3))
