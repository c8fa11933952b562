"""Triple bijections: permutations phi, psi with g + phi(g) + psi(g) = 0.

These exist exactly for groups of odd order or with more than one
involution, and they power both the odd-block-size partitions and the
3-row Kotzig arrays.

Run:  python demos/03_triple_bijections.py
"""

from zsmagic import (
    base_tables,
    bijection_to_text,
    parse_group_spec,
    search_triple_bijection,
    triple_bijection,
    verify_triple_bijection,
)

# Odd order has a closed form: phi = identity, psi(g) = -2g.
print(bijection_to_text(triple_bijection(parse_group_spec("Z5"))))

# Three seed tables cover the smallest three-factor 2-groups.
for factors, tb in base_tables().items():
    print(f"seed table {factors}: {verify_triple_bijection(tb)}")

# Everything else reduces to the 2-part, with the identity on the odd part:
# 2-groups of rank 4 or more split into products, and every other 2-group of
# rank 2 or 3 doubles its last factor up from Z_m x Z_m.
for text in ("Z2xZ2xZ3", "Z2xZ2xZ16", "Z4xZ4xZ4", "Z4xZ4", "Z2xZ32", "Z15"):
    spec = parse_group_spec(text)
    tb = triple_bijection(spec)
    print(f"{text}: verified = {verify_triple_bijection(tb).ok}")

# The exhaustive oracle, which never calls the constructors, returns the
# least pair in enumeration order.
report = search_triple_bijection(parse_group_spec("Z2xZ2"))
print(f"oracle: found = {report.found}, nodes = {report.nodes}")
print(bijection_to_text(report.witness))
