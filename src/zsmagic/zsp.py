"""Constructive zero-sum machinery for finite Abelian groups.

Three builders live here, each paired with an independent verifier:

* ``involution_quadruples`` partitions the involutions-plus-identity
  subgroup into zero-sum quadruples by a doubling recursion.
* ``triple_bijection`` produces permutations ``phi``, ``psi`` of the group
  with ``g + phi(g) + psi(g) = 0`` for every ``g``, via a ladder of
  closed forms, fixed seed tables for the three smallest three-factor
  2-groups, two quotient liftings and a doubling construction for two
  cyclic factors.
* ``zsp`` partitions the whole group into equal-size zero-sum blocks;
  it exists exactly when the order is odd, or the block size is at
  least 3 and the group has more than one involution.

None of the builders searches: every route is a closed form or a
structural recursion on the group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import mod

from .errors import (
    DivisibilityError,
    GroupSpecError,
    ImpossibilityError,
    NonexistenceError,
    ParameterError,
)
from .groups import (
    Element,
    GroupSpec,
    format_element,
    header_fields,
    in_class_g,
    parse_group_spec,
    prime_power_refinement,
    read_elements,
    read_header,
    two_part_split,
    two_torsion_rank,
    write_rows,
)


@dataclass(frozen=True)
class TripleBijection:
    """Permutations phi, psi of the group with g + phi(g) + psi(g) = identity.

    Both are stored as permutations of element indices: ``phi[i]`` is the
    index of the image of the i-th element in enumeration order.
    """

    spec: GroupSpec
    phi: tuple[int, ...]
    psi: tuple[int, ...]

    def phi_of(self, g) -> Element:
        return self.spec.element_at(self.phi[self.spec.index_of(g)])

    def psi_of(self, g) -> Element:
        return self.spec.element_at(self.psi[self.spec.index_of(g)])

    def columns(self) -> list[tuple[Element, Element, Element]]:
        """(g, phi(g), psi(g)) triples in enumeration order of g."""
        elems = self.spec.elements()
        return [(g, elems[p], elems[q]) for g, p, q in zip(elems, self.phi, self.psi)]


@dataclass(frozen=True)
class ZeroSumPartition:
    """Disjoint blocks of m elements each, every block summing to the identity.

    Blocks normally cover the whole group; ``involution_quadruples`` returns
    a partition of the involution closure only (pass that set as the
    ``universe`` when verifying).
    """

    spec: GroupSpec
    m: int
    blocks: tuple[tuple[Element, ...], ...]

    @classmethod
    def from_blocks(cls, spec: GroupSpec, m: int, blocks) -> "ZeroSumPartition":
        """Reduce every element, then sort each block and the block list."""
        return cls._sorted(spec, m, ([spec.reduce(e) for e in block] for block in blocks))

    @classmethod
    def _sorted(cls, spec: GroupSpec, m: int, blocks) -> "ZeroSumPartition":
        """Blocks of already reduced elements, sorted as ``from_blocks`` sorts them."""
        return cls(spec, m, tuple(sorted(tuple(sorted(block)) for block in blocks)))


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    block_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BijectionCheck:
    ok: bool
    index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# -- verifiers ----------------------------------------------------------------


def verify_zsp(spec: GroupSpec, partition, m: int, universe=None) -> PartitionCheck:
    """Check cover, disjointness, block sizes and zero sums.

    ``universe`` defaults to the whole group.  Rejection is a result, not
    an error; the first violating block index is reported.  Raw blocks
    are reduced here; a ``ZeroSumPartition`` holds reduced elements.
    """
    if isinstance(partition, ZeroSumPartition):
        blocks = partition.blocks
    else:
        blocks = tuple(tuple(spec.reduce(e) for e in block) for block in partition)
    if universe is None:
        universe = spec.elements()
    universe_set = set(universe)

    for i, block in enumerate(blocks):
        if len(block) != m or len(set(block)) != m:
            return PartitionCheck(False, i, f"block {i} does not have {m} distinct elements")
    seen: set[Element] = set()
    for i, block in enumerate(blocks):
        for e in block:
            if e not in universe_set:
                return PartitionCheck(False, i, f"block {i} contains {format_element(e)} outside the universe")
            if e in seen:
                return PartitionCheck(False, i, f"block {i} repeats {format_element(e)}")
            seen.add(e)
    if seen != universe_set:
        return PartitionCheck(False, None, "blocks do not cover the universe")
    for i, block in enumerate(blocks):
        # every element is a reduced member of the universe by now
        if any(map(mod, map(sum, zip(*block)), spec.factors)):
            return PartitionCheck(
                False, i, f"block {i} sums to {format_element(spec.sum(block))}"
            )
    return PartitionCheck(True)


def verify_triple_bijection(tb: TripleBijection) -> BijectionCheck:
    """Check that phi and psi are permutations with zero column sums,
    one coordinate at a time; the first failing column is reported."""
    n = tb.spec.order
    for name, perm in (("phi", tb.phi), ("psi", tb.psi)):
        if len(perm) != n or set(perm) != set(range(n)):
            return BijectionCheck(False, None, f"{name} is not a permutation")
    elems = tb.spec.elements()
    phi, psi = tb.phi, tb.psi
    first = n
    for t, f in enumerate(tb.spec.factors):
        col = [g[t] for g in elems]
        first = next((i for i in range(first) if (col[i] + col[phi[i]] + col[psi[i]]) % f), first)
    if first < n:
        g = elems[first]
        total = tb.spec.sum((g, elems[phi[first]], elems[psi[first]]))
        return BijectionCheck(
            False, first, f"column at {format_element(g)} sums to {format_element(total)}"
        )
    return BijectionCheck(True)


# -- involution quadruples ------------------------------------------------------


def involution_quadruples(spec: GroupSpec) -> ZeroSumPartition:
    """Partition involutions plus identity into zero-sum quadruples.

    Requires at least two involutions (2-torsion rank >= 2).  The rank-2
    base block is the full order-4 subgroup; higher ranks double the
    previous partition along one more independent involution.
    """
    rank = two_torsion_rank(spec)
    if rank < 2:
        raise ParameterError(
            f"group {spec} has {2 ** rank - 1} involution(s); need at least 2"
        )
    basis = []
    for pos, f in enumerate(spec.factors):
        if f % 2 == 0:
            e = [0] * spec.arity
            e[pos] = f // 2
            basis.append(tuple(e))

    def doubled_blocks(gens: list[Element]) -> list[tuple[Element, ...]]:
        if len(gens) == 2:
            a, b = gens
            return [(spec.identity(), a, b, spec.add(a, b))]
        sub = doubled_blocks(gens[1:])
        top = gens[0]
        return sub + [tuple(spec.add(top, e) for e in blk) for blk in sub]

    return ZeroSumPartition._sorted(spec, 4, doubled_blocks(basis))


# -- triple bijections: seed tables ---------------------------------------------

_TABLE_2_2_2 = (
    ((0, 0, 0), (0, 0, 1), (0, 0, 1)),
    ((0, 0, 1), (1, 1, 1), (1, 1, 0)),
    ((0, 1, 0), (0, 1, 0), (0, 0, 0)),
    ((0, 1, 1), (1, 0, 0), (1, 1, 1)),
    ((1, 0, 0), (0, 0, 0), (1, 0, 0)),
    ((1, 0, 1), (1, 1, 0), (0, 1, 1)),
    ((1, 1, 0), (0, 1, 1), (1, 0, 1)),
    ((1, 1, 1), (1, 0, 1), (0, 1, 0)),
)

_TABLE_2_2_4 = (
    ((0, 0, 0), (0, 1, 0), (0, 1, 0)),
    ((0, 1, 0), (1, 1, 2), (1, 0, 2)),
    ((1, 0, 0), (1, 0, 1), (0, 0, 3)),
    ((1, 1, 0), (0, 0, 3), (1, 1, 1)),
    ((0, 0, 1), (1, 0, 3), (1, 0, 0)),
    ((0, 1, 1), (0, 0, 1), (0, 1, 2)),
    ((1, 0, 1), (0, 1, 3), (1, 1, 0)),
    ((1, 1, 1), (1, 1, 1), (0, 0, 2)),
    ((0, 0, 2), (0, 0, 2), (0, 0, 0)),
    ((0, 1, 2), (1, 0, 0), (1, 1, 2)),
    ((1, 0, 2), (1, 1, 3), (0, 1, 3)),
    ((1, 1, 2), (0, 1, 1), (1, 0, 1)),
    ((0, 0, 3), (0, 0, 0), (0, 0, 1)),
    ((0, 1, 3), (1, 0, 2), (1, 1, 3)),
    ((1, 0, 3), (1, 1, 0), (0, 1, 1)),
    ((1, 1, 3), (0, 1, 2), (1, 0, 3)),
)

# The 2x2x8 seed: one strip for third coordinate in {0, 4}, then four-column
# strata indexed by (a, b, c) triples with a + b + c = 0 mod 8.
_STRIP_2_2_8 = (
    ((0, 0, 0), (0, 1, 0), (0, 1, 0)),
    ((0, 1, 0), (1, 1, 4), (1, 0, 4)),
    ((1, 0, 0), (1, 0, 0), (0, 0, 0)),
    ((1, 1, 0), (0, 0, 4), (1, 1, 4)),
    ((0, 0, 4), (0, 0, 0), (0, 0, 4)),
    ((0, 1, 4), (1, 0, 4), (1, 1, 0)),
    ((1, 0, 4), (1, 1, 0), (0, 1, 4)),
    ((1, 1, 4), (0, 1, 4), (1, 0, 0)),
)

RESIDUE_TRIPLES_2_2_8 = ((2, 3, 3), (7, 2, 7), (5, 6, 5), (6, 1, 1), (1, 5, 2), (3, 7, 6))


def _columns_2_2_8():
    cols = list(_STRIP_2_2_8)
    for a, b, c in RESIDUE_TRIPLES_2_2_8:
        cols += [
            ((0, 0, a), (0, 0, b), (0, 0, c)),
            ((0, 1, a), (1, 0, b), (1, 1, c)),
            ((1, 0, a), (1, 1, b), (0, 1, c)),
            ((1, 1, a), (0, 1, b), (1, 0, c)),
        ]
    return tuple(cols)


@lru_cache(maxsize=None)
def base_tables() -> dict[tuple[int, ...], TripleBijection]:
    """The three seed tables, keyed by factor tuple."""
    out = {}
    for factors, cols in (
        ((2, 2, 2), _TABLE_2_2_2),
        ((2, 2, 4), _TABLE_2_2_4),
        ((2, 2, 8), _columns_2_2_8()),
    ):
        spec = GroupSpec(factors)
        phi = [0] * spec.order
        psi = [0] * spec.order
        for g, p, q in cols:
            i = spec.index_of(g)
            phi[i] = spec.index_of(p)
            psi[i] = spec.index_of(q)
        out[factors] = TripleBijection(spec, tuple(phi), tuple(psi))
    return out


# -- triple bijections: ladder ---------------------------------------------------


def _phi_from_tb(tb: TripleBijection) -> dict:
    elems = tb.spec.elements()
    return {g: elems[p] for g, p in zip(elems, tb.phi)}


def _tb_from_phi(spec: GroupSpec, phi: dict) -> TripleBijection:
    """The triple bijection with the given phi: psi(g) = -g - phi(g) is forced.

    Every rung of the ladder builds phi alone, a dict on the elements; this
    is the one place psi is computed.
    """
    elems = spec.elements()
    images = [phi[g] for g in elems]
    index = spec.index_of  # reduces each coordinate, so -g - phi(g) is passed unreduced
    psi = [index([-x - y for x, y in zip(g, p)]) for g, p in zip(elems, images)]
    return TripleBijection(spec, tuple(map(index, images)), tuple(psi))


def _odd_order_phi(spec: GroupSpec) -> dict:
    return {g: g for g in spec.elements()}


def _table_phi(spec: GroupSpec) -> dict:
    """Seed-table phi for any coordinate permutation of (2, 2, 2^k), k <= 3."""
    key = tuple(sorted(spec.factors))
    tphi = _phi_from_tb(base_tables()[key])
    sigma = sorted(range(3), key=lambda i: (spec.factors[i], i))

    def permute(g):
        return tuple(g[sigma[j]] for j in range(3))

    def unpermute(g):
        out = [0, 0, 0]
        for j in range(3):
            out[sigma[j]] = g[j]
        return tuple(out)

    return {g: unpermute(tphi[permute(g)]) for g in spec.elements()}


def _product_phi(spec: GroupSpec, pos_a, pos_b) -> dict:
    phi_a = _ladder_phi(GroupSpec(tuple(spec.factors[i] for i in pos_a)))
    phi_b = _ladder_phi(GroupSpec(tuple(spec.factors[i] for i in pos_b)))

    def scatter(ea, eb):
        out = [0] * spec.arity
        for i, x in zip(pos_a, ea):
            out[i] = x
        for i, x in zip(pos_b, eb):
            out[i] = x
        return tuple(out)

    return {
        g: scatter(phi_a[tuple(g[i] for i in pos_a)], phi_b[tuple(g[i] for i in pos_b)])
        for g in spec.elements()
    }


def _subgroup_phi(spec: GroupSpec, mults) -> dict:
    """Ladder phi of the subgroup H generated by mults[i] * e_i, as a map
    on the elements of H inside ``spec``."""
    sub = GroupSpec(tuple(f // m for f, m in zip(spec.factors, mults)))

    def embed(e_sub) -> Element:
        return tuple(x * m for x, m in zip(e_sub, mults))

    return {embed(b): embed(v) for b, v in _ladder_phi(sub).items()}


def _lift_triples(spec: GroupSpec, sub_phi: dict, r0: Element, r1: Element, phi: dict) -> None:
    """Fill phi on the cosets r0 + H, r1 + H and -(r0 + r1) + H.

    ``sub_phi`` is the phi of a triple bijection of H.  For each b in H the
    triple t0 = r0 + b, t1 = r1 + phi0(b), t2 = -(t0 + t1) sums to zero, and
    t2 runs over the third coset because -b - phi0(b) = psi0(b) runs over H;
    phi maps each entry to the next one.
    """
    for b, b1 in sub_phi.items():
        t0 = spec.add(r0, b)
        t1 = spec.add(r1, b1)
        t2 = spec.neg(spec.add(t0, t1))
        phi[t0] = t1
        phi[t1] = t2
        phi[t2] = t0


def _unit(pos: int, value: int = 1) -> Element:
    e = [0, 0, 0]
    e[pos] = value
    return tuple(e)


def _quotient22_phi(spec: GroupSpec) -> dict:
    """Lift through an index-4 subgroup with quotient Z2 x Z2.

    Applies to three-factor 2-groups whose two largest exponents are at
    least 2.  Representatives are 0, c, d, -c-d with c, d unit vectors in
    the two halved coordinates; the three nontrivial cosets are matched
    into zero-sum triples {c+b, d+phi0(b), -c-d+psi0(b)}.
    """
    pa, pb, pc = sorted(range(3), key=lambda i: (spec.factors[i], i))
    mults = [1, 1, 1]
    mults[pb] = 2
    mults[pc] = 2
    sub_phi = _subgroup_phi(spec, mults)
    phi = dict(sub_phi)  # a copy: the lift reads sub_phi while it fills phi
    _lift_triples(spec, sub_phi, _unit(pb), _unit(pc), phi)
    return phi


def _quotient8_phi(spec: GroupSpec) -> dict:
    """Lift through an index-8 subgroup with cyclic quotient Z8.

    Applies to Z2 x Z2 x Z2^k with k >= 4 (any coordinate order).  The
    quotient splits as {0,4} u {1,2,5} u {7,6,3}; the first part stays
    inside the intermediate subgroup, the two residue triples turn into
    zero-sum element triples that phi rotates in opposite directions.
    """
    pz = max(range(3), key=lambda i: (spec.factors[i], i))
    mults0 = [1, 1, 1]
    mults0[pz] = 8
    mults1 = [1, 1, 1]
    mults1[pz] = 4
    sub_phi = _subgroup_phi(spec, mults0)
    c = _unit(pz, 1)
    d = _unit(pz, 2)
    phi = _subgroup_phi(spec, mults1)
    _lift_triples(spec, sub_phi, c, d, phi)
    _lift_triples(spec, sub_phi, spec.neg(c), spec.neg(d), phi)
    return phi


def _fibonacci_phi(spec: GroupSpec) -> dict:
    """phi for Z_m x Z_m: (x, y) -> (y, x + y).

    Both the map and its sum with the identity are linear with unit
    determinant mod m, so phi and g -> g + phi(g) are bijections.
    """
    m = spec.factors[0]
    return {g: ((g[1]) % m, (g[0] + g[1]) % m) for g in spec.elements()}


def _sorted_two_factor_phi(spec: GroupSpec) -> dict:
    """phi for Z_m x Z_n (m <= n, both powers of 2, m >= 2).

    Doubling step: embed H = Z_m x Z_{n/2} as the even second coordinates,
    take H's map u recursively, and split both cosets of H along
    S = {h : h + u(h) has even first coordinate}.  On S the H-coset keeps
    u and the other coset uses u shifted by delta = (1, 0) pushed across;
    off S the roles swap.  The shift lands each piece's sums in
    complementary halves, so g -> -g - phi(g) stays bijective.
    """
    m, n = spec.factors
    if m == n:
        return _fibonacci_phi(spec)
    sub = GroupSpec((m, n // 2))
    u = _sorted_two_factor_phi(sub)
    in_even_half = {}
    for h in sub.elements():
        t = sub.add(h, u[h])
        in_even_half[h] = t[0] % 2 == 0
    delta = (1, 0)
    c = (0, 1)
    phi = {}
    for h in sub.elements():
        g = (h[0], 2 * h[1])
        gc = spec.add(c, g)
        straight = (u[h][0], 2 * u[h][1])
        ud = sub.add(u[h], delta)
        shifted = spec.add(c, (ud[0], 2 * ud[1]))
        if in_even_half[h]:
            phi[g] = straight
            phi[gc] = shifted
        else:
            phi[g] = shifted
            phi[gc] = straight
    return phi


def _two_factor_phi(spec: GroupSpec) -> dict:
    lo, hi = sorted(range(2), key=lambda i: (spec.factors[i], i))
    phi_sorted = _sorted_two_factor_phi(GroupSpec((spec.factors[lo], spec.factors[hi])))
    step = 1 if lo == 0 else -1  # reverses the coordinates when the larger factor comes first
    return {g: phi_sorted[g[::step]][::step] for g in spec.elements()}


def _ladder_phi(spec: GroupSpec) -> dict:
    """Strategy ladder on a prime-power presentation known to admit a solution."""
    if spec.order % 2 == 1:
        return _odd_order_phi(spec)
    evens = [i for i, f in enumerate(spec.factors) if f % 2 == 0]
    odds = [i for i, f in enumerate(spec.factors) if f % 2 == 1]
    if odds:
        return _product_phi(spec, evens, odds)
    # pure 2-group
    k = len(spec.factors)
    if k >= 4:
        return _product_phi(spec, [0, 1], list(range(2, k)))
    if k == 3:
        exps = sorted(f.bit_length() - 1 for f in spec.factors)
        if exps[0] == 1 and exps[1] == 1 and exps[2] <= 3:
            return _table_phi(spec)
        if exps[1] >= 2:
            return _quotient22_phi(spec)
        return _quotient8_phi(spec)
    return _two_factor_phi(spec)


def triple_bijection(spec: GroupSpec) -> TripleBijection:
    """Build a triple bijection for any group of odd order or with more
    than one involution; callers verify it (the CLI does).

    Strategy order: odd-order closed form, componentwise product of two
    admissible parts, seed tables, the two quotient liftings, the
    two-factor doubling construction.  Each rung builds phi only, since
    psi(g) = -g - phi(g) is forced.  Mixed cyclic factors are refined to
    prime powers internally and phi is translated back to the given
    presentation.
    """
    if not in_class_g(spec):
        raise NonexistenceError(
            f"{spec} has exactly one involution, so the element sum is that "
            "involution and no triple bijection exists"
        )
    if spec.order % 2 == 1:
        return _tb_from_phi(spec, _odd_order_phi(spec))
    ref = prime_power_refinement(spec)
    phi = _ladder_phi(ref.refined)
    if ref.refined != spec:
        back = {r: ref.from_refined(r) for r in phi}
        phi = {back[r]: back[v] for r, v in phi.items()}
    return _tb_from_phi(spec, phi)


# -- equal-size zero-sum partitions ---------------------------------------------


def _inverse_pairs(spec: GroupSpec, exclude: set[Element]) -> list[tuple[Element, Element]]:
    """Pairs {g, -g} of the elements outside ``exclude``, by ascending g."""
    pairs = []
    taken: set[Element] = set()
    for g in spec.elements():
        if g in exclude or g in taken:
            continue
        ng = spec.neg(g)
        pairs.append((g, ng))
        taken.add(g)
        taken.add(ng)
    return pairs


def _check_admissible(spec: GroupSpec, m: int) -> None:
    if spec.order % m != 0:
        raise DivisibilityError(f"{m} does not divide group order {spec.order}")
    if not in_class_g(spec):
        raise NonexistenceError(
            f"{spec} has exactly one involution; its element sum is the "
            "involution, so no zero-sum partition exists"
        )


def _checked(partition: ZeroSumPartition) -> ZeroSumPartition:
    check = verify_zsp(partition.spec, partition, partition.m)
    if not check.ok:
        raise AssertionError(f"internal: built partition failed verification: {check.reason}")
    return partition


def zsp_even(spec: GroupSpec, m2: int) -> ZeroSumPartition:
    """Partition into blocks of even size ``m2 >= 4``.

    Blocks are assembled greedily, in enumeration order, from the
    involution quadruples and the inverse pairs of the remaining
    elements; a block size of 2 mod 4 forces one reserved pair per block.
    The result is verified before being returned.
    """
    if m2 % 2 != 0 or m2 < 4:
        raise ParameterError(f"block size must be even and >= 4, got {m2}")
    _check_admissible(spec, m2)
    quads = list(involution_quadruples(spec).blocks)
    closure = {e for blk in quads for e in blk}
    pairs = _inverse_pairs(spec, exclude=closure)
    t = spec.order // m2
    # m2 = 2 mod 4 and m2 >= 6 give the order n an odd factor >= 3, so the 2^r elements of
    # order <= 2 are at most n/3 and leave (n - 2^r)/2 >= n/3 >= t pairs to seed the blocks
    seeded = m2 % 4 == 2
    seeds, rest = (pairs[:t], pairs[t:]) if seeded else ([()] * t, pairs)
    blocks: list[list[Element]] = []
    qi = pi = 0
    for seed in seeds:
        block = list(seed)
        cap = m2 - len(block)
        while cap >= 4 and qi < len(quads):
            block.extend(quads[qi])
            qi += 1
            cap -= 4
        while cap >= 2:
            block.extend(rest[pi])
            pi += 1
            cap -= 2
        blocks.append(block)
    return _checked(ZeroSumPartition._sorted(spec, m2, blocks))


def _odd_base_partition(spec: GroupSpec, m: int) -> ZeroSumPartition:
    """Equal-size zero-sum partition of an odd-order group by a coset lift.

    A subgroup H of order n/m is picked one coordinate at a time: factor
    f_i gives up d_i = gcd(f_i, what is left of m), so the box of tuples
    with coordinate i in [0, d_i) is a transversal of G/H.  The quotient
    has odd order, so the box sums into H; subtracting that sum from the identity representative
    makes the representatives a_r sum to the identity.  Every h in H gives
    the block {a_r + c_r h} with c = (1, 1, -2, 1, -1, ..., 1, -1): the c_r
    sum to 0 and are units on H, so each block sums to the identity and
    the r-th entries run once over the coset a_r + H.
    """
    factors = spec.factors
    steps = []
    left = m
    for f in factors:
        steps.append(math.gcd(f, left))
        left //= steps[-1]
    reps = list(product(*(range(d) for d in steps)))
    # coordinate i of the box sums to (m / d) * d(d - 1) / 2
    reps[0] = tuple(-(m * (d - 1) // 2) % f for d, f in zip(steps, factors))
    coeffs = (1, 1, -2) + (1, -1) * ((m - 3) // 2)
    blocks = [
        [tuple((a + c * x) % f for a, x, f in zip(rep, h, factors)) for rep, c in zip(reps, coeffs)]
        for h in product(*(range(0, f, d) for f, d in zip(factors, steps)))
    ]
    return ZeroSumPartition._sorted(spec, m, blocks)


def zsp_odd(spec: GroupSpec, m: int) -> ZeroSumPartition:
    """Partition into blocks of odd size ``m >= 3``.

    Odd-order groups use the coset lift of ``_odd_base_partition``.  For
    even order the group splits as (2-part) x (odd part); the odd part is
    partitioned first and every block is lifted once per 2-part element
    ``w``, with first coordinates phi(w), psi(w) and m-2 copies of the
    preimage of w under w -> (m-2)w, so each lifted block still sums to
    the identity.  The partition returned is verified once.
    """
    if m % 2 != 1 or m < 3:
        raise ParameterError(f"block size must be odd and >= 3, got {m}")
    _check_admissible(spec, m)
    if spec.order % 2 == 1:
        partition = _odd_base_partition(spec, m)
    else:
        split = two_part_split(spec)
        two_spec = split.two_spec
        lam_partition = _odd_base_partition(split.odd_spec, m)
        tb = triple_bijection(two_spec)
        shrink = pow(m - 2, -1, math.lcm(*two_spec.factors))
        two_elems = two_spec.elements()
        blocks = []
        for w, p, q in zip(two_elems, tb.phi, tb.psi):
            phi_w, psi_w = two_elems[p], two_elems[q]
            gamma_inv_w = two_spec.scale(shrink, w)
            for block in lam_partition.blocks:
                lifted = [split.merge(phi_w, block[0]), split.merge(psi_w, block[1])]
                lifted.extend(split.merge(gamma_inv_w, a) for a in block[2:])
                blocks.append(lifted)
        partition = ZeroSumPartition._sorted(spec, m, blocks)
    return _checked(partition)


def zsp(spec: GroupSpec, m: int) -> ZeroSumPartition:
    """Partition the group into m-element zero-sum blocks.

    Exists exactly when m >= 3 divides the order and the group is of odd
    order or has more than one involution.  m = 2 is always rejected: the
    block containing the identity cannot reach a zero sum with one other
    distinct element.
    """
    if m < 2:
        raise ParameterError(f"block size must be at least 2, got {m}")
    if m == 2:
        raise ImpossibilityError(
            "no partition into zero-sum blocks of size 2 exists: the identity "
            "has no distinct zero-sum partner"
        )
    if m % 2 == 0:
        return zsp_even(spec, m)
    return zsp_odd(spec, m)


# -- certificates ----------------------------------------------------------------


def partition_to_text(partition: ZeroSumPartition) -> str:
    return write_rows(partition.spec, f"partition {partition.spec} m={partition.m}", partition.blocks)


def partition_from_text(text: str) -> ZeroSumPartition:
    header, body = read_header(text, "partition certificate", {"partition": 3})
    spec = parse_group_spec(header[1])
    m = header_fields(header[2:], ints=("m",))["m"]
    blocks = list(read_elements(spec, map(str.split, body)))
    if any(len(block) != m for block in blocks):
        raise GroupSpecError(f"header says m={m}, a block of the body has another size")
    return ZeroSumPartition._sorted(spec, m, blocks)


def bijection_to_text(tb: TripleBijection) -> str:
    return write_rows(tb.spec, f"bijection {tb.spec}", tb.columns())


def bijection_from_text(text: str) -> TripleBijection:
    header, body = read_header(text, "bijection certificate", {"bijection": 2})
    spec = parse_group_spec(header[1])
    n = spec.order
    if len(body) != n:
        raise GroupSpecError(f"expected {n} rows, found {len(body)}")
    index = {e: i for i, e in enumerate(spec.elements())}
    phi = [-1] * n
    psi = [-1] * n
    for line, row in zip(body, read_elements(spec, map(str.split, body))):
        if len(row) != 3:
            raise GroupSpecError(f"bad bijection row {line!r}")
        g, p, q = map(index.__getitem__, row)
        phi[g] = p
        psi[g] = q
    if -1 in phi:
        raise GroupSpecError("bijection rows do not cover the group")
    return TripleBijection(spec, tuple(phi), tuple(psi))
