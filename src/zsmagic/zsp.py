"""Constructive zero-sum machinery for finite Abelian groups.

Three builders live here, each paired with an independent verifier:

* ``involution_quadruples`` partitions the involutions-plus-identity
  subgroup into zero-sum quadruples: ``groups.involution_closure`` cut
  into runs of four.
* ``triple_bijection`` produces permutations ``phi``, ``psi`` of the group
  with ``g + phi(g) + psi(g) = 0`` for every ``g``: the identity on the
  odd part times a ladder on the 2-part of closed forms: a product of
  two parts for rank 4 or more, fixed seed tables for the three smallest
  three-factor 2-groups and one doubling rung for every other 2-group of
  rank 2 or 3.
* ``zsp`` partitions the whole group into equal-size zero-sum blocks;
  it exists exactly when the order is odd, or the block size is at
  least 3 and the group has more than one involution.  Even block sizes
  slice one stream of the involution closure and the inverse pairs; odd
  ones zip columns of outer sums, lifted through the 2-part split by
  one gather per block position.

None of the builders searches: every route is a closed form or a
structural recursion on the group.  Every object holds element indices
(see ``groups``), and so do the constructors, the parsers and the
verifiers; ``check_blocks`` is the partition check that ``verify_zsp`` and
``oracle.verify_sized_partition`` share.  The verifiers sum each block or
column once, from a ``groups.PackedTable``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, product, repeat
from operator import add

from .errors import (
    DivisibilityError,
    GroupSpecError,
    ImpossibilityError,
    NonexistenceError,
    ParameterError,
)
from .groups import (
    Check,
    GroupSpec,
    PackedTable,
    check_order,
    checked,
    element_texts,
    format_element,
    header_fields,
    in_class_g,
    involution_closure,
    multiples,
    outer_sum,
    parse_group_spec,
    read_header,
    read_indices,
    two_part_split,
    two_part_tables,
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


@dataclass(frozen=True)
class ZeroSumPartition:
    """Disjoint blocks of m element indices each, every block summing to the
    identity; each block is sorted, and so is the block list.

    Blocks normally cover the whole group; ``involution_quadruples`` returns
    a partition of the involution closure only (pass
    ``set(involution_closure(spec))`` as the ``universe`` when verifying).
    """

    spec: GroupSpec
    m: int
    blocks: tuple[tuple[int, ...], ...]

    @classmethod
    def _sorted(cls, spec: GroupSpec, m: int, blocks) -> "ZeroSumPartition":
        """The partition of these blocks, each sorted and the list sorted."""
        return cls(spec, m, tuple(sorted(tuple(sorted(block)) for block in blocks)))


# -- verifiers ----------------------------------------------------------------


def verify_zsp(spec: GroupSpec, partition, m: int, universe=None) -> Check:
    """Check block sizes, then the checks of ``check_blocks``.

    ``partition`` is a ``ZeroSumPartition`` or blocks of element indices;
    ``universe``, a set of element indices, defaults to the whole group.
    Rejection is a result, not an error; the first violating block index
    is reported.
    """
    blocks = partition.blocks if isinstance(partition, ZeroSumPartition) else tuple(partition)
    if set(map(len, blocks)) - {m} or len(set(chain.from_iterable(blocks))) < m * len(blocks):
        for i, block in enumerate(blocks):
            if len(block) != m or len(set(block)) != m:
                return Check(False, row=i, reason=f"block {i} does not have {m} distinct elements")
    return check_blocks(spec, blocks, range(spec.order) if universe is None else universe)


def check_blocks(spec: GroupSpec, blocks, universe, name=None) -> Check:
    """Check that blocks of element indices lie in ``universe`` (a range or
    a set), repeat no element, cover the universe and each sum to the identity.

    One set of the indices decides repeats, cover and then membership, so the work is that of
    the blocks until the cover holds; only when that fails does a loop name the faulty block.
    Then each block is summed once from a ``PackedTable``.  ``name(i)`` spells an index in a
    reason; it defaults to the element's text, or ``index i`` outside the group.
    """
    name = name or (lambda i: format_element(spec.element_at(i)) if 0 <= i < spec.order else f"index {i}")
    seen = set(chain.from_iterable(blocks))
    if len(seen) != len(universe) or len(seen) < sum(map(len, blocks)) or not seen.issubset(universe):
        seen = set()
        for i, block in enumerate(blocks):
            for e in block:
                if e not in universe:
                    return Check(False, row=i, reason=f"block {i} contains {name(e)} outside the universe")
                if e in seen:
                    return Check(False, row=i, reason=f"block {i} repeats {name(e)}")
                seen.add(e)
    if len(seen) != len(universe):
        return Check(False, reason="blocks do not cover the universe")
    packed = PackedTable(spec, max(map(len, blocks), default=0))
    sums = list(map(sum, map(partial(map, packed.table.__getitem__), blocks)))
    first = packed.first_unlike(sums)
    if first is not None:
        return Check(False, row=first, reason=f"block {first} sums to {format_element(packed.element(sums[first]))}")
    return Check(True)


def verify_triple_bijection(tb: TripleBijection) -> Check:
    """Check that phi and psi are permutations with zero column sums; each
    column is summed once from a ``PackedTable`` and the first failing column
    is reported."""
    n = tb.spec.order
    for name, perm in (("phi", tb.phi), ("psi", tb.psi)):
        if len(perm) != n or not set(perm).issuperset(range(n)):  # n entries covering 0..n-1
            return Check(False, reason=f"{name} is not a permutation")
    packed = PackedTable(tb.spec, 3)
    table = packed.table
    sums = list(map(add, map(add, table, map(table.__getitem__, tb.phi)), map(table.__getitem__, tb.psi)))
    first = packed.first_unlike(sums)
    if first is not None:
        g = format_element(tb.spec.element_at(first))
        return Check(False, col=first, reason=f"column at {g} sums to {format_element(packed.element(sums[first]))}")
    return Check(True)


# -- involution quadruples ------------------------------------------------------


def involution_quadruples(spec: GroupSpec) -> ZeroSumPartition:
    """Partition involutions plus identity into zero-sum quadruples.

    Requires at least two involutions (2-torsion rank >= 2).  The
    involution closure, ascending, cut into runs of four: with a, b the
    last two basis involutions, each run is x, x + b, x + a, x + a + b,
    which sums to 4x + 2a + 2b = 0 and is already sorted.
    """
    check_order(spec.order)
    rank = two_torsion_rank(spec)
    if rank < 2:
        raise ParameterError(
            f"group {spec} has {2 ** rank - 1} involution(s); need at least 2"
        )
    return ZeroSumPartition(spec, 4, tuple(zip(*[iter(involution_closure(spec))] * 4)))


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
#
# Every rung builds phi alone, as a list: phi[i] is the index of the image of
# the element with index i.


def _tb_from_phi(spec: GroupSpec, phi: list[int] | tuple[int, ...]) -> TripleBijection:
    """The triple bijection with the given phi: psi(g) = -g - phi(g) is forced,
    and this is the one place it is computed.  Each coordinate adds its digit
    table to itself gathered through phi and reads each sum v off one table of
    the codes (-v % f) * s."""
    psi = []
    for f, s in zip(spec.factors, spec.strides):
        digits = list(chain.from_iterable(map(repeat, range(f), repeat(s)))) * (spec.order // (f * s))
        codes = [-v % f * s for v in range(2 * f)]
        column = map(codes.__getitem__, map(add, digits, map(digits.__getitem__, phi)))
        psi = list(map(add, psi, column)) if psi else list(column)
    return TripleBijection(spec, tuple(phi), tuple(psi or [0]))


def _sorted_phi(spec: GroupSpec, phi_of_sorted) -> list[int]:
    """phi for a coordinate permutation of the presentation with its factors
    ascending, from ``phi_of_sorted`` of that sorted factor tuple."""
    sigma = sorted(range(spec.arity), key=lambda i: (spec.factors[i], i))
    factors = tuple(spec.factors[i] for i in sigma)
    sorted_phi = phi_of_sorted(factors)
    if factors == spec.factors:
        return sorted_phi
    sorted_stride = dict(zip(sigma, GroupSpec(factors).strides))
    # to_sorted[g] is the index of element g in the sorted presentation; back inverts it
    to_sorted = outer_sum([x * sorted_stride[i] for x in range(f)] for i, f in enumerate(spec.factors))
    back = outer_sum([x * spec.strides[i] for x in range(f)] for i, f in zip(sigma, factors))
    return list(map(back.__getitem__, map(sorted_phi.__getitem__, to_sorted)))


def _doubling_phi(factors: tuple[int, ...]) -> list[int]:
    """phi for a 2-group Z_f0 x ... x Z_fk of rank 2 or 3, its factors sorted
    ascending; the recursion halves the last factor, so the head stays sorted.

    Base case Z_m x Z_m: (x, y) -> (y, x + y).  Both the map and its sum
    with the identity are linear with unit determinant mod m, so phi and
    g -> g + phi(g) are bijections.  A last factor 1 drops to the head,
    whose enumeration is the same.

    Doubling step, for G = A x Z_n with n even and A the head: embed
    H = A x Z_{n/2} as the even last coordinates (h has index i in H, 2i
    here) and take H's map u, so u and h -> h + u(h) are bijections of H.
    Let chi(h) be the parity of h's first coordinate, a homomorphism
    H -> Z2 since f_0 is even, H_0 and H_1 its two fibres, and delta the
    unit vector of that coordinate, so chi(delta) = 1; with
    c = (0, ..., 0, 1), 2c lies in H and chi(2c) = 0, since the first
    coordinate is not the last.  Split H along S = {h : h + u(h) in H_0}:

    * h in S: phi(h) = u(h) and phi(c + h) = u(h) + delta + c;
    * h not in S: phi(h) = u(h) + delta + c and phi(c + h) = u(h).

    phi sends the pair h, c + h onto u(h) and u(h) + delta + c, so it is a
    bijection.  Over S the sums g + phi(g) are h + u(h), which fill H_0,
    and h + u(h) + delta + 2c, which fill H_1; off S they are
    h + u(h) + delta + c, which fill c + H_0, and c + h + u(h), which fill
    c + H_1.  So g -> -g - phi(g) is a bijection too.  In indices, delta is
    the stride order // f_0 of the first coordinate and chi(h) the parity
    of i // (|H| // f_0).

    Every 2-group with more than one involution has a triple bijection,
    since one is a complete mapping (Hall and Paige, Pacific J. Math. 5,
    1955); this step builds one for rank 2 and 3 from Z_m x Z_m.
    """
    if len(factors) == 2 and factors[0] == factors[1]:
        m = factors[0]
        return [y * m + (x + y) % m for x in range(m) for y in range(m)]
    *head, n = factors
    if n == 1:
        return _doubling_phi(tuple(head))
    u = _doubling_phi((*head, n // 2))
    order = 2 * len(u)
    delta, block = order // factors[0], len(u) // factors[0]
    straight = [2 * v for v in u]
    shifted = [(2 * v + delta) % order + 1 for v in u]
    in_s = [(i // block + v // block) % 2 == 0 for i, v in enumerate(u)]
    phi = [0] * order
    phi[0::2] = [a if k else b for a, b, k in zip(straight, shifted, in_s)]
    phi[1::2] = [b if k else a for a, b, k in zip(straight, shifted, in_s)]
    return phi


def _ladder_phi(spec: GroupSpec) -> list[int]:
    """Strategy ladder on a 2-group presentation of rank >= 2, which always
    admits a solution (odd orders never reach it): the product rung splits
    rank >= 4 into two parts of rank >= 2, the seed tables take their three
    groups and one doubling rung takes every other group of rank 2 or 3."""
    if spec.arity >= 4:
        # Z_f0 x Z_f1 times the rest, both of rank >= 2
        phi_b = _ladder_phi(GroupSpec(spec.factors[2:]))
        n_b = len(phi_b)
        return [a * n_b + b for a in _ladder_phi(GroupSpec(spec.factors[:2])) for b in phi_b]
    if tuple(sorted(spec.factors)) in base_tables():
        return _sorted_phi(spec, lambda factors: list(base_tables()[factors].phi))
    return _sorted_phi(spec, _doubling_phi)


def triple_bijection(spec: GroupSpec) -> TripleBijection:
    """Build a triple bijection for any group of odd order or with more
    than one involution; callers verify it (the CLI does).

    On an odd-order group phi is the identity, since g + g + (-2g) = 0 and
    g -> -2g is a bijection there.  Otherwise the group splits as (2-part)
    x (odd part), and a triple bijection of the 2-part times the identity
    on the odd part is one of the whole group: the ladder runs on the
    2-part only, and its phi is carried to the group through the split by
    one gather per odd residue; a 2-group is its own 2-part and takes the
    ladder's phi as it is.  Strategy order on the 2-part:
    componentwise product of two admissible parts, seed tables, the
    doubling rung.  Each rung builds phi only, since psi(g) = -g - phi(g)
    is forced.
    """
    if not in_class_g(spec):
        raise NonexistenceError(
            f"{spec} has exactly one involution, so the element sum is that "
            "involution and no triple bijection exists"
        )
    if spec.order % 2 == 1:
        check_order(spec.order)
        return TripleBijection(spec, tuple(range(spec.order)), tuple(multiples(spec, -2)))
    if spec.order & (spec.order - 1) == 0:
        check_order(spec.order)
        return _tb_from_phi(spec, _ladder_phi(spec))
    two_spec, odd_spec, codes, merged = two_part_tables(spec)
    ladder, n_odd = _ladder_phi(two_spec), odd_spec.order
    images = [0] * spec.order  # by code: the image of the element merged[code]
    for o in range(n_odd):  # the elements of odd part o, by 2-part index, go by the ladder
        column = merged[o::n_odd]
        images[o::n_odd] = map(column.__getitem__, ladder)
    phi = tuple(map(images.__getitem__, codes))
    del column, images, codes, merged  # before psi is built beside phi
    return _tb_from_phi(spec, phi)


# -- equal-size zero-sum partitions ---------------------------------------------


def _check_admissible(spec: GroupSpec, m: int) -> None:
    check_order(spec.order)
    if spec.order % m != 0:
        raise DivisibilityError(f"{m} does not divide group order {spec.order}")
    if not in_class_g(spec):
        raise NonexistenceError(
            f"{spec} has exactly one involution; its element sum is the "
            "involution, so no zero-sum partition exists"
        )


def zsp_even(spec: GroupSpec, m2: int) -> ZeroSumPartition:
    """Partition into blocks of even size ``m2 >= 4``.

    One stream holds the involution closure (its runs of four are the
    involution quadruples), then the inverse pairs g, -g with g < -g by
    ascending g.  A block size of 2 mod 4 reserves one of those pairs per
    block, the first t = n/m2 of them; each block then takes the next
    m2 - 2 (else m2) entries of the stream.  That width is 0 mod 4 and the
    closure has 2^r >= 4 entries, so this is the greedy fill of whole
    quadruples, then pairs, in enumeration order.  The result is verified
    before being returned.
    """
    if m2 % 2 != 0 or m2 < 4:
        raise ParameterError(f"block size must be even and >= 4, got {m2}")
    _check_admissible(spec, m2)
    pairs = [(g, ng) for g, ng in enumerate(multiples(spec, -1)) if g < ng]
    t = spec.order // m2
    # m2 = 2 mod 4 and m2 >= 6 give the order n an odd factor >= 3, so the 2^r elements of
    # order <= 2 are at most n/3 and leave (n - 2^r)/2 >= n/3 >= t pairs to seed the blocks
    seeded = m2 % 4 == 2
    seeds, rest = (pairs[:t], pairs[t:]) if seeded else ([()] * t, pairs)
    stream = iter(involution_closure(spec) + list(chain.from_iterable(rest)))
    partition = ZeroSumPartition._sorted(spec, m2, map(add, seeds, zip(*[stream] * (m2 - 2 * seeded))))
    return checked(partition, verify_zsp(spec, partition, m2))


def _odd_base_partition(spec: GroupSpec, m: int) -> ZeroSumPartition:
    """Equal-size zero-sum partition of an odd-order group by a coset lift.

    A subgroup H of order n/m is picked one coordinate at a time: factor
    f_i gives up d_i = gcd(f_i, what is left of m), so the box of tuples
    with coordinate i in [0, d_i) is a transversal of G/H.  The quotient
    has odd order, so the box sums into H; subtracting that sum from the identity representative
    makes the representatives a_r sum to the identity.  Every h in H gives
    the block {a_r + c_r h} with c = (1, 1, -2, 1, -1, ..., 1, -1): the c_r
    sum to 0 and are units on H, so each block sums to the identity and
    the r-th entries run once over the coset a_r + H.  Entry r of every
    block is one outer sum of a table per coordinate of H, and the blocks
    are those m columns zipped.
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
    # coordinate i of H runs over the multiples of d_i
    h_tables = [(range(0, f, d), f, s) for f, d, s in zip(factors, steps, spec.strides)]
    columns = [
        outer_sum([(a + c * x) % f * s for x in xs] for a, (xs, f, s) in zip(rep, h_tables))
        for rep, c in zip(reps, coeffs)
    ]
    return ZeroSumPartition._sorted(spec, m, zip(*columns))


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
        two_spec, odd_spec, merged = two_part_split(spec)
        n_odd = odd_spec.order
        tb = triple_bijection(two_spec)
        shrunk = multiples(two_spec, pow(m - 2, -1, math.lcm(*two_spec.factors)))
        firsts = [tb.phi, tb.psi] + [shrunk] * (m - 2)
        # entry r by split code t * n_odd + o: t is phi(w), psi(w) or the shrunk w, o entry r of an odd block
        columns = [
            map(merged.__getitem__, outer_sum([list(map(n_odd.__mul__, first)), odd_column]))
            for first, odd_column in zip(firsts, zip(*_odd_base_partition(odd_spec, m).blocks))
        ]
        partition = ZeroSumPartition._sorted(spec, m, zip(*columns))
    return checked(partition, verify_zsp(spec, partition, m))


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
    spec = partition.spec
    return write_rows(element_texts(spec), f"partition {spec} m={partition.m}", partition.blocks)


def partition_from_text(text: str) -> ZeroSumPartition:
    header, body = read_header(text, "partition certificate", {"partition": 3})
    spec = parse_group_spec(header[1])
    m = header_fields(header[2:], ints=("m",))["m"]
    blocks = list(read_indices(spec, map(str.split, body)))
    if any(len(block) != m for block in blocks):
        raise GroupSpecError(f"header says m={m}, a block of the body has another size")
    return ZeroSumPartition._sorted(spec, m, blocks)


def bijection_to_text(tb: TripleBijection) -> str:
    # column gathers, not groups.write_rows: about 1.5-2x faster (Z1024xZ1024: 0.46 s against 0.69 s)
    names = element_texts(tb.spec)
    rows = zip(names, map(names.__getitem__, tb.phi), map(names.__getitem__, tb.psi))
    return "\n".join([f"bijection {tb.spec}", *map(" ".join, rows)]) + "\n"


def bijection_from_text(text: str) -> TripleBijection:
    header, body = read_header(text, "bijection certificate", {"bijection": 2})
    spec = parse_group_spec(header[1])
    n = spec.order
    if len(body) != n:
        raise GroupSpecError(f"expected {n} rows, found {len(body)}")
    phi = [-1] * n
    psi = [-1] * n
    for line, row in zip(body, read_indices(spec, map(str.split, body))):
        if len(row) != 3:
            raise GroupSpecError(f"bad bijection row {line!r}")
        g, p, q = row
        phi[g] = p
        psi[g] = q
    if -1 in phi:
        raise GroupSpecError("bijection rows do not cover the group")
    return TripleBijection(spec, tuple(phi), tuple(psi))
