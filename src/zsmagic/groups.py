"""Exact arithmetic and structure queries for finite Abelian groups.

A group is presented as a direct product of cyclic groups ``Z_n1 x ... x
Z_nk``; elements are plain tuples of residues, one per factor.  Enumeration
is mixed radix with the first coordinate most significant, so sorting
element tuples sorts them by enumeration index.  Every "least element"
tie-break in the package refers to that order.

The four certificate objects (zero-sum partitions, triple bijections,
Kotzig arrays and labelings) hold element indices in that order.  This
module names the elements (``element_texts``, which ``element_names``
inverts for the readers), writes the rows of partitions and Kotzig arrays
(``write_rows``; bijections and labelings write their own rows from the
same names) and turns indices into summable integers (``PackedTable``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, product as _cartesian, repeat
from operator import add as _add, mod as _mod, neg as _neg, sub as _sub

from .errors import ArityError, GroupSpecError, ParameterError

Element = tuple[int, ...]

#: Largest group order (and integer column count) that anything is built for.
DEFAULT_ORDER_BOUND = 1 << 20

#: Node budget of every oracle search unless the caller gives one.
DEFAULT_BUDGET = 10**7

_TOKEN_RE = re.compile(r"[zZ]([0-9]+)")


def check_order(n: int, what: str = "group order") -> None:
    """Refuse a size above ``DEFAULT_ORDER_BOUND``; constructors call this
    before they factor, allocate or build anything of that size."""
    if n > DEFAULT_ORDER_BOUND:
        raise ParameterError(f"{what} {n} exceeds the bound {DEFAULT_ORDER_BOUND}")


@dataclass(frozen=True)
class GroupSpec:
    """A finite Abelian group given as a sequence of cyclic factor orders.

    ``reduce`` validates and converts: it checks the arity of any iterable,
    applies ``int()`` and reduces each coordinate modulo its factor.  The
    arithmetic methods take integer sequences of the right arity (checked
    once per operand) and return reduced tuples without calling ``reduce``.
    """

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        factors = tuple(int(f) for f in self.factors)
        for f in factors:
            if f < 2:
                raise GroupSpecError(f"cyclic factor must be >= 2, got {f}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def arity(self) -> int:
        return len(self.factors)

    @property
    def strides(self) -> tuple[int, ...]:
        """The index weight of each coordinate: the product of the later factors."""
        out, s = [], 1
        for f in reversed(self.factors):
            out.append(s)
            s *= f
        return tuple(reversed(out))

    def __str__(self) -> str:
        if not self.factors:
            return "Z1"
        return "x".join(f"Z{f}" for f in self.factors)

    # -- element arithmetic -------------------------------------------------

    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def _check(self, *elems) -> None:
        for a in elems:
            if len(a) != len(self.factors):
                raise ArityError(
                    f"element {tuple(a)} has {len(a)} coordinates, group {self} has "
                    f"{len(self.factors)}"
                )

    def reduce(self, a) -> Element:
        """Reduce each coordinate modulo its factor; validates arity."""
        a = tuple(a)
        self._check(a)
        return tuple(map(_mod, map(int, a), self.factors))

    def add(self, a, b) -> Element:
        self._check(a, b)
        return tuple(map(_mod, map(_add, a, b), self.factors))

    def neg(self, a) -> Element:
        self._check(a)
        return tuple(map(_mod, map(_neg, a), self.factors))

    def sub(self, a, b) -> Element:
        self._check(a, b)
        return tuple(map(_mod, map(_sub, a, b), self.factors))

    def scale(self, k: int, a) -> Element:
        self._check(a)
        return tuple([k * x % f for x, f in zip(a, self.factors)])

    def sum(self, elems) -> Element:
        """Add coordinate columns, then reduce once."""
        elems = tuple(elems)
        self._check(*elems)
        if not elems:
            return self.identity()
        return tuple(map(_mod, map(sum, zip(*elems)), self.factors))

    # -- enumeration --------------------------------------------------------

    def elements(self) -> list[Element]:
        """All elements in mixed-radix (enumeration) order."""
        check_order(self.order)
        return [tuple(c) for c in _cartesian(*(range(f) for f in self.factors))]

    def element_at(self, index: int) -> Element:
        if not 0 <= index < self.order:
            raise ParameterError(f"index {index} out of range for {self}")
        coords = []
        for f in reversed(self.factors):
            index, r = divmod(index, f)
            coords.append(r)
        return tuple(reversed(coords))

    def index_of(self, a) -> int:
        self._check(a)
        index = 0
        for x, f in zip(a, self.factors):
            index = index * f + x % f
        return index


def parse_group_spec(text: str) -> GroupSpec:
    """Parse ``Z<n>`` factors joined by ``x``, e.g. ``Z2xZ2xZ4``.

    Case-insensitive and whitespace-free; a parse error names the
    offending token.  ``Z1`` alone is the trivial group, as ``str`` prints
    it; as a factor of a product it is refused.
    """
    if not isinstance(text, str) or not text:
        raise GroupSpecError("empty group spec")
    if text in ("Z1", "z1"):
        return GroupSpec(())
    factors = []
    for token in text.split("x"):
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise GroupSpecError(f"bad group spec token {token!r} in {text!r}")
        n = int(m.group(1))
        if n < 2:
            raise GroupSpecError(f"bad group spec token {token!r}: order must be >= 2")
        factors.append(n)
    return GroupSpec(tuple(factors))


def format_element(a: Element) -> str:
    """Render an element; single-factor groups print as a bare integer."""
    if len(a) == 1:
        return str(a[0])
    return "(" + ",".join(map(str, a)) + ")"


def parse_element(text: str) -> Element:
    """Inverse of :func:`format_element` (arity is taken from the text)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        body = text[1:-1]
        try:
            return tuple(map(int, body.split(","))) if body else ()
        except ValueError as exc:
            raise GroupSpecError(f"bad element {text!r}") from exc
    try:
        return (int(text),)
    except ValueError as exc:
        raise GroupSpecError(f"bad element {text!r}") from exc


def parse_ints(tokens) -> list[int]:
    """Integer tokens of a certificate line; anything else raises ``GroupSpecError``."""
    try:
        return list(map(int, tokens))
    except ValueError as exc:
        raise GroupSpecError(f"bad integer in {' '.join(tokens)!r}") from exc


def header_fields(tokens, ints=()) -> dict:
    """``key=value`` tokens of a certificate header line.

    Every key in ``ints`` must be present and is converted to an integer;
    anything malformed raises ``GroupSpecError``.
    """
    fields = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise GroupSpecError(f"bad header field {token!r}")
        fields[key] = value
    for key in ints:
        try:
            fields[key] = int(fields[key])
        except (KeyError, ValueError) as exc:
            raise GroupSpecError(f"header needs an integer {key}=") from exc
    return fields


def certificate_lines(text: str) -> list[str]:
    """The content lines of a certificate: neither blank nor ``#`` annotations."""
    return [ln for ln in text.splitlines() if (lead := ln.lstrip()) and lead[0] != "#"]


def read_header(text: str, what: str, counts: dict) -> tuple[list[str], list[str]]:
    """The header tokens and the body lines of a certificate whose header word
    is a key of ``counts`` and whose header line has that many tokens (None:
    any count); any other first line raises ``GroupSpecError("not a <what>")``."""
    lines = certificate_lines(text)
    header = lines[0].split() if lines else []
    if not header or header[0] not in counts or counts[header[0]] not in (None, len(header)):
        raise GroupSpecError(f"not a {what}")
    return header, lines[1:]


def element_texts(spec: GroupSpec) -> list[str]:
    """``format_element(e)`` for every element, in enumeration order, built column by column."""
    k = spec.arity
    names = ["()" if k == 0 else ""]
    for t, f in enumerate(spec.factors):
        lead, tail = ("", "") if k == 1 else ("," if t else "(", ")" if t == k - 1 else "")
        column = [lead + str(x) + tail for x in range(f)]
        names = [n + c for n in names for c in column]
    return names


def element_names(spec: GroupSpec) -> dict[str, int]:
    """``{format_element(e): index}`` for every element: :func:`element_texts` inverted."""
    names = element_texts(spec)
    return dict(zip(names, range(len(names))))


def _worth_a_table(spec: GroupSpec, rows):
    """Whether the rows' tokens hold a character per element (of a group within the order
    bound), so that a table of the group costs no more than the text; and the rows again."""
    rows, head, count, order = iter(rows), [], 0, spec.order
    if order <= DEFAULT_ORDER_BOUND:
        for row in rows:
            head.append(row)
            count += sum(map(len, row))
            if count >= order:
                break
    return count >= order, chain(head, rows)


def read_indices(spec: GroupSpec, rows):
    """Yield each row of element tokens as a list of element indices.  When the rows are
    worth a table of the group, tokens spelled as :func:`format_element` writes them are
    looked up in :func:`element_names`; a row with any other token is read one token at a
    time, and a token that is not an element of the group raises ``GroupSpecError``."""
    worth, rows = _worth_a_table(spec, rows)
    lookup = (element_names(spec) if worth else {}).__getitem__
    for row in rows:
        try:
            indices = list(map(lookup, row))
        except KeyError:  # "(5)" and "-1" are elements too; else name the bad token
            elems = list(map(parse_element, row))
            bad = next((e for e in elems if len(e) != spec.arity), None)
            if bad is not None:
                raise GroupSpecError(f"element {bad} has {len(bad)} coordinates, group {spec} has {spec.arity}")
            indices = list(map(spec.index_of, elems))
        yield indices


def write_rows(names: list[str], header: str, rows) -> str:
    """A certificate: the header line, then one line per row of indices, each
    index i written as ``names[i]``, space-separated: :func:`element_texts` for
    the elements of a group, the decimal numerals for integer arrays."""
    lines = map(" ".join, map(map, repeat(names.__getitem__), rows))
    return "\n".join([header, *lines]) + "\n"


class PackedTable:
    """Every coordinate of each element in one integer: coordinate t of ``table[i]``
    sits in a bit field of ``(terms * (f_t - 1)).bit_length()`` bits, the last factor
    lowest, so a sum of up to ``terms`` entries keeps each raw coordinate sum apart."""

    def __init__(self, spec: GroupSpec, terms: int):
        widths = [(terms * (f - 1)).bit_length() for f in spec.factors]
        offsets = [sum(widths[t + 1 :]) for t in range(len(widths))]
        self.fields = list(zip(offsets, [(1 << w) - 1 for w in widths], spec.factors))
        self.mask = sum(((f & -f) - 1) << offset for offset, _, f in self.fields)  # low bits of 2-parts
        self.odd = [(offset, bits, f // (f & -f)) for offset, bits, f in self.fields if f & (f - 1)]
        self.table = outer_sum([x << offset for x in range(f)] for offset, _, f in self.fields)

    def first_unlike(self, sums, base: int = 0) -> int | None:
        """The position of the first sum that is another element than the sum ``base`` (by default
        the identity), or None.  A distinct sum's key is the 2-parts of its fields (one AND) and
        the odd part of each field (shift, mask, mod): by the Chinese remainder theorem, its element."""
        distinct = list({base, *sums})
        streams = [map(self.mask.__and__, distinct)]
        streams += [map(q.__rmod__, map(bits.__and__, map(o.__rrshift__, distinct))) for o, bits, q in self.odd]
        keys = dict(zip(distinct, zip(*streams)))
        if len(set(keys.values())) == 1:
            return None
        return next(i for i, s in enumerate(sums) if keys[s] != keys[base])

    def element(self, s: int) -> Element:
        return tuple((s >> offset & bits) % f for offset, bits, f in self.fields)


@dataclass(frozen=True)
class Check:
    """A verifier's verdict.  Certificates are grids: a rejection names the
    failing ``row`` (a partition's block, a Kotzig array's row), ``col`` (a
    triple bijection's element, a Kotzig array's column) or neither."""

    ok: bool
    row: int | None = None
    col: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def checked(artifact, check: Check):
    """``artifact`` if its verifier accepted it; a constructor's output that
    fails its own check is a bug, not a rejection."""
    if not check.ok:
        raise AssertionError(f"internal: built certificate failed verification: {check.reason}")
    return artifact


# -- factorisation and canonical form ----------------------------------------


def _factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation as (prime, exponent) pairs, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def canonical_factors(spec: GroupSpec) -> tuple[int, ...]:
    """Prime-power components of the presentation, sorted ascending.

    Two presentations describe isomorphic groups exactly when their
    canonical factor tuples are equal.
    """
    parts: list[int] = []
    for f in spec.factors:
        check_order(f, "cyclic factor")  # before trial division, which a huge prime stalls
        for p, e in _factorize(f):
            parts.append(p**e)
    return tuple(sorted(parts))


def two_torsion_rank(spec: GroupSpec) -> int:
    """Number of even canonical components; the group has 2^rank - 1 involutions."""
    return sum(1 for f in spec.factors if f % 2 == 0)


def involution_count(spec: GroupSpec) -> int:
    return 2 ** two_torsion_rank(spec) - 1


def involution_closure(spec: GroupSpec) -> list[int]:
    """The indices of the identity and the involutions (every g with 2g = 0),
    ascending: each even factor contributes 0 or (f/2)·stride, and each such
    term exceeds the sum of all later ones, so the outer sum is sorted."""
    return outer_sum([0, f // 2 * s] for f, s in zip(spec.factors, spec.strides) if f % 2 == 0)


def involutions(spec: GroupSpec) -> tuple[Element, ...]:
    """All elements of order exactly 2, in enumeration order; 2^rank - 1 of them."""
    return tuple(map(spec.element_at, involution_closure(spec)[1:]))


def sum_all(spec: GroupSpec) -> Element:
    """Sum of all elements: the unique involution (f/2 at the even factor) at 2-torsion rank 1, else 0."""
    if two_torsion_rank(spec) != 1:
        return spec.identity()
    return tuple(f // 2 if f % 2 == 0 else 0 for f in spec.factors)


def in_class_g(spec: GroupSpec) -> bool:
    """True when the order is odd or the group has more than one involution."""
    return spec.order % 2 == 1 or two_torsion_rank(spec) >= 2


# -- the 2-part / odd-part split ----------------------------------------------


def outer_sum(tables) -> list[int]:
    """Every sum of one entry from each table, in mixed-radix order (the last
    table varies fastest)."""
    out = [0]
    for table in tables:
        out = [c + x for c in out for x in table]
    return out


def multiples(spec: GroupSpec, k: int) -> list[int]:
    """The index of k * g for each element index g."""
    return outer_sum([k * x % f * s for x in range(f)] for f, s in zip(spec.factors, spec.strides))


def two_part_split(spec: GroupSpec) -> tuple[GroupSpec, GroupSpec, list[int]]:
    """``(two_spec, odd_spec, merged)`` of :func:`two_part_tables`."""
    two_spec, odd_spec, _, merged = two_part_tables(spec)
    return two_spec, odd_spec, merged


def two_part_tables(spec: GroupSpec) -> tuple[GroupSpec, GroupSpec, list[int], list[int]]:
    """The group as (2-part) x (odd part), by the Chinese remainder theorem:
    ``(two_spec, odd_spec, codes, merged)``.

    Each factor f = 2^a * q gives ``two_spec`` its factor 2^a (when a > 0) and
    ``odd_spec`` the prime powers of q, primes ascending.  ``codes[g]`` is
    t * odd_spec.order + o for the element g whose 2-part has index t and whose
    odd part has index o, and ``merged`` is its inverse.  Each factor gets a
    table of size f, holding the code that each residue adds; ``codes`` is the
    outer sum of those tables.
    """
    check_order(spec.order)
    parts = [[p**e for p, e in _factorize(f)] for f in spec.factors]
    two_spec = GroupSpec(tuple(qs[0] for qs in parts if qs[0] % 2 == 0))
    odd_spec = GroupSpec(tuple(q for qs in parts for q in qs if q % 2))
    two_weights = iter([s * odd_spec.order for s in two_spec.strides])
    odd_weights = iter(odd_spec.strides)
    tables = []
    for f, qs in zip(spec.factors, parts):
        table = [0] * f
        for q in qs:
            w = next(odd_weights if q % 2 else two_weights)
            table = list(map(_add, table, [x * w for x in range(q)] * (f // q)))
        tables.append(table)
    codes = outer_sum(tables)
    merged = [0] * len(codes)
    for g, c in enumerate(codes):
        merged[c] = g
    return two_spec, odd_spec, codes, merged


# -- isomorphism class enumeration --------------------------------------------


def _partitions(n: int, least: int) -> list[tuple[int, ...]]:
    """Integer partitions of n into parts >= least, parts non-increasing."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), least - 1, -1):
            if 0 < remaining - part < least:
                continue
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def abelian_isomorphism_classes(order: int) -> list[GroupSpec]:
    """One presentation per isomorphism class of Abelian groups of this order.

    Factors are prime powers, grouped by prime ascending with exponents
    ascending within a prime.
    """
    if order < 1:
        raise ParameterError("order must be positive")
    if order == 1:
        return [GroupSpec(())]
    per_prime = []
    for p, e in _factorize(order):
        per_prime.append([tuple(sorted(p**k for k in part)) for part in _partitions(e, 1)])
    specs = []
    for combo in _cartesian(*per_prime):
        factors: list[int] = []
        for group in combo:
            factors.extend(group)
        specs.append(GroupSpec(tuple(factors)))
    return sorted(specs, key=lambda s: s.factors)


def abelian_groups_up_to(max_order: int, *, min_order: int = 2):
    """Yield one GroupSpec per isomorphism class for every order in range."""
    for n in range(min_order, max_order + 1):
        yield from abelian_isomorphism_classes(n)
