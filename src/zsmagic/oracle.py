"""Independent exhaustive-search ground truth for small instances.

Every search here is a canonical backtracking that never consults the
constructors; found witnesses are re-verified with the owning module's
verifier before being reported.  Pruning is limited to constraints every
completion must satisfy (injectivity, zero sums, column sums, equal
labeling weights and the total-sum feasibility checks at the root) and to
the labeling normal form below, so ``found=False`` together with
``exhausted=True`` is a proof of nonexistence.

Two kernels carry the partition, array and bijection searches: the
sized-block kernel (zero-sum blocks with a given multiset of sizes, run by
``search_zsp`` and ``conjecture_scan``) and the grid kernel (Kotzig arrays
filled column by column from a step table and a forced-cell table, run by
both modes of ``search_kotzig`` and by ``search_triple_bijection``: a
triple bijection is the 3-row grid with column sum 0, phi its middle row
and psi its forced last row).  A node is one choice the search commits
to: an anchor with the size of the block it opens, a free element or a
forced element.  Each kernel counts its own nodes and returns the count,
and a budget b cuts it at node b + 1, the count a cut search reports.
``search_zsp`` opens its first block on the identity without a choice, so
that anchor is not a node.  The grid kernel fills the last two rows of a
column together, from a table of (free value, forced last cell) pairs;
each cell is still one node, and a pair with a cell already used is
skipped without a node.  That is the last row's own test made one level
earlier, so it removes only branches no completion can use, and proofs
and least witnesses are unchanged.

Witnesses are deterministic: the least solution in the documented search
order (element enumeration order, grids column-major, labelings by vertex
index).  Group grids are searched at column sum 0 only: adding c to every
cell of row 1 keeps that row a permutation and adds c to every column sum,
so an array with some common column sum exists exactly when one with sum
0 does.

Labeling normal form: S is the maps sigma(x) = u*x + c, u a unit modulo
the exponent, c with (deg x - deg y)*c = 0 for all vertices x, y.  Vertex
0 takes only labels least in their S-orbit, vertex 1 only those least in
their orbit under the stabiliser of the label of vertex 0.  The weights of
sigma o l are u*w(x) + deg(x)*c, so sigma o l is magic exactly when l is,
and the least magic labeling is in normal form (else a sigma gives a
lesser one).

Labeling cuts, each met by every magic labeling.  Root: on an r-regular
graph the weights sum to n*mu = 0 and to r*sum_all(G), so r*sum_all(G) != 0
admits none.  Pairs: w(x) - w(y) = sum l(N(x) - N(y)) - sum l(N(y) - N(x))
is fixed once N(x) ^ N(y) is placed, no later than both weights, and must
be 0.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from dataclasses import dataclass
from functools import lru_cache
from operator import contains, mul

from .errors import GroupSpecError, ParameterError
from .graphs import Graph, Labeling, labeling_from_text, labeling_to_text, verify_labeling
from .groups import (
    DEFAULT_BUDGET,
    Check,
    GroupSpec,
    _partitions,
    abelian_groups_up_to,
    certificate_lines,
    element_texts,
    format_element,
    header_fields,
    involution_count,
    parse_group_spec,
    read_header,
    read_indices,
    sum_all,
    write_rows,
)
from .kotzig import (
    GroupKotzigArray,
    IntKotzigArray,
    array_from_text,
    array_to_text,
    verify_kotzig,
)
from .zsp import (
    TripleBijection,
    ZeroSumPartition,
    bijection_from_text,
    bijection_to_text,
    check_blocks,
    partition_from_text,
    partition_to_text,
    verify_triple_bijection,
    verify_zsp,
)

ZSP_ORDER_CAP = 24
KOTZIG_CELL_CAP = 48
BIJECTION_ORDER_CAP = KOTZIG_CELL_CAP // 3  # a bijection is a 3-row grid
LABELING_ORDER_CAP = 12
CONJECTURE_ORDER_CAP = 24


@dataclass(frozen=True)
class SearchReport:
    """Search outcome; ``not found and exhausted`` proves nonexistence."""

    found: bool
    exhausted: bool
    nodes: int
    witness: object | None = None


class _BudgetExceeded(Exception):
    """Raised by a kernel once its node count passes the budget."""


def _settle(budget: int, search, witness_of, check) -> SearchReport:
    """Run ``search()``, which returns ``(found, nodes)`` or raises
    ``_BudgetExceeded`` at node ``budget + 1``, and report the outcome.

    A found witness is built by ``witness_of()`` and must pass ``check``,
    its owning verifier; a rejection means the search itself is wrong.
    """
    try:
        found, nodes = search()
    except _BudgetExceeded:
        return SearchReport(False, False, budget + 1)
    if not found:
        return SearchReport(False, True, nodes)
    witness = witness_of()
    verdict = check(witness)
    if not verdict:
        raise AssertionError(f"internal: search witness failed re-verification: {verdict}")
    return SearchReport(True, True, nodes, witness)


@lru_cache(maxsize=None)
def _tables(spec: GroupSpec):
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    add = [[index[spec.add(a, b)] for b in elems] for a in elems]
    neg = [index[spec.neg(a)] for a in elems]
    return elems, add, neg


# -- sized-block kernel: zero-sum partitions of equal or unequal sizes -----------


def _block_kernel(add, neg, assigned: list[bool], sizes: Counter, budget: int):
    """Canonical backtracking over zero-sum blocks of the unassigned elements.

    ``close()`` opens the next block on the least unassigned element, trying
    each size left in the multiset ``sizes`` in ascending order, and
    succeeds once every element is assigned.  ``extend(block, total, size)``
    grows the open block in ascending element order; its last element is
    forced by the zero-sum condition.  Returns ``(blocks, run)``: ``blocks``
    holds the closed blocks of the current branch, and ``run(first)`` searches
    from the root, or with a block of size ``first`` open on the identity
    (index 0), and returns ``(found, nodes)``.
    """
    n = len(assigned)
    blocks: list[list[int]] = []
    nodes = 0

    def close() -> bool:
        nonlocal nodes
        if all(assigned):
            return True
        anchor = assigned.index(False)
        for size in sorted(sizes):
            if sizes[size] == 0:
                continue
            sizes[size] -= 1
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            assigned[anchor] = True
            if extend([anchor], anchor, size):
                return True
            assigned[anchor] = False
            sizes[size] += 1
        return False

    def extend(block: list[int], total: int, size: int) -> bool:
        nonlocal nodes
        if len(block) == size:
            if total != 0:
                return False
            blocks.append(list(block))
            if close():
                return True
            blocks.pop()
            return False
        if len(block) == size - 1:
            forced = neg[total]
            choices = (forced,) if forced > block[-1] else ()
        else:
            choices = range(block[-1] + 1, n)
        for i in choices:
            if assigned[i]:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            assigned[i] = True
            block.append(i)
            if extend(block, add[total][i], size):
                return True
            block.pop()
            assigned[i] = False
        return False

    def run(first: int = 0) -> tuple[bool, int]:
        found = extend([0], 0, first) if first else close()
        return found, nodes

    return blocks, run


def search_zsp(spec: GroupSpec, m: int, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for a partition into m-element zero-sum blocks.

    Canonical form: the open block always contains the least unassigned
    element and grows in ascending element order; the last element of a
    block is forced by the zero-sum condition.
    """
    if m < 1:
        raise ParameterError(f"block size must be positive, got {m}")
    if spec.order > ZSP_ORDER_CAP:
        raise ParameterError(f"exhaustive partition search capped at order {ZSP_ORDER_CAP}")
    if spec.order % m != 0:
        return SearchReport(False, True, 0)
    if sum_all(spec) != spec.identity():
        # every full partition sums the whole group into zero blocks
        return SearchReport(False, True, 0)
    elems, add, neg = _tables(spec)
    assigned = [False] * len(elems)
    assigned[0] = True  # the first block opens on the identity
    sizes = Counter({m: spec.order // m - 1})
    blocks, run = _block_kernel(add, neg, assigned, sizes, budget)
    return _settle(
        budget,
        lambda: run(m),
        # the kernel closes blocks in canonical order: each block ascending, blocks by their least element
        lambda: ZeroSumPartition(spec, m, tuple(map(tuple, blocks))),
        lambda witness: verify_zsp(spec, witness, m),
    )


# -- grid kernel: Kotzig arrays and triple bijections --------------------------------


def search_triple_bijection(spec: GroupSpec, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for permutations with g + phi(g) + psi(g) = 0.

    A triple bijection is a 3 x n group Kotzig array with column sum 0:
    row 0 is the enumeration, row 1 is phi and row 2 is psi, forced to
    -g - phi(g).  The grid kernel fills phi in enumeration order; the root
    is pruned when three times the total element sum cannot vanish.
    """
    if spec.order > BIJECTION_ORDER_CAP:
        raise ParameterError(
            f"exhaustive bijection search capped at order {BIJECTION_ORDER_CAP}"
        )

    def bijection_of(grid):
        return TripleBijection(spec, tuple(grid[1]), tuple(grid[2]))

    return _search_group_grid(spec, 3, bijection_of, verify_triple_bijection, budget)


def search_kotzig(target, j: int, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for a j x k Kotzig array.

    ``target`` is a GroupSpec (group mode) or an integer k (integer mode).
    The first row is fixed to the enumeration (any array can be column
    permuted into that form); remaining rows are filled column by column
    with the last row forced by the column sum.
    """
    if isinstance(target, GroupSpec):
        if j < 1:
            raise ParameterError(f"row count must be positive, got {j}")
        kind, k = GroupKotzigArray, target.order
    elif isinstance(target, int):
        if j < 1 or target < 1:
            raise ParameterError(f"grid dimensions must be positive, got {j} x {target}")
        kind, k = IntKotzigArray, target
    else:
        raise ParameterError(f"target must be a GroupSpec or an integer, got {target!r}")
    if j * k > KOTZIG_CELL_CAP:
        raise ParameterError(f"exhaustive array search capped at {KOTZIG_CELL_CAP} cells")

    def array_of(grid):
        return kind(target, tuple(map(tuple, grid)))

    if kind is GroupKotzigArray:
        return _search_group_grid(target, j, array_of, verify_kotzig, budget)
    if (j * (k - 1)) % 2 != 0:
        # the common column sum would be j(k-1)/2, not an integer
        return SearchReport(False, True, 0)
    mu = j * (k - 1) // 2
    # a column total never exceeds (j - 1)(k - 1) before its last cell
    totals = range((j - 1) * (k - 1) + 1)
    step = [[s + v for v in range(k)] for s in totals]
    forced = [mu - s if 0 <= mu - s < k else -1 for s in totals]
    return _search_grid(j, k, step, forced, array_of, verify_kotzig, budget)


def _search_grid(j: int, k: int, step, forced, witness_of, check, budget: int) -> SearchReport:
    """Column-major backtracking over a j x k grid of values 0..k-1.

    Row 0 is 0..k-1, so column c opens on total c, and every row is a
    permutation.  A column's running total s becomes ``step[s][v]`` when
    value v joins it, and ``forced[s]`` is the last cell of a column with
    total s, or -1 when no value completes it.  ``witness_of`` turns the
    filled grid into the object that ``check`` verifies.

    The row before the last and the last row are filled together, from
    ``pairs[s]``: each value v, ascending, whose forced last cell
    w = forced[step[s][v]] exists (an integer total past the table has
    none), with its w.  A pair is two nodes, one per cell, spent as a
    cell-by-cell fill spends them, so a cut can come one node past
    ``budget + 1``; ``_settle`` reports ``budget + 1`` either way.  A pair
    whose v or w is used is skipped without a node: the last row's test
    refuses w, so no completion uses v, and proofs and least witnesses are
    unchanged.
    """
    grid = [list(range(k))] + [[-1] * k for _ in range(j - 1)]
    used = [[False] * k for _ in range(j)]
    before, last = j - 2, j - 1
    pairs = [[(v, forced[t]) for v, t in enumerate(row) if t < len(forced) and forced[t] >= 0] for row in step]
    before_row, before_used, last_row, last_used = grid[before], used[before], grid[last], used[last]
    nodes = 0

    def fill(c: int, r: int, colsum: int) -> bool:
        nonlocal nodes
        if r == before:
            for v, w in pairs[colsum]:
                if before_used[v] or last_used[w]:
                    continue
                nodes += 2
                if nodes > budget:
                    raise _BudgetExceeded
                before_row[c], last_row[c] = v, w
                before_used[v] = last_used[w] = True
                if c + 1 == k or fill(c + 1, 1, c + 1):
                    return True
                before_used[v] = last_used[w] = False
            return False
        if r == last:  # j = 2: column c closes on forced[c] (-c, or k - 1 - c), which exists and no other column uses
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            last_row[c] = forced[colsum]
            return c + 1 == k or fill(c + 1, 1, c + 1)
        for v in range(k):
            if used[r][v]:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            grid[r][c] = v
            used[r][v] = True
            if fill(c, r + 1, step[colsum][v]):
                return True
            used[r][v] = False
        return False

    def search() -> tuple[bool, int]:
        # a single row is a permutation, so its columns agree only when k = 1
        found = k == 1 if j == 1 else fill(0, 1, 0)
        return found, nodes

    return _settle(budget, search, lambda: witness_of(grid), check)


def _search_group_grid(spec: GroupSpec, j: int, witness_of, check, budget: int) -> SearchReport:
    """The grid kernel over a group at column sum 0, which loses no array
    (module docstring).  The grid total j * sum_all(spec) is also k * mu = 0,
    so the root is pruned when it does not vanish."""
    if spec.scale(j, sum_all(spec)) != spec.identity():
        return SearchReport(False, True, 0)
    _elems, add, neg = _tables(spec)
    # a column with total s closes on -s
    return _search_grid(j, spec.order, add, neg, witness_of, check, budget)


# -- magic labeling search --------------------------------------------------------


def search_labeling(g: Graph, spec: GroupSpec, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for a magic labeling of ``g`` by ``spec``.

    Vertices take labels in index order.  A regular graph whose r*sum_all
    is not 0 is refused at the root; every other check is a pair check:
    w(x) - w(y) is fixed once N(x) ^ N(y) is placed and must be 0 (module
    docstring).  A pair is checked at that depth unless pairs checked no
    later already join x and y, as their differences then add up to it.

    Vertices 0 and 1 take only labels in the normal form of the module
    docstring.  As sigma o l has weights u*w(x) + deg(x)*c and is magic
    exactly when l is, the least witness is in normal form: it is found
    unchanged, and an exhausted search is still a proof.
    """
    if g.n != spec.order:
        raise ParameterError(f"graph order {g.n} does not match group order {spec.order}")
    if spec.order > LABELING_ORDER_CAP:
        raise ParameterError(
            f"exhaustive labeling search capped at order {LABELING_ORDER_CAP}"
        )
    spread = math.gcd(*(d - g.degrees[0] for d in g.degrees))  # 0 on a regular graph
    if spread == 0 and spec.scale(g.degrees[0], sum_all(spec)) != spec.identity():
        return SearchReport(False, True, 0)
    elems, add, neg = _tables(spec)
    n = g.n
    # (depth, cost, x, y, A, B) with A = N(x) - N(y) and B = N(y) - N(x) placed by that depth
    diffs = []
    for x in range(n):
        for y in range(x + 1, n):
            a, b = set(g.adj[x]) - set(g.adj[y]), set(g.adj[y]) - set(g.adj[x])
            if a or b:
                diffs.append((max(a | b) + 1, len(a) + len(b), x, y, tuple(a), tuple(b)))
    # a spanning forest of the pairs, shallowest and cheapest first: the checks at each depth
    checks: list[list[tuple]] = [[] for _ in range(n + 1)]
    root = list(range(n))
    for depth, _cost, x, y, a, b in sorted(diffs):
        while root[x] != x:
            x = root[x]
        while root[y] != y:
            y = root[y]
        if x != y:
            root[x] = y
            checks[depth].append((a, b))
    labels = [-1] * n
    used = [False] * n
    nodes = 0
    # the normal form, as element indices: each map is a table x -> u*x + c
    exponent = math.lcm(*spec.factors)
    units = [u for u in range(exponent) if math.gcd(u, exponent) == 1]
    shifts = [c for c, e in enumerate(elems) if spec.scale(spread, e) == spec.identity()]
    maps = [[add[spec.index_of(spec.scale(u, e))][c] for e in elems] for u in units for c in shifts]
    firsts = [a for a in range(n) if all(m[a] >= a for m in maps)]
    seconds = {
        a: [b for b in range(n) if all(m[b] >= b for m in maps if m[a] == a)] for a in firsts
    }

    def _sum(vertices) -> int:
        total = 0
        for u in vertices:
            total = add[total][labels[u]]
        return total

    def extend(v: int) -> bool:
        nonlocal nodes
        if v == n:
            return True
        for value in firsts if v == 0 else seconds[labels[0]] if v == 1 else range(n):
            if used[value]:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExceeded
            labels[v] = value
            used[value] = True
            for a, b in checks[v + 1]:
                if _sum(a) != _sum(b):
                    break
            else:
                if extend(v + 1):
                    return True
            used[value] = False
        return False

    return _settle(
        budget,
        lambda: (extend(0), nodes),
        lambda: Labeling(spec, tuple(labels)),
        lambda witness: verify_labeling(g, witness).is_magic,
    )


# -- unequal-size zero-sum partitions (conjecture mode) -----------------------------


def _check_sized(spec: GroupSpec, rows, sizes, name=None) -> Check:
    """Block sizes, then ``check_blocks`` on the nonidentity elements, for blocks of element indices."""
    if Counter(map(len, rows)) != Counter(sizes):
        return Check(False, reason="block sizes do not match")
    return check_blocks(spec, rows, range(1, spec.order), name)


def verify_sized_partition(spec: GroupSpec, blocks, sizes) -> Check:
    """Check a partition of the nonidentity elements into zero-sum blocks
    with the given multiset of sizes.

    Blocks hold elements, as ``sized_partition_from_text`` and the search
    return them; an element that is not a reduced element of the group is
    outside the universe.  The checks are those of ``_check_sized``.
    """
    ranges, strides = [range(f) for f in spec.factors], spec.strides
    outside = []  # the elements that are not reduced elements of the group, as indices -1, -2, ...

    def index(e) -> int:
        if len(e) == len(ranges) and all(map(contains, ranges, e)):
            return sum(map(mul, e, strides))
        outside.append(e)
        return -len(outside)

    def name(i: int) -> str:
        return format_element(outside[~i] if i < 0 else spec.element_at(i))

    return _check_sized(spec, [[index(e) for e in block] for block in blocks], sizes, name)


def conjecture_scan(spec: GroupSpec, parts, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Search for a partition of the nonidentity elements into zero-sum
    blocks of the given sizes (each at least 3, summing to order - 1).

    Blocks are unordered, so the sizes are canonicalised to a multiset.
    Requires even order and at least three involutions.
    """
    parts = tuple(int(p) for p in parts)
    if spec.order % 2 != 0 or involution_count(spec) < 3:
        raise ParameterError(
            f"{spec} must have even order and at least three involutions"
        )
    if any(p < 3 for p in parts):
        raise ParameterError(f"all block sizes must be >= 3, got {parts}")
    if sum(parts) != spec.order - 1:
        raise ParameterError(
            f"sizes {parts} sum to {sum(parts)}, expected order - 1 = {spec.order - 1}"
        )
    if spec.order > CONJECTURE_ORDER_CAP:
        raise ParameterError(
            f"exhaustive partition search capped at order {CONJECTURE_ORDER_CAP}"
        )
    # three involutions make the 2-torsion rank at least 2, so sum_all(spec) is the identity
    elems, add, neg = _tables(spec)
    assigned = [False] * len(elems)
    assigned[0] = True  # the identity is excluded from the universe
    blocks, run = _block_kernel(add, neg, assigned, Counter(parts), budget)
    # the kernel's index blocks are checked; the element-tuple witness is built once they pass
    report = _settle(budget, run, lambda: blocks, lambda rows: _check_sized(spec, rows, parts))
    if not report.found:
        return report
    return SearchReport(True, True, report.nodes, (spec, tuple(tuple(elems[i] for i in blk) for blk in blocks)))


def scan_conjecture(max_order: int, budget: int = DEFAULT_BUDGET):
    """Run conjecture_scan over every qualifying group up to ``max_order``
    and every multiset of block sizes; yields (spec, sizes, report).

    Qualifying groups have even order and at least three involutions.
    Compositions of the same multiset describe the same unordered
    partition, so each multiset is searched once.  A qualifying group past
    ``CONJECTURE_ORDER_CAP`` raises ``ParameterError`` before any row.
    """
    specs = []
    for spec in abelian_groups_up_to(max_order):
        if spec.order % 2 != 0 or involution_count(spec) < 3:
            continue
        if spec.order > CONJECTURE_ORDER_CAP:
            raise ParameterError(
                f"exhaustive partition search capped at order {CONJECTURE_ORDER_CAP}"
            )
        specs.append(spec)
    for spec in specs:
        for sizes in _partitions(spec.order - 1, 3):
            yield spec, sizes, conjecture_scan(spec, sizes, budget)


# -- report certificates -------------------------------------------------------------


def sized_partition_to_text(spec: GroupSpec, blocks) -> str:
    sizes = ",".join(str(len(b)) for b in blocks)
    rows = ([spec.index_of(e) for e in block] for block in blocks)
    return write_rows(element_texts(spec), f"partition-sizes {spec} sizes={sizes}", rows)


def sized_partition_from_text(text: str):
    """The group and the blocks of a sized-partition certificate, whose
    block sizes must be the header's ``sizes=``."""
    header, body = read_header(text, "sized-partition certificate", {"partition-sizes": 3})
    spec = parse_group_spec(header[1])
    try:
        sizes = tuple(int(s) for s in header_fields(header[2:])["sizes"].split(","))
    except (KeyError, ValueError) as exc:
        raise GroupSpecError("header needs sizes=<size>,<size>,...") from exc
    blocks = tuple(tuple(map(spec.element_at, row)) for row in read_indices(spec, map(str.split, body)))
    if Counter(map(len, blocks)) != Counter(sizes):
        raise GroupSpecError("the block sizes contradict the header's sizes=")
    return spec, blocks


# A sized-partition witness is (spec, blocks); a labeling is checked against a graph, so it has no verifier.
_Kind = namedtuple("_Kind", "cls word write read verify")
_WITNESS_KINDS = {
    "zsp": _Kind(ZeroSumPartition, "partition", partition_to_text, partition_from_text,
                 lambda p: verify_zsp(p.spec, p, p.m)),
    "bijection": _Kind(TripleBijection, "bijection", bijection_to_text, bijection_from_text,
                       verify_triple_bijection),
    "kotzig": _Kind(GroupKotzigArray, "kotzig", array_to_text, array_from_text, verify_kotzig),
    "kotzig-int": _Kind(IntKotzigArray, "kotzig-int", array_to_text, array_from_text, verify_kotzig),
    "labeling": _Kind(Labeling, "labeling", labeling_to_text, labeling_from_text, None),
    "sized-partition": _Kind(tuple, "partition-sizes", lambda w: sized_partition_to_text(*w),
                             sized_partition_from_text, lambda w: verify_sized_partition(*w, map(len, w[1]))),
}


def witness_kind(witness) -> str:
    for kind, row in _WITNESS_KINDS.items():
        if isinstance(witness, row.cls):
            return kind
    raise ParameterError(f"unknown witness type {witness!r}")


def report_to_text(report: SearchReport, kind: str | None = None) -> str:
    if kind is None and report.witness is not None:
        kind = witness_kind(report.witness)
    head = (
        f"report kind={kind or 'unknown'} found={str(report.found).lower()} "
        f"exhausted={str(report.exhausted).lower()} nodes={report.nodes}"
    )
    if report.witness is None:
        return head + "\n"
    return head + "\n" + _WITNESS_KINDS[kind].write(report.witness)


def report_from_text(text: str) -> tuple[str, SearchReport]:
    """A search report; only a ``found=true`` report carries a witness,
    the certificate of its kind."""
    header, body = read_header(text, "search report", {"report": None})
    fields = header_fields(header[1:], ints=("nodes",))
    if len(header) != 5 or fields.keys() != {"kind", "found", "exhausted", "nodes"}:
        raise GroupSpecError("a report header has kind=, found=, exhausted= and nodes=, once each")
    for key in ("found", "exhausted"):
        if fields.get(key) not in ("true", "false"):
            raise GroupSpecError(f"header needs {key}=true or {key}=false")
    if fields["nodes"] < 0:
        raise GroupSpecError(f"header says nodes={fields['nodes']}, a count cannot be negative")
    kind = fields["kind"]
    found = fields["found"] == "true"
    # a report without a witness may say kind=unknown, as report_to_text writes it
    if kind not in (_WITNESS_KINDS if found else {*_WITNESS_KINDS, "unknown"}):
        raise GroupSpecError(f"unknown report kind {kind!r}")
    if found and not body:
        raise GroupSpecError("report says found=true but carries no witness")
    if body and not found:
        raise GroupSpecError("report says found=false but carries a witness")
    witness = _WITNESS_KINDS[kind].read("\n".join(body)) if found else None
    if found and witness_kind(witness) != kind:  # one reader serves kotzig and kotzig-int
        raise GroupSpecError(f"report kind={kind} carries a {witness_kind(witness)} witness")
    return kind, SearchReport(found, fields["exhausted"] == "true", fields["nodes"], witness)


def certificate_from_text(text: str):
    """The word, the witness and the verifier (None for a labeling) of a certificate
    or a found report; a report without a witness gives ``("report", None, None)``."""
    lines = certificate_lines(text)
    word = lines[0].split()[0] if lines else ""
    if word == "report":
        kind, report = report_from_text(text)
        if not report.found:
            return "report", None, None
        row, witness = _WITNESS_KINDS[kind], report.witness
    else:
        row = next((row for row in _WITNESS_KINDS.values() if row.word == word), None)
        if row is None:
            raise ParameterError(f"unrecognised certificate kind {word!r}")
        witness = row.read(text)
    return row.word, witness, row.verify
