"""Independent exhaustive-search ground truth for small instances.

Every search here is a canonical backtracking that never consults the
constructors; found witnesses are re-verified with the owning module's
verifier before being reported.  Pruning is limited to constraints every
completion must satisfy (injectivity, zero sums, column sums and the
total-sum feasibility check at the root), so ``found=False`` together
with ``exhausted=True`` is a proof of nonexistence.

Witnesses are deterministic: the least solution in the documented search
order (element enumeration order, grids scanned per column sum then
column-major, labelings by vertex index).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from operator import mod

from .errors import GroupSpecError, ParameterError
from .graphs import Graph, Labeling, labeling_from_text, labeling_to_text, verify_labeling
from .groups import (
    Element,
    GroupSpec,
    abelian_groups_up_to,
    format_element,
    header_fields,
    involution_count,
    parse_group_spec,
    sum_all,
)
from .kotzig import (
    GroupKotzigArray,
    IntKotzigArray,
    array_from_text,
    array_to_text,
    verify_kotzig,
)
from .zsp import (
    PartitionCheck,
    TripleBijection,
    ZeroSumPartition,
    bijection_from_text,
    bijection_to_text,
    format_blocks,
    parse_blocks,
    partition_from_text,
    partition_to_text,
    verify_triple_bijection,
    verify_zsp,
)

DEFAULT_BUDGET = 10**7

ZSP_ORDER_CAP = 24
BIJECTION_ORDER_CAP = 16
KOTZIG_CELL_CAP = 48
LABELING_ORDER_CAP = 10
CONJECTURE_ORDER_CAP = 24


@dataclass(frozen=True)
class SearchReport:
    """Search outcome; ``not found and exhausted`` proves nonexistence."""

    found: bool
    exhausted: bool
    nodes: int
    witness: object | None = None


class _BudgetExceeded(Exception):
    pass


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, budget: int):
        self.left = budget
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        self.spent += amount
        if self.left < 0:
            raise _BudgetExceeded


def _reverify(report: SearchReport, check) -> SearchReport:
    if report.found and not check.ok:
        raise AssertionError(f"internal: search witness failed re-verification: {check.reason}")
    return report


@lru_cache(maxsize=None)
def _tables(spec: GroupSpec):
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    add = [[index[spec.add(a, b)] for b in elems] for a in elems]
    neg = [index[spec.neg(a)] for a in elems]
    return elems, add, neg


# -- zero-sum partition search -------------------------------------------------


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
    n = len(elems)
    tracker = _Budget(budget)
    assigned = [False] * n
    blocks: list[list[int]] = []

    def least_free() -> int:
        for i in range(n):
            if not assigned[i]:
                return i
        return -1

    def extend(block: list[int], total: int) -> bool:
        if len(block) == m:
            if total != 0:
                return False
            blocks.append(list(block))
            anchor = least_free()
            if anchor < 0:
                return True
            tracker.spend()
            assigned[anchor] = True
            if extend([anchor], anchor):
                return True
            assigned[anchor] = False
            blocks.pop()
            return False
        if len(block) == m - 1:
            forced = neg[total]
            if forced > block[-1] and not assigned[forced]:
                tracker.spend()
                assigned[forced] = True
                block.append(forced)
                if extend(block, 0):
                    return True
                block.pop()
                assigned[forced] = False
            return False
        for i in range(block[-1] + 1, n):
            if assigned[i]:
                continue
            tracker.spend()
            assigned[i] = True
            block.append(i)
            if extend(block, add[total][i]):
                return True
            block.pop()
            assigned[i] = False
        return False

    try:
        assigned[0] = True
        found = extend([0], 0)
    except _BudgetExceeded:
        return SearchReport(False, False, tracker.spent)
    if not found:
        return SearchReport(False, True, tracker.spent)
    witness = ZeroSumPartition.from_blocks(
        spec, m, [[elems[i] for i in blk] for blk in blocks]
    )
    report = SearchReport(True, True, tracker.spent, witness)
    return _reverify(report, verify_zsp(spec, witness, m))


# -- triple bijection search ----------------------------------------------------


def search_triple_bijection(spec: GroupSpec, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for permutations with g + phi(g) + psi(g) = 0.

    Backtracks over phi values in enumeration order with psi forced to
    -g - phi(g) and pruned on injectivity; the root is pruned when three
    times the total element sum cannot vanish.
    """
    if spec.order > BIJECTION_ORDER_CAP:
        raise ParameterError(
            f"exhaustive bijection search capped at order {BIJECTION_ORDER_CAP}"
        )
    if spec.scale(3, sum_all(spec)) != spec.identity():
        return SearchReport(False, True, 0)
    elems, add, neg = _tables(spec)
    n = len(elems)
    tracker = _Budget(budget)
    phi = [-1] * n
    psi = [-1] * n
    used_phi = [False] * n
    used_psi = [False] * n

    def extend(g: int) -> bool:
        if g == n:
            return True
        for v in range(n):
            if used_phi[v]:
                continue
            w = neg[add[g][v]]
            if used_psi[w]:
                continue
            tracker.spend()
            phi[g] = v
            psi[g] = w
            used_phi[v] = True
            used_psi[w] = True
            if extend(g + 1):
                return True
            used_phi[v] = False
            used_psi[w] = False
        return False

    try:
        found = extend(0)
    except _BudgetExceeded:
        return SearchReport(False, False, tracker.spent)
    if not found:
        return SearchReport(False, True, tracker.spent)
    witness = TripleBijection(spec, tuple(phi), tuple(psi))
    report = SearchReport(True, True, tracker.spent, witness)
    return _reverify(report, verify_triple_bijection(witness))


# -- Kotzig array search ---------------------------------------------------------


def search_kotzig(target, j: int, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for a j x k Kotzig array.

    ``target`` is a GroupSpec (group mode) or an integer k (integer mode).
    The first row is fixed to the enumeration (any array can be column
    permuted into that form); remaining rows are filled column by column
    with the last row forced by the column sum.
    """
    if isinstance(target, GroupSpec):
        return _search_group_kotzig(target, j, budget)
    if isinstance(target, int):
        return _search_int_kotzig(target, j, budget)
    raise ParameterError(f"target must be a GroupSpec or an integer, got {target!r}")


def _search_group_kotzig(spec: GroupSpec, j: int, budget: int) -> SearchReport:
    k = spec.order
    if j < 1:
        raise ParameterError(f"row count must be positive, got {j}")
    if j * k > KOTZIG_CELL_CAP:
        raise ParameterError(f"exhaustive array search capped at {KOTZIG_CELL_CAP} cells")
    elems, add, neg = _tables(spec)
    if j == 1:
        # the single row is a permutation; its columns are all distinct
        return SearchReport(False, True, 0) if k > 1 else SearchReport(
            True, True, 0, GroupKotzigArray(spec, (tuple(elems),))
        )
    # the grid total is j * (sum of all elements) and also k * mu = identity
    if spec.scale(j, sum_all(spec)) != spec.identity():
        return SearchReport(False, True, 0)
    tracker = _Budget(budget)
    grid = [[-1] * k for _ in range(j)]
    grid[0] = list(range(k))
    used = [[False] * k for _ in range(j)]

    def fill(mu: int, c: int, r: int, colsum: int) -> bool:
        if r == j - 1:
            forced = add[neg[colsum]][mu]
            if used[r][forced]:
                return False
            tracker.spend()
            grid[r][c] = forced
            used[r][forced] = True
            if c + 1 == k:
                return True
            if fill(mu, c + 1, 1, grid[0][c + 1]):
                return True
            used[r][forced] = False
            return False
        for v in range(k):
            if used[r][v]:
                continue
            tracker.spend()
            grid[r][c] = v
            used[r][v] = True
            if fill(mu, c, r + 1, add[colsum][v]):
                return True
            used[r][v] = False
        return False

    try:
        for mu in range(k):
            for row in used[1:]:
                for i in range(k):
                    row[i] = False
            if fill(mu, 0, 1, grid[0][0]):
                witness = GroupKotzigArray(
                    spec, tuple(tuple(elems[i] for i in row) for row in grid)
                )
                report = SearchReport(True, True, tracker.spent, witness)
                return _reverify(report, verify_kotzig(witness))
    except _BudgetExceeded:
        return SearchReport(False, False, tracker.spent)
    return SearchReport(False, True, tracker.spent)


def _search_int_kotzig(k: int, j: int, budget: int) -> SearchReport:
    if j < 1 or k < 1:
        raise ParameterError(f"grid dimensions must be positive, got {j} x {k}")
    if j * k > KOTZIG_CELL_CAP:
        raise ParameterError(f"exhaustive array search capped at {KOTZIG_CELL_CAP} cells")
    if j == 1:
        return SearchReport(False, True, 0) if k > 1 else SearchReport(
            True, True, 0, IntKotzigArray(1, ((0,),))
        )
    if (j * (k - 1)) % 2 != 0:
        # the common column sum would be j(k-1)/2, not an integer
        return SearchReport(False, True, 0)
    mu = j * (k - 1) // 2
    tracker = _Budget(budget)
    grid = [[-1] * k for _ in range(j)]
    grid[0] = list(range(k))
    used = [[False] * k for _ in range(j)]

    def fill(c: int, r: int, colsum: int) -> bool:
        if r == j - 1:
            forced = mu - colsum
            if forced < 0 or forced >= k or used[r][forced]:
                return False
            tracker.spend()
            grid[r][c] = forced
            used[r][forced] = True
            if c + 1 == k:
                return True
            if fill(c + 1, 1, grid[0][c + 1]):
                return True
            used[r][forced] = False
            return False
        for v in range(k):
            if used[r][v]:
                continue
            tracker.spend()
            grid[r][c] = v
            used[r][v] = True
            if fill(c, r + 1, colsum + v):
                return True
            used[r][v] = False
        return False

    try:
        found = fill(0, 1, 0)
    except _BudgetExceeded:
        return SearchReport(False, False, tracker.spent)
    if not found:
        return SearchReport(False, True, tracker.spent)
    witness = IntKotzigArray(k, tuple(tuple(row) for row in grid))
    report = SearchReport(True, True, tracker.spent, witness)
    return _reverify(report, verify_kotzig(witness))


# -- magic labeling search --------------------------------------------------------


def search_labeling(g: Graph, spec: GroupSpec, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive search for a magic labeling of ``g`` by ``spec``.

    Vertices take labels in index order; whenever the last neighbor of a
    vertex is placed its weight becomes determined and must match every
    other determined weight.
    """
    if g.n != spec.order:
        raise ParameterError(f"graph order {g.n} does not match group order {spec.order}")
    if spec.order > LABELING_ORDER_CAP:
        raise ParameterError(
            f"exhaustive labeling search capped at order {LABELING_ORDER_CAP}"
        )
    elems, add, neg = _tables(spec)
    n = g.n
    tracker = _Budget(budget)
    ready: list[list[int]] = [[] for _ in range(n + 1)]
    for w in range(n):
        when = (max(g.adj[w]) + 1) if g.adj[w] else 0
        ready[when].append(w)
    labels = [-1] * n
    used = [False] * n

    def weight_of(w: int) -> int:
        total = 0
        for u in g.adj[w]:
            total = add[total][labels[u]]
        return total

    def extend(v: int, mu) -> bool:
        if v == n:
            return True
        for value in range(n):
            if used[value]:
                continue
            tracker.spend()
            labels[v] = value
            used[value] = True
            new_mu = mu
            consistent = True
            for w in ready[v + 1]:
                wt = weight_of(w)
                if new_mu is None:
                    new_mu = wt
                elif wt != new_mu:
                    consistent = False
                    break
            if consistent and extend(v + 1, new_mu):
                return True
            used[value] = False
        return False

    mu0 = 0 if ready[0] else None  # empty neighborhoods weigh the identity
    try:
        found = extend(0, mu0)
    except _BudgetExceeded:
        return SearchReport(False, False, tracker.spent)
    if not found:
        return SearchReport(False, True, tracker.spent)
    witness = Labeling(spec, tuple(elems[i] for i in labels))
    report = SearchReport(True, True, tracker.spent, witness)
    verdict = verify_labeling(g, witness)
    if not verdict.is_magic:
        raise AssertionError("internal: search witness failed re-verification")
    return report


# -- unequal-size zero-sum partitions (conjecture mode) -----------------------------


def verify_sized_partition(spec: GroupSpec, blocks, sizes) -> PartitionCheck:
    """Check a partition of the nonidentity elements into zero-sum blocks
    with the given multiset of sizes.

    Blocks hold reduced elements, as ``sized_partition_from_text`` and the
    search return them; anything else is not in the universe.
    """
    if Counter(len(b) for b in blocks) != Counter(sizes):
        return PartitionCheck(False, None, "block sizes do not match")
    universe = {e for e in spec.elements() if e != spec.identity()}
    seen: set[Element] = set()
    for i, block in enumerate(blocks):
        if len(set(block)) != len(block):
            return PartitionCheck(False, i, f"block {i} repeats an element")
        for e in block:
            if e not in universe:
                return PartitionCheck(False, i, f"block {i} contains {format_element(e)}")
            if e in seen:
                return PartitionCheck(False, i, f"block {i} repeats {format_element(e)}")
            seen.add(e)
    if seen != universe:
        return PartitionCheck(False, None, "blocks do not cover the nonidentity elements")
    for i, block in enumerate(blocks):
        if any(map(mod, map(sum, zip(*block)), spec.factors)):
            return PartitionCheck(False, i, f"block {i} sums to {format_element(spec.sum(block))}")
    return PartitionCheck(True)


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
    if sum_all(spec) != spec.identity():
        return SearchReport(False, True, 0)
    elems, add, neg = _tables(spec)
    n = len(elems)
    tracker = _Budget(budget)
    remaining = Counter(parts)
    assigned = [False] * n
    assigned[0] = True  # the identity is excluded from the universe
    blocks: list[list[int]] = []

    def least_free() -> int:
        for i in range(1, n):
            if not assigned[i]:
                return i
        return -1

    def close_block() -> bool:
        anchor = least_free()
        if anchor < 0:
            return True
        for size in sorted(remaining):
            if remaining[size] == 0:
                continue
            remaining[size] -= 1
            tracker.spend()
            assigned[anchor] = True
            if extend([anchor], anchor, size):
                return True
            assigned[anchor] = False
            remaining[size] += 1
        return False

    def extend(block: list[int], total: int, size: int) -> bool:
        if len(block) == size:
            if total != 0:
                return False
            blocks.append(list(block))
            if close_block():
                return True
            blocks.pop()
            return False
        if len(block) == size - 1:
            forced = neg[total]
            if forced > block[-1] and not assigned[forced]:
                tracker.spend()
                assigned[forced] = True
                block.append(forced)
                if extend(block, 0, size):
                    return True
                block.pop()
                assigned[forced] = False
            return False
        for i in range(block[-1] + 1, n):
            if assigned[i]:
                continue
            tracker.spend()
            assigned[i] = True
            block.append(i)
            if extend(block, add[total][i], size):
                return True
            block.pop()
            assigned[i] = False
        return False

    try:
        found = close_block()
    except _BudgetExceeded:
        return SearchReport(False, False, tracker.spent)
    if not found:
        return SearchReport(False, True, tracker.spent)
    witness = tuple(tuple(elems[i] for i in blk) for blk in blocks)
    report = SearchReport(True, True, tracker.spent, (spec, witness))
    return _reverify(report, verify_sized_partition(spec, witness, parts))


def _sized_partitions(total: int, min_part: int = 3):
    """Partitions of ``total`` into parts >= min_part, non-increasing."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, cap), min_part - 1, -1):
            if remaining - part != 0 and remaining - part < min_part:
                continue
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


def scan_conjecture(max_order: int, budget: int = DEFAULT_BUDGET):
    """Run conjecture_scan over every qualifying group up to ``max_order``
    and every multiset of block sizes; yields (spec, sizes, report).

    Qualifying groups have even order and at least three involutions.
    Compositions of the same multiset describe the same unordered
    partition, so each multiset is searched once.
    """
    for spec in abelian_groups_up_to(max_order):
        if spec.order % 2 != 0 or involution_count(spec) < 3:
            continue
        for sizes in _sized_partitions(spec.order - 1):
            yield spec, sizes, conjecture_scan(spec, sizes, budget)


# -- report certificates -------------------------------------------------------------


def sized_partition_to_text(spec: GroupSpec, blocks) -> str:
    sizes = ",".join(str(len(b)) for b in blocks)
    header = f"partition-sizes {spec} sizes={sizes}"
    return "\n".join([header] + format_blocks(blocks)) + "\n"


def sized_partition_from_text(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    header = lines[0].split() if lines else []
    if header[:1] != ["partition-sizes"] or len(header) != 3:
        raise GroupSpecError("not a sized-partition certificate")
    spec = parse_group_spec(header[1])
    try:
        sizes = tuple(int(s) for s in header_fields(header[2:])["sizes"].split(","))
    except (KeyError, ValueError) as exc:
        raise GroupSpecError("header needs sizes=<size>,<size>,...") from exc
    blocks = parse_blocks(lines[1:], spec)
    return spec, blocks, sizes


_WITNESS_KINDS = {
    "zsp": (partition_to_text, partition_from_text),
    "bijection": (bijection_to_text, bijection_from_text),
    "kotzig": (array_to_text, array_from_text),
    "kotzig-int": (array_to_text, array_from_text),
    "labeling": (labeling_to_text, labeling_from_text),
}


_REPORT_KINDS = {*_WITNESS_KINDS, "sized-partition"}


def witness_kind(witness) -> str:
    if isinstance(witness, ZeroSumPartition):
        return "zsp"
    if isinstance(witness, TripleBijection):
        return "bijection"
    if isinstance(witness, GroupKotzigArray):
        return "kotzig"
    if isinstance(witness, IntKotzigArray):
        return "kotzig-int"
    if isinstance(witness, Labeling):
        return "labeling"
    if isinstance(witness, tuple) and len(witness) == 2:
        return "sized-partition"
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
    if kind == "sized-partition":
        spec, blocks = report.witness
        body = sized_partition_to_text(spec, blocks)
    else:
        body = _WITNESS_KINDS[kind][0](report.witness)
    return head + "\n" + body


def report_from_text(text: str) -> tuple[str, SearchReport]:
    lines = text.splitlines()
    header = None
    rest_start = 0
    for i, ln in enumerate(lines):
        if ln.strip() and not ln.lstrip().startswith("#"):
            header = ln.split()
            rest_start = i + 1
            break
    if header is None or header[0] != "report":
        raise GroupSpecError("not a search report")
    fields = header_fields(header[1:], ints=("nodes",))
    kind = fields.get("kind", "unknown")
    found = fields.get("found") == "true"
    # a report without a witness may leave its kind unknown
    if kind not in (_REPORT_KINDS if found else _REPORT_KINDS | {"unknown"}):
        raise GroupSpecError(f"unknown report kind {kind!r}")
    exhausted = fields.get("exhausted") == "true"
    witness = None
    body = "\n".join(lines[rest_start:])
    if found:
        if not body.strip():
            raise GroupSpecError("report says found=true but carries no witness")
        if kind == "sized-partition":
            spec, blocks, _sizes = sized_partition_from_text(body)
            witness = (spec, tuple(tuple(b) for b in blocks))
        else:
            witness = _WITNESS_KINDS[kind][1](body)
    return kind, SearchReport(found, exhausted, fields["nodes"], witness)
