"""Graph model, lexicographic blow-ups and group distance magic labelings.

A labeling assigns the elements of an Abelian group bijectively to the
vertices of a graph of matching order, as element indices; it is magic
when every vertex's open-neighborhood label sum equals one constant.  The
constructors here realise the blow-up families; ``verify_labeling`` is the
generic check and ``obstruction_check`` the two parity obstructions.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain

from .errors import GroupSpecError, ParameterError
from .groups import (
    DEFAULT_ORDER_BOUND,
    Element,
    GroupSpec,
    PackedTable,
    check_order,
    element_texts,
    involution_count,
    outer_sum,
    parse_group_spec,
    parse_ints,
    read_header,
    read_indices,
    two_part_split,
)
from .zsp import zsp

OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION = "odd-regular-one-involution"
OBSTRUCTION_ODD_DEGREES_ORDER_2_MOD_4 = "odd-degrees-order-2-mod-4"


class Graph:
    """Simple undirected graph on vertices 0..n-1 with sorted adjacency."""

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        # only vertices with an edge get a set; equal neighbourhoods share one tuple
        adj: defaultdict[int, set[int]] = defaultdict(set)
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for {n} vertices")
            if u == v:
                raise ParameterError(f"loop at vertex {u} not allowed")
            adj[u].add(v)
            adj[v].add(u)
        if not adj:  # edgeless: every vertex has the one empty tuple
            self._adopt(((),) * n)
            return
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}
        nbrs = (tuple(sorted(adj.get(v, ()))) for v in range(n))
        self._adopt(tuple(shared.setdefault(a, a) for a in nbrs))

    def _adopt(self, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """Take sorted, symmetric, loop-free neighbourhoods as they are."""
        self.n, self.adj, self.degrees = len(adj), adj, tuple(map(len, adj))
        return self

    def edges(self):
        for u in range(self.n):
            for v in self.adj[u]:
                if u < v:
                    yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @property
    def is_regular(self) -> bool:
        return self.n == 0 or len(set(self.degrees)) == 1

    @property
    def regular_degree(self) -> int | None:
        return self.degrees[0] if self.n and self.is_regular else None

    @property
    def all_degrees_even(self) -> bool:
        return all(d % 2 == 0 for d in self.degrees)

    @property
    def all_degrees_odd(self) -> bool:
        return all(d % 2 == 1 for d in self.degrees)

    def _bfs_components(self):
        """2-color each component; None if some component has an odd cycle."""
        color = [-1] * self.n
        components = []
        for root in range(self.n):
            if color[root] != -1:
                continue
            color[root] = 0
            comp = ([root], [])
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        comp[color[w]].append(w)
                        queue.append(w)
                    elif color[w] == color[u]:
                        return None
            components.append(comp)
        return components

    def bipartition(self):
        """A proper 2-coloring (V1, V2) as sorted tuples, or None if not bipartite.

        Each component's BFS root goes to V1.
        """
        comps = self._bfs_components()
        return None if comps is None else _sides(comps)

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def balanced_bipartition(self):
        """A proper 2-coloring with equal sides, or None.

        The BFS bipartition wins when balanced.  Otherwise components start
        smaller side first, and a bounded subset sum over their side
        differences, with the reachable totals as the bits of one int, picks
        how many components of each difference turn larger side first.
        """
        if self.n % 2 != 0:
            return None
        comps = self._bfs_components()
        if comps is None:
            return None
        half = self.n // 2
        if sum(len(a) for a, _ in comps) == half:
            return _sides(comps)
        need = half - sum(min(map(len, comp)) for comp in comps)
        by_diff = defaultdict(list)
        for a, b in comps:
            by_diff[abs(len(a) - len(b))].append((a, b) if len(a) <= len(b) else (b, a))
        parts, reach, window = [], 1, (2 << need) - 1  # parts: (difference, count, totals reachable before)
        for d, members in by_diff.items():
            p, left = 1, len(members) if d else 0  # the count splits into 1, 2, 4, ... and a rest
            while left:
                q = min(p, left)
                parts.append((d, q, reach))
                reach, left, p = (reach | reach << d * q) & window, left - q, 2 * p
        if not reach >> need & 1:
            return None
        turned = defaultdict(int)
        for d, q, before in reversed(parts):
            if not before >> need & 1:
                need, turned[d] = need - d * q, turned[d] + q
        return _sides([c[::-1] if i < turned[d] else c for d, cs in by_diff.items() for i, c in enumerate(cs)])

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _sides(comps):
    """The first sides and the second sides of the components, each as one sorted tuple."""
    return tuple(tuple(sorted(v for comp in comps for v in comp[side])) for side in (0, 1))


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("a cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    edges = [(u, a + v) for u in range(a) for v in range(b)]
    return Graph(a + b, edges)


def lex_product(g: Graph, h: Graph) -> Graph:
    """Blow up each vertex of g into a copy of h.

    Vertex (u, v) sits at index u * |h| + v; (u, v) ~ (x, y) iff u ~ x in
    g, or u = x and v ~ y in h.  The vertices of fibre u that are isolated
    in h share one neighbourhood tuple: the fibres of u's neighbours in g.
    """
    nh = h.n
    adj = []
    for u, nbrs in enumerate(g.adj):
        # g's neighbourhoods are sorted, so the fibres follow in ascending order
        fibre = tuple(chain.from_iterable(range(x * nh, x * nh + nh) for x in nbrs))
        for inner in h.adj:
            adj.append(tuple(sorted(fibre + tuple(u * nh + y for y in inner))) if inner else fibre)
    return Graph.__new__(Graph)._adopt(tuple(adj))


@dataclass(frozen=True)
class Labeling:
    """A bijection from vertices onto the elements of a group: vertex v gets
    the element with index ``assignment[v]``."""

    spec: GroupSpec
    assignment: tuple[int, ...]

    def __post_init__(self):
        assignment = tuple(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        n = self.spec.order
        if len(assignment) != n or not set(assignment).issuperset(range(n)):
            raise ParameterError(
                "labeling must assign every group element to exactly one vertex"
            )


@dataclass(frozen=True)
class Verdict:
    """Outcome of a labeling check or an obstruction test."""

    status: str  # "magic" | "not-magic" | "impossible" | "unknown"
    mu: Element | None = None
    witness: tuple[int, int] | None = None
    obstruction: str | None = None

    @property
    def is_magic(self) -> bool:
        return self.status == "magic"


def weights(g: Graph, labeling: Labeling) -> list[Element]:
    """Open-neighborhood label sums from a ``PackedTable``, each distinct neighborhood
    tuple summed once and each distinct sum reduced once; empty ones weigh the identity."""
    packed = PackedTable(labeling.spec, max(g.degrees, default=0))
    labels = list(map(packed.table.__getitem__, labeling.assignment))
    distinct = {id(adj): adj for adj in g.adj}  # g.adj holds every tuple, so no id is reused
    sums = {i: sum(map(labels.__getitem__, adj)) for i, adj in distinct.items()}
    element = {s: packed.element(s) for s in set(sums.values())}
    return [element[sums[id(adj)]] for adj in g.adj]


def verify_labeling(g: Graph, labeling: Labeling) -> Verdict:
    """magic(mu) when all weights agree, else not-magic with a witness pair."""
    if g.n != labeling.spec.order:
        raise ParameterError(
            f"graph order {g.n} does not match group order {labeling.spec.order}"
        )
    ws = weights(g, labeling)  # g.n = |G| >= 1, so ws[0] exists
    v = next((v for v, w in enumerate(ws) if w != ws[0]), None)
    return Verdict("magic", mu=ws[0]) if v is None else Verdict("not-magic", witness=(0, v))


def obstruction_check(g: Graph, spec: GroupSpec) -> Verdict:
    """Known impossibility tests; unknown when neither applies.

    Order 2 mod 4 with all degrees odd rules out every group of that
    order, and is checked first; odd-regular graphs additionally fail for
    groups with exactly one involution.
    """
    if g.n != spec.order:
        raise ParameterError(f"graph order {g.n} does not match group order {spec.order}")
    if g.n % 4 == 2 and g.all_degrees_odd:
        return Verdict("impossible", obstruction=OBSTRUCTION_ODD_DEGREES_ORDER_2_MOD_4)
    # g.n = |G| >= 1, so a regular g has a regular degree
    if g.is_regular and g.regular_degree % 2 == 1 and involution_count(spec) == 1:
        return Verdict("impossible", obstruction=OBSTRUCTION_ODD_REGULAR_ONE_INVOLUTION)
    return Verdict("unknown")


# -- labelers ----------------------------------------------------------------------


def _check_blowup_order(g: Graph, n: int, spec: GroupSpec) -> None:
    if spec.order != n * g.n:
        raise ParameterError(
            f"group order {spec.order} does not equal fiber size {n} times "
            f"graph order {g.n}"
        )


def blowup_label(g: Graph, n: int, spec: GroupSpec) -> Labeling:
    """Label g o K̄_n by one zero-sum block per fiber; every weight is the
    identity, for any base graph g."""
    if n < 3:
        raise ParameterError(f"fiber size must be at least 3, got {n}")
    _check_blowup_order(g, n, spec)
    return Labeling(spec, tuple(chain.from_iterable(zsp(spec, n).blocks)))


def blowup_even_label(g: Graph, n2: int, spec: GroupSpec) -> Labeling:
    """Label g o K̄_n2 (n2 even, g regular) by fixed-sum pairs.

    Picks the least s outside the doubled group, pairs every element x
    with s - x, and gives each fiber n2/2 pairs; each vertex then weighs
    r * (n2/2) * s for an r-regular base.  The doubles are the elements with
    even coordinates at the even factors, so s is 1 at the last even factor
    and 0 elsewhere.
    """
    if not g.is_regular:
        raise ParameterError("the base graph must be regular")
    if n2 % 2 != 0 or n2 < 2:
        raise ParameterError(f"fiber size must be even and >= 2, got {n2}")
    _check_blowup_order(g, n2, spec)
    check_order(spec.order)
    # the order n2 * g.n is even, so some factor is
    last_even = max(t for t, f in enumerate(spec.factors) if f % 2 == 0)
    # partner[x] is the index of s - x; s is no double, so x and s - x differ
    partner = outer_sum(
        [((t == last_even) - x) % f * stride for x in range(f)]
        for t, (f, stride) in enumerate(zip(spec.factors, spec.strides))
    )
    return Labeling(spec, tuple(chain.from_iterable((x, p) for x, p in enumerate(partner) if x < p)))


def eulerian_bipartite_label(g: Graph, n_odd: int, spec: GroupSpec) -> Labeling:
    """Label g o K̄_n  for an all-even-degree bipartite g with equal sides
    and order 2 mod 4, n odd.

    The group splits as Z2 x (odd part); fibers over one side carry
    (0, block), over the other (1, block).  Odd fibers sum to (1, 0) and
    even degrees cancel that coordinate, so every weight is the identity.
    """
    if n_odd % 2 != 1 or n_odd < 3:
        raise ParameterError(f"fiber size must be odd and >= 3, got {n_odd}")
    if g.n % 4 != 2:
        raise ParameterError(f"base graph order {g.n} is not 2 mod 4")
    if not g.all_degrees_even:
        raise ParameterError("base graph must have all degrees even")
    _check_blowup_order(g, n_odd, spec)
    bip = g.balanced_bipartition()
    if bip is None:
        raise ParameterError("base graph has no bipartition with equal sides")
    v1, v2 = bip
    # the order n * g.n is 2 mod 4, so the 2-part is Z2
    _two_spec, odd_spec, merged = two_part_split(spec)
    partition = zsp(odd_spec, n_odd)
    assignment = [0] * spec.order
    for side, offset in ((v1, 0), (v2, odd_spec.order)):
        for u, block in zip(side, partition.blocks):
            assignment[u * n_odd : u * n_odd + n_odd] = [merged[offset + a] for a in block]
    return Labeling(spec, tuple(assignment))


def bipartite_blowup_exists(g: Graph, n: int) -> bool:
    """Whether g o K̄_n admits a magic labeling for every group of its order,
    for r-regular bipartite g of order 2 mod 4: true iff r * n is even.

    Witnesses come from blowup_even_label for even n and from
    eulerian_bipartite_label for odd n with r even.
    """
    if n < 2:
        raise ParameterError(f"fiber size must be at least 2, got {n}")
    if not g.is_regular:
        raise ParameterError("the base graph must be regular")
    if not g.is_bipartite:
        raise ParameterError("the base graph must be bipartite")
    if g.n % 4 != 2:
        raise ParameterError(f"base graph order {g.n} is not 2 mod 4")
    return (g.regular_degree * n) % 2 == 0


# -- files and certificates ---------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    lines = [f"p {g.n}"]
    lines += (f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    n = None
    edges = []
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "p" and len(parts) == 2:
                if n is not None:
                    raise GroupSpecError(f"line {lineno}: duplicate vertex-count line")
                n = int(parts[1])
                # every graph meets a group of its order, and groups are enumerated up to this bound
                if n > DEFAULT_ORDER_BOUND:
                    raise GroupSpecError(
                        f"line {lineno}: vertex count {n} exceeds the bound {DEFAULT_ORDER_BOUND}"
                    )
            elif parts[0] == "e" and len(parts) == 3:
                if n is None:
                    raise GroupSpecError(f"line {lineno}: edge before vertex-count line")
                edges.append((int(parts[1]), int(parts[2])))
            else:
                raise GroupSpecError(f"line {lineno}: bad graph line {raw!r}")
    except GroupSpecError:
        raise
    except ValueError as exc:  # a count or an endpoint that is not an integer
        raise GroupSpecError(f"line {lineno}: bad graph line {raw!r}") from exc
    if n is None:
        raise GroupSpecError("missing 'p <vertex-count>' line")
    return Graph(n, edges)


def labeling_to_text(labeling: Labeling) -> str:
    names = element_texts(labeling.spec)
    lines = [f"labeling {labeling.spec}"]
    lines += (f"{v}\t{names[i]}" for v, i in enumerate(labeling.assignment))
    return "\n".join(lines) + "\n"


def labeling_from_text(text: str) -> Labeling:
    """Parse a labeling certificate; a label may be written with inner spaces."""
    header, body = read_header(text, "labeling certificate", {"labeling": 2})
    spec = parse_group_spec(header[1])
    if len(body) != spec.order:
        raise GroupSpecError(f"expected {spec.order} vertex lines, found {len(body)}")
    labels: list[list[str] | None] = [None] * spec.order
    for line in body:
        parts = line.split("\t") if "\t" in line else line.split(None, 1)
        if len(parts) != 2:
            raise GroupSpecError(f"bad labeling line {line!r}")
        v = parse_ints(parts[:1])[0]
        if not 0 <= v < spec.order or labels[v] is not None:
            raise GroupSpecError(f"bad or repeated vertex {v}")
        labels[v] = [parts[1].strip()]
    return Labeling(spec, tuple(i for (i,) in read_indices(spec, labels)))
