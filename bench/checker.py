"""Independent certificate checker for the benchmark.

Standard library only; it never imports ``zsmagic``.  Groups are tuples of
cyclic factor orders and elements are coordinate tuples checked with plain
modular arithmetic.  Every check also holds header fields (``m``, ``j``,
``k``, the group, the report flags) against the body, which is where the
program's own verifiers are known to be lenient.

Each ``check_*`` function returns ``None`` when the text is a valid
certificate and a one-line reason otherwise.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

_TOKEN = re.compile(r"[zZ]([0-9]+)")


class Malformed(Exception):
    """The text does not follow the certificate grammar."""


# -- groups and elements -------------------------------------------------------


def parse_spec(text: str) -> tuple[int, ...]:
    factors = []
    for token in text.split("x"):
        match = _TOKEN.fullmatch(token)
        if match is None or int(match.group(1)) < 2:
            raise Malformed(f"bad group spec {text!r}")
        factors.append(int(match.group(1)))
    return tuple(factors)


def format_spec(factors) -> str:
    return "x".join(f"Z{f}" for f in factors)


def format_element(e) -> str:
    return str(e[0]) if len(e) == 1 else "(" + ",".join(str(x) for x in e) + ")"


def parse_element(text: str, factors) -> tuple[int, ...]:
    """Strict parse: arity must match and every coordinate must be reduced."""
    body = text[1:-1] if text.startswith("(") and text.endswith(")") else text
    try:
        coords = tuple(int(p) for p in body.split(","))
    except ValueError:
        raise Malformed(f"bad element {text!r}") from None
    if len(coords) != len(factors):
        raise Malformed(f"element {text!r} has arity {len(coords)}, group has {len(factors)}")
    for x, f in zip(coords, factors):
        if not 0 <= x < f:
            raise Malformed(f"coordinate {x} of {text!r} is not reduced modulo {f}")
    return coords


def index_of(e, factors) -> int:
    i = 0
    for x, f in zip(e, factors):
        i = i * f + x
    return i


def zero_sum(elems, factors) -> bool:
    totals = [0] * len(factors)
    for e in elems:
        for i, x in enumerate(e):
            totals[i] += x
    return all(t % f == 0 for t, f in zip(totals, factors))


def all_elements(factors):
    return list(itertools.product(*(range(f) for f in factors)))


def in_class_g(factors) -> bool:
    """Odd order, or more than one involution (two or more even factors)."""
    return math.prod(factors) % 2 == 1 or sum(1 for f in factors if f % 2 == 0) >= 2


def _body(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]


def _fields(tokens) -> dict[str, str]:
    out = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or key in out:
            raise Malformed(f"bad header field {token!r}")
        out[key] = value
    return out


def _int_field(fields, key) -> int:
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        raise Malformed(f"header field {key}= missing or not an integer") from None


def _guarded(check):
    def wrapper(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except Malformed as exc:
            return str(exc)

    wrapper.__name__ = check.__name__
    wrapper.__doc__ = check.__doc__
    return wrapper


# -- certificates ----------------------------------------------------------------


@_guarded
def check_partition(text: str):
    """``partition <spec> m=<m>``: blocks of exactly m elements, zero sums,
    covering the group once."""
    lines = _body(text)
    header = lines[0].split() if lines else []
    if len(header) != 3 or header[0] != "partition":
        return "not a partition header"
    factors = parse_spec(header[1])
    m = _int_field(_fields(header[2:]), "m")
    n = math.prod(factors)
    if m < 3 or n % m:
        return f"block size m={m} is below 3 or does not divide the order {n}"
    if len(lines) - 1 != n // m:
        return f"{len(lines) - 1} blocks, header m={m} needs {n // m}"
    seen = bytearray(n)
    for b, line in enumerate(lines[1:]):
        block = [parse_element(t, factors) for t in line.split()]
        if len(block) != m:
            return f"block {b} has {len(block)} elements, header says m={m}"
        for e in block:
            i = index_of(e, factors)
            if seen[i]:
                return f"element {format_element(e)} appears twice"
            seen[i] = 1
        if not zero_sum(block, factors):
            return f"block {b} does not sum to zero"
    return None


@_guarded
def check_bijection(text: str):
    """``bijection <spec>``: rows ``g phi(g) psi(g)``, each column a
    permutation, each row summing to zero."""
    lines = _body(text)
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "bijection":
        return "not a bijection header"
    factors = parse_spec(header[1])
    n = math.prod(factors)
    if len(lines) - 1 != n:
        return f"{len(lines) - 1} rows for a group of order {n}"
    seen = [bytearray(n), bytearray(n), bytearray(n)]
    for line in lines[1:]:
        row = [parse_element(t, factors) for t in line.split()]
        if len(row) != 3:
            return f"row {line!r} does not have three elements"
        for col, e in zip(seen, row):
            i = index_of(e, factors)
            if col[i]:
                return f"element {format_element(e)} repeats in a column"
            col[i] = 1
        if not zero_sum(row, factors):
            return f"row {line!r} does not sum to zero"
    return None


@_guarded
def check_kotzig(text: str):
    """``kotzig <spec> j=<j> k=<k>`` or ``kotzig-int k=<k> j=<j>``: j rows,
    each a permutation, with one common column sum."""
    lines = _body(text)
    header = lines[0].split() if lines else []
    if header[:1] == ["kotzig"] and len(header) == 4:
        factors = parse_spec(header[1])
        fields = _fields(header[2:])
        k = math.prod(factors)
        parse = lambda t: parse_element(t, factors)  # noqa: E731
        index = lambda e: index_of(e, factors)  # noqa: E731
    elif header[:1] == ["kotzig-int"] and len(header) == 3:
        factors = None
        fields = _fields(header[1:])
        k = _int_field(fields, "k")
        index = lambda v: v  # noqa: E731

        def parse(t):
            v = int(t) if t.isdigit() else -1
            if not 0 <= v < k:
                raise Malformed(f"entry {t!r} outside 0..{k - 1}")
            return v

    else:
        return "not a Kotzig header"
    j = _int_field(fields, "j")
    if _int_field(fields, "k") != k:
        return f"header k={fields['k']} but the rows range over {k} values"
    if j < 2:
        return f"header j={j}; a Kotzig array needs at least 2 rows"
    rows = [[parse(t) for t in line.split()] for line in lines[1:]]
    if len(rows) != j:
        return f"{len(rows)} rows, header says j={j}"
    for r, row in enumerate(rows):
        if len(row) != k or len({index(e) for e in row}) != k:
            return f"row {r} is not a permutation"
    if factors is None:
        sums = {sum(col) for col in zip(*rows)}
    else:
        sums = {
            tuple(sum(c) % f for c, f in zip(zip(*col), factors)) for col in zip(*rows)
        }
    if len(sums) != 1:
        return "column sums differ"
    return None


def parse_graph(text: str) -> tuple[int, list[list[int]]]:
    """``p <n>`` then ``e u v`` lines; returns the order and adjacency lists."""
    n = None
    adj: list[list[int]] = []
    edges = set()
    for line in _body(text):
        parts = line.split()
        if parts[0] == "p" and len(parts) == 2 and n is None:
            n = int(parts[1])
            adj = [[] for _ in range(n)]
        elif parts[0] == "e" and len(parts) == 3 and n is not None:
            u, v = int(parts[1]), int(parts[2])
            if not (0 <= u < n and 0 <= v < n) or u == v or (min(u, v), max(u, v)) in edges:
                raise Malformed(f"bad edge {line!r}")
            edges.add((min(u, v), max(u, v)))
            adj[u].append(v)
            adj[v].append(u)
        else:
            raise Malformed(f"bad graph line {line!r}")
    if n is None:
        raise Malformed("missing vertex-count line")
    return n, adj


def blowup(n: int, adj, fiber: int) -> list[list[int]]:
    """Adjacency of the lexicographic product with an edgeless graph of
    order ``fiber``: (u, a) ~ (v, b) exactly when u ~ v."""
    out = []
    for u in range(n):
        row = [v * fiber + b for v in adj[u] for b in range(fiber)]
        out.extend([row] * fiber)
    return out


@_guarded
def check_labeling(text: str, adj):
    """``labeling <spec>`` then ``vertex<TAB>element``: a bijection onto the
    group whose open-neighbourhood sums all agree on the graph ``adj``."""
    lines = _body(text)
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "labeling":
        return "not a labeling header"
    factors = parse_spec(header[1])
    n = math.prod(factors)
    if len(adj) != n:
        return f"graph order {len(adj)} differs from group order {n}"
    if len(lines) - 1 != n:
        return f"{len(lines) - 1} vertex lines for a group of order {n}"
    labels: list = [None] * n
    used = bytearray(n)
    for line in lines[1:]:
        parts = line.split(None, 1)
        if len(parts) != 2 or not parts[0].isdigit():
            return f"bad labeling line {line!r}"
        v = int(parts[0])
        e = parse_element(parts[1].strip(), factors)
        i = index_of(e, factors)
        if v >= n or labels[v] is not None or used[i]:
            return f"vertex {v} or its label {format_element(e)} repeats"
        labels[v] = e
        used[i] = 1
    weights = {tuple(sum(c) % f for c, f in zip(zip(*(labels[w] for w in nbrs)), factors))
               if nbrs else (0,) * len(factors) for nbrs in adj}
    if len(weights) != 1:
        return "vertex weights differ"
    return None


@_guarded
def check_sized_partition(text: str):
    """``partition-sizes <spec> sizes=a,b,...``: zero-sum blocks of the given
    sizes covering the non-identity elements once."""
    lines = _body(text)
    header = lines[0].split() if lines else []
    if len(header) != 3 or header[0] != "partition-sizes":
        return "not a sized-partition header"
    factors = parse_spec(header[1])
    sizes = [int(s) for s in _fields(header[2:]).get("sizes", "").split(",") if s]
    blocks = [[parse_element(t, factors) for t in line.split()] for line in lines[1:]]
    if Counter(sizes) != Counter(len(b) for b in blocks):
        return "block sizes differ from the header"
    seen = set()
    for b, block in enumerate(blocks):
        for e in block:
            if not any(e) or e in seen:
                return f"block {b} repeats an element or holds the identity"
            seen.add(e)
        if not zero_sum(block, factors):
            return f"block {b} does not sum to zero"
    if len(seen) != math.prod(factors) - 1:
        return "blocks do not cover the non-identity elements"
    return None


def check_certificate(text: str, graph_text: str | None = None):
    """Dispatch on the header keyword, as ``zsmagic verify`` does."""
    lines = _body(text)
    kind = lines[0].split()[0] if lines else ""
    if kind == "partition":
        return check_partition(text)
    if kind == "bijection":
        return check_bijection(text)
    if kind in ("kotzig", "kotzig-int"):
        return check_kotzig(text)
    if kind == "labeling":
        if graph_text is None:
            return "labeling checked without its graph"
        try:
            _, adj = parse_graph(graph_text)
        except Malformed as exc:
            return str(exc)
        return check_labeling(text, adj)
    if kind == "partition-sizes":
        return check_sized_partition(text)
    return f"unknown certificate kind {kind!r}"


# -- search reports ----------------------------------------------------------------


def parse_report(text: str) -> tuple[dict, str]:
    """Header fields (kind, found, exhausted, nodes) and the witness body."""
    lines = text.splitlines()
    starts = [i for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("#")]
    if not starts or lines[starts[0]].split()[0] != "report":
        raise Malformed("not a search report")
    fields = _fields(lines[starts[0]].split()[1:])
    for key in ("kind", "found", "exhausted", "nodes"):
        if key not in fields:
            raise Malformed(f"report header lacks {key}=")
    for key in ("found", "exhausted"):
        if fields[key] not in ("true", "false"):
            raise Malformed(f"report {key}={fields[key]!r}")
    out = {
        "kind": fields["kind"],
        "found": fields["found"] == "true",
        "exhausted": fields["exhausted"] == "true",
        "nodes": _int_field(fields, "nodes"),
    }
    return out, "\n".join(lines[starts[0] + 1:]) + "\n"


_WITNESS_HEADER = {
    "zsp": "partition",
    "bijection": "bijection",
    "kotzig": "kotzig",
    "kotzig-int": "kotzig-int",
    "labeling": "labeling",
}


def check_report(text: str, kind: str, graph_text: str | None = None):
    """A report of the given kind: a found report carries a valid witness of
    that kind, and a report that was not found carries none."""
    try:
        fields, body = parse_report(text)
    except Malformed as exc:
        return str(exc), None
    if fields["kind"] != kind:
        return f"report kind={fields['kind']}, expected {kind}", fields
    witness = _body(body)
    if not fields["found"]:
        return ("report without a solution carries a witness" if witness else None), fields
    if not witness or witness[0].split()[0] != _WITNESS_HEADER[kind]:
        return "found=true without a witness of the right kind", fields
    if not fields["exhausted"]:
        return "found=true with exhausted=false", fields
    return check_certificate(body, graph_text), fields


def labeling_exists(n: int, adj, factors) -> bool:
    """Brute force over all n! labelings; used on graphs of order <= 8."""
    elems = all_elements(factors)
    order = sorted(range(n), key=lambda v: -len(adj[v]))
    for perm in itertools.permutations(elems):
        first = None
        for v in order:
            w = tuple(sum(perm[u][i] for u in adj[v]) % f for i, f in enumerate(factors))
            if first is None:
                first = w
            elif w != first:
                break
        else:
            return True
    return False


def magic_obstructed(n: int, adj, factors) -> bool:
    """Order 2 mod 4 with every degree odd admits no magic labeling."""
    return n % 4 == 2 and all(len(a) % 2 == 1 for a in adj) and math.prod(factors) == n


# -- conjecture scan bookkeeping -----------------------------------------------------


def _integer_partitions(n: int, cap: int, least: int = 1):
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap), least - 1, -1):
        for rest in _integer_partitions(n - part, part, least):
            yield (part,) + rest


def scan_instance_count(max_order: int) -> int:
    """Instances ``zsmagic scan`` must visit: each Abelian group of even order
    with at least three involutions, times each multiset of block sizes >= 3
    summing to order - 1."""
    total = 0
    for n in range(2, max_order + 1):
        two_exp = (n & -n).bit_length() - 1
        groups = sum(1 for p in _integer_partitions(two_exp, two_exp) if len(p) >= 2)
        if not groups:
            continue
        odd = n >> two_exp
        for p in range(3, odd + 1, 2):
            e = 0
            while odd % p == 0:
                odd //= p
                e += 1
            if e:
                groups *= sum(1 for _ in _integer_partitions(e, e))
        total += groups * sum(1 for _ in _integer_partitions(n - 1, n - 1, 3))
    return total
