"""Seeded rewrites of certificate text: validity-preserving shuffles and
the three mutant classes (one element replaced, one row or block dropped,
one header field edited).

Standard library only.  Every function takes a ``random.Random`` so the
same seed always yields the same text.
"""

from __future__ import annotations

import random

from checker import format_element, format_spec, parse_spec

CLASSES = ("element", "drop", "header")


def _split(text: str) -> tuple[list[str], list[str]]:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    return lines[0].split(), lines[1:]


def _join(header: list[str], body: list[str]) -> str:
    return "\n".join([" ".join(header)] + body) + "\n"


def _field(header: list[str], key: str) -> int:
    return int(next(t for t in header if t.startswith(key + "="))[len(key) + 1:])


def _set_field(header: list[str], key: str, value: int) -> list[str]:
    return [f"{key}={value}" if t.startswith(key + "=") else t for t in header]


def _random_element(rng: random.Random, factors) -> str:
    return format_element(tuple(rng.randrange(f) for f in factors))


def shuffle(text: str, rng: random.Random) -> str:
    """Reorder blocks, rows, lines and columns; validity is unchanged."""
    header, body = _split(text)
    kind = header[0]
    if kind == "partition":
        blocks = [ln.split() for ln in body]
        for block in blocks:
            rng.shuffle(block)
        rng.shuffle(blocks)
        return _join(header, [" ".join(b) for b in blocks])
    if kind in ("kotzig", "kotzig-int"):
        rows = [ln.split() for ln in body]
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        rng.shuffle(rows)
        return _join(header, [" ".join(row[c] for c in cols) for row in rows])
    if kind in ("bijection", "labeling", "p"):
        rng.shuffle(body)
        return _join(header, body)
    raise ValueError(f"cannot shuffle {kind!r}")


def mutate(text: str, cls: str, rng: random.Random) -> str:
    """Apply one mutant class; the result is never a valid certificate."""
    header, body = _split(text)
    kind = header[0]
    if cls == "drop":
        del body[rng.randrange(len(body))]
        return _join(header, body)
    if cls == "header":
        if kind == "partition":
            m = _field(header, "m")
            return _join(_set_field(header, "m", rng.choice([m - 1, m + 1, 2 * m])), body)
        if kind in ("kotzig", "kotzig-int"):
            j = _field(header, "j")
            return _join(_set_field(header, "j", rng.choice([j + 1, j + 2, j + 3])), body)
        factors = list(parse_spec(header[1]))
        pairs = [(a, b) for a in range(len(factors)) for b in range(a + 1, len(factors))
                 if factors[a] != factors[b]]
        if pairs:
            a, b = rng.choice(pairs)
            factors[a], factors[b] = factors[b], factors[a]
        else:
            factors[-1] *= 2
        return _join([header[0], format_spec(factors)] + header[2:], body)
    if cls == "element":
        r = rng.randrange(len(body))
        if kind == "labeling":
            vertex, label = body[r].split("\t")
            fresh = label
            while fresh == label:
                fresh = _random_element(rng, parse_spec(header[1]))
            body[r] = f"{vertex}\t{fresh}"
            return _join(header, body)
        tokens = body[r].split()
        c = rng.randrange(len(tokens))
        fresh = tokens[c]
        while fresh == tokens[c]:
            if kind == "kotzig-int":
                fresh = str(rng.randrange(_field(header, "k")))
            else:
                fresh = _random_element(rng, parse_spec(header[1]))
        tokens[c] = fresh
        body[r] = " ".join(tokens)
        return _join(header, body)
    raise ValueError(f"unknown mutant class {cls!r}")
