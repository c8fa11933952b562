"""Spans around the benchmark's calls into ``zsmagic``, and the per-layer
metrics derived from them.

A span records its name (``<module>.<function>``), start and end times, its
parent span and the job id shared by every span of one job.  Spans stay in
memory and are written out when the pass ends.  Tracing inside ``src/`` is
not done here: every span wraps a public call made by the benchmark.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Untraced passes: the same calls, made directly."""

    def call(self, name, fn, *args):
        return fn(*args)

    def job(self, job_id, kind):
        return nullcontext()


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, job id, bytes of a text argument]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._job = None

    def call(self, name, fn, *args):
        size = len(args[0]) if args and isinstance(args[0], str) else 0
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self._job, size]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args)
        finally:
            record[2] = perf_counter()
            self._open.pop()

    @contextmanager
    def job(self, job_id, kind):
        """The job span; its self time is the benchmark's own glue."""
        record = [f"job.{kind}", 0.0, 0.0, None, job_id, 0]
        self._job = job_id
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._open.pop()
            self._job = None

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "job", "bytes")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(dict(zip(keys, record))) + "\n")


# span name -> (layer, operation)
OPERATIONS = {
    "zsp.zsp": ("zsp", "build"),
    "zsp.triple_bijection": ("zsp", "build"),
    "zsp.verify_zsp": ("zsp", "verify"),
    "zsp.verify_triple_bijection": ("zsp", "verify"),
    "zsp.partition_to_text": ("zsp", "encode"),
    "zsp.bijection_to_text": ("zsp", "encode"),
    "zsp.partition_from_text": ("zsp", "decode"),
    "zsp.bijection_from_text": ("zsp", "decode"),
    "kotzig.build_group_kotzig": ("kotzig", "build"),
    "kotzig.build_int_kotzig": ("kotzig", "build"),
    "kotzig.verify_kotzig": ("kotzig", "verify"),
    "kotzig.array_to_text": ("kotzig", "encode"),
    "kotzig.array_from_text": ("kotzig", "decode"),
    "graphs.lex_product": ("graphs", "lex_product"),
    "graphs.blowup_label": ("graphs", "label"),
    "graphs.verify_labeling": ("graphs", "verify"),
    "graphs.graph_from_text": ("graphs", "decode"),
    "graphs.labeling_from_text": ("graphs", "decode"),
    "graphs.labeling_to_text": ("graphs", "encode"),
    "oracle.search_labeling": ("oracle", "search"),
    "oracle.search_triple_bijection": ("oracle", "search"),
    "oracle.search_kotzig": ("oracle", "search"),
    "oracle.search_zsp": ("oracle", "search"),
    "oracle.scan_conjecture": ("oracle", "scan"),
    "oracle.report_to_text": ("oracle", "encode"),
    "groups.parse_group_spec": ("groups", "parse"),
}


def layer_metrics(spans, outcomes) -> dict[str, float]:
    """Per-layer busy time (the sum of a layer's spans), call counts, rejects
    and oracle counters for one traced pass."""
    busy: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    decoded_bytes = 0
    glue = 0.0
    child_time: dict[int, float] = {}
    for name, start, end, parent, _job, size in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        key = OPERATIONS.get(name)
        if key is None:
            continue
        busy[key] = busy.get(key, 0.0) + (end - start)
        calls[key] = calls.get(key, 0) + 1
        if key == ("zsp", "decode"):
            decoded_bytes += size
    for i, (name, start, end, *_rest) in enumerate(spans):
        if name.startswith("job."):
            glue += (end - start) - child_time.get(i, 0.0)

    def s(layer, op):
        return busy.get((layer, op), 0.0)

    rejects = {layer: 0 for layer in ("zsp", "kotzig", "graphs")}
    nodes = searches = decided = 0
    for o in outcomes:
        if o.verdict == "reject":
            rejects[o.layer] += 1
        nodes += o.nodes
        searches += o.searches
        decided += o.decided
    oracle_s = s("oracle", "search") + s("oracle", "scan")
    return {
        "zsp.build_s": s("zsp", "build"),
        "zsp.build_calls": calls.get(("zsp", "build"), 0),
        "zsp.verify_s": s("zsp", "verify"),
        "zsp.verify_calls": calls.get(("zsp", "verify"), 0),
        "zsp.rejects": rejects["zsp"],
        "zsp.encode_s": s("zsp", "encode"),
        "zsp.decode_s": s("zsp", "decode"),
        "zsp.decode_mb_per_s": decoded_bytes / 1e6 / s("zsp", "decode") if s("zsp", "decode") else 0.0,
        "kotzig.build_s": s("kotzig", "build"),
        "kotzig.verify_s": s("kotzig", "verify"),
        "kotzig.rejects": rejects["kotzig"],
        "kotzig.encode_s": s("kotzig", "encode"),
        "kotzig.decode_s": s("kotzig", "decode"),
        "graphs.lex_product_s": s("graphs", "lex_product"),
        "graphs.label_s": s("graphs", "label"),
        "graphs.verify_s": s("graphs", "verify"),
        "graphs.rejects": rejects["graphs"],
        "graphs.decode_s": s("graphs", "decode"),
        "oracle.search_s": s("oracle", "search"),
        "oracle.scan_s": s("oracle", "scan"),
        "oracle.nodes": nodes,
        "oracle.nodes_per_s": nodes / oracle_s if oracle_s else 0.0,
        "oracle.decided_ratio": decided / searches if searches else 0.0,
        "trace.glue_s": glue,
    }

