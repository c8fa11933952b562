"""One benchmark pass in a fresh interpreter, or the files a run's command-line
invocations read.  ``run.py`` starts it, one child at a time:

    python bench/worker.py pass --workload certify --seed 1 --traced 0 --dump 1 --out pass.json
    python bench/worker.py prep --workload recheck --seed 1 --dir cli/ --out prep.json

A pass times import plus input generation as its set-up, then runs every
job of the workload once in a closed loop, one job at a time.  Checking and
digests happen after the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def groups_probe(workloads) -> dict[str, float]:
    """``GroupSpec.add``, ``reduce`` and ``parse_element`` applied once to
    every element of each ``certify`` group, and ``elements()`` timed on the
    largest of them."""
    import zsmagic as z

    clock = time.perf_counter
    names = {a["group"] for _, a in workloads.CERTIFY_CLOSED + workloads.CERTIFY_SEARCHING if "group" in a}
    names.add(workloads.BLOWUP["group"])
    specs = sorted((z.parse_group_spec(n) for n in names), key=lambda s: (s.order, s.factors))
    add_s = reduce_s = parse_s = 0.0
    count = 0
    elements_ms = 0.0
    for spec in specs:
        t = clock()
        elems = spec.elements()
        elements_ms = (clock() - t) * 1e3  # the last spec is the largest
        strings = [z.format_element(e) for e in elems]
        other = elems[-1]
        add, reduce, parse = spec.add, spec.reduce, z.parse_element
        t = clock()
        for e in elems:
            add(e, other)
        add_s += clock() - t
        t = clock()
        for e in elems:
            reduce(e)
        reduce_s += clock() - t
        t = clock()
        for s in strings:
            parse(s)
        parse_s += clock() - t
        count += len(elems)
    return {
        "groups.add_ns": add_s / count * 1e9,
        "groups.reduce_ns": reduce_s / count * 1e9,
        "groups.parse_element_ns": parse_s / count * 1e9,
        "groups.elements_ms": elements_ms,
    }


def run_pass(args) -> dict:
    t0 = time.perf_counter()
    import workloads  # imports zsmagic, so import time counts as set-up

    jobs = workloads.GENERATORS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0

    from tracing import NullTracer, Tracer, layer_metrics

    tracer = Tracer() if args.traced else NullTracer()
    runners = workloads.RUNNERS
    clock = time.perf_counter
    latencies, outcomes, errors = [], [], []
    start = clock()
    for job in jobs:
        t = clock()
        try:
            with tracer.job(job["id"], job["kind"]):
                outcome = runners[job["kind"]](tracer, job["args"])
            error = None
        except Exception as exc:  # a job that raises is a failed job, not a failed pass
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t)
        outcomes.append(outcome)
        errors.append(error)
    wall_s = clock() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "input_digest": workloads.digest(jobs),
        "jobs": [
            {
                "id": job["id"],
                "kind": job["kind"],
                "ms": dt * 1e3,
                "error": error,
                "out": _sha(o.text) if o else None,
                "verified": o.verified if o else None,
                "verdict": o.verdict if o else None,
                "nodes": o.nodes if o else 0,
            }
            for job, dt, o, error in zip(jobs, latencies, outcomes, errors)
        ],
    }
    if args.dump:
        result["dump"] = {
            job["id"]: {
                "kind": job["kind"],
                "args": job["args"],
                "text": o.text if o else None,
                "witnesses": workloads.scan_witnesses(o.raw) if o and o.raw else None,
            }
            for job, o in zip(jobs, outcomes)
        }
    if args.traced:
        result["layers"] = layer_metrics(tracer.spans, [o for o in outcomes if o])
        result["layers"].update(groups_probe(workloads))
        tracer.write(args.spans)
    return result


def run_prep(args) -> dict:
    import workloads

    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    return {"requests": workloads.cli_requests(args.workload, args.seed, directory)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("pass", "prep"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--dump", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--dir")
    args = parser.parse_args()
    result = run_pass(args) if args.mode == "pass" else run_prep(args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
