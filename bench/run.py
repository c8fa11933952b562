"""Run one workload of the zsmagic benchmark and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1    # every workload in turn

Run it from anywhere inside a checkout that holds ``src/zsmagic`` and
``BENCHMARK.json``; it reads and writes only inside that checkout (run
files go to ``bench/.out/``).

One process drives a closed loop, one request at a time, no threads.  Each
timed pass runs in a fresh interpreter (``bench/worker.py``), because
``zsmagic`` caches some tables per process and command-line users pay for
them on every call.  After each pass ``run.py`` spawns the workload's
``zsmagic`` invocations one at a time.  The loop stops once ``--seconds``
have been measured and the minimum sample counts are met.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates traced and untraced passes and reports the
per-layer metrics.  Every certificate, search witness and verdict is
re-checked by ``bench/checker.py``, which does not import ``zsmagic``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
WORKLOADS = ("certify", "recheck", "search")

MIN_PASSES = 3
MIN_JOB_SAMPLES = 100  # so ten or more samples lie beyond job_ms.p90
MIN_CLI_ROUNDS = 3
MIN_TRACED_PASSES = 2
STOP_LAUNCHING_S = 110  # start no new pass after this point of a run
HARD_LIMIT_S = 160  # no child runs past this point; a run must end within 180 s
CHILD_TIMEOUT_S = 60

CLI_PLAIN = "import sys\nfrom zsmagic.cli import main\nsys.exit(main())\n"
CLI_TIMED = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "from zsmagic.cli import main\n"
    "t1 = time.perf_counter()\n"
    "code = main()\n"
    "t2 = time.perf_counter()\n"
    "sys.stdout.flush()\n"
    "print(f'#bench-cli {(t1 - t0) * 1e3!r} {(t2 - t1) * 1e3!r}', file=sys.stderr)\n"
    "sys.exit(code)\n"
)


class Run:
    """State of one benchmark run: its passes, invocations and findings."""

    def __init__(self, workload: str, seed: int, trace: bool, directory: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.dir = directory
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env["PYTHONHASHSEED"] = "0"
        self.started = time.perf_counter()
        self.requests: list[dict] = []
        self.cli_digest: str | None = None
        self.measured_s = 0.0
        self.passes: list[dict] = []
        self.cli: list[dict] = []
        self.problems: list[str] = []  # anything that makes the run incorrect
        self.failures: list[str] = []  # failed operations, one line each

    # -- children ------------------------------------------------------------------

    def _spawn(self, argv: list[str]):
        """Run one child to completion; None if it would outlive the run."""
        timeout = min(CHILD_TIMEOUT_S, self.started + HARD_LIMIT_S - time.perf_counter())
        if timeout <= 0:
            return None
        try:
            return subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def _worker(self, *args: str) -> dict | None:
        out = self.dir / "child.json"
        out.unlink(missing_ok=True)
        proc = self._spawn([sys.executable, str(BENCH / "worker.py"), *args, "--workload", self.workload,
                            "--seed", str(self.seed), "--out", str(out)])
        if proc is None:
            self.problems.append(f"worker {args[0]} timed out")
            return None
        if proc.returncode != 0 or not out.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"worker {args[0]} exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(out.read_text())

    def prep(self) -> None:
        """Write the files the ``zsmagic`` invocations read; digest them."""
        result = self._worker("prep", "--dir", str(self.dir / "cli"))
        if result is None:
            return
        self.requests = result["requests"]
        h = hashlib.sha256()
        for path in sorted((self.dir / "cli").iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
        self.cli_digest = h.hexdigest()

    def run_pass(self, index: int, traced: bool) -> dict | None:
        spans = self.dir / f"spans-{index:02d}.jsonl"
        result = self._worker("pass", "--traced", str(int(traced)), "--dump", str(int(index == 0)),
                              "--spans", str(spans))
        if result is not None:
            result["traced"] = traced
            self.passes.append(result)
        return result

    def run_cli(self, request: dict, timed: bool) -> None:
        start = time.perf_counter()
        proc = self._spawn([sys.executable, "-c", CLI_TIMED if timed else CLI_PLAIN, *request["argv"]])
        ms = (time.perf_counter() - start) * 1e3
        record = {"argv": request["argv"], "ms": ms, "timed": timed}
        try:
            reason = "timed out" if proc is None else check_cli(request["expect"], proc)
        except InputError as exc:
            self.problems.append(f"benchmark input error: {exc}")
            reason = None
        if proc is not None and timed:
            marks = [ln for ln in proc.stderr.splitlines() if ln.startswith("#bench-cli ")]
            if marks:
                record["import_ms"], record["main_ms"] = map(float, marks[-1].split()[1:])
            elif reason is None:
                reason = "no timing line from the traced invocation"
        if reason:
            record["failure"] = reason
            words = " ".join(Path(a).name for a in request["argv"][:3])
            self.failures.append(f"zsmagic {words}: {reason}")
            if proc is not None and proc.returncode == 0 and "verdict_of" not in request["expect"]:
                self.problems.append(f"zsmagic {words} wrote a wrong output: {reason}")
        self.cli.append(record)

    # -- the loop ------------------------------------------------------------------

    def enough(self) -> bool:
        plain = [p for p in self.passes if not p["traced"]]
        samples = sum(len(p["jobs"]) for p in plain)
        rounds_ok = len(self.cli) >= MIN_CLI_ROUNDS * max(1, len(self.requests))
        if self.trace:
            traced = len(self.passes) - len(plain)
            return traced >= MIN_TRACED_PASSES and len(plain) >= MIN_TRACED_PASSES and rounds_ok
        return len(plain) >= MIN_PASSES and samples >= MIN_JOB_SAMPLES and rounds_ok

    def loop(self, seconds: float) -> None:
        begin = time.perf_counter()
        index = 0
        while not self.problems and time.perf_counter() - self.started < STOP_LAUNCHING_S:
            started = time.perf_counter()
            if self.run_pass(index, traced=self.trace and index % 2 == 1) is None:
                break
            for request in self.requests:
                self.run_cli(request, timed=self.trace)
            index += 1
            now = time.perf_counter()
            elapsed, last = now - begin, now - started
            if self.enough() and elapsed + last / 2 >= seconds:
                break
        self.measured_s = time.perf_counter() - begin

    # -- checks --------------------------------------------------------------------

    def check_passes(self) -> dict[str, str | None]:
        """Check the dumped first pass with the independent checker, then hold
        every later pass to the first: same inputs, same outputs.  Returns
        each job's failure reason (None when it passed)."""
        first = self.passes[0]
        verdicts = CHECKS[self.workload](first["dump"])
        for job in first["jobs"]:
            if job["error"]:
                verdicts[job["id"]] = job["error"]
                continue
            if job["verified"] is False:
                verdicts[job["id"]] = verdicts[job["id"]] or "the program's own verifier rejected its output"
            # a wrong verify verdict is a failed operation; a wrong certificate,
            # witness or report makes the run incorrect as well
            if verdicts[job["id"]] and self.workload != "recheck":
                self.problems.append(f"job {job['id']} ({job['kind']}) wrote a wrong output: {verdicts[job['id']]}")
        outputs = {job["id"]: job["out"] for job in first["jobs"]}
        for p in self.passes[1:]:
            if p["input_digest"] != first["input_digest"]:
                self.problems.append("inputs differ between passes of one seed")
            for job in p["jobs"]:
                if job["out"] != outputs[job["id"]] and not job["error"]:
                    self.problems.append(f"job {job['id']} ({job['kind']}) output differs between passes")
        return verdicts

    def record_determinism(self) -> None:
        """Deterministic counts must repeat across runs of the same code and
        seed: input digest, per-search node counts and recheck verdicts."""
        first = self.passes[0]
        record = {
            "input_digest": first["input_digest"],
            "nodes": {j["id"]: j["nodes"] for j in first["jobs"] if j["nodes"]},
            "verdicts": dict(sorted(_verdict_counts(first).items())),
            "cli_inputs": self.cli_digest,
        }
        key = f"{code_digest()}:{self.workload}:{self.seed}"
        store_path = OUT / "determinism.json"
        store = json.loads(store_path.read_text()) if store_path.is_file() else {}
        earlier = store.get(key)
        if earlier is not None and earlier != record:
            changed = sorted(k for k in record if record[k] != earlier.get(k))
            self.problems.append(f"{', '.join(changed)} differ from an earlier run of this code and seed")
        elif earlier is None:
            store[key] = record
            tmp = store_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
            tmp.replace(store_path)


def _verdict_counts(p: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for job in p["jobs"]:
        if job["verdict"]:
            counts[job["verdict"]] = counts.get(job["verdict"], 0) + 1
    return counts


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- independent checks of pass outputs --------------------------------------------------


def _header_ok(text: str, header: str) -> bool:
    body = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    return bool(body) and body[0] == header


def _blowup_adj(base_text: str, fiber: int):
    n, adj = checker.parse_graph(base_text)
    return checker.blowup(n, adj, fiber)


def _certify_header(kind: str, a: dict) -> str:
    if kind == "zsp":
        return f"partition {a['group']} m={a['m']}"
    if kind == "bijection":
        return f"bijection {a['group']}"
    if kind == "kotzig":
        return f"kotzig {a['group']} j={a['j']} k={math.prod(checker.parse_spec(a['group']))}"
    if kind == "kotzig-int":
        return f"kotzig-int k={a['k']} j={a['j']}"
    return f"labeling {a['group']}"


def check_certify(dump: dict) -> dict[str, str | None]:
    out = {}
    for job_id, item in dump.items():
        kind, a, text = item["kind"], item["args"], item["text"]
        if text is None:
            out[job_id] = None  # the job raised; its error is reported instead
            continue
        if kind == "label-blowup":
            reason = checker.check_labeling(text, _blowup_adj(a["graph"], a["n"]))
        else:
            reason = checker.check_certificate(text)
        header = _certify_header(kind, a)
        if reason is None and not _header_ok(text, header):
            reason = f"header is not {header!r}"
        out[job_id] = reason
    return out


def check_search(dump: dict) -> dict[str, str | None]:
    out = {}
    for job_id, item in dump.items():
        kind, a, text = item["kind"], item["args"], item["text"]
        if text is None:
            out[job_id] = None
        elif kind == "scan":
            out[job_id] = _check_scan(text, a["max_order"], item["witnesses"])
        else:
            kind = kind.removeprefix("search-")
            reason, fields = checker.check_report(text, kind, a.get("graph"))
            out[job_id] = reason or _search_expectation(kind, a, fields)
    return out


def _search_expectation(kind: str, a: dict, fields: dict) -> str | None:
    """What theory and brute force say the outcome must be."""
    factors = checker.parse_spec(a["group"])
    if kind != "labeling":
        expected = checker.in_class_g(factors)
        if fields["found"] != expected or not fields["exhausted"]:
            return f"expected found={str(expected).lower()} exhausted=true"
        return None
    n, adj = checker.parse_graph(a["graph"])
    if not fields["exhausted"]:
        return None if fields["nodes"] > a["budget"] else "stopped before using up its budget"
    if fields["found"]:
        return "found a labeling on an obstructed graph" if checker.magic_obstructed(n, adj, factors) else None
    if n <= 8 and checker.labeling_exists(n, adj, factors):
        return "claimed nonexistence, but a magic labeling exists"
    return None


def _scan_summary(max_order: int) -> str:
    count = checker.scan_instance_count(max_order)
    return f"scanned {count} instances up to order {max_order}; counterexamples: 0"


def _check_scan(text: str, max_order: int, witnesses) -> str | None:
    last = text.rstrip("\n").splitlines()[-1:]
    if last != [_scan_summary(max_order)]:
        return f"unexpected summary {last!r}"
    count = checker.scan_instance_count(max_order)
    if len(witnesses or ()) != count:
        return f"{len(witnesses or ())} witnesses for {count} instances"
    for w in witnesses:
        reason = checker.check_sized_partition(w)
        if reason:
            return f"scan witness: {reason}"
    return None


class InputError(Exception):
    """Generated inputs are not what they were meant to be: a benchmark bug."""


def expected_verdict(text: str, graph: str | None, intent: str) -> str:
    """The checker's verdict on a recheck input; it must agree with how the
    input was made (a valid copy accepted, a mutant rejected)."""
    reason = checker.check_certificate(text, graph)
    verdict = "accept" if reason is None else "reject"
    if (intent == "valid") != (verdict == "accept"):
        raise InputError(f"a {intent} input is {verdict}ed by the checker ({reason})")
    return verdict


_INTENTS = {
    "valid": "a valid certificate",
    "element": "a mutant with one element replaced",
    "drop": "a mutant with one row or block dropped",
    "header": "a mutant with one header field edited",
}


def _disagreement(observed: str, intent: str) -> str:
    return f"verify {observed}ed {_INTENTS[intent]}; the checker disagrees"


def check_recheck(dump: dict) -> dict[str, str | None]:
    out = {}
    for job_id, item in dump.items():
        a, observed = item["args"], item["text"]
        expected = expected_verdict(a["text"], a["graph"], a["intent"])
        out[job_id] = None if observed in (None, expected) else _disagreement(observed, a["intent"])
    return out


CHECKS = {"certify": check_certify, "recheck": check_recheck, "search": check_search}


def check_cli(expect: dict, proc) -> str | None:
    out, err, code = proc.stdout, proc.stderr, proc.returncode
    if "verdict_of" in expect:
        expected = expected_verdict(Path(expect["verdict_of"]).read_text(), expect["graph"], expect["intent"])
        if code == 0 and out.startswith("accept"):
            observed = "accept"
        elif (code == 1 and out.startswith("reject")) or (code == 2 and err.startswith("error (")):
            observed = "reject"
        else:
            return f"exit {code}: {(err or out).strip().splitlines()[-1:]}"
        return None if observed == expected else _disagreement(observed, expect["intent"])
    if code != 0:
        return f"exit {code}: {err.strip().splitlines()[-1:]}"
    if "report" in expect:
        reason, fields = checker.check_report(out, expect["report"])
        return reason or (None if fields["found"] else "search found nothing")
    if "scan" in expect:
        ok = out.rstrip("\n").splitlines()[-1:] == [_scan_summary(expect["scan"])]
        return None if ok else "unexpected scan summary"
    if not _header_ok(out, expect["header"]):
        return f"header is not {expect['header']!r}"
    if "base" not in expect:
        return checker.check_certificate(out)
    adj = _blowup_adj(expect["base"], expect["fiber"])
    try:
        _, emitted = checker.parse_graph(Path(expect["emitted"]).read_text())
    except (OSError, checker.Malformed) as exc:
        return f"emitted graph: {exc}"
    if [sorted(a) for a in emitted] != [sorted(a) for a in adj]:
        return "the emitted graph is not the blow-up"
    return checker.check_labeling(out, adj)


# -- metrics -------------------------------------------------------------------------------


def nearest_rank(values, q: float) -> float:
    """The smallest sample with at least a share q of all samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(run: Run) -> tuple[dict[str, float], dict]:
    plain = [p for p in run.passes if not p["traced"]]
    samples = [j["ms"] for p in plain for j in p["jobs"]]
    cli_ms = [c["ms"] for c in run.cli if not c["timed"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "job_ms.p50": nearest_rank(samples, 0.5),
        "job_ms.p90": nearest_rank(samples, 0.9),
        "cli_ms.p50": statistics.median(cli_ms),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in run.passes),
    }
    counts = {"passes": len(plain), "job_samples": len(samples), "cli_samples": len(cli_ms)}
    return metrics, counts


def per_layer(run: Run) -> tuple[dict[str, float], dict]:
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    metrics = {
        name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    timed = [c for c in run.cli if "import_ms" in c]
    metrics["cli.import_ms"] = statistics.median(c["import_ms"] for c in timed)
    metrics["cli.main_ms"] = statistics.median(c["main_ms"] for c in timed)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
    )
    counts = {"traced_passes": len(traced), "untraced_passes": len(plain), "cli_samples": len(timed)}
    return metrics, counts


def machine_context() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def bench(workload: str, seed: int, seconds: float, trace: int, wanted: list[dict]) -> dict:
    """Run one workload, print its table and return the result line."""
    context = machine_context()
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(workload, seed, bool(trace), run_dir)
    run.prep()
    if run.requests:
        run.loop(seconds)

    verdicts: dict[str, str | None] = {}
    if run.passes:
        try:
            verdicts = run.check_passes()
        except InputError as exc:
            run.problems.append(f"benchmark input error: {exc}")
        if not run.problems:
            run.record_determinism()
    failed_ids = {job_id for job_id, reason in verdicts.items() if reason}
    for job_id in sorted(failed_ids):
        run.failures.append(f"job {job_id}: {verdicts[job_id]}")
    job_runs = [(p, j) for p in run.passes for j in p["jobs"]]
    run.failures += [f"job {j['id']}: {j['error']}" for p in run.passes[1:] for j in p["jobs"] if j["error"]]
    failed = sum(1 for _, j in job_runs if j["id"] in failed_ids or j["error"])
    failed += sum(1 for c in run.cli if "failure" in c)
    attempted = len(job_runs) + len(run.cli)
    correct = not run.problems and bool(run.passes)
    if not correct:
        attempted, failed = max(attempted, 1), max(failed, 1)

    metrics, counts = {}, {}
    if correct:
        metrics, counts = per_layer(run) if trace else end_to_end(run)
    units = {m["name"]: m["unit"] for m in wanted}
    report = {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics}

    print(f"zsmagic benchmark: workload={workload} seed={seed} trace={trace} "
          f"measured={run.measured_s:.1f}s")
    print(f"machine: nproc={context['nproc']} python={context['python']} "
          f"loadavg={' '.join(map(str, context['loadavg']))}")
    print("counts: " + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" attempted={attempted} failed={failed}")
    for name, entry in report.items():
        print(f"  {name:26s} {entry['value']:14.6g} {entry['unit']}")
    extra = {k: v for k, v in metrics.items() if k not in units}
    for name, value in extra.items():
        print(f"  {name:26s} {value:14.6g}")
    print(f"  {'fail_ratio':26s} {failed / attempted:14.6g} ratio")
    for line in run.failures[:20]:
        print(f"failure: {line}")
    for line in run.problems:
        print(f"problem: {line}")

    result_file = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    result_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "trace": trace, "context": context,
        "measured_s": run.measured_s, "counts": counts, "metrics": metrics,
        "passes": [{k: p[k] for k in ("traced", "setup_s", "wall_s", "rss_mb")} for p in run.passes],
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "failures": run.failures, "problems": run.problems,
    }, indent=1, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": report}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "zsmagic" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/zsmagic package or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload != "all":
        print(json.dumps(bench(args.workload, args.seed, args.seconds, args.trace, wanted)))
        return 0
    lines = {w: bench(w, args.seed, args.seconds, args.trace, wanted) for w in WORKLOADS}
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
