"""minpl benchmark: one workload, closed loop, one client, one query at a time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads are ``corpus``, ``hard``, ``quantified`` (decided in-process by a
fresh interpreter per round, ``perfbench/worker.py``) and ``cli`` (one
``python -m minpl.cli`` process per query).  A round decides every query of
the workload once, in an order drawn from ``--seed``; a run makes as many
rounds as take about ``--seconds`` on the machine that set the bounds.  Every
verdict is checked against an expectation made apart from the search
(``perfbench/checker.py``), and the first round replays every derivation.

With ``--trace 0`` the end-to-end metrics are measured; with ``--trace 1``
the same rounds run under the tracer (``perfbench/tracer.py``) and the
per-layer metrics are reported instead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

from refclock import Gauge, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
OUT = HERE / "out"
PYTHON = sys.executable

WORKLOADS = ("corpus", "hard", "quantified", "cli")
# Seconds one untraced round takes on a 2-core x86-64 VM with Python 3.11.
# An untraced run makes round(seconds / NOMINAL_ROUND_S) rounds, at least two,
# so every run with the same --seconds attempts the same operations.
NOMINAL_ROUND_S = {"corpus": 5.0, "hard": 6.0, "quantified": 3.3, "cli": 14.0}
SETUP_PER_ROUND = 6
PROBE_EACH = 6  # traced run: derivable and underivable queries sent through the CLI
SEARCH_TIMEOUT = "10"
WORKER_TIMEOUT = 150.0
CLI_TIMEOUT = 30.0


class BenchError(Exception):
    pass


class Child:
    """A finished child process: output, exit status, peak RSS, timing."""

    def __init__(self, argv, stdin_text=None, timeout=CLI_TIMEOUT):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with tempfile.TemporaryFile(dir=OUT) as err:
            self.spawned = time.monotonic()
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=env,
                stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=err,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            reaped = False
            try:
                if stdin_text is not None:
                    try:
                        proc.stdin.write(stdin_text.encode("utf-8"))
                        proc.stdin.close()
                    except BrokenPipeError:
                        pass
                out = proc.stdout.read()
                # wait4 reaps the child and gives its own peak resident set
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                killer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            self.seconds = time.monotonic() - self.spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            err.seek(0)
            self.stderr = err.read().decode("utf-8", "replace")
        self.stdout = out.decode("utf-8", "replace")
        self.status = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.queries = json.loads((INPUTS / f"{workload}.json").read_text())["queries"]
        self.latencies: list = []  # scaled by the reference clock
        self.raw: list = []  # unscaled latencies, for reference
        self.gauge = None
        self.setup: list = []
        self.rss: list = []
        self.failures: list = []
        self.wrong: list = []
        self.attempted = 0
        self.rounds = 0
        self.processes = 0
        self.check_s = 0.0
        self.totals = {k: defaultdict(int) for k in ("total_ns", "self_ns", "calls", "counts")}
        self.cache_entries = defaultdict(int)
        self.cli = defaultdict(float)
        self.cli_children = 0

    # -- set-up -------------------------------------------------------------

    def setup_samples(self) -> None:
        """Time fresh interpreters importing minpl (minpl.cli for cli)."""
        module = "minpl.cli" if self.workload == "cli" else "minpl"
        argv = [PYTHON, "-c", f"import {module}"]
        for _ in range(SETUP_PER_ROUND):
            child = Child(argv)
            if child.status != 0:
                raise BenchError(f"cannot import {module}: {child.stderr.strip()}")
            self.setup.append(child.seconds * self.gauge.factor())

    # -- rounds -------------------------------------------------------------

    def order(self, round_no: int) -> list:
        order = list(range(len(self.queries)))
        random.Random(f"{self.seed}:{round_no}").shuffle(order)
        return order

    def run(self) -> None:
        # the first start may compile bytecode; it is not counted
        Child([PYTHON, "-c", "import minpl.cli"])
        self.gauge = Gauge()
        rounds = max(2, round(self.seconds / NOMINAL_ROUND_S[self.workload]))
        # per-layer counts repeat in every round, and tracing slows a round
        # down up to threefold, so a traced run makes two rounds
        for _ in range(2 if self.trace else rounds):
            # set-up samples are spread over the run, like the rounds
            self.setup_samples()
            if self.workload == "cli":
                for index in self.order(self.rounds):
                    self.cli_query(index, traced=self.trace)
            else:
                self.worker_round()
            self.rounds += 1
        if self.trace and self.workload != "cli":
            self.probe()

    def worker_round(self) -> None:
        job = {
            "inputs": str(INPUTS / f"{self.workload}.json"),
            "warmup": str(INPUTS / "warmup.json"),
            "order": self.order(self.rounds),
            "trace": self.trace,
            # the search is deterministic: derivations are replayed in the first round
            "full_check": self.rounds == 0,
            "spans": str(OUT / f"spans-{self.workload}-round{self.rounds}.tsv") if self.trace else None,
        }
        child = Child([PYTHON, str(HERE / "worker.py")], json.dumps(job), WORKER_TIMEOUT)
        if child.status != 0:
            raise BenchError(f"worker exited with {child.status}: {child.stderr[-3000:]}")
        result = json.loads(child.stdout)
        self.attempted += len(result["latencies"])
        self.latencies += result["scaled"]
        self.raw += result["latencies"]
        self.failures += result["failures"]
        self.wrong += result["wrong"]
        self.check_s += result["check_s"]
        self.rss.append(child.rss_mb)
        self.processes += 1
        if self.trace:
            self.merge(result["trace"])

    def cli_query(self, index: int, traced: bool) -> None:
        import checker

        q = self.queries[index]
        args = ["decide" if q["kind"] == "formula" else "inhabit", q["text"], "--json"]
        args += ["--timeout", SEARCH_TIMEOUT]
        if q.get("trace", traced):
            args.append("--trace")
        if traced:
            child = Child([PYTHON, str(HERE / "cli_child.py")] + args)
        else:
            child = Child([PYTHON, "-m", "minpl.cli"] + args)
        self.attempted += 1
        if self.workload == "cli":
            self.latencies.append(child.seconds * self.gauge.factor())
            self.raw.append(child.seconds)
            self.rss.append(child.rss_mb)
        if child.status not in (0, 1):
            self.failures.append({"query": index, "status": child.status, "error": child.stderr[-300:]})
            return
        lines = child.stdout.splitlines()
        check_start = time.perf_counter()
        reason = None
        try:
            payload = json.loads(lines[0])
            verdict = payload["derivable"]
            if verdict != q["expected"] or child.status != (0 if verdict else 1):
                reason = f"verdict {verdict} (status {child.status}), expected {q['expected']}"
            elif "--trace" in args and verdict:
                from minpl import parse_formula, parse_type, phi

                formula = parse_formula(q["text"]) if q["kind"] == "formula" else phi(parse_type(q["text"]))
                if not checker.json_root_matches(payload["derivation"], formula):
                    reason = "trace does not conclude the query"
                checker.replay_json(payload["derivation"])
        except (ValueError, KeyError, IndexError, TypeError, AssertionError) as exc:
            reason = f"bad output: {exc!r}"[:300]
        self.check_s += time.perf_counter() - check_start
        if reason is not None:
            self.wrong.append({"query": index, "text": q["text"], "reason": reason})
        if traced:
            trace = json.loads(lines[-1].removeprefix("TRACE "))
            self.cli["interpreter_ms"] += (trace["t_start"] - child.spawned) * 1000
            self.cli["import_ms"] += trace["import_s"] * 1000
            self.cli["output_bytes"] += trace["output_bytes"]
            self.cli_children += 1
            if self.workload == "cli":
                self.merge(trace["trace"])
                self.processes += 1
            else:
                for key in ("total_ns", "calls"):
                    for name in ("cli.run", "prover.trace_json"):
                        self.totals[key][name] += trace["trace"][key].get(name, 0)

    def probe(self) -> None:
        """Send a few of the workload's own queries through the traced CLI,
        so the CLI layer is measured on every workload."""
        order = range(len(self.queries))
        picked = [i for i in order if self.queries[i]["expected"]][:PROBE_EACH]
        picked += [i for i in order if not self.queries[i]["expected"]][:PROBE_EACH]
        for index in picked:
            self.cli_query(index, traced=True)

    def merge(self, trace: dict) -> None:
        for key, table in self.totals.items():
            for name, value in trace[key].items():
                table[name] += value
        for layer, info in trace["caches"].items():
            self.cache_entries[layer] += info["entries"]

    # -- metrics ------------------------------------------------------------

    def end_to_end(self) -> dict:
        ms = [x * 1000 for x in self.latencies]
        return {
            "setup_s": (statistics.median(self.setup), "s"),
            "queries_per_s": (len(ms) / sum(ms) * 1000, "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (quantile(ms, 90), "ms"),
            "peak_rss_mb": (statistics.median(self.rss), "MB"),
        }

    def per_layer(self) -> dict:
        total, own, calls, counts = (self.totals[k] for k in ("total_ns", "self_ns", "calls", "counts"))
        rounds, procs = self.rounds, max(self.processes, 1)

        def per_call_us(name):
            return total[name] / max(calls[name], 1) / 1000

        visited = max(counts["visited"], 1)
        children = max(self.cli_children, 1)
        return {
            "syntax.parse_us": (per_call_us("syntax.parse"), "us"),
            "syntax.parse_tokens_per_s": (counts["syntax.parse.tokens"] / max(total["syntax.parse"], 1) * 1e9, "1/s"),
            "syntax.rename_us": (per_call_us("syntax.rename"), "us"),
            "syntax.polarity_us": (per_call_us("syntax.polarity"), "us"),
            "syntax.cache_entries": (self.cache_entries["syntax"] / procs, "count"),
            "context.fuse_calls": (calls["context.fuse"] / rounds, "count"),
            "context.fuse_us": (per_call_us("context.fuse"), "us"),
            "context.bracket_calls": (calls["context.bracket"] / rounds, "count"),
            "context.bracket_us": (per_call_us("context.bracket"), "us"),
            "context.cache_entries": (self.cache_entries["context"] / procs, "count"),
            "prover.visited": (counts["visited"] / rounds, "count"),
            "prover.distinct": (counts["distinct"] / rounds, "count"),
            "prover.revisit_ratio": (counts["visited"] / max(counts["distinct"], 1), "ratio"),
            "prover.prunes": (counts["prunes"] / rounds, "count"),
            "prover.us_per_visited": (total["prover.derivable"] / visited / 1000, "us"),
            "prover.self_us_per_visited": (own["prover.derivable"] / visited / 1000, "us"),
            "prover.seen_us": (total["prover.seen"] / visited / 1000, "us"),
            "prover.derivation_nodes": (counts["derivation_nodes"] / rounds, "count"),
            "prover.trace_json_us": (per_call_us("prover.trace_json"), "us"),
            "systemf.parse_type_us": (per_call_us("systemf.parse_type"), "us"),
            "systemf.phi_us": (per_call_us("systemf.phi"), "us"),
            "cli.interpreter_ms": (self.cli["interpreter_ms"] / children, "ms"),
            "cli.import_ms": (self.cli["import_ms"] / children, "ms"),
            "cli.run_ms": (total["cli.run"] / max(calls["cli.run"], 1) / 1e6, "ms"),
            "cli.output_bytes": (self.cli["output_bytes"] / children, "bytes"),
            "oracle.check_s": (self.check_s / rounds, "s"),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "minpl" / "__init__.py").is_file():
        print(f"error: no minpl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    pin_to_one_cpu()

    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
        run.run()
    except (BenchError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = run.per_layer() if args.trace else run.end_to_end()
    if args.trace:
        # the untraced figures of the same run under tracing, for the overhead
        for name, (value, unit) in run.end_to_end().items():
            print(f"{args.workload}/{name} under tracing {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name} {value:.6g} {unit}")
    if not args.trace:
        raw_ms = [x * 1000 for x in run.raw]
        print(f"unscaled: p50 {statistics.median(raw_ms):.6g} ms, {len(raw_ms)} samples")
        if len(run.latencies) >= 1000:
            p99 = quantile([x * 1000 for x in run.latencies], 99)
            print(f"{args.workload}/latency_p99_ms {p99:.6g} ms (not in BENCHMARK.json)")
    print(f"rounds {run.rounds}, attempted {run.attempted}, failed {len(run.failures)}, wrong {len(run.wrong)}")
    for item in (run.failures + run.wrong)[:5]:
        print(f"  {json.dumps(item)[:400]}")
    if args.trace:
        (OUT / f"trace-{args.workload}.json").write_text(
            json.dumps({k: dict(v) for k, v in run.totals.items()}, indent=1)
        )
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
