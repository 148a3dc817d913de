"""One round of an in-process workload, in a fresh interpreter.

Started by ``run.py``; reads a job from standard input and writes one JSON
object to standard output.  It imports minpl from the ``src/`` directory next
to the benchmark, decides the warm-up formulas, then decides each query of the
round exactly once through the public entry points (``parse_formula`` and
``derivable``, or ``parse_type`` and ``inhabited``), one at a time, timing
each.  Right after each query, untimed, the verdict is checked against the
expectation made apart from the search, and the derivation is replayed.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import minpl  # noqa: E402

import checker  # noqa: E402
from refclock import Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402

SEARCH_TIMEOUT = 10.0
GAUGE_EVERY_S = 0.05  # query time between two runs of the reference task


def decide(kind: str, text: str):
    if kind == "formula":
        return minpl.derivable(minpl.parse_formula(text), timeout=SEARCH_TIMEOUT)
    return minpl.inhabited(minpl.parse_type(text), timeout=SEARCH_TIMEOUT)


def check(kind: str, text: str, expected: bool, verdict: bool, derivation, full: bool):
    """Return a reason if the answer is wrong, else None.  Beyond the
    verdict, ``full`` cross-checks types through ``derivable(phi(t))`` and
    replays the derivation."""
    if verdict != expected:
        return f"verdict {verdict}, expected {expected}"
    if not full:
        return None
    formula = minpl.parse_formula(text) if kind == "formula" else minpl.phi(minpl.parse_type(text))
    if kind == "type":
        translated, _, _ = minpl.derivable(formula, timeout=SEARCH_TIMEOUT)
        if translated != verdict:
            return f"inhabited gives {verdict} but derivable(phi(t)) gives {translated}"
    if verdict != (derivation is not None):
        return "derivation present exactly when derivable: violated"
    if derivation is not None:
        if not checker.derivation_root_matches(derivation, formula):
            return "derivation does not conclude the query"
        try:
            checker.replay(derivation)
        except AssertionError as exc:
            return f"replay: {exc}"
    return None


def main() -> None:
    if not Path(minpl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"minpl was imported from {minpl.__file__}, not from {ROOT / 'src'}")
    job = json.load(sys.stdin)
    queries = json.loads(Path(job["inputs"]).read_text())["queries"]
    warmup = json.loads(Path(job["warmup"]).read_text())["queries"]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()

    for q in warmup:
        if tracer:
            tracer.enabled = False
        decide(q["kind"], q["text"])
    if tracer:
        tracer.enabled = True

    latencies, scaled, failures, wrong = [], [], [], []
    check_s = 0.0
    gauge = Gauge()
    pending = 0.0  # query time since the reference task last ran

    def scale_segment():
        factor = gauge.factor()
        scaled.extend(x * factor for x in latencies[len(scaled):])

    for index in job["order"]:
        if pending >= GAUGE_EVERY_S:
            scale_segment()
            pending = 0.0
        q = queries[index]
        if tracer:
            tracer.query = index
        start = time.perf_counter()
        try:
            verdict, _, derivation = decide(q["kind"], q["text"])
        except Exception as exc:  # a failed query is counted, not fatal
            latencies.append(time.perf_counter() - start)
            failures.append({"query": index, "error": repr(exc)[:300]})
            continue
        latencies.append(time.perf_counter() - start)
        pending += latencies[-1]
        check_start = time.perf_counter()
        if tracer:
            tracer.enabled = False
        reason = check(q["kind"], q["text"], q["expected"], verdict, derivation, job["full_check"])
        if tracer:
            tracer.enabled = True
        check_s += time.perf_counter() - check_start
        if reason is not None:
            wrong.append({"query": index, "text": q["text"], "reason": reason})
        del derivation
    scale_segment()

    out = {
        "latencies": latencies,
        "scaled": scaled,
        "failures": failures,
        "wrong": wrong,
        "check_s": check_s,
    }
    if tracer:
        tracer.enabled = False
        out["trace"] = tracer.summary()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
