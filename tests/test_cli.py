import gc
import inspect
import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import minpl
from minpl.cli import main
from minpl.prover import derivable
from minpl.syntax import parse_formula, print_formula
from minpl.systemf import inhabited, parse_type

from helpers import (
    DERIVABLE_FALSE,
    DERIVABLE_TRUE,
    INHABITED_FALSE,
    INHABITED_TRUE,
    ROTATION_WITNESSES,
    distinct_nodes,
    left_chain,
    nested_brackets,
    reference_text_trace,
    right_chain,
)

INTRO = "((((P -> Q) -> P) -> P) -> Q) -> Q"
IMPL_EXAMPLE = "((forall x. (P(x) -> ((forall y. (P(y) -> Q)) -> R) -> R)) -> Q) -> Q"

# the published examples, then the rotation witnesses, each with its command
PUBLISHED_JOBS = [("decide", text) for text in DERIVABLE_TRUE + DERIVABLE_FALSE]
PUBLISHED_JOBS += [("inhabit", text) for text in INHABITED_TRUE + INHABITED_FALSE]
PUBLISHED_JOBS += [("decide", ROTATION_WITNESSES["formula"]), ("inhabit", ROTATION_WITNESSES["type"])]

JSON_KEYS = {
    "input",
    "mode",
    "derivable",
    "visited",
    "elapsed_ms",
    "derivation",
    "oracle_agrees",
    "warnings",
}


def test_decide_derivable_exit_zero(capsys):
    assert main(["decide", INTRO]) == 0
    assert capsys.readouterr().out.strip() == "derivable"


def test_decide_underivable_exit_one(capsys):
    assert main(["decide", IMPL_EXAMPLE]) == 1
    assert capsys.readouterr().out.strip() == "not derivable"


def test_inhabit_identity_json(capsys):
    assert main(["inhabit", "forall X. X -> X", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["derivable"] is True
    assert payload["mode"] == "inhabit"
    assert set(payload) == JSON_KEYS


def test_json_schema_is_stable(capsys):
    assert main(["decide", INTRO, "--json", "--trace"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == JSON_KEYS
    assert main(["decide", INTRO, "--json", "--trace", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == JSON_KEYS | {"stats"}
    assert payload["derivable"] is True
    assert isinstance(payload["visited"], int)
    assert isinstance(payload["elapsed_ms"], float)
    node = payload["derivation"]
    assert node["rule"] == "Rimp"
    assert set(node) == {"rule", "sequent", "premises"}
    assert payload["oracle_agrees"] is None
    assert payload["warnings"] == []


def test_json_without_trace_has_null_derivation(capsys):
    assert main(["decide", INTRO, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["derivation"] is None


def test_text_trace_uses_rule_names(capsys):
    assert main(["decide", "Q -> Q", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "Rimp: |- Q -> Q" in out
    assert "Limp [Q]: Q |- Q" in out


def test_text_trace_is_the_whole_derivation(capsys, corpus):
    # every line of the printed trace, against a renderer that walks the derivation
    jobs = PUBLISHED_JOBS + [("decide", print_formula(f)) for f in corpus[:60]]
    traced = rotated = 0
    for mode, text in jobs:
        if mode == "decide":
            verdict, _, derivation = derivable(parse_formula(text))
            expected = ["derivable" if verdict else "not derivable"]
        else:
            verdict, _, derivation = inhabited(parse_type(text))
            expected = ["inhabited" if verdict else "not inhabited"]
        if derivation is not None:
            expected += reference_text_trace(derivation, typed=mode == "inhabit")
            traced += 1
            rotated += any(node.path for node in distinct_nodes(derivation))
        assert main([mode, text, "--trace"]) == (0 if verdict else 1)
        assert capsys.readouterr().out.splitlines() == expected, text
    assert traced >= 20 and rotated >= 2, (traced, rotated)


def test_stats_lines(capsys):
    assert main(["decide", INTRO, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "visited:" in out and "max bracket depth:" in out
    assert "loop-check prunes:" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["decide", "(Q -> Q) -> Q"],  # a prune
        ["decide", "(R -> R -> Q) -> R -> Q"],  # a memo hit
        ["decide", "((forall x. (P(x) -> Q)) -> Q) -> Q"],  # a bracket
        ["inhabit", "forall X. X -> X"],
    ],
)
def test_json_stats_are_the_text_stats_lines(capsys, argv):
    status = main(argv + ["--stats"])
    lines = capsys.readouterr().out.splitlines()[1:]
    assert main(argv + ["--stats", "--json"]) == status
    payload = json.loads(capsys.readouterr().out)
    stats = payload["stats"]
    assert list(stats) == ["visited", "max_seen", "max_depth", "prunes", "memo_hits", "elapsed_ms"]
    labels = ["visited", "max seen set", "max bracket depth", "loop-check prunes", "memo hits"]
    assert lines[:-1] == [f"{label}: {value}" for label, value in zip(labels, stats.values())]
    assert lines[-1].startswith("elapsed: ") and lines[-1].endswith(" ms")
    assert stats["visited"] == payload["visited"] and stats["elapsed_ms"] == payload["elapsed_ms"]
    assert all(type(value) is int for value in list(stats.values())[:-1])


# Text output is a rendering of the JSON report: the same query answers both ways
RENDERED_JOBS = PUBLISHED_JOBS + [("decide", "P(c) -> P(c)"), ("decide", INTRO)]
RENDERED_JOBS += [("normalize", "[Q, P(x)]_{x}, [P(x)]_{x}"), ("normalize", "[]_{v}, P, P")]


def rendered(payload: dict) -> tuple[list[str], list[str]]:
    """The text a JSON report stands for, as (stdout, stderr) lines; elapsed
    time masked as ``*``."""
    err = [f"warning: {warning}" for warning in payload["warnings"]]
    if payload["mode"] == "normalize":
        out = [payload["normalized"]]
        if "stats" in payload:
            before, after = payload["stats"]["measure"]
            out.append(f"measure: {before} -> {after}")
        return out, err
    word = "derivable" if payload["mode"] == "decide" else "inhabited"
    out = [word if payload["derivable"] else f"not {word}"]

    def walk(node: dict, indent: int) -> None:
        head = f" [{node['head']}]" if "head" in node else ""
        out.append(f"{'  ' * indent}{node['rule']}{head}: {node['sequent']}")
        for premise in node["premises"]:
            walk(premise, indent + 1)

    if payload["derivation"] is not None:
        walk(payload["derivation"], 0)
    if payload["mode"] == "inhabit":
        out[1:] = [re.sub(r"\beps\(([\w']+)\)", r"\1", line) for line in out[1:]]
    if "stats" in payload:
        labels = ["visited", "max seen set", "max bracket depth", "loop-check prunes", "memo hits"]
        out += [f"{label}: {value}" for label, value in zip(labels, payload["stats"].values())]
        out.append("elapsed: *")
    if payload["oracle_agrees"] is not None:
        out.append(f"oracle agrees: {'yes' if payload['oracle_agrees'] else 'NO'}")
    return out, err


@pytest.mark.parametrize(
    "mode, text", RENDERED_JOBS, ids=[f"{mode}-{i}" for i, (mode, _) in enumerate(RENDERED_JOBS)]
)
def test_text_output_renders_the_json_report(capsys, mode, text):
    flags = ["--stats"] + ([] if mode == "normalize" else ["--trace", "--audit", "--oracle-check", "3"])
    status = main([mode, text, *flags])
    out, err = capsys.readouterr()
    out = [re.sub(r"^elapsed: \d+\.\d\d ms$", "elapsed: *", line) for line in out.splitlines()]
    assert main([mode, text, *flags, "--json"]) == status
    assert (out, err.splitlines()) == rendered(json.loads(capsys.readouterr().out))
    assert "elapsed: *" in out or mode == "normalize"


def test_stats_report_loop_check_prunes(capsys):
    # {Q -> Q} |- Q selects the head Q -> Q, whose premise repeats the sequent
    assert main(["decide", "(Q -> Q) -> Q", "--stats"]) == 1
    assert "loop-check prunes: 1" in capsys.readouterr().out.splitlines()


def test_stats_report_memo_hits(capsys):
    # {R -> R -> Q, R} |- Q reuses the proof of its first premise R for the second
    assert main(["decide", "(R -> R -> Q) -> R -> Q", "--stats"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "memo hits: 1" in lines and "visited: 4" in lines


def test_parse_error_exit_two(capsys):
    assert main(["decide", "P -> "]) == 2
    assert "parse error" in capsys.readouterr().err


def test_not_positive_exit_two(capsys):
    assert main(["decide", "(forall x. P(x)) -> Q"]) == 2
    assert "not a positive formula" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--audit"]])
@pytest.mark.parametrize(
    "mode, text",
    [("decide", "(forall x. P(x)) -> forall x. P(x)"), ("inhabit", "(forall Y. Y) -> forall Y. Y")],
)
def test_not_positive_error_names_the_binders_as_typed(capsys, mode, text, flags):
    # the search, and so the audit built from its first sequent, starts only on a positive input
    kind = "formula" if mode == "decide" else "type"
    assert main([mode, text, *flags]) == 2
    assert capsys.readouterr().err == f"error: not a positive {kind}: {text}\n"


def test_missing_input_exit_two(capsys):
    # the parser declares "exactly one of input or --file", so both are usage errors
    assert main(["decide"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: minpl decide ")
    assert err.endswith("error: one of the arguments input --file is required\n")
    assert main(["decide", "P", "--file", "also.txt"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: minpl decide ")
    assert err.endswith("error: argument --file: not allowed with argument input\n")


def test_file_input(tmp_path, capsys):
    path = tmp_path / "formula.txt"
    path.write_text(INTRO + "\n", encoding="utf-8")
    assert main(["decide", "--file", str(path)]) == 0


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("mode", ["decide", "inhabit", "normalize"])
@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable"])
def test_unreadable_file_is_exit_two(tmp_path, capsys, kind, mode, flags):
    # the file is read before any mode runs, so every mode answers with the same one line
    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"\xff")
    message = {
        "missing": f"[Errno 2] No such file or directory: {str(path)!r}",
        "directory": f"[Errno 21] Is a directory: {str(path)!r}",
        "undecodable": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    }[kind]
    assert main([mode, "--file", str(path), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_open_formula_warns(capsys):
    assert main(["decide", "P(c) -> P(c)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert any("not closed" in w for w in payload["warnings"])


def test_audit_violations_would_surface_in_warnings(capsys):
    assert main(["decide", IMPL_EXAMPLE, "--json", "--audit"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["warnings"] == []


@pytest.mark.parametrize("text, status", [(INTRO, 0), (IMPL_EXAMPLE, 1)])
def test_audit_violations_surface_in_warnings(monkeypatch, capsys, text, status):
    reports = [["forged violation"]]
    monkeypatch.setattr(
        "minpl.cli.auditor", lambda *args: lambda seq: reports.pop() if reports else []
    )
    assert main(["decide", text, "--json", "--audit"]) == status
    payload = json.loads(capsys.readouterr().out)
    assert payload["warnings"] == ["audit: forged violation"]
    assert payload["derivable"] is (status == 0)


def test_text_mode_prints_warnings_on_stderr(capsys):
    assert main(["decide", "P(c) -> P(c)"]) == 0
    out, err = capsys.readouterr()
    assert out == "derivable\n"
    assert err == (
        "warning: input is not closed; free variables (c) are treated as constants\n"
    )


def test_oracle_check_agreement(capsys):
    assert main(["decide", INTRO, "--oracle-check", "10", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["oracle_agrees"] is True
    assert main(["decide", IMPL_EXAMPLE, "--oracle-check", "8", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["oracle_agrees"] is True
    # an inner binder shadows an outer one of the same name, directly (height 4)
    # and under an implication (height 5), so the reference prover renames past it
    for text in ("forall x. forall x. P(x) -> P(x)", "forall x. Q -> forall x. P(x) -> P(x)"):
        assert main(["decide", text, "--oracle-check", "6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle_agrees"] is True


def test_oracle_check_disagreement_is_exit_four(capsys):
    # depth 2 cannot reach the proof, so the cross-check reports disagreement
    assert main(["decide", INTRO, "--oracle-check", "2"]) == 4
    assert "NO" in capsys.readouterr().out


def test_timeout_exit_three(capsys):
    assert main(["decide", INTRO, "--timeout", "0.0"]) == 3
    assert "timeout" in capsys.readouterr().err


def test_normalize_mode(capsys):
    assert main(["normalize", "[Q, P(x)]_{x}, [P(x)]_{x}"]) == 0
    assert capsys.readouterr().out.strip() == "Q, [P(x)]_{x}"


def test_normalize_mode_json(capsys):
    assert main(["normalize", "[]_{v}, P, P", "--json", "--stats"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["normalized"] == "P"
    assert payload["mode"] == "normalize"
    assert payload["stats"] == {"measure": ["3", "1"]}


def test_normalize_parse_error(capsys):
    assert main(["normalize", "[P"]) == 2


def test_main_end_to_end():
    assert main(["decide", INTRO]) == 0
    assert main(["decide", IMPL_EXAMPLE]) == 1
    assert main(["inhabit", "forall X. X -> X"]) == 0
    assert main(["normalize", "[Q]_{x}"]) == 0


def test_main_builds_the_config_from_every_flag(monkeypatch):
    configs = []
    monkeypatch.setattr(minpl.cli, "run", lambda config: configs.append(vars(config)) or 0)
    flags = ["--json", "--stats", "--trace", "--audit", "--oracle-check", "3", "--timeout", "2.5"]
    assert main(["decide", "Q -> Q", *flags]) == 0
    assert main(["inhabit", "--file", "t.txt", *flags]) == 0
    assert main(["normalize", "[Q]_{x}", "--json", "--stats"]) == 0
    assert main(["normalize", "--file", "c.txt"]) == 0
    every = dict(json_out=True, stats=True, trace=True, audit=True, oracle_check=3, timeout=2.5)
    assert configs == [
        dict(mode="decide", text="Q -> Q", file=None, **every),
        dict(mode="inhabit", text=None, file="t.txt", **every),
        # normalize takes no search options, so its config holds none
        dict(mode="normalize", text="[Q]_{x}", file=None, json_out=True, stats=True),
        dict(mode="normalize", text=None, file="c.txt", json_out=False, stats=False),
    ]


@pytest.mark.parametrize("flags, hooked", [([], False), (["--audit"], True)])
def test_search_gets_on_visit_only_under_audit(monkeypatch, capsys, flags, hooked):
    # a caller's tracer sets its own on_visit with options.setdefault, which an
    # explicit on_visit=None would defeat
    calls = []

    def search(f, **options):
        calls.append(options)
        return derivable(f, **options)

    monkeypatch.setattr("minpl.cli.derivable", search)
    assert main(["decide", INTRO, *flags]) == 0
    assert [("on_visit" in options) for options in calls] == [hooked]


def test_main_with_every_flag(capsys):
    flags = ["--json", "--stats", "--trace", "--audit", "--oracle-check", "3", "--timeout", "10"]
    for argv in (["decide", "Q -> Q"], ["inhabit", "forall X. X -> X"]):
        assert main(argv + flags) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["derivable"] is True and payload["oracle_agrees"] is True
        assert payload["derivation"]["rule"] in ("Rimp", "Rforall")
        assert payload["warnings"] == []
    assert main(["normalize", "[Q]_{x}, P", "--stats"]) == 0
    assert capsys.readouterr().out.splitlines() == ["P, Q", "measure: 4 -> 2"]


def test_main_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate", "P"]) == 2
    assert main(["normalize", "P", "--oracle-check", "3"]) == 2


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--oracle-check", "0", "N must be at least 1, not 0"),
        ("--oracle-check", "-2", "N must be at least 1, not -2"),
        ("--oracle-check", "x", "invalid int value: 'x'"),
        ("--timeout", "-1", "SECONDS must be at least 0, not -1"),
        ("--timeout", "nan", "SECONDS must be at least 0, not nan"),
        ("--timeout", "abc", "invalid float value: 'abc'"),
    ],
)
@pytest.mark.parametrize("mode, text", [("decide", "Q -> Q"), ("inhabit", "forall X. X -> X")])
def test_bad_flag_values_are_usage_errors(capsys, mode, text, flag, value, message):
    assert main([mode, text, f"{flag}={value}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith(f"error: argument {flag}: {message}\n")


def test_zero_timeout_through_main_is_exit_three(capsys):
    assert main(["decide", "Q -> Q", "--timeout", "0"]) == 3
    assert "timeout" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Deep inputs, each in a fresh interpreter so no earlier query has raised the
# recursion limit


def fresh_python(*args, env: dict | None = None, **kw) -> subprocess.CompletedProcess:
    """A new interpreter on this source tree, its output captured unless ``kw``
    redirects it; ``env`` overrides variables, and a ``None`` value unsets one."""
    src = str(Path(minpl.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, **(env or {})}
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kw}
    return subprocess.run(
        [sys.executable, *args],
        text=True,
        env={k: v for k, v in env.items() if v is not None},
        timeout=120,
        **streams,
    )


@pytest.mark.parametrize("n", [501, 600, 1000, 2000, 25000])
def test_long_chain_decided_by_cli(tmp_path, n):
    path = tmp_path / "chain.txt"
    path.write_text(right_chain(n - 1), encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "decide", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "derivable"


def test_timeout_on_a_long_chain_is_one_short_line(tmp_path):
    # the message counts the visits; it used to print the sequent, which
    # recursed once per arrow and ran to 60 KB on a 12,000-term chain
    path = tmp_path / "chain.txt"
    path.write_text(right_chain(24999), encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "decide", "--file", str(path), "--timeout", "0")
    assert child.returncode == 3, child.stderr
    [line] = child.stderr.splitlines()
    assert line.startswith("timeout: no verdict in ") and len(line) < 80, line


def test_trace_encoder_takes_one_frame_per_level():
    # 599 Rimp levels over one Limp leaf fit under a limit of 700 only if the
    # encoder adds no second frame, such as a comprehension's, per level
    code = (
        "import sys\n"
        "from minpl.prover import derivable, derivation_to_json\n"
        "from minpl.syntax import parse_formula\n"
        f"verdict, _, d = derivable(parse_formula({right_chain(599)!r}))\n"
        "sys.setrecursionlimit(700)\n"
        "node, depth, rules = derivation_to_json(d), 0, set()\n"
        "while node['premises']:\n"
        "    rules.add(node['rule'])\n"
        "    (node,) = node['premises']\n"
        "    depth += 1\n"
        "print(verdict, depth, *sorted(rules), node['rule'], node['sequent'])\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["True", "599", "Rimp", "Limp", "Q", "|-", "Q"]


def test_text_trace_takes_no_frame_per_level():
    # 4,999 Rimp levels over one Limp leaf render at a limit of 1,000
    code = (
        "import sys\n"
        "from minpl.cli import _render\n"
        "sys.setrecursionlimit(1000)\n"
        "node = {'rule': 'Limp', 'sequent': 'Q |- Q', 'head': 'Q', 'premises': []}\n"
        "for _ in range(4999):\n"
        "    node = {'rule': 'Rimp', 'sequent': '|- Q -> Q', 'premises': [node]}\n"
        "report = {'mode': 'decide', 'derivable': True, 'derivation': node,\n"
        "          'oracle_agrees': None, 'warnings': []}\n"
        "lines = _render(report)\n"
        "print(len(lines), lines[1], '|', lines[-1].count('  '), lines[-1].strip())\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [
        "5001", "Rimp:", "|-", "Q", "->", "Q", "|", "4999", "Limp", "[Q]:", "Q", "|-", "Q"
    ]


def test_scopes_and_pieces_of_long_inputs_at_the_default_recursion_limit():
    code = (
        "import sys\n"
        "from minpl import barendregt_rename, parse_formula, pieces\n"
        "prefix = parse_formula(''.join(f'forall x{i}. ' for i in range(1200)) + 'Q')\n"
        "chain = parse_formula(' -> '.join(['Q'] * 3000))\n"
        "print(prefix.nbinders, len(prefix.scope), len(prefix.body.scope), len(pieces(chain)))\n"
        "f = parse_formula(''.join(f'forall x{i}. ' for i in range(3000)) + 'Q -> Q')\n"
        "print(barendregt_rename(f) is f, sys.getrecursionlimit())\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["1200", "1200", "1199", "3000", "True", "1000"]


def test_audit_of_a_long_prefix_keeps_no_second_copy_of_the_scope_sets(tmp_path):
    # the audit reads the scope sets the search brackets with: the ones the
    # binders stored, or, when the binders clash, the ones derivable's single
    # renaming builds, so the sets, quadratic in the binders, are stored once
    code = (
        "import resource, sys\n"
        "from minpl.cli import main\n"
        "status = main(sys.argv[1:])\n"
        "print(status, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    for binder in ("x{i}", "x"):
        path = tmp_path / "prefix.txt"
        prefix = "".join(f"forall {binder.format(i=i)}. " for i in range(3000))
        path.write_text(prefix + "Q -> Q", encoding="utf-8")
        peaks = []
        for flags in ([], ["--audit"]):
            child = fresh_python("-c", code, "decide", "--file", str(path), *flags)
            assert child.returncode == 0, child.stderr
            verdict, last = child.stdout.splitlines()
            status, peak = last.split()
            assert verdict == "derivable" and status == "0"
            peaks.append(int(peak))
        assert peaks[1] <= 1.25 * peaks[0], (binder, peaks)


def test_measure_of_deep_dirty_brackets_by_cli(tmp_path):
    path = tmp_path / "dirty.txt"
    path.write_text("[" * 900 + "Q" + "]_{x}" * 900, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "normalize", "--file", str(path), "--stats")
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["Q", f"measure: {2**901 - 1} -> 1"]


def test_measure_past_the_integer_digit_limit_by_cli(tmp_path):
    # 2^20001 - 1 has 6,021 digits, more than str(int) prints by default
    path = tmp_path / "dirty.txt"
    path.write_text("[" * 20000 + "Q" + "]_{x}" * 20000, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "normalize", "--file", str(path), "--stats")
    assert child.returncode == 0, child.stderr
    cleaned, stats = child.stdout.splitlines()
    before, arrow, after = stats.removeprefix("measure: ").split(" ")
    assert cleaned == "Q" and (arrow, after) == ("->", "1")
    assert before.isdigit() and len(before) == 6021
    assert Decimal(before) == 2**20001 - 1


def test_measure_past_the_integer_digit_limit_by_cli_json(tmp_path):
    # json.dumps refuses such an int, so the report holds the measure as digits
    path = tmp_path / "dirty.txt"
    path.write_text("[" * 20000 + "Q" + "]_{x}" * 20000, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "normalize", "--file", str(path), "--stats", "--json")
    assert child.returncode == 0, child.stderr
    [line] = child.stdout.splitlines()
    before, after = json.loads(line)["stats"]["measure"]
    assert after == "1" and len(before) == 6021
    assert Decimal(before) == 2**20001 - 1


@pytest.mark.parametrize(
    "argv, status, limit",
    [(["decide"], 2, 1000), (["decide", "Q -> Q"], 0, 20000), (["normalize", "P"], 0, 20000)],
)
def test_only_a_search_and_normalize_raise_the_recursion_limit(argv, status, limit):
    # derivable raises it for its frame per atomic sequent, normalize for printing
    # and comparing sort keys; a usage error leaves it as it was
    code = (
        "import sys\n"
        "from minpl.cli import main\n"
        "sys.setrecursionlimit(1000)\n"
        "status = main(sys.argv[1:])\n"
        "print(status, sys.getrecursionlimit())\n"
    )
    child = fresh_python("-c", code, *argv)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1].split() == [str(status), str(limit)]


def test_normalize_of_a_deep_left_nested_formula_by_cli(tmp_path):
    # printing the item's key recurses once per arrow domain, so the CLI raises
    # the recursion limit for normalize, as derivable does for a search
    text = "Q -> Q"
    for _ in range(1499):
        text = f"({text}) -> Q"
    path = tmp_path / "context.txt"
    path.write_text(text, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "normalize", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [text]


@pytest.mark.parametrize("kind", ["formula", "brackets"])
def test_normalize_of_two_equal_deep_items_by_cli(tmp_path, kind):
    # items compare by key, but a formula's key recurses to print, and sorting
    # compares bracket keys, nested two tuples a bracket, in C against the limit
    if kind == "formula":
        text = cleaned = left_chain(1500)
    else:
        text, cleaned = nested_brackets(600, "clean")
    path = tmp_path / "context.txt"
    path.write_text(f"{text}, {text}", encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "normalize", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [cleaned]


@pytest.mark.parametrize("kind", ["clean", "dirty"])
def test_normalize_of_deep_brackets_by_cli(tmp_path, kind):
    text, cleaned = nested_brackets(2000, kind)
    # reading, cleaning and printing take no frame per bracket, even at the
    # default recursion limit, which the CLI raises before it reads its input
    code = (
        "import sys\n"
        "from minpl import normalize, parse_context\n"
        f"print(str(normalize(parse_context({text!r}))))\n"
        "print(sys.getrecursionlimit())\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [cleaned, "1000"]
    path = tmp_path / "context.txt"
    path.write_text(text, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "normalize", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == [cleaned]


def test_parse_context_reads_deep_brackets_at_the_default_recursion_limit():
    code = (
        "import sys\n"
        "from minpl import BracketItem, parse_context\n"
        "c = parse_context('[' * 5000 + 'P(x), [Q]_{y}' + ']_{x}' * 5000)\n"
        "inner = c\n"
        "while isinstance(inner.items[0], BracketItem):\n"
        "    inner = inner.items[0].content\n"
        "print(c.depth, len(inner.items), sys.getrecursionlimit())\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["5001", "2", "1000"]


@pytest.mark.parametrize("n", [1000, 2000, 25000])
def test_long_type_chain_decided_by_cli(tmp_path, n):
    path = tmp_path / "chain.txt"
    path.write_text("forall X. " + " -> ".join(["X"] * n), encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "inhabit", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "inhabited"


def left_nested(n: int, x: str) -> str:
    """``forall X. (...((x) -> x)...) -> x`` with ``n`` arrows."""
    text = x
    for _ in range(n):
        text = f"({text}) -> {x}"
    return f"forall X. {text}"


def test_deep_left_nested_type_decided_as_its_translation_by_cli(tmp_path):
    # parse_type may not recurse on the 1,500 nested arrow domains, even at the
    # default recursion limit, which the CLI keeps until the search raises it
    assert parse_type(left_nested(3, "X")) == parse_formula(left_nested(3, "eps(X)"))
    code = (
        "import sys\n"
        "from minpl import parse_type\n"
        f"t = parse_type({left_nested(1500, 'X')!r})\n"
        "print(t.var, t.body.right, sys.getrecursionlimit())\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["X", "eps(X)", "1000"]
    statuses = []
    for mode, x in (("inhabit", "X"), ("decide", "eps(X)")):
        path = tmp_path / f"{mode}.txt"
        path.write_text(left_nested(1500, x), encoding="utf-8")
        child = fresh_python("-m", "minpl.cli", mode, "--file", str(path))
        assert child.returncode in (0, 1), child.stderr
        statuses.append(child.returncode)
    assert statuses == [1, 1]


@pytest.mark.parametrize("depth", [600, 5000])
def test_deep_parentheses_decided_by_cli(tmp_path, depth):
    path = tmp_path / "nested.txt"
    path.write_text("(" * depth + "Q -> Q" + ")" * depth, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "decide", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "derivable"
    path.write_text("(" * depth + "Q -> Q" + ")" * (depth - 1), encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "decide", "--file", str(path))
    assert child.returncode == 2
    assert child.stderr.strip() == (
        f"parse error: expected ')', found end of input (at position {2 * depth + 5})"
    )


def test_deeply_nested_terms_decided_by_cli(tmp_path):
    atom = "P(" + "f(" * 1000 + "x" + ")" * 1001
    path = tmp_path / "nested.txt"
    path.write_text(f"{atom} -> {atom}", encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "decide", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "derivable"


DEEP_TERM_ATOM = "P(" + "f(" * 10000 + "x" + ")" * 10001


def test_deep_terms_print_at_the_default_recursion_limit():
    code = (
        "import sys\n"
        "from minpl.syntax import parse_formula\n"
        "sys.setrecursionlimit(1000)\n"
        "print(str(parse_formula(sys.stdin.read())))\n"
    )
    child = fresh_python("-c", code, input=DEEP_TERM_ATOM)
    assert child.returncode == 0, child.stderr
    assert child.stdout == DEEP_TERM_ATOM + "\n"


def test_deep_terms_by_cli(tmp_path):
    # printing a term takes no frame per level, so sequent keys, the trace
    # and the cleaned context print however deep a term nests
    path = tmp_path / "nested.txt"
    path.write_text(f"{DEEP_TERM_ATOM} -> {DEEP_TERM_ATOM}", encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "decide", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout == "derivable\n"
    child = fresh_python("-m", "minpl.cli", "decide", "--trace", "--json", "--file", str(path))
    assert child.returncode == 0, child.stderr
    payload = json.loads(child.stdout)
    assert payload["derivable"] is True
    assert payload["derivation"]["sequent"] == f"|- {DEEP_TERM_ATOM} -> {DEEP_TERM_ATOM}"
    path.write_text(DEEP_TERM_ATOM, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "normalize", "--file", str(path))
    assert child.returncode == 0, child.stderr
    assert child.stdout == DEEP_TERM_ATOM + "\n"


def test_long_non_positive_type_refused_by_cli(tmp_path):
    text = "(forall Y. Y) -> " + " -> ".join(["X"] * 2000)
    path = tmp_path / "type.txt"
    path.write_text(text, encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "inhabit", "--file", str(path))
    assert child.returncode == 2, child.stderr
    assert child.stderr.strip() == f"error: not a positive type: {text}"


@pytest.mark.parametrize("n", [501, 600])
def test_long_chain_decided_as_first_query(n):
    code = (
        "import sys, minpl\n"
        "verdict, _, _ = minpl.derivable(minpl.parse_formula(sys.stdin.read()))\n"
        "print(verdict)"
    )
    child = fresh_python("-c", code, input=right_chain(n - 1))
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "True"


def test_unexpected_exception_is_internal_error_not_a_verdict(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(right_chain(999), encoding="utf-8")
    child = fresh_python("-m", "minpl.cli", "decide", "--file", str(path))
    assert child.returncode in (0, 5), child.stderr
    if child.returncode == 0:
        assert child.stdout.strip() == "derivable"
    else:
        assert child.stderr.startswith("internal error: ")


def test_internal_error_status_in_process(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr("minpl.cli.derivable", broken)
    assert main(["decide", INTRO]) == 5
    assert "internal error: KeyError" in capsys.readouterr().err


def test_run_lets_an_unexpected_exception_through_to_main(monkeypatch, capsys):
    # run maps only the failures a query expects; main alone reports the rest
    def broken(config, text):
        raise KeyError("boom")

    monkeypatch.setattr("minpl.cli._report", broken)
    config = minpl.cli._build_parser().parse_args(["decide", INTRO])
    with pytest.raises(KeyError, match="boom"):
        minpl.cli.run(config)
    assert main(["decide", INTRO]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: KeyError: 'boom'\n"


# ---------------------------------------------------------------------------
# Start-up: the reference prover and System F load only when used


def test_decide_loads_neither_oracle_nor_systemf():
    code = (
        "import sys, minpl.cli\n"
        "def loaded():\n"
        "    return [m for m in ('minpl.oracle', 'minpl.systemf') if m in sys.modules]\n"
        "print(minpl.cli.main(['decide', 'Q -> Q', '--json', '--trace', '--stats']), loaded())\n"
        "print(minpl.cli.main(['decide', 'Q -> Q', '--oracle-check', '3']), loaded())\n"
        "print(minpl.cli.main(['inhabit', 'forall X. X -> X', '--trace']), loaded())\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[1] == "0 []"
    assert lines[-1] == "0 ['minpl.oracle', 'minpl.systemf']"
    assert "0 ['minpl.oracle']" in lines and "oracle agrees: yes" in lines


def test_decide_loads_json_only_for_a_json_report():
    code = (
        "import sys, minpl.cli\n"
        "print(minpl.cli.main(['decide', 'Q -> Q']), 'json' in sys.modules)\n"
        "print(minpl.cli.main(['decide', 'Q -> Q', '--trace', '--stats']), 'json' in sys.modules)\n"
        "print(minpl.cli.main(['decide', 'Q -> Q', '--json']), 'json' in sys.modules)\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[:2] == ["derivable", "0 False"] and lines[-1] == "0 True"
    assert lines.count("0 False") == 2


# Sequent and Derivation build their dataclass face on the first dataclasses call
# (ROADMAP item 14), so no mode pays for importing dataclasses and inspect
DATACLASS_FACE = """
import sys
gone = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
import minpl
assert not gone & set(sys.modules), gone & set(sys.modules)
import minpl.cli
assert not gone & set(sys.modules), gone & set(sys.modules)
for argv in RUNS:
    assert minpl.cli.main(argv) == 0, argv
    assert not gone & set(sys.modules), (argv, gone & set(sys.modules))

from dataclasses import fields, is_dataclass, replace
from minpl import Derivation, Sequent, derivable, parse_formula
d = derivable(parse_formula("Q -> Q"))[2]
leaf, goal = d.premises[0], parse_formula("R")
for cls in (Sequent, Derivation):
    assert cls.__dataclass_fields__ is cls.__dataclass_fields__  # built once, then stored
    assert is_dataclass(cls) and [f.name for f in fields(cls)] == list(cls._fields)
assert is_dataclass(d) and is_dataclass(leaf.conclusion)
seq = replace(leaf.conclusion, goal=goal)
node = replace(leaf, conclusion=seq)
pairs = [(seq, Sequent(leaf.conclusion.context, goal))]
pairs.append((node, Derivation(leaf.rule, seq, leaf.premises, leaf.head, leaf.path)))
pairs.append((replace(d, premises=(node,)), Derivation(d.rule, d.conclusion, (node,))))
for made, built in pairs:
    assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
for x in (seq, node):
    try:
        replace(x, no_such_field=1)
    except TypeError:
        pass
    else:
        raise AssertionError(type(x))
print("ok")
"""


def test_no_mode_loads_dataclasses_and_replace_still_works():
    runs = [["decide", "Q -> Q"], ["inhabit", "forall X. X -> X"]]
    runs = [run + extra for run in runs for extra in ([], ["--json", "--trace"], ["--audit", "--stats"])]
    runs.append(["normalize", "[Q]_{x}, Q", "--json"])
    child = fresh_python("-c", f"RUNS = {runs!r}\n" + DATACLASS_FACE)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines()[-1] == "ok"


def test_package_names_work_on_first_access():
    code = (
        "import sys, minpl\n"
        "assert not {'minpl.oracle', 'minpl.systemf'} & set(sys.modules)\n"
        "flat = minpl.FlatSequent((), minpl.parse_formula('Q -> Q'))\n"
        "assert minpl.first_provable_depth(flat, 3) is not None\n"
        "assert 'minpl.systemf' not in sys.modules\n"
        "assert minpl.inhabited(minpl.parse_type('forall X. X -> X'))[0]\n"
        "assert not hasattr(minpl, 'no_such_name')\n"
        "print('ok')\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "ok"


def test_one_entry_point_per_job():
    # the audit is an on_visit hook built by auditor(f), a type's polarity is that
    # of its translation, and the text trace renders derivation_to_json's node
    from minpl import cli, oracle, prover, syntax, systemf

    assert "audit" not in inspect.signature(prover.derivable).parameters
    gone = [(minpl, "audit"), (prover, "audit"), (prover, "_auditor"), (minpl, "type_polarity")]
    gone += [(systemf, "type_polarity"), (systemf, "compact_eps"), (cli, "Derivation")]
    # binders store their scopes, and flattening is a test helper
    gone += [(minpl, "ScopeTable"), (minpl, "scope_table"), (syntax, "scope_table")]
    gone += [(syntax, "_binders"), (minpl, "flatten"), (oracle, "flatten")]
    gone += [(oracle, "Sequent"), (oracle, "Context")]
    # nothing raises NotBarendregt, and a node's free variables are its fv
    gone += [(minpl, "NotBarendregt"), (syntax, "NotBarendregt")]
    gone += [(minpl, "free_vars"), (syntax, "free_vars")]
    # derivable renames the input the audit reads
    gone += [(cli, "barendregt_rename")]
    for module, name in gone:
        assert name not in getattr(module, "__all__", ()) and not hasattr(module, name), name


def test_star_import_binds_every_exported_name():
    code = (
        "from minpl import *\n"
        "import minpl\n"
        "missing = [n for n in minpl.__all__ if globals().get(n) is not getattr(minpl, n)]\n"
        "print(len(minpl.__all__), missing)\n"
    )
    child = fresh_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == f"{len(minpl.__all__)} []"


# ---------------------------------------------------------------------------
# The process entry: a CLI process freezes the collector after its query, so
# shutdown's collections skip what dies with it; an in-process main does not

# the module's last line before it took the entry
MAIN_ONLY = "import sys\nfrom minpl.cli import main\nsys.exit(main())\n"


def bare_freeze_count() -> str:
    """The freeze count of a bare interpreter, which may start with a frozen
    generation (3.12 does): entry must raise the count past it."""
    bare = fresh_python("-c", "import gc; print(gc.get_freeze_count())")
    assert bare.returncode == 0, bare.stderr
    return bare.stdout.strip()


@pytest.mark.parametrize(
    "argv, status",
    [(["decide", "Q -> Q"], 0), (["decide", "Q"], 1), (["decide"], 2), (["normalize", "P"], 0)],
)
def test_entry_returns_the_status_of_main_and_freezes(argv, status):
    code = (
        "import gc, sys\n"
        "from minpl.cli import entry\n"
        "before = gc.get_freeze_count()\n"
        "status = entry()\n"
        "print(status, before, gc.get_freeze_count() > before, file=sys.stderr)\n"
    )
    child = fresh_python("-c", code, *argv)
    assert child.returncode == 0, child.stderr
    assert child.stderr.splitlines()[-1].split() == [str(status), bare_freeze_count(), "True"]


def test_running_the_module_takes_the_entry():
    frozen = f"gc.get_freeze_count() > {bare_freeze_count()}"
    code = (
        "import atexit, gc, runpy, sys\n"
        f"atexit.register(lambda: print({frozen}, file=sys.stderr))\n"
        "runpy.run_module('minpl.cli', run_name='__main__', alter_sys=True)\n"
    )
    child = fresh_python("-c", code, "decide", "Q -> Q")
    assert (child.returncode, child.stdout, child.stderr) == (0, "derivable\n", "True\n")


def test_installed_script_takes_the_entry():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").split("[project.scripts]")[1]
    assert scripts.split("[")[0].split() == ["minpl", "=", '"minpl.cli:entry"']


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv", [["decide", "Q -> Q"], ["inhabit", "forall X. X -> X"], ["normalize", "P"], ["decide"]]
)
def test_main_leaves_the_collector_as_it_was(capsys, argv, enabled):
    if not enabled:
        gc.disable()
    try:
        frozen = gc.get_freeze_count()
        main(argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
    finally:
        gc.enable()


def run_with_stdout(kind: str, unbuffered: bool, *args) -> tuple[int, str]:
    """Exit status and stderr of a new interpreter whose stdout is ``/dev/full``,
    closed, or a pipe whose read end is closed."""
    env = {"PYTHONUNBUFFERED": "1" if unbuffered else None}
    if kind == "full":
        with open("/dev/full", "w") as full:
            child = fresh_python(*args, env=env, stdout=full)
    elif kind == "closed":
        child = fresh_python(
            *args, env=env, stdout=subprocess.DEVNULL, preexec_fn=lambda: os.close(1)
        )
    else:
        read, write = os.pipe()
        os.close(read)
        try:
            child = fresh_python(*args, env=env, stdout=write)
        finally:
            os.close(write)
    return child.returncode, child.stderr


@pytest.mark.parametrize(
    "kind, unbuffered, status, start",
    [
        ("full", False, 120, "Exception ignored"),
        ("full", True, 5, "internal error: OSError"),
        ("closed", False, 0, ""),
        ("closed", True, 0, ""),
        ("broken pipe", False, 120, "Exception ignored"),
        ("broken pipe", True, 5, "internal error: BrokenPipeError"),
    ],
)
def test_failed_output_keeps_the_status_and_stderr_of_main(kind, unbuffered, status, start):
    # a buffered print fails only in the flush at exit, an unbuffered one in main
    if kind == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    query = ("decide", "Q -> Q")
    child = run_with_stdout(kind, unbuffered, "-m", "minpl.cli", *query)
    assert child == run_with_stdout(kind, unbuffered, "-c", MAIN_ONLY, *query)
    assert child[0] == status and child[1].startswith(start), child
    assert start or not child[1], child


@pytest.mark.parametrize("unbuffered", [False, True])
def test_profiling_the_module_still_prints_the_profile(unbuffered):
    env = {"PYTHONUNBUFFERED": "1" if unbuffered else None}
    child = fresh_python("-m", "cProfile", "-m", "minpl.cli", "decide", "Q -> Q", env=env)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.splitlines()[0] == "derivable"
    assert "function calls" in child.stdout and "cli.py" in child.stdout
