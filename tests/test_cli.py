import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import pocfvs
from pocfvs import cli
from pocfvs.cli import main
from pocfvs.graph6 import encode
from pocfvs import ContradictionError, butterfly, complete_bipartite, cycle
from pocfvs.verification import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point_exits_with_mains_code():
    # python -m pocfvs.cli runs sys.exit(main()) under its __main__ check
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(pocfvs.__file__))}
    command = [sys.executable, "-m", "pocfvs.cli"]
    done = subprocess.run([*command, "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: ")
    done = subprocess.run(
        [*command, "solve", "P03", "--fvs"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "input error: graph spec number '03' has a leading zero\n"


def test_solve_cfvs(capsys):
    code, out, _ = run(capsys, "solve", "butterfly:3,3,4", "--cfvs")
    assert code == 0
    assert "cfvs(butterfly:3,3,4) = 5" in out


def test_solve_json(capsys):
    code, out, _ = run(capsys, "solve", "Lk:2", "--fvs", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["optimum"] == 3
    assert sorted(payload["witness"]) == payload["witness"]


def test_solve_g6_source(capsys):
    line = encode(cycle(5))
    code, out, _ = run(capsys, "solve", f"g6:{line}", "--fvs")
    assert code == 0
    assert "= 1" in out


def test_solve_file_source_takes_the_first_graph(capsys, tmp_path):
    corpus = tmp_path / "in.g6"
    corpus.write_text(encode(butterfly(3, 3, 4)) + "\n" + encode(cycle(5)) + "\n")
    code, out, _ = run(capsys, "solve", f"file:{corpus}", "--cfvs")
    assert code == 0
    assert f"cfvs(file:{corpus}) = 5" in out


def test_covers_agreement(capsys):
    code, out, _ = run(capsys, "covers", "C3", "4", "4", "--both")
    assert code == 0
    assert "brute: covers (4,4) = False" in out
    assert "symbolic: covers (4,4) = False" in out


def test_table(capsys):
    code, out, _ = run(capsys, "table", "P6", "--range", "3..5")
    assert code == 0
    assert out.count("✓") == 9
    assert "profile: linear-forest" in out


def test_table_of_a_spider(capsys):
    code, out, _ = run(capsys, "table", "claw", "--range", "3..8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "profile: LF+T(1,1,1)"
    # the claw misses only the pair (3, 3)
    assert lines[2] == "3 | · ✓ ✓ ✓ ✓ ✓"
    assert out.count("·") == 1 and out.count("✓") == 35


def test_classify_single(capsys):
    code, out, _ = run(capsys, "classify", "P6")
    assert code == 0
    assert "class-iii" in out
    code, out, _ = run(capsys, "classify", "C3", "--witnesses", "2")
    assert code == 0
    assert "class-iv" in out
    assert "uncovered pair: (4, 4)" in out
    assert out.count("witness n=") == 2
    # not a linear forest, so class iv without building any s*P_3 host
    code, out, _ = run(capsys, "classify", "C510", "--witnesses", "1")
    assert code == 0
    assert "C510: class-iv" in out
    # linear forests are read off their path orders, without building any host
    code, out, _ = run(capsys, "classify", "12P1")
    assert code == 0
    assert "12P1: class-ii" in out and "certified constant: 37" in out
    code, out, _ = run(capsys, "classify", "40P1")
    assert code == 0
    assert "certified constant: 121" in out
    code, out, _ = run(capsys, "classify", "P200")
    assert code == 0
    assert "P200: class-iii" in out and "certified constant: 1604" in out


def test_classify_pair(capsys):
    code, out, _ = run(capsys, "classify", "C4", "claw")
    assert code == 0
    assert "unbounded" in out
    # both members are far under the order cap, and no catalog host is built
    reason = "reason: members embed in a triangle tadpole and a double short-leg spider"
    code, out, _ = run(capsys, "classify", "tadpole:3,3", "spider:400,1,1")
    assert code == 0
    assert out.splitlines() == ["(tadpole:3,3, spider:400,1,1): bounded", reason]
    code, out, _ = run(capsys, "classify", "C3+500P1", "2claw")
    assert code == 0
    assert out.splitlines() == ["(C3+500P1, 2claw): bounded", reason]


def test_classify_refuses_witnesses_with_two_patterns(capsys):
    code, out, err = run(capsys, "classify", "C4", "claw", "--witnesses", "2")
    assert (code, out, err) == (2, "", "input error: --witnesses applies to one pattern only\n")
    # one pattern still prints three witnesses by default
    code, out, _ = run(capsys, "classify", "C3")
    assert code == 0 and out.count("witness n=") == 3


def test_classify_refuses_witnesses_below_class_iv(capsys):
    # only class iv prints witnesses, so an explicit count elsewhere is refused
    for argv, verdict in [
        (("classify", "P6", "--witnesses", "7"), "'P6' is class-iii"),
        (("classify", "P3", "--witnesses", "5"), "'P3' is class-i"),
        (("classify", "2P3", "--witnesses", "0"), "'2P3' is class-ii"),
    ]:
        code, out, err = run(capsys, *argv)
        message = f"input error: --witnesses applies to class-iv patterns only, {verdict}\n"
        assert (code, out, err) == (2, "", message), argv
    # without --witnesses the same patterns print their verdicts as before
    code, out, err = run(capsys, "classify", "P6")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "P6: class-iii",
        "reason: a linear forest; multiplicative constant suffices",
        "certified constant: 52",
    ]
    code, out, _ = run(capsys, "classify", "P3")
    assert code == 0 and out.splitlines()[0] == "P3: class-i" and "witness" not in out


def test_classify_family(capsys):
    code, out, _ = run(capsys, "classify-family", "C3;2claw")
    assert code == 0
    assert out.splitlines() == [
        "family of 2: bounded",
        "reason: every pair (i, j) with i, j >= 3 is covered",
        "certified ratio constant: 68 (bridge context 17)",
    ]


def test_classify_family_unbounded(capsys):
    code, out, _ = run(capsys, "classify-family", "C4;claw")
    assert code == 0
    assert out.splitlines() == [
        "family of 2: unbounded",
        "reason: pair (3, 3) is uncovered",
        "uncovered pair: (3, 3)",
        "witness family: butterflies B_{3,3,k} for growing k avoid the whole family",
    ]


def test_covers_both_disagreement_prints_one_line(capsys, monkeypatch):
    class Flipped:
        def contains(self, i, j):
            return True

    monkeypatch.setattr(cli, "covered_pairs", lambda h: Flipped())
    code, out, err = run(capsys, "covers", "C3", "4", "4", "--both")
    assert code == 4
    assert out.splitlines() == ["brute: covers (4,4) = False", "symbolic: covers (4,4) = True"]
    assert err == "internal contradiction: covering routes disagree\n"


# each spelling the spec language dropped, with the one line it now gets
REMOVED_SPELLINGS = {
    # copy counts other than a bare digit prefix
    "3*P3": "cannot parse graph spec '3*P3'",
    "3xP3": "unknown family 'xp3'",
    "3(P3)": "cannot parse graph spec '3(P3)'",
    "3*(P3)": "cannot parse graph spec '3*(P3)'",
    "3x(P3)": "cannot parse graph spec '3x(P3)'",
    "3 P3": "cannot parse graph spec '3 P3'",
    "3 claw": "cannot parse graph spec '3 claw'",
    "3xclaw": "unknown family 'xclaw'",
    "2(butterfly:3,3,1)": "cannot parse graph spec '2(butterfly:3,3,1)'",
    # parameters other than single commas between ASCII integers
    "kbip:3;4": "cannot parse graph spec 'kbip:3;4'",
    "kbip:3,,4": "cannot parse graph spec 'kbip:3,,4'",
    "kbip:,3,4,": "cannot parse graph spec 'kbip:,3,4,'",
    "kbip: 3,4": "cannot parse graph spec 'kbip: 3,4'",
    "butterfly:3,3,1_0": "cannot parse graph spec 'butterfly:3,3,1_0'",
    "claw:": "cannot parse graph spec 'claw:'",
    "P\u0663": "cannot parse graph spec 'P\u0663'",
    "kbip:\u0663,4": "cannot parse graph spec 'kbip:\u0663,4'",
    "\u212abip:3,4": "cannot parse graph spec '\u212abip:3,4'",
    # long names, path:/cycle: and the short aliases
    "path:3": "unknown family 'path'",
    "cycle:3": "unknown family 'cycle'",
    "p:3": "unknown family 'p'",
    "hourglass-chain:2": "cannot parse graph spec 'hourglass-chain:2'",
    "complete-bipartite:3,4": "cannot parse graph spec 'complete-bipartite:3,4'",
    "threeP1-witness": "cannot parse graph spec 'threeP1-witness'",
    "3p1-witness:": "cannot parse graph spec '3p1-witness:'",
    "threep1-witness": "cannot parse graph spec 'threep1-witness'",
    "l:2": "unknown family 'l'",
    "k:3,4": "unknown family 'k'",
    "t:1,1,1": "unknown family 't'",
    "d:1,3": "unknown family 'd'",
    "b:3,3,1": "unknown family 'b'",
    # blank union parts
    "P3+": "empty graph spec",
    # numbers with a leading zero; 0 itself and 0P3 stay
    "P03": "graph spec number '03' has a leading zero",
    "03P3": "graph spec number '03' has a leading zero",
    "kbip:03,4": "graph spec number '03' has a leading zero",
    "kbip:-03,4": "graph spec number '-03' has a leading zero",
    # an arity error names the family as typed
    "kbip:3": "family 'kbip' takes 2 parameters, got 1",
    "LK:2,2": "family 'lk' takes 1 parameters, got 2",
}


def test_removed_spellings_exit_2_with_one_line(capsys):
    for spec, message in REMOVED_SPELLINGS.items():
        code, out, err = run(capsys, "solve", spec, "--fvs")
        assert (code, out, err) == (2, "", f"input error: {message}\n"), spec
    # a family list separates its specs by ';' only
    code, out, err = run(capsys, "classify-family", "C3,claw")
    assert (code, out, err) == (2, "", "input error: cannot parse graph spec 'C3,claw'\n")
    # and every entry of a family list is a spec, so a blank one is refused
    for family in ("C3;;claw", ";C3", "C3;"):
        code, out, err = run(capsys, "classify-family", family)
        assert (code, out, err) == (2, "", "input error: empty graph spec\n"), family


def test_connectify_with_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run(
        capsys, "connectify", "butterfly:3,3,3", "--method", "paths", "--trace", str(trace_path)
    )
    assert code == 0
    assert "connected FVS:" in out
    payload = json.loads(trace_path.read_text())
    assert payload["procedure"] == "connectify-by-paths"
    assert payload["result_size"] >= 2


def test_connectify_sp3(capsys):
    code, out, _ = run(capsys, "connectify", "kbip:3,4", "--method", "sp3", "--s", "2")
    assert code == 0
    assert "certified bound" in out


def test_explore_deterministic(capsys, tmp_path):
    code, first, _ = run(capsys, "explore", "--n-max", "4", "--no-timestamp")
    assert code == 0
    code, second, _ = run(capsys, "explore", "--n-max", "4", "--no-timestamp")
    assert first == second
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "explore", "--n-max", "4", "--no-timestamp", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert "generated_at" not in payload
    assert payload["record_count"] == len(payload["records"])


def test_explore_forbid_and_g6(capsys, tmp_path):
    code, out, _ = run(capsys, "explore", "--n-max", "5", "--forbid", "P3", "--no-timestamp")
    assert code == 0
    assert "max difference: 0" in out
    corpus = tmp_path / "in.g6"
    corpus.write_text(encode(butterfly(3, 3, 2)) + "\n")
    code, out, _ = run(capsys, "explore", "--g6-in", str(corpus), "--no-timestamp")
    assert code == 0
    assert "max difference: 1" in out


def test_explore_g6_in_applies_the_forbidden_family(capsys, tmp_path):
    # K3, C4 and K4; C4 holds an induced P3, so only the cliques stay
    corpus = tmp_path / "in.g6"
    corpus.write_text("Bw\nC]\nC~\n")
    code, out, _ = run(
        capsys, "explore", "--g6-in", str(corpus), "--forbid", "P3", "--no-timestamp"
    )
    assert code == 0
    assert f"report: graph6 file {corpus}, forbidding 1 pattern(s)" in out
    assert "graphs: 2 " in out
    assert "C]" not in out


def test_explore_rejects_an_empty_family(capsys):
    code, out, err = run(capsys, "explore", "--n-max", "3", "--forbid", "")
    assert code == 2 and out == ""
    assert err == "input error: the family must be nonempty\n"


def test_explore_refuses_n_max_with_a_graph6_corpus(capsys, tmp_path):
    corpus = tmp_path / "in.g6"
    corpus.write_text("Bw\n")
    code, out, err = run(capsys, "explore", "--g6-in", str(corpus), "--n-max", "4")
    assert (code, out, err) == (2, "", "input error: --n-max applies without --g6-in only\n")


def test_explore_g6_symmetric_graph(capsys, tmp_path):
    # canonical labeling has no size cap; a 14-vertex star is cheap
    corpus = tmp_path / "star.g6"
    corpus.write_text(encode(complete_bipartite(1, 13)) + "\n")
    code, out, _ = run(capsys, "explore", "--g6-in", str(corpus), "--no-timestamp")
    assert code == 0
    assert "graphs: 1  forests (ratio skipped): 1" in out


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_exits_1_on_a_failing_criterion(capsys, monkeypatch):
    results = [
        (1, CheckResult("first", True, "held")),
        (2, CheckResult("second", False, "1 failure(s): n=3: broken")),
    ]
    monkeypatch.setattr(cli, "run_suite", lambda suite: results)
    code, out, err = run(capsys, "verify", "--suite", "lemmas")
    assert code == 1 and err == ""
    assert out.splitlines() == [
        "[PASS] criterion  1 first: held",
        "[FAIL] criterion  2 second: 1 failure(s): n=3: broken",
    ]


def test_contradiction_exit_code(capsys, monkeypatch):
    def contradict(suite):
        raise ContradictionError("a certified bound was exceeded")

    monkeypatch.setattr(cli, "run_suite", contradict)
    code, out, err = run(capsys, "verify")
    assert code == 4 and out == ""
    assert err == "internal contradiction: a certified bound was exceeded\n"


def test_input_error_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "missing.g6")
    for argv in [
        ("solve", "nonsense:1"),
        ("table", "P6", "--range", "abc"),
        ("table", "P6", "--range", "3"),
        ("solve", f"file:{missing}"),
        ("explore", "--g6-in", missing),
        ("connectify", "kbip:3,4", "--method", "sp3", "--s", "0"),
        ("solve", "P" + "9" * 5000),
        ("solve", "9" * 5000 + "P3"),
        ("solve", "9" * 5000 + "claw"),
        ("solve", "butterfly:3,3," + "9" * 4301),
        ("solve", "butterfly:3,3,-" + "9" * 4301),
        ("solve", "P3+" + "9" * 4301),
        ("solve", "x" * 5000 + ":1"),
        ("classify-family", "x" * 5000 + ";P3"),
        ("x" * 5000,),
        ("table", "P6", "--range", "x" * 5000),
        ("solve", "P3", "--bogus" + "x" * 5000),
        ("solve", "P3", "--json=" + "x" * 5000),
        ("solve", "claw", "g6:\n"),
        ("connectify", "kbip:3,4", "--method", "sp3", "--trace", str(tmp_path / "no" / "t.json")),
        ("explore", "--n-max", "3", "--out", str(tmp_path / "no" / "r.json")),
        ("classify", "C3", "--witnesses", "-5"),
        ("solve", "C5", "--limit", "-1"),
        ("explore", "--n-max", "3", "--limit", "-1"),
        # --s sets the scale of p5 and sp3 only
        ("connectify", "C5", "--method", "paths", "--s", "-3"),
        ("connectify", "C5", "--method", "paths", "--s", "7"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("input error") and err.count("\n") == 1, argv
        assert len(err) < 200, argv


def test_resource_limit_exit_code(capsys):
    for argv in [
        ("solve", "gprime:3", "--cfvs"),
        ("solve", "200000P3"),
        ("solve", "butterfly:3,3,1000000000"),
        # an order of 4,301 digits, too long for str(); the refusal does not print it
        ("solve", "butterfly:3,3," + "9" * 4300),
        ("covers", "P990", "3", "3", "--brute"),
        # the butterfly's order is refused before any of its edges are built
        ("covers", "C3", "3", "100000000000"),
        ("explore", "--n-max", "9"),
        ("connectify", "kbip:3,4", "--method", "sp3", "--s", "1000000000"),
        ("table", "claw", "--range", "3..99999999999999999999999"),
        ("table", "P6", "--range", "3..103"),
        # the 14th butterfly witness of C3 has 21 vertices, over the solver limit
        ("classify", "C3", "--witnesses", "20"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("resource limit") and err.count("\n") == 1, argv


def test_negative_limits_are_input_errors(capsys, monkeypatch):
    code, out, err = run(capsys, "solve", "C5", "--limit", "-1")
    assert (code, out, err) == (2, "", "input error: the vertex limit must be >= 0, got -1\n")
    monkeypatch.setenv("POCFVS_LIMIT", "-4")
    code, out, err = run(capsys, "solve", "C5")
    assert (code, out, err) == (2, "", "input error: POCFVS_LIMIT must be >= 0, got -4\n")
    monkeypatch.setenv("POCFVS_LIMIT", "0")
    code, _, err = run(capsys, "solve", "C5")
    assert code == 3 and "exhaustive limit is 0" in err


def test_connectify_limit_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("POCFVS_LIMIT", raising=False)
    code, _, err = run(capsys, "connectify", "kbip:3,19", "--method", "sp3")
    assert code == 3 and "exhaustive limit is 20" in err
    monkeypatch.setenv("POCFVS_LIMIT", "30")
    code, out, _ = run(capsys, "connectify", "kbip:3,19", "--method", "sp3")
    assert code == 0 and "connected FVS" in out


def test_precondition_exit_code(capsys):
    code, _, err = run(capsys, "connectify", "P6", "--method", "p5")
    assert code == 2


# -- fuzzing -----------------------------------------------------------------

# small numbers only, so that no drawn graph, order or count starts a long run
small_ints = st.integers(-2, 6).map(str)


def _graph6_bodies(n, slack):
    size = max(0, (n * (n - 1) // 2 + 5) // 6 + slack)
    body = st.text(alphabet=[chr(c) for c in range(63, 127)], min_size=size, max_size=size)
    return body.map(lambda text: chr(63 + n) + text)


graph6_lines = st.tuples(
    st.sampled_from(["", ">>graph6<<"]),
    st.one_of(
        # an order byte for 0..8 vertices, then body bytes of the right or a wrong length
        st.tuples(st.integers(0, 8), st.integers(-1, 1)).flatmap(lambda t: _graph6_bodies(*t)),
        st.text(max_size=6),
    ),
).map("".join)
atoms = st.one_of(
    st.sampled_from(["claw", "hourglass", "threeP1", "K3", "X"]),
    st.tuples(st.sampled_from("PC"), small_ints).map("".join),
    st.tuples(
        st.sampled_from(["butterfly", "kbip", "spider", "tadpole", "Lk", "gprime", "nope"]),
        st.lists(small_ints, max_size=6),
    ).map(lambda t: f"{t[0]}:{','.join(t[1])}"),
)
specs = st.one_of(
    st.lists(atoms, min_size=1, max_size=3).map("+".join),
    st.tuples(st.integers(0, 3), atoms).map(lambda t: f"{t[0]}{t[1]}"),
    graph6_lines.map(lambda line: f"g6:{line}"),
    st.just("file:CORPUS"),
    st.text(max_size=8),
)
tokens = st.one_of(
    specs,
    small_ints,
    st.tuples(small_ints, small_ints).map(lambda t: f"{t[0]}..{t[1]}"),
    st.lists(specs, min_size=1, max_size=3).map(";".join),
    st.sampled_from(
        ["--fvs", "--cfvs", "--ds", "--cds", "--limit", "--json", "--brute", "--symbolic",
         "--both", "--range", "--witnesses", "--method", "paths", "p5", "sp3", "--s",
         "--trace", "--n-max", "--forbid", "--g6-in", "--out", "--no-timestamp", "CORPUS",
         "-h"]
    ),
    st.text(max_size=8),
)


def _each(*args):
    """One argument from each strategy, in order."""
    return st.tuples(*args).map(list)


def _maybe(*args):
    """Either no arguments or one from each strategy."""
    return st.one_of(st.just([]), _each(*args))


def _runs(*runs):
    """The concatenation of argument runs, each drawn from its strategy."""
    return st.tuples(*runs).map(lambda drawn: [a for run in drawn for a in run])


one = st.just
modes = st.sampled_from(["--fvs", "--cfvs", "--ds", "--cds", "--brute", "--symbolic", "--both"])
spec_lists = st.lists(specs, min_size=1, max_size=3).map(";".join)
# argv shaped like each command's usage, whose arguments may still be malformed;
# verify is left out because its suites take no input and run for seconds
shaped = st.one_of(
    _runs(
        _each(one("solve"), specs),
        _maybe(modes),
        _maybe(one("--limit"), small_ints),
        _maybe(one("--json")),
    ),
    _runs(_each(one("covers"), specs, small_ints, small_ints), _maybe(modes)),
    _each(one("table"), specs, one("--range"), tokens),
    _runs(
        _each(one("classify"), specs), _maybe(specs), _maybe(one("--witnesses"), small_ints)
    ),
    _each(one("classify-family"), spec_lists),
    _runs(
        _each(one("connectify"), specs, one("--method"), st.sampled_from(["paths", "p5", "sp3"])),
        _maybe(one("--s"), small_ints),
        _maybe(one("--trace"), one("trace.json")),
    ),
    _runs(
        _each(one("explore"), one("--no-timestamp")),
        _maybe(one("--n-max"), small_ints),
        _maybe(one("--forbid"), spec_lists),
        _maybe(one("--g6-in"), one("CORPUS")),
        _maybe(one("--out"), one("report.json")),
    ),
)
commands = st.sampled_from(
    ["solve", "covers", "table", "classify", "classify-family", "connectify", "explore"]
)
argvs = st.one_of(shaped, _runs(_each(commands), st.lists(tokens, max_size=6)))


@given(argvs, st.lists(graph6_lines, max_size=3))
@settings(max_examples=150, deadline=timedelta(seconds=10))
def test_cli_fails_cleanly_on_any_input(args, corpus_lines):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = os.path.join(tmp, "corpus.g6")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write("\n".join(corpus_lines))
        argv = [a.replace("CORPUS", corpus) for a in args]
        out, err = io.StringIO(), io.StringIO()
        # no report or trace is written anywhere; their write errors are tested above
        with mock.patch.object(cli, "_write"), redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
    message = err.getvalue()
    assert code in (0, 2, 3), (argv, message)
    assert "Traceback" not in message
    assert message.count("\n") == (code != 0), (argv, message)
