"""Command line behavior: exit codes, JSON reports, output routing."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import relends
from relends.cli import _build_parser, run

from conftest import FREE2, GENUS2, LINE, TORUS, TRIVIAL_Q_TEXT

GENUS2_WITH_SUBGROUP = GENUS2 + "subgroup: a\n"
UNSTABLE = "generators: a b\nrelators: bbabbb\n"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in [
        ("genus2.grp", GENUS2_WITH_SUBGROUP),
        ("f2.grp", FREE2),
        ("z.grp", LINE),
        ("q1.grp", TRIVIAL_Q_TEXT),
        ("unstable.grp", UNSTABLE),
        ("torus.grp", TORUS),
    ]:
        path = tmp_path / name
        path.write_text(text)
        paths[name.split(".")[0]] = str(path)
    return paths


def test_missing_file_is_a_usage_error(files, capsys):
    assert run(["parse", files["f2"] + ".nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert run(["conjure"]) == 1


def test_help_exits_clean(capsys):
    assert run(["--help"]) == 0
    assert "usage: ends" in capsys.readouterr().out


def test_parse_reports_the_file_contents(files, capsys):
    assert run(["parse", files["genus2"]]) == 0
    out = capsys.readouterr().out
    assert "generators: a b c d" in out
    assert "subgroup generators: 1" in out
    assert "C'(1/6): passes" in out


def test_count_the_line(files, capsys):
    assert run(["count", files["z"], "--probe-r0", "2,3,4,5"]) == 0
    assert "verdict: 2" in capsys.readouterr().out


# Runs in a fresh interpreter: every top-level import outside the standard
# library and the declared dependencies fails, including modules that site
# hooks loaded before the package.
DECLARED_ONLY = """
import sys
allowed = set(sys.stdlib_module_names) | {"relends"}
for name in list(sys.modules):
    if name.partition(".")[0] not in allowed:
        del sys.modules[name]


class Undeclared:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in allowed:
            raise ModuleNotFoundError(f"undeclared dependency {name!r}", name=name)


sys.meta_path.insert(0, Undeclared())
from relends import parse_presentation, stable_ball
from relends.cli import run
from relends.presentation import SubgroupSpec

line = parse_presentation("generators: a\\nrelators: none\\n")
print("vertices:", stable_ball(line, SubgroupSpec(()), 3).n_vertices)
torus = parse_presentation("generators: a b\\nrelators: abAB\\n")
print("torus vertices:", stable_ball(torus, SubgroupSpec(()), 3, max_slack=9).n_vertices)
sys.exit(run(["count", sys.argv[1], "--probe-r0", "2,3,4,5"]))
"""


def test_package_runs_with_only_its_declared_dependencies(files):
    src = str(Path(relends.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", DECLARED_ONLY, files["z"]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "vertices: 7" in proc.stdout
    assert "torus vertices: 25" in proc.stdout
    assert "verdict: 2" in proc.stdout


def test_short_probe_lists_stay_uncertified(files, capsys):
    assert run(["count", files["z"], "--probe-r0", "2,3"]) == 2
    assert "uncertified" in capsys.readouterr().out


def test_budget_exhaustion_has_its_own_exit_code(files, capsys):
    rc = run(["count", files["f2"], "--probe-r0", "2,3,4,5", "--node-budget", "100"])
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_env_var_sets_the_default_budget(files, monkeypatch, capsys):
    monkeypatch.setenv("ENDS_NODE_BUDGET", "100")
    assert run(["count", files["f2"], "--probe-r0", "2,3,4,5"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_env_budget_is_a_usage_error(files, monkeypatch, capsys, value):
    monkeypatch.setenv("ENDS_NODE_BUDGET", value)
    assert run(["parse", files["z"]]) == 1
    assert "error:" in capsys.readouterr().err


def test_the_env_var_is_read_on_every_call(files, monkeypatch, capsys):
    # the parser is cached by the variable's value, so a change between
    # calls in one process still takes effect
    argv = ["count", files["f2"], "--probe-r0", "2,3,4,5"]
    monkeypatch.setenv("ENDS_NODE_BUDGET", "100")
    assert run(argv) == 3
    monkeypatch.delenv("ENDS_NODE_BUDGET")
    assert run(argv) == 0
    monkeypatch.setenv("ENDS_NODE_BUDGET", "0")
    assert run(argv) == 1
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_explicit_flag_beats_the_env_var(files, monkeypatch, capsys):
    monkeypatch.setenv("ENDS_NODE_BUDGET", "100")
    rc = run(
        ["count", files["f2"], "--probe-r0", "2,3,4,5", "--node-budget", "1000000"]
    )
    assert rc == 0
    capsys.readouterr()


def test_unstable_enumeration_exits_uncertified(files, capsys):
    rc = run(["count", files["unstable"], "--probe-r0", "1,2,3", "--max-slack", "0"])
    assert rc == 2
    assert "still unstable" in capsys.readouterr().out


def test_json_report_on_stdout_is_pure_json(files, capsys):
    assert run(["count", files["z"], "--probe-r0", "2,3,4,5", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["subcommand"] == "count"
    assert report["verdict"] == 2
    assert report["class_history"] == [2, 2, 2, 2]
    assert report["subgroup"] == []
    assert len(report["presentation_hash"]) == 16
    assert report["ledger"]["mode"] == "empirical"


def test_json_report_is_deterministic(files, capsys):
    argv = ["count", files["z"], "--probe-r0", "2,3,4,5", "--json", "-"]
    run(argv)
    first = json.loads(capsys.readouterr().out)
    run(argv)
    second = json.loads(capsys.readouterr().out)
    assert first == second


def test_certified_count_writes_its_report(tmp_path, capsys):
    # R0 + ceil(10 delta (2n)^R0) has thousands of digits; the report
    # carries it as hex text instead of failing to print it
    z3 = tmp_path / "z3.grp"
    z3.write_text("generators: a\nrelators: aaa\n")
    argv = ["count", str(z3), "--probe-r0", "2,3,4,5", "--mode", "certified",
            "--delta", "1", "--epsilon", "0", "--json", "-"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == 0
    ledger = report["ledger"]
    assert int(ledger["outer_radius"], 16) == ledger["r0"] + 10 * 2 ** ledger["r0"]


def test_certified_count_on_z_is_refused_before_any_row(files, capsys):
    # Z with H = 1 has abelian rank 1, so its Schreier graph is infinite
    # and no budget holds the certified horizon: refused before any row
    argv = ["count", files["z"], "--probe-r0", "2,3,4,5", "--mode", "certified",
            "--delta", "1", "--epsilon", "0"]
    assert run(argv) == 3
    assert ", 0 rows allocated)" in capsys.readouterr().err


def test_certified_count_without_an_annulus_is_refused_before_any_row(files, capsys, monkeypatch):
    # delta 0 gives outer_radius = R0: the template leaves no annulus, so
    # the count is refused by name before the ball is enumerated
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr("relends.ends.stable_ball", enumerate_nothing)
    argv = ["count", files["z"], "--mode", "certified", "--delta", "0", "--epsilon", "0"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "outer_radius 4 leaves no annulus past R0 = 4" in err


@pytest.mark.parametrize("flags", [[], ["--epsilon", "1"], ["--delta", "1/2"]])
def test_ledger_estimates_are_always_text(files, capsys, flags):
    assert run(["count", files["z"], "--probe-r0", "2,3,4,5", *flags, "--json", "-"]) == 0
    ledger = json.loads(capsys.readouterr().out)["ledger"]
    assert isinstance(ledger["delta_x"], str)
    assert isinstance(ledger["epsilon"], str)


def test_json_to_file_keeps_stdout_for_humans(files, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = run(["count", files["z"], "--probe-r0", "2,3,4,5", "--json", str(target)])
    assert rc == 0
    assert "verdict: 2" in capsys.readouterr().out
    assert json.loads(target.read_text())["verdict"] == 2


def test_ball_subcommand_reports_size(files, capsys):
    assert run(["ball", files["z"], "--radius", "3"]) == 0
    assert "vertices: 7" in capsys.readouterr().out


def test_schreier_subcommand_counts_cosets(files, capsys):
    rc = run(["schreier", files["genus2"], "--subgroup-from-file", "--radius", "2"])
    assert rc == 0
    assert "cosets: 49" in capsys.readouterr().out


def test_schreier_covering_check_flag(files, capsys):
    rc = run(
        [
            "schreier",
            files["genus2"],
            "--subgroup-from-file",
            "--radius",
            "2",
            "--covering-check",
            "1",
        ]
    )
    assert rc == 0
    assert "covering check outside radius 1: passed" in capsys.readouterr().out


@pytest.mark.parametrize("text, checked, kind", [
    ("generators: a b\nrelators:\n  a\n", 3, "loop"),
    ("generators: a\nrelators: aa\n", 2, "multi_edge"),
], ids=["loop", "multi-edge"])
def test_a_covering_check_reports_loops_and_doubled_edges(tmp_path, capsys, text, checked, kind):
    path = tmp_path / "g.grp"
    path.write_text(text)
    argv = ["schreier", str(path), "--radius", "2", "--covering-check", "0", "--json", "-"]
    assert run(argv) == 0
    covering = json.loads(capsys.readouterr().out)["covering"]
    assert covering["passed"] is False
    assert covering["checked"] == checked
    assert {v["kind"] for v in covering["violations"]} == {kind}


@pytest.mark.parametrize("exclusion", ["2", "7"])
def test_a_covering_check_with_nothing_to_check_is_an_error(files, capsys, exclusion):
    # at radius 2, R = 2 or more leaves no coset with R <= dist < 2
    argv = ["schreier", files["f2"], "--radius", "2", "--covering-check", exclusion]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "passed" not in captured.out
    assert "leaves no cosets below the ball radius 2" in captured.err


def test_a_slack_cap_below_the_start_slack_is_an_error(files, monkeypatch, capsys):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr("relends.schreier._raw_enumerate", enumerate_nothing)
    argv = ["schreier", files["f2"], "--radius", "2", "--start-slack", "3", "--max-slack", "1"]
    assert run(argv) == 1
    assert "max_slack 1 is below start_slack 3" in capsys.readouterr().err


# at radius 9 the genus-2 ball would exhaust the default budget (exit 3)
@pytest.mark.parametrize("argv, message", [
    (["schreier", "genus2", "--radius", "9", "--covering-check", "9"],
     "covering check radius 9 leaves no cosets"),
    (["check-ddag", "genus2", "--radius", "9", "--m", "0", "--k", "1"],
     "need m >= 1, k >= 0, delta_x >= 0"),
    (["check-ddag", "genus2", "--radius", "9", "--m", "2", "--k", "-1"],
     "need m >= 1, k >= 0, delta_x >= 0"),
    (["check-ddag", "genus2", "--radius", "9", "--m", "2", "--k", "1", "--delta=-1/2"],
     "need m >= 1, k >= 0"),
    (["check-ddag", "genus2", "--radius", "9", "--m", "4", "--k", "1", "--delta", "1",
      "--r-cap", "2"], "r_cap 2 is below the least admissible R = 3"),
    (["check-dag", "genus2", "--radius", "9", "--m", "0", "--delta-xh", "0"],
     "need m >= 1, delta_xh >= 0"),
    (["check-dag", "genus2", "--radius", "9", "--m", "2", "--delta-xh=-1/8"],
     "need m >= 1, delta_xh >= 0"),
    (["check-dag", "genus2", "--radius", "9", "--m", "2", "--delta-xh", "1/8", "--r-cap", "2"],
     "r_cap 2 is below the least admissible R = 3"),
    (["count", "z", "--probe-r0", "2,3", "--outer-gap", "0"],
     "need inner_offset > 0 and 0 < R0 < outer_radius, got inner_offset=3, R0=3, "
     "outer_radius=3"),
    (["count", "z", "--probe-r0", "2,3", "--inner-offset", "0"],
     "need inner_offset > 0 and 0 < R0 < outer_radius, got inner_offset=0"),
    (["count", "z", "--probe-r0", "2,x"], "not a comma-separated integer list: '2,x'"),
    # the torus's commutator abAB fails C'(1/6)
    (["ball", "torus", "--radius", "2", "--strategy", "dehn"],
     "dehn strategy needs a C'(1/6) presentation"),
], ids=["covering-radius", "ddag-m", "ddag-k", "ddag-delta", "ddag-r-cap",
        "dag-m", "dag-delta-xh", "dag-r-cap", "count-outer-gap", "count-inner-offset",
        "count-probe-r0", "ball-dehn"])
def test_input_errors_are_refused_before_the_ball_is_enumerated(
        files, tmp_path, monkeypatch, capsys, argv, message):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("the ball was enumerated")

    # count enumerates through the ends layer
    monkeypatch.setattr(relends.cli, "stable_ball", enumerate_nothing)
    monkeypatch.setattr("relends.ends.stable_ball", enumerate_nothing)
    subcommand, name, *rest = argv
    dot = ["--dot", str(tmp_path / "ball.dot")] if subcommand == "schreier" else []
    assert run([subcommand, files[name], *rest, *dot]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "ball.dot").exists()


def test_dot_export_writes_a_digraph(files, tmp_path, capsys):
    dot = tmp_path / "ball.dot"
    rc = run(
        [
            "schreier",
            files["genus2"],
            "--subgroup-from-file",
            "--radius",
            "1",
            "--dot",
            str(dot),
        ]
    )
    assert rc == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert '[label="a"]' in text


def test_empirical_subcommand(files, capsys):
    assert run(["empirical", files["z"], "--radii", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "0->2, 1->2, 2->2" in out


def test_ball_radius_gives_the_annulus_room(files, capsys):
    # two cuts never fill the window, so both runs exit uncertified; the
    # point is the counts: hard against the rim every rim vertex is its
    # own component, with room the base sphere falls to the true two.
    base = ["empirical", files["genus2"], "--subgroup-from-file", "--radii", "0,1"]
    assert run(base) == 2
    assert "0->6" in capsys.readouterr().out
    assert run(base + ["--ball-radius", "4"]) == 2
    assert "0->2" in capsys.readouterr().out


def test_ball_radius_inside_the_cuts_is_a_usage_error(files, capsys):
    rc = run(
        ["empirical", files["genus2"], "--subgroup-from-file",
         "--radii", "0,1", "--ball-radius", "1"]
    )
    assert rc == 1
    assert "must exceed" in capsys.readouterr().err


def test_word_reduce_dehn(files, capsys):
    rc = run(["word-reduce", files["genus2"], "--word", "abABcdCDab"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "reduced: ab" in out
    assert "identity: no" in out


def test_word_reduce_identity(files, capsys):
    assert run(["word-reduce", files["genus2"], "--word", "abABcdCD"]) == 0
    out = capsys.readouterr().out
    assert "reduced: 1" in out
    assert "identity: yes" in out


@pytest.mark.parametrize(
    "argv, code, strategy",
    [
        (["word-reduce", "genus2", "--word", "ab"], 0, "dehn"),
        (["word-reduce", "f2", "--word", "ab"], 0, "dehn"),
        (["word-reduce", "torus", "--word", "abAB"], 0, "bounded_bfs"),
        # auto caps word-reduce at 12, below the word's length 14
        (["word-reduce", "torus", "--word", "ab" * 7], 2, None),
        (["word-reduce", "torus", "--word", "ab", "--strategy", "bounded-bfs",
          "--radius-cap", "0"], 1, None),
        (["ball", "torus", "--radius", "0", "--strategy", "bounded-bfs",
          "--radius-cap", "0"], 1, None),
        # Dehn's algorithm ignores the cap
        (["ball", "genus2", "--radius", "1", "--radius-cap", "0"], 0, "dehn"),
        (["word-reduce", "genus2", "--word", "ab", "--strategy", "guesswork"], 1, None),
    ],
    ids=["genus2-dehn", "f2-dehn", "torus-bfs", "torus-auto-cap-12", "word-cap-0",
         "ball-cap-0", "dehn-ignores-cap", "unknown-strategy"],
)
def test_strategy_selection(files, capsys, argv, code, strategy):
    subcommand, name, *rest = argv
    assert run([subcommand, files[name], *rest, "--json", "-"]) == code
    if strategy is not None:
        assert json.loads(capsys.readouterr().out)["strategy"] == strategy


def test_check_ddag_failure_still_exits_zero(files, capsys):
    # the run finished and certified a negative answer; only the verdict
    # being unknowable maps to a nonzero code
    rc = run(["check-ddag", files["z"], "--radius", "4", "--m", "2", "--k", "1"])
    assert rc == 0
    assert "fails within radius" in capsys.readouterr().out


def test_oracle_fold_needs_a_free_group(files, capsys):
    assert run(["oracle-fold", files["genus2"], "--subgroup-from-file"]) == 1
    assert "free ambient" in capsys.readouterr().err


def test_oracle_fold_dot_file_is_pinned(tmp_path, capsys):
    # core vertices carry no distance; edges in generator order, then by vertex
    dot = tmp_path / "core.dot"
    src = Path(__file__).parent / "golden" / "f2sub.grp"
    assert run(["oracle-fold", str(src), "--subgroup-from-file", "--dot", str(dot)]) == 0
    assert "core graph: 3 vertices, 4 edges" in capsys.readouterr().out
    assert dot.read_text() == (
        "digraph labeled_graph {\n"
        "  rankdir=LR;\n"
        "  0 [shape=doublecircle];\n"
        '  0 [label="0"];\n'
        '  1 [label="1"];\n'
        '  2 [label="2"];\n'
        '  0 -> 1 [label="a"];\n'
        '  0 -> 2 [label="b"];\n'
        '  1 -> 1 [label="b"];\n'
        '  2 -> 0 [label="b"];\n'
        "}\n"
    )


def test_oracle_compare_agrees(files, tmp_path, capsys):
    src = tmp_path / "sub.grp"
    src.write_text(FREE2 + "subgroup:\n  abA\n  bb\n")
    rc = run(["oracle-compare", str(src), "--subgroup-from-file", "--radius", "3"])
    assert rc == 0
    assert "28 cosets; oracle: 28; isomorphic" in capsys.readouterr().out


def test_oracle_compare_enumerates_within_budget_first(files, monkeypatch, capsys):
    # the oracle ball has no budget of its own; it is built only after the
    # enumeration fits, since the enumerator's ball is never the smaller
    def unbudgeted(core, radius):
        raise AssertionError("the oracle ball was built before the budget check")

    monkeypatch.setattr(relends.cli, "free_schreier_ball", unbudgeted)
    argv = ["oracle-compare", files["f2"], "--radius", "11", "--node-budget", "100"]
    assert run(argv) == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_oracle_compare_over_a_free_group_enumerates_one_horizon(files, capsys):
    # the radius-2 ball of F2 fills 17 rows of 4 cells; the extension to
    # horizon 3 would need 53 rows, but with no relators it cannot change
    # the ball, so it is never run
    argv = ["oracle-compare", files["f2"], "--radius", "2", "--node-budget", "100"]
    assert run(argv) == 0
    assert "17 cosets; oracle: 17; isomorphic" in capsys.readouterr().out


def test_rips_output_file_parses_back(files, tmp_path, capsys):
    out_path = tmp_path / "G.grp"
    assert run(["rips", files["q1"], "-o", str(out_path)]) == 0
    capsys.readouterr()
    from relends import parse_presentation

    g = parse_presentation(out_path.read_text())
    assert g.generators == ("x", "a", "b")
    assert len(g.relators) == 5


def test_rips_json_stdout_is_parseable(files, capsys):
    assert run(["rips", files["q1"], "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["block_length"] == 480
    assert report["constructed"] is True


def test_rips_without_a_destination_writes_g_to_stdout(files, tmp_path, capsys):
    out_path = tmp_path / "G.grp"
    assert run(["rips", files["q1"], "-o", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["rips", files["q1"]]) == 0
    # G's file first, then the human lines
    assert capsys.readouterr().out.startswith(out_path.read_text())


@pytest.mark.parametrize("json_args", [[], ["--json", "-"]], ids=["human", "json-stdout"])
def test_a_failed_rips_construction_keeps_stdout_parseable(files, monkeypatch, capsys,
                                                             json_args):
    def failing(g):
        return dataclasses.replace(relends.check_small_cancellation(g), passes=False)

    monkeypatch.setattr("relends.rips.check_small_cancellation", failing)
    assert run(["rips", files["q1"], "--block-length", "8", *json_args]) == 2
    out = capsys.readouterr().out
    if json_args:
        assert json.loads(out)["constructed"] is False
    else:
        assert out == "construction failed: C'(1/6) fails at block length 512\n"


def test_bad_radii_are_usage_errors(files, capsys):
    assert run(["empirical", files["z"], "--radii", "2,1"]) == 1
    assert run(["count", files["z"], "--probe-r0", "0,1,2"]) == 1
    capsys.readouterr()


# Every subcommand's options as (required, choices, default), keyed by
# option strings; "input" is the positional.  The goldens only see the
# flags a case passes, so a flag added to or dropped from the wrong
# subcommand shows up here instead.
BASE_FLAGS = {
    ("input",): (True, None, None),
    ("--json",): (False, None, None),
    ("--node-budget",): (False, None, None),  # default follows ENDS_NODE_BUDGET
    ("--seed",): (False, None, 0),
}
SUBGROUP_FLAGS = {
    **BASE_FLAGS,
    ("--subgroup-from-file",): (False, None, False),
    ("--subgroup",): (False, None, None),
}
STRATEGIES = ("auto", "dehn", "bounded-bfs")
CLI_SURFACE = {
    "parse": BASE_FLAGS,
    "word-reduce": {
        **BASE_FLAGS,
        ("--word",): (True, None, None),
        ("--strategy",): (False, STRATEGIES, "auto"),
        ("--radius-cap",): (False, None, 12),
    },
    "ball": {
        **BASE_FLAGS,
        ("--radius",): (True, None, None),
        ("--strategy",): (False, STRATEGIES, "auto"),
        ("--radius-cap",): (False, None, None),
        ("--dot",): (False, None, None),
    },
    "schreier": {
        **SUBGROUP_FLAGS,
        ("--radius",): (True, None, None),
        ("--start-slack",): (False, None, 0),
        ("--max-slack",): (False, None, 12),
        ("--covering-check",): (False, None, None),
        ("--dot",): (False, None, None),
    },
    "count": {
        **SUBGROUP_FLAGS,
        ("--probe-r0",): (False, None, None),
        ("--window",): (False, None, 3),
        ("--mode",): (False, ("empirical", "certified"), "empirical"),
        ("--inner-offset",): (False, None, Fraction(3)),
        ("--outer-gap",): (False, None, 1),
        ("--delta",): (False, None, None),
        ("--epsilon",): (False, None, None),
        ("--eta",): (False, None, None),
        ("--n0",): (False, None, None),
        ("--diam-core",): (False, None, None),
        ("--m",): (False, None, None),
        ("--max-slack",): (False, None, 12),
    },
    "check-ddag": {
        **SUBGROUP_FLAGS,
        ("--radius",): (True, None, None),
        ("--m",): (True, None, None),
        ("--k",): (True, None, None),
        ("--delta",): (False, None, Fraction(0)),
        ("--r-cap",): (False, None, None),
        ("--max-slack",): (False, None, 12),
    },
    "check-dag": {
        **SUBGROUP_FLAGS,
        ("--radius",): (True, None, None),
        ("--m",): (True, None, None),
        ("--delta-xh",): (True, None, None),
        ("--r-cap",): (False, None, None),
        ("--max-slack",): (False, None, 12),
    },
    "empirical": {
        **SUBGROUP_FLAGS,
        ("--radii",): (True, None, None),
        ("--ball-radius",): (False, None, None),
        ("--window",): (False, None, 3),
        ("--max-slack",): (False, None, 12),
    },
    "rips": {
        **BASE_FLAGS,
        ("--block-length",): (False, None, 480),
        ("-o", "--out"): (False, None, None),
    },
    "oracle-fold": {**SUBGROUP_FLAGS, ("--dot",): (False, None, None)},
    "oracle-compare": {**SUBGROUP_FLAGS, ("--radius",): (True, None, None)},
}


def test_every_subcommand_keeps_its_flags():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {}
    for name, sp in subparsers.choices.items():
        flags = {}
        for action in sp._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            key = tuple(action.option_strings) or (action.dest,)
            default = None if key == ("--node-budget",) else action.default
            choices = tuple(action.choices) if action.choices is not None else None
            flags[key] = (action.required, choices, default)
        surface[name] = flags
    assert surface == CLI_SURFACE
