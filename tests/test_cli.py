import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from graphonlab import StepGraphon, constant, save_graphon
from graphonlab import stepgraphon as sg
from graphonlab.cli import cli, parse_graphon, parse_pattern
from graphonlab.search import SearchResult
from graphonlab.verify import VerificationReport


@pytest.fixture
def runner():
    return CliRunner()


# --- spec parsing ----------------------------------------------------------------


def test_parse_pattern_forms(tmp_path):
    assert parse_pattern("clique:3").vertex_count == 3
    assert parse_pattern("catalog:z6_chords").edge_count == 8
    assert parse_pattern("complete_multipartite:2,3").vertex_count == 5
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
    assert parse_pattern(f"file:{p}").edge_count == 1
    for bad in ("clique", "clique:x", "catalog:nope", "file:/no/such", "clique:2,3"):
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_parse_graphon_forms(tmp_path):
    assert parse_graphon("const:0.3").values[0, 0] == 0.3
    W = parse_graphon("const:0.3:4")
    assert W.n == 4 and np.all(W.values == 0.3)
    assert parse_graphon("random:3:7").n == 3
    assert parse_graphon("regular:3:0.4:1").n == 3
    assert parse_graphon("dense:3:0.2:1").n == 3
    p = tmp_path / "w.json"
    save_graphon(constant(0.25, 2), str(p))
    assert parse_graphon(f"file:{p}").n == 2
    for bad in (
        "const",
        "const:2.0",
        "const:0.3:0",
        "const:0.3:x",
        "random:3",
        "random:0:1",
        "regular:0:0.4:1",
        "dense:-1:0.2:1",
        "file:/no/such",
        "nope:1",
    ):
        with pytest.raises(ValueError):
            parse_graphon(bad)


@pytest.mark.parametrize(
    "spec", ["const:0.5:100000", "random:100000:1", "regular:100000:0.5:1", "dense:100000:0.5:1"]
)
def test_oversized_graphon_spec_exit_3_before_allocating(runner, spec, monkeypatch):
    # the n * n cell count is checked before any generator runs
    for name in ("constant", "gen_random", "gen_regular", "gen_pointwise_dense"):
        monkeypatch.setattr(sg, name, lambda *args: pytest.fail(f"{spec} reached a generator"))
    res = runner.invoke(cli, ["density", "--pattern", "clique:3", "--graphon", spec])
    assert res.exit_code == 3, res.output
    assert res.stderr.splitlines() == [
        "error: graphon spec of 100000 blocks needs 10000000000 cells, budget 1e+07"
    ]
    assert res.stdout == ""
    # GRAPHONLAB_BUDGET moves the limit: 3 blocks are 9 cells
    small = spec.replace("100000", "3")
    res = runner.invoke(
        cli,
        ["density", "--pattern", "clique:3", "--graphon", small],
        env={"GRAPHONLAB_BUDGET": "8"},
    )
    assert res.exit_code == 3, res.output


# --- density ---------------------------------------------------------------------


def test_density_triangle_on_constant_half(runner):
    res = runner.invoke(cli, ["density", "--pattern", "clique:3", "--graphon", "const:0.5"])
    assert res.exit_code == 0
    assert float(res.output) == 0.125


def test_density_catalog_pattern_closed_form(runner):
    res = runner.invoke(
        cli, ["density", "--pattern", "catalog:z6_chords", "--graphon", "const:0.5"]
    )
    assert res.exit_code == 0
    assert float(res.output) == 0.5**8


def test_density_route_both_agrees(runner, tmp_path):
    p = tmp_path / "w.json"
    save_graphon(parse_graphon("random:3:5"), str(p))
    res = runner.invoke(
        cli,
        ["density", "--pattern", "clique:3", "--graphon", f"file:{p}", "--route", "both"],
    )
    assert res.exit_code == 0
    rows = [line.split() for line in res.output.strip().splitlines()]
    values = {row[0]: float(row[1]) for row in rows}
    assert values["eliminated"] == pytest.approx(values["naive"], rel=1e-10)


def test_density_subdivision_route_both_includes_shortcut(runner):
    res = runner.invoke(
        cli,
        [
            "density",
            "--pattern",
            "clique:3",
            "--graphon",
            "random:3:2",
            "--route",
            "both",
            "--subdivision",
            "2",
        ],
    )
    assert res.exit_code == 0
    assert "walk-kernel shortcut" in res.output
    rows = res.output.strip().splitlines()
    values = [float(line.split()[-3]) for line in rows if "(" in line]
    assert len(values) == 3
    assert max(values) - min(values) <= 1e-10 * max(abs(v) for v in values)


def test_density_bad_specs_exit_2(runner):
    res = runner.invoke(cli, ["density", "--pattern", "clique:x", "--graphon", "const:0.5"])
    assert res.exit_code == 2
    assert "error:" in res.stderr
    res = runner.invoke(cli, ["density", "--pattern", "clique:3", "--graphon", "const:9"])
    assert res.exit_code == 2
    res = runner.invoke(
        cli,
        ["density", "--pattern", "clique:3", "--graphon", "const:0.5", "--subdivision", "-1"],
    )
    assert res.exit_code == 2
    res = runner.invoke(
        cli,
        [
            "density", "--pattern", "clique:3", "--graphon", "const:0.5",
            "--route", "both", "--subdivision", "-2",
        ],
    )
    assert res.exit_code == 2


def test_density_budget_env_exit_3(runner):
    res = runner.invoke(
        cli,
        ["density", "--pattern", "clique:5", "--graphon", "random:4:0", "--route", "naive"],
        env={"GRAPHONLAB_BUDGET": "10"},
    )
    assert res.exit_code == 3


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "error: elimination plan needs 84 cells, budget 10"),
        (["--probe-k", "1"], "error: walk power of length 3 needs 128 cells, budget 10"),
    ],
    ids=["minimize", "probe"],
)
def test_search_budget_charges_values_before_the_solver(runner, extra, message):
    # the solver's 2^4 supports would also exceed the budget: the objective's
    # plan (K3 at n = 4: 64 + 16 + 4 cells) or walk power (2 * 4^3 cells) is
    # charged first, once per stack of trial points
    res = runner.invoke(
        cli,
        ["search", "--pattern", "clique:3", "--d", "0.5", "--n", "4", "--starts", "2",
         "--inner-iterations", "2", *extra],
        env={"GRAPHONLAB_BUDGET": "10"},
    )
    assert res.exit_code == 3, res.output
    assert res.stderr.splitlines() == [message]
    assert res.stdout == ""


@pytest.mark.parametrize("value", ["abc", "", "nan", "inf", "-inf", "0", "-5"])
@pytest.mark.parametrize(
    "args",
    [
        ["density", "--pattern", "clique:3", "--graphon", "random:4:1"],
        ["density", "--pattern", "clique:3", "--graphon", "random:4:1", "--route", "naive"],
        ["localdensity", "--graphon", "random:4:1"],
        ["localdensity", "--graphon", "random:4:1", "--method", "grid"],
        ["verify", "--check", "knrs", "--trials", "1"],
        ["search", "--pattern", "clique:3", "--d", "0.5", "--n", "2", "--starts", "1",
         "--inner-iterations", "1"],
        ["op", "--graphon", "const:0.5", "--kind", "path-power", "--s", "3"],
    ],
    ids=["density", "density-naive", "localdensity", "localdensity-grid", "verify", "search", "op"],
)
def test_bad_budget_env_exit_2(runner, args, value):
    # non-numeric, NaN, infinite and non-positive budgets are bad config
    res = runner.invoke(cli, args, env={"GRAPHONLAB_BUDGET": value})
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        f"error: GRAPHONLAB_BUDGET must be a finite number above 0, got {value!r}"
    ]
    assert res.stdout == ""


def test_budget_env_positive_values_apply(runner):
    res = runner.invoke(
        cli,
        ["density", "--pattern", "clique:3", "--graphon", "const:0.5"],
        env={"GRAPHONLAB_BUDGET": "1e3"},
    )
    assert res.exit_code == 0
    assert float(res.output) == 0.125
    res = runner.invoke(
        cli, ["localdensity", "--graphon", "random:3:0"], env={"GRAPHONLAB_BUDGET": "0.5"}
    )
    assert res.exit_code == 3


# --- localdensity ----------------------------------------------------------------


def test_localdensity_constant(runner):
    res = runner.invoke(cli, ["localdensity", "--graphon", "const:0.4"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["d_star"] == pytest.approx(0.4, abs=1e-12)
    assert doc["method"] == "exact_support_enumeration"


def test_localdensity_bipartite_file(runner, tmp_path):
    p = tmp_path / "bipartite.json"
    save_graphon(StepGraphon([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]), str(p))
    res = runner.invoke(cli, ["localdensity", "--graphon", f"file:{p}"])
    assert res.exit_code == 0
    assert json.loads(res.output)["d_star"] == 0.0


def test_localdensity_identity_two_block(runner, tmp_path):
    p = tmp_path / "identity2.json"
    save_graphon(StepGraphon([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]), str(p))
    res = runner.invoke(cli, ["localdensity", "--graphon", f"file:{p}"])
    assert res.exit_code == 0
    assert json.loads(res.output)["d_star"] == pytest.approx(0.5, abs=1e-12)


def test_localdensity_methods(runner):
    res = runner.invoke(
        cli, ["localdensity", "--graphon", "random:3:1", "--method", "estimate"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["method"] == "projected_gradient"
    res = runner.invoke(
        cli,
        ["localdensity", "--graphon", "random:3:1", "--method", "grid", "--resolution", "30"],
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["method"] == "grid"


def test_localdensity_constant_blocks_spec(runner):
    res = runner.invoke(cli, ["localdensity", "--graphon", "const:0.4:3"])
    assert res.exit_code == 0
    assert json.loads(res.output)["d_star"] == pytest.approx(0.4, abs=1e-12)


def test_localdensity_bad_input_exit_2(runner):
    for args in (
        ["--graphon", "random:0:1"],
        ["--graphon", "const:0.4:0"],
        ["--graphon", "random:3:1", "--method", "grid", "--resolution", "0"],
        ["--graphon", "random:3:1", "--method", "estimate", "--starts", "-1"],
    ):
        res = runner.invoke(cli, ["localdensity", *args])
        assert res.exit_code == 2, args
        assert "NaN" not in res.output


def test_localdensity_budget_exit_3(runner):
    res = runner.invoke(
        cli,
        ["localdensity", "--graphon", "random:3:0"],
        env={"GRAPHONLAB_BUDGET": "4"},
    )
    assert res.exit_code == 3


def test_localdensity_estimate_budget_exit_3(runner, monkeypatch):
    monkeypatch.delenv("GRAPHONLAB_BUDGET", raising=False)
    t0 = time.perf_counter()
    res = runner.invoke(cli, ["localdensity", "--graphon", "random:80:1", "--method", "estimate"])
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ")
    res = runner.invoke(cli, ["localdensity", "--graphon", "random:20:1", "--method", "estimate"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["method"] == "projected_gradient"


# --- op ---------------------------------------------------------------------------


def test_op_path_power_round_trip(runner, tmp_path):
    p = tmp_path / "w2.json"
    res = runner.invoke(
        cli,
        ["op", "--graphon", "const:0.5", "--kind", "path-power", "--s", "2", "--out", str(p)],
    )
    assert res.exit_code == 0
    res = runner.invoke(cli, ["localdensity", "--graphon", f"file:{p}"])
    assert json.loads(res.output)["d_star"] == pytest.approx(0.25, abs=1e-12)


def test_op_walk_density_and_u_kernel(runner):
    res = runner.invoke(cli, ["op", "--graphon", "const:0.5", "--kind", "walk-density", "--s", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["values"] == [0.5]
    res = runner.invoke(cli, ["op", "--graphon", "const:0.5", "--kind", "u-kernel", "--k", "1"])
    assert res.exit_code == 0
    assert json.loads(res.output)["values"] == [[1.0]]
    res = runner.invoke(
        cli, ["op", "--graphon", "const:0.5", "--kind", "normalized-power", "--k", "1"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)["values"] == [[0.5]]


def test_op_missing_parameter_exit_2(runner):
    res = runner.invoke(cli, ["op", "--graphon", "const:0.5", "--kind", "path-power"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["op", "--graphon", "const:0.5", "--kind", "u-kernel"])
    assert res.exit_code == 2
    for kind, option in (("path-power", "--s"), ("walk-density", "--s"), ("u-kernel", "--k")):
        for value in ("0", "-1"):
            res = runner.invoke(cli, ["op", "--graphon", "const:0.5", "--kind", kind, option, value])
            assert res.exit_code == 2, (kind, option, value)


# --- verify -----------------------------------------------------------------------


def test_verify_check_count_contract(runner):
    res = runner.invoke(cli, ["verify", "--check", "transform", "--trials", "3"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["schema"] == "v1"
    assert len(doc["reports"]) == 3
    assert all(r["check_name"] == "transform" for r in doc["reports"])


def test_verify_same_seed_identical_bytes(runner):
    args = ["verify", "--check", "transform", "--check", "reiher", "--trials", "2", "--seed", "5"]
    a = runner.invoke(cli, args)
    b = runner.invoke(cli, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_verify_csv_and_out_file(runner, tmp_path):
    p = tmp_path / "report.csv"
    res = runner.invoke(
        cli,
        ["verify", "--check", "transform", "--trials", "2", "--format", "csv", "--out", str(p)],
    )
    assert res.exit_code == 0
    assert res.output == ""
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "check_name,ratio,passed,seed"
    assert len(lines) == 3


def test_verify_config_error_exit_2(runner):
    res = runner.invoke(cli, ["verify", "--suite", "nope"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["verify", "--check", "nope"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["verify", "--suite", "paper-default", "--check", "transform"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["verify", "--trials", "-1"])
    assert res.exit_code == 2
    res = runner.invoke(cli, ["verify", "--check", "transform", "--trials", "-3"])
    assert res.exit_code == 2


def test_verify_failure_exit_1(runner, monkeypatch):
    bad = VerificationReport(
        check_name="knrs",
        inputs_digest="0" * 16,
        computed_value=0.1,
        bound_value=0.2,
        ratio=0.5,
        passed=False,
        tolerance=1e-9,
    )
    monkeypatch.setattr("graphonlab.verify.run_suite", lambda config: [bad])
    res = runner.invoke(cli, ["verify", "--check", "knrs"])
    assert res.exit_code == 1
    assert "1 of 1 checks failed" in res.stderr


def test_verify_advisory_failure_exits_0(runner, monkeypatch):
    advisory = VerificationReport(
        check_name="knrs",
        inputs_digest="0" * 16,
        computed_value=0.1,
        bound_value=0.2,
        ratio=0.5,
        passed=False,
        tolerance=1e-9,
        metadata={"advisory": True},
    )
    monkeypatch.setattr("graphonlab.verify.run_suite", lambda config: [advisory])
    res = runner.invoke(cli, ["verify", "--check", "knrs"])
    assert res.exit_code == 0
    assert "advisory" in res.stderr


# --- search -----------------------------------------------------------------------


def test_search_emits_result_graphon_and_plot(runner, tmp_path):
    emitted = tmp_path / "best.json"
    plot = tmp_path / "traj.svg"
    res = runner.invoke(
        cli,
        [
            "search",
            "--pattern",
            "clique:2",
            "--d",
            "0.5",
            "--n",
            "3",
            "--starts",
            "1",
            "--inner-iterations",
            "5",
            "--emit-graphon",
            str(emitted),
            "--plot",
            str(plot),
        ],
    )
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["feasible"] is True
    assert doc["best_ratio"] >= 1.0 - 1e-9
    # emitted instance replays through the graphon-consuming commands
    replay = runner.invoke(cli, ["localdensity", "--graphon", f"file:{emitted}"])
    assert replay.exit_code == 0
    assert json.loads(replay.output)["d_star"] >= 0.5 - 1e-12
    svg = plot.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg
    assert "iteration" in svg


def test_search_sweep_prints_one_line_per_d(runner, tmp_path):
    plot = tmp_path / "sweep.svg"
    res = runner.invoke(
        cli,
        [
            "search",
            "--pattern",
            "clique:2",
            "--d",
            "0.5",
            "--n",
            "2",
            "--starts",
            "1",
            "--inner-iterations",
            "2",
            "--sweep-d",
            "0.3,0.5",
            "--plot",
            str(plot),
        ],
    )
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("d=0.3 ratio=")
    assert lines[1].startswith("d=0.5 ratio=")
    assert plot.read_text().startswith("<svg")


def test_search_unregistered_pattern_is_advisory(runner, monkeypatch):
    stub = SearchResult(
        best_graphon=constant(0.5, 2),
        best_value=0.01,
        constraint_residual=0.0,
        bound=0.5**8,
        best_ratio=0.5,
        trajectory=[(0, 0.01, 0.0)],
        seed=0,
        config={},
        feasible=True,
    )
    monkeypatch.setattr("graphonlab.search.minimize_hom_density", lambda *a, **kw: stub)
    res = runner.invoke(cli, ["search", "--pattern", "catalog:z6_chords", "--d", "0.5"])
    # open case: low ratio is reported, never an error
    assert res.exit_code == 0
    assert "advisory" in res.stderr


def test_search_infeasible_exit_4(runner, monkeypatch):
    stub = SearchResult(
        best_graphon=constant(0.5, 2),
        best_value=0.1,
        constraint_residual=0.05,
        bound=0.125,
        best_ratio=0.8,
        trajectory=[(0, 0.1, 0.05)],
        seed=0,
        config={},
        feasible=False,
    )
    monkeypatch.setattr("graphonlab.search.minimize_hom_density", lambda *a, **kw: stub)
    res = runner.invoke(cli, ["search", "--pattern", "clique:3", "--d", "0.5"])
    assert res.exit_code == 4
    assert json.loads(res.stdout)["feasible"] is False
    assert "no feasible point" in res.stderr


def test_search_sweep_infeasible_exit_4(runner, monkeypatch):
    def stub(H, d, n, config=None, seed=0):
        return SearchResult(
            best_graphon=constant(0.5, 2),
            best_value=0.1,
            constraint_residual=0.0 if d < 0.5 else 0.05,
            bound=0.125,
            best_ratio=0.8,
            trajectory=[(0, 0.1, 0.0)],
            seed=seed,
            config={},
            feasible=d < 0.5,
        )

    monkeypatch.setattr("graphonlab.search.minimize_hom_density", stub)
    args = ["search", "--pattern", "clique:3", "--d", "0.5", "--sweep-d"]
    res = runner.invoke(cli, args + ["0.3,0.6,0.4"])
    # every point is printed before the exit code reports the infeasible one
    assert res.exit_code == 4
    assert [line.split()[-1] for line in res.stdout.splitlines()] == [
        "feasible=True",
        "feasible=False",
        "feasible=True",
    ]
    assert "no feasible point" in res.stderr
    res = runner.invoke(cli, args + ["0.3,0.4"])
    assert res.exit_code == 0
    assert len(res.stdout.splitlines()) == 2


def test_search_sweep_rejects_emit_graphon(runner, tmp_path):
    emitted = tmp_path / "best.json"
    res = runner.invoke(
        cli,
        [
            "search",
            "--pattern",
            "clique:3",
            "--d",
            "0.5",
            "--n",
            "2",
            "--starts",
            "1",
            "--inner-iterations",
            "1",
            "--sweep-d",
            "0.4,0.6",
            "--emit-graphon",
            str(emitted),
        ],
    )
    # rejected before any search runs
    assert res.exit_code == 2
    assert res.stdout == ""
    assert not emitted.exists()


def test_search_bad_input_exit_2(runner):
    res = runner.invoke(cli, ["search", "--pattern", "clique:3", "--d", "1.5"])
    assert res.exit_code == 2
    res = runner.invoke(
        cli, ["search", "--pattern", "clique:3", "--d", "0.5", "--probe-k", "0"]
    )
    assert res.exit_code == 2
    res = runner.invoke(
        cli, ["search", "--pattern", "clique:3", "--d", "0.5", "--sweep-d", " , "]
    )
    assert res.exit_code == 2
    for option in ("--n", "--starts", "--inner-iterations"):
        res = runner.invoke(cli, ["search", "--pattern", "clique:3", "--d", "0.5", option, "0"])
        assert res.exit_code == 2, option
    res = runner.invoke(
        cli, ["search", "--pattern", "clique:3", "--d", "0.5", "--probe-k", "-1"]
    )
    assert res.exit_code == 2
    # every d is checked before any search runs: nothing reaches stdout
    quick = ["--probe-k", "1", "--n", "2", "--starts", "1", "--inner-iterations", "1"]
    for d, sweep in (("0.5", "0.5,1.5"), ("0.5", "0.5,0"), ("1.0", "0.5"), ("0.0", None)):
        args = ["search", "--pattern", "clique:2", "--d", d, *quick]
        if sweep is not None:
            args += ["--sweep-d", sweep]
        res = runner.invoke(cli, args)
        assert res.exit_code == 2, args
        assert res.stdout == "", args


# --- exit-code contract -------------------------------------------------------------


QUICK_SEARCH = ["search", "--pattern", "clique:2", "--d", "0.5", "--n", "2", "--starts", "1",
                "--inner-iterations", "1"]


@pytest.mark.parametrize(
    "args",
    [
        ["op", "--graphon", "const:0.5", "--kind", "path-power", "--s", "2", "--out"],
        ["verify", "--check", "transform", "--trials", "1", "--out"],
        QUICK_SEARCH + ["--emit-graphon"],
        QUICK_SEARCH + ["--plot"],
        QUICK_SEARCH + ["--sweep-d", "0.3,0.5", "--plot"],
    ],
    ids=["op-out", "verify-out", "search-emit-graphon", "search-plot", "search-sweep-plot"],
)
def test_unwritable_output_path_exit_2(runner, tmp_path, args):
    bad = tmp_path / "missing" / "out.json"
    res = runner.invoke(cli, args + [str(bad)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.splitlines() == [
        f"error: [Errno 2] No such file or directory: {str(bad)!r}"
    ]


@pytest.mark.parametrize(
    "target, args",
    [
        ("graphonlab.cli.hom_density", ["density", "--pattern", "clique:3", "--graphon", "const:0.5"]),
        ("graphonlab.localdensity.local_density_exact", ["localdensity", "--graphon", "const:0.5"]),
        ("graphonlab.verify.run_suite", ["verify", "--check", "transform", "--trials", "1"]),
        ("graphonlab.search.minimize_hom_density", QUICK_SEARCH),
    ],
    ids=["density", "localdensity", "verify", "search"],
)
def test_internal_error_exit_5(runner, monkeypatch, target, args):
    def broken(*a, **kw):
        raise RuntimeError("backend broke")

    monkeypatch.setattr(target, broken)
    res = runner.invoke(cli, args)
    assert res.exit_code == 5, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: internal: RuntimeError: backend broke"]


@pytest.mark.parametrize(
    "target, args",
    [
        ("graphonlab.cli.hom_density", ["density", "--pattern", "clique:3", "--graphon", "const:0.5"]),
        ("graphonlab.localdensity.local_density_exact", ["localdensity", "--graphon", "const:0.5"]),
        ("graphonlab.operators.path_power", ["op", "--graphon", "const:0.5", "--kind", "path-power", "--s", "2"]),
        ("graphonlab.verify.run_suite", ["verify", "--check", "transform", "--trials", "1"]),
        ("graphonlab.search.minimize_hom_density", QUICK_SEARCH),
    ],
    ids=["density", "localdensity", "op", "verify", "search"],
)
def test_value_error_exit_2(runner, monkeypatch, target, args):
    # a library ValueError means invalid input, whichever command hits it
    def invalid(*a, **kw):
        raise ValueError("bad thing")

    monkeypatch.setattr(target, invalid)
    res = runner.invoke(cli, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.splitlines() == ["error: bad thing"]
