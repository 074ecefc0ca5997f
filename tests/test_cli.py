"""Command line behavior: families, verdict exit codes, tables."""

import copy
import csv
import io
import json
import shutil
import subprocess

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from tempo_ncg import (
    InstanceFile,
    Setting,
    StrategyProfile,
    TemporalGraph,
    dumps_instance,
    loads_instance,
    save_instance,
    validate_and_normalize_host,
)
import tempo_ncg.cli
import tempo_ncg.poa
from tempo_ncg.cli import main
from tempo_ncg.fixtures import FIXTURE_BUILDERS, get_fixture


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


def gen_file(runner, tmp_path, filename, *args):
    path = tmp_path / filename
    result = invoke(runner, "gen", *args, "--out", str(path))
    assert result.exit_code == 0, result.output + result.stderr
    return path


# -- gen ----------------------------------------------------------------------


def test_gen_every_fixture_family(runner):
    for family in sorted(FIXTURE_BUILDERS):
        result = invoke(runner, "gen", family)
        assert result.exit_code == 0
        instance = loads_instance(result.output)
        assert instance.name == family
        assert instance.profile is not None


def test_gen_dense_cycle(runner):
    result = invoke(runner, "gen", "dense-cycle", "--x", "2")
    assert result.exit_code == 0
    instance = loads_instance(result.output)
    assert instance.name == "dense-cycle-x2"
    assert instance.host.node_count == 8


def test_gen_hypercube_with_rename(runner):
    result = invoke(runner, "gen", "hypercube", "--d", "2", "--name", "square")
    assert result.exit_code == 0
    instance = loads_instance(result.output)
    assert instance.name == "square"
    assert instance.host.node_count == 4


def test_gen_two_terminal(runner):
    result = invoke(
        runner, "gen", "two-terminal", "--n", "5", "--seed", "3",
        "--setting", "local",
    )
    assert result.exit_code == 0
    instance = loads_instance(result.output)
    assert instance.host.terminal_count == 2
    assert instance.profile.setting.value == "local"


def test_gen_scale_and_extends_from_file(runner, tmp_path):
    base = gen_file(runner, tmp_path, "cube.json", "hypercube", "--d", "1")
    scaled = invoke(runner, "gen", "scale", "--instance", str(base), "--c", "3")
    assert scaled.exit_code == 0
    assert loads_instance(scaled.output).host.node_count == 6

    ext_t = invoke(runner, "gen", "extend-terminal", "--instance", str(base))
    assert ext_t.exit_code == 0
    inst_t = loads_instance(ext_t.output)
    assert inst_t.host.node_count == 3
    assert inst_t.host.terminal_count == 3

    ext_n = invoke(runner, "gen", "extend-nonterminal", "--instance", str(base))
    assert ext_n.exit_code == 0
    inst_n = loads_instance(ext_n.output)
    assert inst_n.host.node_count == 3
    assert inst_n.host.terminal_count == 2


def test_gen_product_of_two_files(runner, tmp_path):
    left = gen_file(runner, tmp_path, "l.json", "hypercube", "--d", "1")
    right = gen_file(runner, tmp_path, "r.json", "hypercube", "--d", "1")
    result = invoke(
        runner, "gen", "product", "--left", str(left), "--right", str(right)
    )
    assert result.exit_code == 0
    instance = loads_instance(result.output)
    assert instance.host.node_count == 4
    assert instance.name == "hypercube-d1-x-hypercube-d1"


def test_gen_missing_required_parameter_exits_2(runner):
    result = invoke(runner, "gen", "dense-cycle")
    assert result.exit_code == 2
    assert "dense-cycle needs --x" in result.stderr


def test_gen_rejected_parameter_exits_2(runner):
    result = invoke(runner, "gen", "dense-cycle", "--x", "3")
    assert result.exit_code == 2


def test_gen_two_terminal_rejects_a_label_loop_that_never_stops(runner):
    # extra-label-prob 1 or more used to make the label loop spin forever.
    for prob in ("1", "2", "-0.5"):
        result = invoke(runner, "gen", "two-terminal", "--n", "3",
                        "--extra-label-prob", prob)
        assert result.exit_code == 2
        assert "extra_label_prob" in result.stderr and "[0, 1)" in result.stderr


def test_gen_two_terminal_rejects_a_label_cap_below_one(runner):
    result = invoke(runner, "gen", "two-terminal", "--n", "3", "--max-label", "0")
    assert result.exit_code == 2
    assert "max_label must be at least 1, got 0" in result.stderr


def test_gen_unknown_family_is_a_usage_error(runner):
    result = invoke(runner, "gen", "moebius")
    assert result.exit_code == 2


# An --out path that cannot be written: a directory, or a file whose parent
# directory is missing. Either is a usage error, not a traceback (exit 1).
UNWRITABLE_OUT = [
    pytest.param(lambda tmp: tmp, id="directory"),
    pytest.param(lambda tmp: tmp / "missing" / "out.json", id="missing-parent"),
]


@pytest.mark.parametrize("unwritable", UNWRITABLE_OUT)
def test_gen_unwritable_out_is_a_usage_error(runner, tmp_path, unwritable):
    out = unwritable(tmp_path)
    result = invoke(runner, "gen", "fig4", "--out", str(out))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot write {out}: ")


# -- verify -------------------------------------------------------------------


def test_verify_equilibrium_exits_0(runner, tmp_path):
    path = gen_file(runner, tmp_path, "left.json", "fig5-left")
    result = invoke(runner, "verify", str(path))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["verdict"] == "equilibrium"
    assert "witness" not in data and "exhausted" not in data
    assert "lifetime_density" in data["certificates"]


def test_verify_refuted_prints_witness_and_exits_1(runner, tmp_path):
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(runner, "verify", str(path))
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["verdict"] == "refuted"
    assert data["witness"]["agent"] == "v3"
    assert data["witness"]["strategy"] == [["v1", "v3", 1]]


def test_verify_empty_profile_is_refuted(runner, tmp_path):
    inst = get_fixture("fig5-left")
    hollow = InstanceFile(
        name="hollow",
        host=inst.host,
        profile=StrategyProfile(setting=inst.profile.setting, strategies={}),
    )
    path = tmp_path / "empty.json"
    save_instance(hollow, path)
    result = invoke(runner, "verify", str(path))
    assert result.exit_code == 1
    assert json.loads(result.output)["verdict"] == "refuted"


def test_verify_deeply_nested_file_is_a_usage_error(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    result = invoke(runner, "verify", str(path))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: cannot load")
    assert "nests too deeply" in result.stderr


def test_verify_budget_can_be_inconclusive(runner, tmp_path):
    path = gen_file(runner, tmp_path, "left.json", "fig5-left")
    result = invoke(runner, "verify", str(path), "--budget", "1")
    assert result.exit_code == 2
    assert json.loads(result.output)["verdict"] == "inconclusive"


def test_an_inconclusive_verdict_names_the_agents_whose_budget_ran_out(
    runner, tmp_path
):
    path = gen_file(runner, tmp_path, "dense.json", "dense-cycle", "--x", "4")
    result = invoke(runner, "verify", str(path), "--budget", "5000")
    assert result.exit_code == 2
    data = json.loads(result.stdout)
    # The report fields other than the new one are as they were.
    assert set(data) == {"verdict", "states_examined", "exhausted"}
    assert (data["verdict"], data["states_examined"]) == ("inconclusive", 97_408)
    assert "v00.00" in data["exhausted"]
    order = loads_instance(path.read_text(encoding="utf-8")).host.nodes
    assert data["exhausted"] == sorted(data["exhausted"], key=order.index)

    result = invoke(runner, "verify", str(path), "--budget", "5000", "--format", "csv")
    assert result.exit_code == 2
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0] == ["verdict", "witness_agent", "witness_strategy", "states_examined"]
    assert rows[1][:3] == ["inconclusive", "", "[]"]
    assert result.stderr.startswith("budget ran out for: ")
    assert "v00.00" in result.stderr


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_verify_nonpositive_budget_is_a_usage_error(runner, tmp_path, budget):
    path = gen_file(runner, tmp_path, "cube.json", "hypercube", "--d", "3")
    result = invoke(runner, "verify", str(path), "--budget", budget)
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "budgets must be positive" in result.stderr
    assert "verdict" not in result.output


def test_verify_greedy_kind(runner, tmp_path):
    path = gen_file(runner, tmp_path, "dense.json", "dense-cycle", "--x", "2")
    result = invoke(runner, "verify", str(path), "--kind", "ge")
    assert result.exit_code == 0


def test_verify_greedy_kind_rejects_a_budget_before_loading(runner, tmp_path):
    # The greedy check takes no budget, so one given is not silently ignored.
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    result = invoke(runner, "verify", str(path), "--kind", "ge", "--budget", "10")
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "--kind ne only" in result.stderr
    assert "cannot load" not in result.stderr
    assert result.stdout == ""


def test_verify_csv_format(runner, tmp_path):
    path = gen_file(runner, tmp_path, "left.json", "fig5-left")
    result = invoke(runner, "verify", str(path), "--format", "csv")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "verdict,witness_agent,witness_strategy,states_examined"
    assert lines[1].startswith("equilibrium,,")


def test_verify_csv_quotes_a_refuting_witness(runner, tmp_path):
    path = gen_file(runner, tmp_path, "fig4.json", "fig4")
    result = invoke(runner, "verify", str(path), "--format", "csv")
    assert result.exit_code == 1
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["verdict", "witness_agent", "witness_strategy", "states_examined"]
    assert len(rows[1]) == 4
    assert rows[1][:2] == ["refuted", "v3"]
    assert json.loads(rows[1][2]) == [["v1", "v3", 1]]


def test_verify_missing_file_exits_2(runner):
    result = invoke(runner, "verify", "no-such-file.json")
    assert result.exit_code == 2


def test_verify_malformed_file_exits_2(runner, tmp_path):
    # Exit 1 means "refuted", so bad input must not end there.
    data = json.loads(dumps_instance(get_fixture("fig4")))
    data["profile"]["strategies"]["v1"] = [[1, "v4", 2]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    result = invoke(runner, "verify", str(path))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "path, value",
    [(("host", "default_label"), True), (("v",), True), (("source",), 7)],
    ids=["default-label-true", "version-true", "source-int"],
)
def test_verify_boolean_or_non_string_field_exits_2(runner, tmp_path, path, value):
    data = json.loads(dumps_instance(get_fixture("fig4")))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = invoke(runner, "verify", str(bad))
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")


def _json_paths(value, path=()):
    """The path to every value below the root of a JSON tree."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield (*path, key)
        yield from _json_paths(child, (*path, key))


FIG4_DATA = json.loads(dumps_instance(get_fixture("fig4")))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FUZZED_COMMANDS = (
    ("verify",),
    ("verify", "--kind", "ge"),
    ("optimum",),
    ("poa",),
    ("dynamics",),
    ("sweep", "--mode", "local"),
    ("sweep", "--mode", "global"),
)


@st.composite
def fig4_mutants(draw):
    """fig4's instance JSON with one value replaced or one key dropped."""
    data = copy.deepcopy(FIG4_DATA)
    *parents, last = draw(st.sampled_from(list(_json_paths(data))))
    target = data
    for key in parents:
        target = target[key]
    if isinstance(target, dict) and draw(st.booleans()):
        del target[last]
    else:
        target[last] = draw(JSON_VALUES)
    return data


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=fig4_mutants())
def test_a_mutated_instance_exits_0_1_or_2_without_a_traceback(runner, tmp_path, data):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command, *options in FUZZED_COMMANDS:
        result = invoke(runner, command, str(path), *options)
        assert result.exit_code in (0, 1, 2), (command, options, result.output)
        assert result.exception is None or isinstance(
            result.exception, SystemExit
        ), (command, options, repr(result.exception))


# -- sweep --------------------------------------------------------------------


def test_sweep_matches_expected_count(runner, tmp_path):
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(
        runner, "sweep", str(path), "--mode", "global", "--expected", "0"
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["total_assignments"] == 1024
    assert data["survivors"] == 1
    assert data["equilibria_found"] == 0
    assert data["equilibria"] == []


def test_sweep_mismatched_expectation_exits_1(runner, tmp_path):
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(
        runner, "sweep", str(path), "--mode", "global", "--expected", "1"
    )
    assert result.exit_code == 1


def test_sweep_over_budget_exits_2(runner, tmp_path):
    path = gen_file(runner, tmp_path, "right.json", "fig5-right")
    result = invoke(
        runner, "sweep", str(path), "--mode", "global", "--budget", "10"
    )
    assert result.exit_code == 2
    assert "exceed" in result.stderr


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_sweep_nonpositive_budget_is_a_usage_error(runner, tmp_path, budget):
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(
        runner, "sweep", str(path), "--mode", "global", "--budget", budget
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "budgets must be positive" in result.stderr
    assert "survivors" not in result.output


def test_sweep_checks_its_options_before_loading(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    result = invoke(runner, "sweep", str(path), "--mode", "local", "--budget", "0")
    assert result.exit_code == 2
    assert "must be positive" in result.stderr
    assert "cannot load" not in result.stderr


def test_sweep_has_no_workers_option(runner, tmp_path):
    # The sweep runs one serial walk; the retired option is a usage error.
    path = gen_file(runner, tmp_path, "two.json", "two-terminal", "--n", "5",
                    "--seed", "5")
    result = invoke(
        runner, "sweep", str(path), "--mode", "global", "--workers", "2"
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("Usage: ")
    assert "No such option" in result.stderr and "--workers" in result.stderr
    assert "Traceback" not in result.output + result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "survivors" not in result.output


# -- dynamics -----------------------------------------------------------------


def test_dynamics_converges_on_equilibrium_start(runner, tmp_path):
    path = gen_file(runner, tmp_path, "left.json", "fig5-left")
    result = invoke(runner, "dynamics", str(path))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["converged"] is True
    assert data["rounds"] == 1
    assert data["report"]["verdict"] == "equilibrium"


def test_dynamics_budget_exhaustion_exits_2(runner, tmp_path):
    path = gen_file(runner, tmp_path, "left.json", "fig5-left")
    result = invoke(runner, "dynamics", str(path), "--max-rounds", "0")
    assert result.exit_code == 2
    data = json.loads(result.output)
    assert data["converged"] is False
    assert data["report"] is None


def test_dynamics_negative_max_rounds_is_a_usage_error(runner, tmp_path):
    path = gen_file(runner, tmp_path, "left.json", "fig5-left")
    result = invoke(runner, "dynamics", str(path), "--max-rounds", "-3")
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "--max-rounds must be nonnegative" in result.stderr
    assert '"rounds"' not in result.output


# -- optimum ------------------------------------------------------------------


def test_optimum_exact_size(runner, tmp_path):
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(runner, "optimum", str(path))
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["exact"] is True
    assert data["size"] == 4
    assert len(data["edges"]) == 4


def test_optimum_refusal_reports_bounds_and_exits_2(runner, tmp_path):
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(runner, "optimum", str(path), "--max-edges", "3")
    assert result.exit_code == 2
    data = json.loads(result.output)
    assert data["exact"] is False
    assert data["lower_bound"] == 3
    assert data["lower_bound"] <= data["upper_bound"]


@pytest.mark.parametrize("flag", ["--max-edges", "--max-subsets"])
def test_optimum_nonpositive_budget_is_a_usage_error(runner, tmp_path, flag):
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(runner, "optimum", str(path), flag, "0")
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "budgets must be positive" in result.stderr


@pytest.mark.parametrize("budget", [["--max-edges", "3"], ["--max-subsets", "5"]])
def test_refused_optimum_runs_the_exact_search_once(runner, tmp_path, monkeypatch, budget):
    calls = []
    search = tempo_ncg.poa.min_terminal_spanner

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    for module in (tempo_ncg.cli, tempo_ncg.poa):
        monkeypatch.setattr(module, "min_terminal_spanner", counted)
    path = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(runner, "optimum", str(path), *budget)
    assert result.exit_code == 2
    assert json.loads(result.output) == {
        "exact": False, "lower_bound": 3, "upper_bound": 4,
    }
    assert len(calls) == 1


# -- poa ----------------------------------------------------------------------


def test_poa_table_skips_refuted_instances(runner, tmp_path):
    dense = gen_file(runner, tmp_path, "dense.json", "dense-cycle", "--x", "2")
    forced = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(runner, "poa", str(dense), str(forced))
    assert result.exit_code == 0
    assert "fig4 failed ne verification" in result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("name,n,k,lifetime,kind")
    assert len(lines) == 2
    assert lines[1].startswith("dense-cycle-x2,8,8,4,ne,global,12,7,True,7,")


def test_poa_json_format_and_out_file(runner, tmp_path):
    dense = gen_file(runner, tmp_path, "dense.json", "dense-cycle", "--x", "2")
    out = tmp_path / "table.json"
    result = invoke(
        runner, "poa", str(dense), "--format", "json", "--out", str(out)
    )
    assert result.exit_code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["equilibrium_edges"] == 12
    assert rows[0]["optimum_edges"] == 7


@pytest.mark.parametrize("unwritable", UNWRITABLE_OUT)
def test_poa_unwritable_out_is_a_usage_error(runner, tmp_path, unwritable):
    left = gen_file(runner, tmp_path, "left.json", "fig5-left")
    out = unwritable(tmp_path)
    result = invoke(runner, "poa", str(left), "--out", str(out))
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: cannot write {out}: ")


def test_poa_with_no_verified_instance_exits_2(runner, tmp_path):
    forced = gen_file(runner, tmp_path, "forced.json", "fig4")
    result = invoke(runner, "poa", str(forced))
    assert result.exit_code == 2
    assert "no instance produced a record" in result.stderr


def test_poa_on_a_single_node_instance_exits_0(runner, tmp_path):
    host = validate_and_normalize_host(TemporalGraph(["z"]), ["z"])
    path = tmp_path / "single.json"
    save_instance(
        InstanceFile("single", host, StrategyProfile.empty(Setting.GLOBAL)), path
    )
    result = invoke(runner, "poa", str(path))
    assert result.exit_code == 0, result.output + result.stderr
    assert result.stdout.splitlines()[1] == "single,1,1,0,ne,global,0,0,True,0,1.0"


# -- installed entry point ----------------------------------------------------


def test_console_script_is_installed():
    exe = shutil.which("tempo-ncg")
    assert exe is not None
    proc = subprocess.run(
        [exe, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    for sub in ("gen", "verify", "sweep", "dynamics", "optimum", "poa"):
        assert sub in proc.stdout
