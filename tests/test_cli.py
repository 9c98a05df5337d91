"""CLI behavior: exit codes, JSON schemas, determinism, node specs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from su2branch import binarygroups, branching, rootsys, verify
from su2branch.branching import Branching
from su2branch.cli import MAX_ORDER, MAX_RANK, _build_parser, main
from su2branch.errors import ConsistencyError
from su2branch.invariants import ORACLES
from su2branch.seriescalc import PeriodTable

from conftest import AFFINE_D4, e8_with_a_root_listed_twice, e8_with_doubled_simple_roots

FIXTURES = Path(__file__).with_name("fixtures")

#: stdout, stderr and exit code per command line: every subcommand but
#: verify (pinned in verify_*), in text and --json, on D4 and A1.
CLI_OUTPUTS = json.loads((FIXTURES / "cli_outputs.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "Alt_5   E8" in out
    assert "MISMATCH" not in out
    for fragment in ("E6", "  6   8  12   6", "D5", "A3"):
        assert fragment in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--json")
    rows = json.loads(out)
    assert code == 0
    e7 = next(r for r in rows if r["type"] == "E7")
    assert (e7["a"], e7["b"], e7["h"], e7["g"]) == (8, 12, 18, 9)
    assert e7["convention"] == "v1"


def test_verify_single_type(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A3")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed")
    code, out, _ = run(capsys, "verify", "--type", "D4")
    assert code == 0
    ranged = ("triple oracle", "dimension sum rule")
    details = [line for line in out.splitlines() if any(f"D4 {name} " in line for name in ranged)]
    assert len(details) == len(ranged)
    # every D4 table has period 4, so 2L - 1 = 7
    assert all(line.endswith(" for all n (levels 0..7)") for line in details)


def test_verify_takes_no_order(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--type", "D4", "--order", "20"])
    assert info.value.code == 2
    assert "unrecognized arguments: --order 20" in capsys.readouterr().err


def test_verify_rejects_excluded_type(capsys):
    code, _, err = run(capsys, "verify", "--type", "A4")
    assert code == 2
    assert "usage error" in err


def test_verify_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--type", "D4")
    code2, out2, _ = run(capsys, "verify", "--type", "D4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_branch_json(capsys):
    code, out, _ = run(capsys, "branch", "--type", "E8", "--n", "1", "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["type"] == "E8"
    assert rec["multiplicities"] == [0, 0, 0, 0, 0, 0, 0, 1, 0]


@pytest.mark.parametrize("oracle", ["coxeter", "recursion", "characters"])
def test_branch_oracles_agree(capsys, oracle):
    # frozen from the tensor recursion; dimension sum 3 + 2 + 2*4 = 13
    code, out, _ = run(capsys, "branch", "--type", "D5", "--n", "12", "--json", "--oracle", oracle)
    assert code == 0
    assert json.loads(out)["multiplicities"] == [3, 2, 0, 4, 0, 0]


def test_a1_branch_agrees_across_oracles(capsys):
    # A1 is accepted but not swept: F* = {+-1}, and -1 acts as -1 on pi_5
    answers = []
    for oracle in ORACLES:
        argv = ["branch", "--type", "A1", "--n", "5", "--json", "--oracle", oracle]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        answers.append(json.loads(out)["multiplicities"])
    assert answers == [[0, 6]] * len(ORACLES)


def test_zpoly_all_json(capsys):
    code, out, _ = run(capsys, "zpoly", "--type", "E8", "--all", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 9
    by_node = {r["node"]: r for r in records}
    assert by_node[7]["coeffs"] == [0, 1] + [0] * 9 + [1] + [0] * 7 + [1] + [0] * 9 + [1]
    assert by_node[7]["mark"] == 2
    assert by_node[7]["distance"] == 0
    assert all(r["convention"] == "v1" for r in records)


def test_zpoly_node_spec_pair(capsys):
    _, out_pair, _ = run(capsys, "zpoly", "--type", "E8", "--node", "2,0", "--json")
    _, out_idx, _ = run(capsys, "zpoly", "--type", "E8", "--node", "7", "--json")
    assert json.loads(out_pair) == json.loads(out_idx)


def test_zpoly_requires_node_or_all(capsys):
    code, _, err = run(capsys, "zpoly", "--type", "E8")
    assert code == 2
    assert "usage error" in err


def test_series(capsys):
    code, out, _ = run(capsys, "series", "--type", "A3", "--node", "0", "--order", "8")
    assert code == 0
    assert out.splitlines()[-1] == "1 0 1 0 3 0 3 0 5"


def test_series_json_schema(capsys):
    code, out, _ = run(capsys, "series", "--type", "A3", "--node", "0", "--order", "8", "--json")
    rec = json.loads(out)
    assert code == 0
    assert set(rec) == {"type", "convention", "node", "mark", "distance", "coeffs"}
    assert rec["coeffs"] == [1, 0, 1, 0, 3, 0, 3, 0, 5]


def test_orbits_json(capsys):
    code, out, _ = run(capsys, "orbits", "--type", "A3", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 6
    assert all(set(r) == {"type", "convention", "root", "orbit", "k", "n"} for r in records)
    psi = next(r for r in records if r["root"] == [1, 1, 1])
    assert psi["orbit"] == 2 and psi["k"] == 2 and psi["n"] == 2


def test_mckay_json(capsys):
    code, out, _ = run(capsys, "mckay", "--type", "A3", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["marks"] == [1, 1, 1, 1]
    degrees = [sum(row) for row in rec["adjacency"]]
    assert degrees == [2, 2, 2, 2]


def test_group_json(capsys):
    code, out, _ = run(capsys, "group", "--type", "E6", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["order"] == 24
    assert sorted(rec["character_dims"]) == [1, 1, 1, 2, 2, 2, 3]
    assert sum(rec["class_sizes"]) == 24


def test_group_a1(capsys):
    code, out, _ = run(capsys, "group", "--type", "A1", "--json")
    rec = json.loads(out)
    assert code == 0
    assert rec["order"] == 2
    assert rec["character_dims"] == [1, 1]


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "marks.json"
    code, out, _ = run(capsys, "mckay", "--type", "E8", "--json", "--out", str(path))
    assert code == 0
    assert out == ""
    rec = json.loads(path.read_text())
    assert sum(rec["marks"]) == 30


def test_bad_type_exits_2(capsys):
    code, _, err = run(capsys, "orbits", "--type", "Q3")
    assert code == 2
    assert "usage error" in err


def test_a_construction_fault_exits_1(monkeypatch, capsys):
    # A failed build is an internal check failure, not a usage error.
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda dtype: AFFINE_D4)
    code, out, err = run(capsys, "branch", "--type", "D5", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "internal check failure: (1, 3, 1, 1, 1) is not a root of D5\n"


def test_a_missing_generator_root_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(binarygroups, "_sqrt_mod", lambda *args: None)
    code, out, err = run(capsys, "group", "--type", "E8")
    assert (code, out) == (1, "")
    assert err.startswith("internal check failure: E8: -1 has no square root mod ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_a_table_row_without_the_identity_exits_1(monkeypatch, capsys):
    # A singular generator closes to {identity, zero matrix}, and the zero
    # matrix's row of the table has no identity: the inverse search inside
    # build_group is an internal check failure, on one line, not a usage error.
    monkeypatch.setattr(binarygroups, "generators", lambda dtype, p, z: ((0, 0, 0, 0),))
    code, out, err = run(capsys, "group", "--type", "E8")
    assert (code, out) == (1, "")
    assert err == "internal check failure: E8: a row of the table has no identity\n"
    with pytest.raises(ConsistencyError) as info:
        binarygroups.build_group("E8", Branching.build("E8").params)
    assert (info.value.dtype, info.value.stage) == ("E8", "build_group")


def test_a_root_listed_twice_exits_1(monkeypatch, capsys):
    bad = e8_with_a_root_listed_twice()
    monkeypatch.setattr(branching, "build_root_system", lambda dtype: bad)
    code, out, err = run(capsys, "branch", "--type", "E8", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "internal check failure: (1, 2, 3, 2, 1, 1, 1, 2) is listed twice among the roots of E8\n"


def test_a_signed_simple_root_off_the_root_set_exits_1_naming_orbit_table(monkeypatch, capsys):
    # beta_i = +-2 alpha_i: a failed lookup inside a build stage is an internal
    # check failure that names the stage, not a usage error.
    bad = e8_with_doubled_simple_roots()
    monkeypatch.setattr(branching, "build_root_system", lambda dtype: bad)
    code, out, err = run(capsys, "branch", "--type", "E8", "--n", "3")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"internal check failure: orbit_table: \(-?2, 0(, 0)*\) is not a root of E8\n", err)


#: A build stage per command, patched to fail as a fault in the program would.
STAGES = {
    "branch": (branching, "heisenberg_subsystem", ("branch", "--type", "E8", "--n", "3")),
    "group": (binarygroups, "build_group", ("group", "--type", "E8")),
}


#: Faults by the exception they raise.
FAULTS = {"KeyError": lambda: {}[8], "ValueError": lambda: int("x"), "ZeroDivisionError": lambda: 1 // 0}


@pytest.mark.parametrize("name", FAULTS)
@pytest.mark.parametrize("command", STAGES)
def test_a_fault_in_a_build_stage_exits_1_on_one_line(monkeypatch, capsys, command, name):
    # Only bad input is a usage error: any other exception, a ValueError too,
    # is an internal check failure that names its type, with no traceback.
    module, stage, argv = STAGES[command]
    monkeypatch.setattr(module, stage, lambda *args: FAULTS[name]())
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"internal check failure: {name}: ") and err.count("\n") == 1


def test_bad_node_exits_2(capsys):
    code, _, err = run(capsys, "series", "--type", "A3", "--node", "17")
    assert code == 2
    assert "usage error" in err


def test_series_negative_order_exits_2(capsys):
    code, out, err = run(capsys, "series", "--type", "A3", "--node", "0", "--order", "-3")
    assert code == 2
    assert out == ""
    assert "usage error" in err


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 10**8])
@pytest.mark.parametrize("argv", [["series", "--type", "E8", "--node", "0"]])
def test_order_above_the_limit_exits_2_at_once(monkeypatch, capsys, argv, order):
    def boom(dtype):
        raise AssertionError("built a type for an order above the limit")

    monkeypatch.setattr(Branching, "build", boom)
    code, out, err = run(capsys, *argv, "--order", str(order))
    assert code == 2
    assert out == ""
    assert err == f"usage error: order {order} exceeds the limit 1000000\n"


def test_order_at_the_limit_is_accepted(monkeypatch, capsys):
    seen, series = [], Branching.series

    def shallow(self, node, order):  # the build's own expansions stay real
        return series(self, node, order) if order < MAX_ORDER else seen.append(order) or ()

    monkeypatch.setattr(Branching, "series", shallow)
    code, _, err = run(capsys, "series", "--type", "A3", "--node", "0", "--order", str(MAX_ORDER))
    assert (code, err, seen) == (0, "", [MAX_ORDER])


def test_out_to_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "marks.json"
    code, out, err = run(capsys, "mckay", "--type", "A3", "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_out_write_failure_exits_2(capsys):
    code, out, err = run(capsys, "mckay", "--type", "A3", "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err == "usage error: cannot write --out /dev/full: No space left on device\n"


def test_out_with_a_nul_byte_exits_2(capsys):
    code, out, err = run(capsys, "table", "--out", "a\x00b")
    assert (code, out) == (2, "")
    assert err == "usage error: cannot write --out 'a\\x00b': embedded null byte\n"


def test_a_route_table_built_at_a_negative_order_exits_1_on_one_line(monkeypatch, capsys):
    # The routes build their period tables at orders of their own: a negative
    # one is a fault of the program, not bad input, so it exits 1, not 2.
    real = binarygroups._period_table

    def faulty(*args):
        table = real(*args)
        return PeriodTable(table.base, table.step, -1, table.packed, table.bound)

    monkeypatch.setattr(binarygroups, "_period_table", faulty)
    code, out, err = run(capsys, "branch", "--type", "E8", "--n", "3", "--oracle", "characters")
    assert (code, out) == (1, "")
    assert err == "internal check failure: ValueError: order must be nonnegative\n"


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_with_stdout(stdout, *argv):
    # Block-buffered stdout, as in a plain shell, so a write can fail at a flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    cmd = [sys.executable, "-m", "su2branch", *argv]
    return subprocess.run(cmd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_stdout_to_a_closed_pipe_exits_2_with_one_line():
    # As `su2branch table | true`: the reader is gone before the first write.
    # The message is the only stderr line: no traceback, and nothing from
    # the flush at interpreter exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = _run_with_stdout(write_end, "table")
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (2, "usage error: cannot write output: Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_stdout_write_failure_exits_2_with_one_line(fmt):
    with open("/dev/full", "w") as full:
        out = _run_with_stdout(full, "branch", "--type", "A3", "--n", "2", *fmt)
    expected = "usage error: cannot write output: No space left on device\n"
    assert (out.returncode, out.stderr) == (2, expected)


@pytest.mark.parametrize("command", sorted(CLI_OUTPUTS))
def test_output_matches_fixture(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert {"stdout": out, "stderr": err, "exit": code} == CLI_OUTPUTS[command]


def _forbid_work(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    monkeypatch.setattr(Branching, "build", boom)
    monkeypatch.setattr(verify, "run_all", boom)


def test_branch_negative_n_exits_2_before_build(monkeypatch, capsys):
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, "branch", "--type", "E8", "--n", "-1")
    assert code == 2
    assert out == ""
    assert err == "usage error: --n must be nonnegative\n"


@pytest.mark.parametrize(
    "argv,problem",
    [
        (["zpoly", "--type", "E8", "--node", "3", "--all"], "zpoly takes --node or --all, not both"),
        (["zpoly", "--type", "E8"], "zpoly requires --node or --all"),
        (["series", "--type", "E8"], "series requires --node"),
        (["series", "--type", "E8", "--node", "3", "--order", "-1"], "order must be nonnegative"),
    ],
    ids=["zpoly-both", "zpoly-neither", "series-no-node", "series-negative-order"],
)
def test_node_and_order_errors_exit_2_before_build(monkeypatch, capsys, argv, problem):
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"usage error: {problem}\n")


#: Every subcommand that takes ``--type``, with the other arguments it needs.
TYPED_COMMANDS = pytest.mark.parametrize(
    "command",
    [["verify"], ["branch", "--n", "1"], ["zpoly", "--all"], ["series", "--node", "0"],
     ["orbits"], ["mckay"], ["group"]],
    ids=lambda argv: argv[0],
)


@pytest.mark.parametrize("dtype", [f"D{MAX_RANK + 1}", f"A{MAX_RANK + 2}", "A100001"])
@TYPED_COMMANDS
def test_rank_above_the_limit_exits_2_before_build(monkeypatch, capsys, command, dtype):
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, *command, "--type", dtype)
    assert (code, out, err) == (2, "", f"usage error: type {dtype} exceeds the rank limit 71\n")


@pytest.mark.parametrize("dtype", ["A" + "9" * 5000, "E" + "0" * 5000], ids=["A9x5000", "E0x5000"])
@TYPED_COMMANDS
def test_a_rank_with_more_digits_than_int_reads_exits_2(monkeypatch, capsys, command, dtype):
    # int() refuses more than 4300 digits with a ValueError; the parse turns
    # it into its own one-line message.
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, *command, "--type", dtype)
    assert (code, out) == (2, "")
    assert err == f"usage error: cannot parse diagram type {dtype!r} (expected e.g. 'A7', 'D5', 'E8')\n"


@TYPED_COMMANDS
def test_empty_type_exits_2_before_build(monkeypatch, capsys, command):
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, *command, "--type", "")
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_rank_at_the_limit_is_accepted(capsys):
    assert MAX_RANK % 2 == 1  # so A and D both reach it
    code, out, _ = run(capsys, "branch", "--type", f"A{MAX_RANK}", "--n", "1")
    assert code == 0 and out.startswith(f"A{MAX_RANK}  n = 1")


#: One command line per subcommand, for the up-front ``--out`` checks.
EVERY_SUBCOMMAND = pytest.mark.parametrize(
    "argv",
    [
        ["table"],
        ["verify"],
        ["branch", "--type", "E8", "--n", "5"],
        ["zpoly", "--type", "E8", "--all"],
        ["series", "--type", "A3", "--node", "0"],
        ["orbits", "--type", "A3"],
        ["mckay", "--type", "A3"],
        ["group", "--type", "E6"],
    ],
    ids=lambda argv: argv[0],
)


@EVERY_SUBCOMMAND
def test_out_to_missing_directory_exits_2_before_work(tmp_path, monkeypatch, capsys, argv):
    _forbid_work(monkeypatch)
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error") and err.count("\n") == 1
    assert not path.parent.exists()


@EVERY_SUBCOMMAND
def test_out_to_existing_directory_exits_2_before_work(tmp_path, monkeypatch, capsys, argv):
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"usage error: cannot write --out {tmp_path}: it is a directory\n"
    assert not any(tmp_path.iterdir())


@EVERY_SUBCOMMAND
def test_empty_out_exits_2_before_work(monkeypatch, capsys, argv):
    _forbid_work(monkeypatch)
    code, out, err = run(capsys, *argv, "--out", "")
    assert code == 2
    assert out == ""
    assert err == "usage error: cannot write --out '': the path is empty\n"


def test_cli_import_leaves_numpy_out():
    # Every route is pure Python: a cold start pays for no numpy import.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, su2branch.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # The records are plain classes and NamedTuples, so a cold start neither
    # imports dataclasses (which pulls in inspect) nor runs its decorators.
    # -S keeps site's own imports out of the count.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, su2branch.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["branch", "--type", "E8", "--n", "17"], []),
        (["branch", "--type", "E8", "--n", "17", "--oracle", "recursion"], []),
        (["mckay", "--type", "A3"], []),
        (["branch", "--type", "E8", "--n", "17", "--oracle", "characters", "--json"],
         ["json", "su2branch.binarygroups"]),
        (["group", "--type", "E6"], ["su2branch.binarygroups"]),
        (["group", "--type", "E6", "--json"], ["json", "su2branch.binarygroups"]),
    ],
)
def test_only_the_group_routes_load_binarygroups_and_only_json_output_loads_json(argv, loaded):
    # The paper's route needs no group: binarygroups (a quarter of what a
    # start compiles) is loaded by the first Branching.group or
    # Branching.character_table, and json by --json.  -S
    # keeps site's own imports out.
    env = {**os.environ, "PYTHONPATH": SRC}
    code = (
        "import sys, su2branch\n"
        f"if {argv!r}:\n"
        "    from su2branch.cli import main\n"
        f"    assert main({argv!r}) == 0\n"
        "print(sorted({'json', 'su2branch.binarygroups'} & set(sys.modules)), file=sys.stderr)\n"
    )
    cmd = [sys.executable, "-S", "-c", code]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, f"{loaded}\n")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], False),
        (["branch", "--type", "E8", "--n", "17"], False),
        (["mckay", "--type", "A3"], False),
        (["group", "--type", "E6"], False),
        (["table"], True),
    ],
)
def test_only_table_and_verify_load_verify(argv, loaded):
    # The package and the cli name verify's exports without importing it;
    # group names its rotation group from cli itself.
    env = {**os.environ, "PYTHONPATH": SRC}
    code = (
        "import sys, su2branch\n"
        f"if {argv!r}:\n"
        "    from su2branch.cli import main\n"
        f"    assert main({argv!r}) == 0\n"
        "print('su2branch.verify' in sys.modules, file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, f"{loaded}\n")


def test_the_package_loads_verify_at_the_first_use_of_its_names():
    env = {**os.environ, "PYTHONPATH": SRC}
    code = (
        "import sys, su2branch\n"
        "assert 'su2branch.verify' not in sys.modules\n"
        "from su2branch import ACCEPTED_TYPES, run_all, run_type_checks\n"
        "from su2branch.verify import run_all as direct\n"
        "assert run_all is direct and len(ACCEPTED_TYPES) == 18\n"
        "try:\n"
        "    su2branch.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "module 'su2branch' has no attribute 'no_such_name'\n")


def test_readme_cli_synopsis_parses():
    # Every line of README's CLI block, with its optional [...] flags in and
    # the first of each a|b|c choice, must parse: no flag it shows is stale.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^## CLI\n\n```sh\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    parser = _build_parser()
    for line in block.splitlines():
        words = re.sub(r"[\[\]]", " ", line.split("#")[0]).split()
        assert words[0] == "su2branch", line
        argv = [word.split("|")[0] for word in words[1:]]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's CLI block shows {line.strip()!r}, which the parser rejects")


def test_readme_python_examples_run():
    # README's python blocks, run in order in one namespace as one session
    # would run them, must work unchanged; a line marked "# True" must be.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            if comment.strip() == "True":
                assert eval(code, namespace), line
