"""CLI behavior: exit codes, JSON schemas, determinism, node specs."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from su2branch import verify
from su2branch.branching import Branching
from su2branch.cli import MAX_ORDER, _build_parser, main
from su2branch.invariants import ORACLES


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
    ranged = ("triple oracle", "molien average", "dimension sum rule", "parity vanishing")
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


def test_cli_import_leaves_numpy_out():
    # Every route is pure Python: a cold start pays for no numpy import.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, su2branch.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "False\n")


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
