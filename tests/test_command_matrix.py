"""tools/command_matrix.py: every command named once, one search per objective and group;
tools/float_drift.py: the largest float change and every other token that differs."""

import importlib.util
import pathlib

from quasimix.adversary import OBJECTIVES

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _command_matrix():
    return _tool("command_matrix")


def test_commands_are_unique_and_search_every_objective_once_per_group():
    matrix = _command_matrix()
    commands = list(matrix.commands())
    names = [name for name, _ in commands]
    assert len(set(names)) == len(names)
    searched = [
        (argv[argv.index("--objective") + 1], argv[argv.index("--group") + 1])
        for _, argv in commands
        if argv[0] == "search"
    ]
    expected = [(o, g) for o in OBJECTIVES for g in matrix.SEARCH_GROUPS]
    assert sorted(searched) == sorted(expected)


def test_the_file_command_reads_an_export_written_before_it():
    commands = list(_command_matrix().commands())
    names = [name for name, _ in commands]
    argv = dict(commands)["analyze-file-sl2-7"]
    assert argv[argv.index("--group") + 1] == "file:../export-cayley-sl2-7/table.txt"
    assert names.index("export-cayley-sl2-7") < names.index("analyze-file-sl2-7")


def test_float_drift_pairs_floats_and_lists_other_tokens(tmp_path, capsys):
    drift = _tool("float_drift")
    base, new = tmp_path / "base", tmp_path / "new"
    for root, observed, status in ((base, "0.25", "pass"), (new, "0.2500000001", "fail")):
        (root / "verify-a-5").mkdir(parents=True)
        (root / "verify-a-5" / "report.json").write_text(
            f'{{"observed": {observed}, "bound": 1e-05, "status": "{status}", "trials": 3}}\n')
        (root / "verify-a-5" / "exit_code.txt").write_text("0\n")
    (new / "extra.txt").write_text("x\n")
    assert drift.main([str(base), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"extra.txt: only in {new}"
    assert out[1].startswith(
        "verify-a-5/report.json: 1 floats moved; largest absolute change 1e-10")
    assert "largest relative change 4e-10 (0.25 -> 0.2500000001)" in out[1]
    assert out[2] == "  non-float: 'pass' -> 'fail'"
    assert out[3] == "largest relative change of any float: 4e-10 (verify-a-5/report.json)"
    assert len(out) == 4
