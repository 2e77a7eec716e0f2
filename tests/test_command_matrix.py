"""tools/command_matrix.py: every command named once, one search per objective and group."""

import importlib.util
import pathlib

from quasimix.adversary import OBJECTIVES

_TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "command_matrix.py"


def _command_matrix():
    spec = importlib.util.spec_from_file_location("command_matrix", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
