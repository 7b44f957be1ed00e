"""The examples run end to end and print their results."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize("name, result", [
    ("quickstart", "R3-DLA:"),
    ("design_space_sweep", "Reboot penalty sensitivity"),
    ("skeleton_inspection", "main-thread IPC:"),
])
def test_example_prints_its_result(capsys, name, result):
    example = runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name=name)
    example["main"]()
    assert result in capsys.readouterr().out
