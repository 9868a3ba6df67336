"""The README's library quickstart runs as written against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs_and_recovers_the_driving_cell(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    cell, residual = capsys.readouterr().out.split()
    assert cell == "34"
    assert 0.0 < float(residual) < 1e-2
