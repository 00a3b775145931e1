"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = [float(line) for line in capsys.readouterr().out.split()]
    # The unmodified frame, then SLM and PTS, each never worse than it.
    assert len(printed) == 3
    assert printed[1] <= printed[0] and printed[2] <= printed[0]
