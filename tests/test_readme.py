"""The README's quick example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    assert len(names["runs"].posteriors) == 100
    steps = names["pattern"].step_count()
    assert names["one"].outcomes.tolist() == [[0] * steps]
    assert names["k"] in range(9)
