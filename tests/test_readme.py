"""README's Library example runs as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
