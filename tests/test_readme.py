"""README's library example runs as written, so the public API it shows
cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name} ## Library", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("[[2. 0.]\n [3. 1.]]\n")
    assert out.endswith("\n20 checks, 0 failed\n")
