"""README's library examples run as written, so the public API they show
cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    # every block of the section, in order and in one namespace, as a reader
    # who pastes them one after another would run them
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 2
    namespace = {}
    outs = []
    for i, code in enumerate(blocks, 1):
        exec(compile(code, f"{README.name} ## Library, block {i}", "exec"), namespace)
        outs.append(capsys.readouterr().out)
    assert outs[0].startswith("[[2. 0.]\n [3. 1.]]\n")
    assert outs[0].endswith("\n19 checks, 0 failed\n")
    assert float(outs[1]) < 1e-8
