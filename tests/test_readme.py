"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    # the example prints ENOB and SFDR of a corrected capture
    assert namespace["report"].enob_bits > 13.0
    assert capsys.readouterr().out.strip()
