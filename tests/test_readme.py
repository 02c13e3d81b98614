"""The README's library example runs as written, and its JSON samples are
copied verbatim from the files under tests/golden."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_json_samples_are_verbatim_golden_output():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    golden_dir = README.parent / "tests" / "golden"
    goldens = [path.read_text(encoding="utf-8") for path in golden_dir.iterdir()]
    assert len(blocks) >= 2
    for block in blocks:  # the newline before a closing fence is the fence's
        assert any(block[:-1] in golden for golden in goldens), block
