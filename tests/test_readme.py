"""The README's documented library API runs as written against data/."""

import re

from conftest import DATA_DIR

README = DATA_DIR.parent / "README.md"


def test_library_use_snippet_runs(monkeypatch, capsys):
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert match, "README has no Library use python block"
    monkeypatch.chdir(DATA_DIR.parent)  # the snippet reads data/ relative to the repo root
    exec(compile(match.group(1), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert all(len(line.split()) == 2 for line in printed)
