"""The README's documented library API runs as written against data/, and
data/ is what the README says generated it."""

import re
import subprocess
import sys

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


def test_demo_data_regenerates_byte_for_byte(tmp_path):
    # the README: the fixtures come from scripts/generate_demo_data.py and a fixed seed
    script = DATA_DIR.parent / "scripts" / "generate_demo_data.py"
    subprocess.run([sys.executable, str(script), "--out-dir", str(tmp_path)], check=True,
                   capture_output=True, timeout=60)
    names = ["demo_general_pages.csv", "demo_pageviews.csv", "demo_parties.csv",
             "demo_turnout.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name
