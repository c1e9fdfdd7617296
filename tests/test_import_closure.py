"""Commands other than ingest start without the HTTP client or a thread pool,
no command needs numpy, a process pool or pickle, a demo-size input loads
no two-process parser, the parser and features load no fitting code, and
the standard-library modules that only writing or fetching needs load only
in the commands that write or fetch.

The steps run in fresh interpreters, in order, since this test process has
long since imported requests and numpy itself. The first interpreter blocks
numpy before it imports wikivote, so any `import numpy` would end a step in an
ImportError. The second starts with -S and imports nothing before wikivote:
`site`, and any .pth file of the installation, may load modules of their own.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR

SRC = DATA_DIR.parent / "src"
# scipy and numpy may serve the tests and the benchmark, never the program
NOT_LOADED = ("requests", "urllib3", "concurrent.futures.thread", "scipy")
# the fitting code: only the commands that fit, correlate or predict load it
FITTING = ("wikivote.forecast", "wikivote.stats")
# the two-process page-view parse forks and sends marshalled columns through a pipe: it
# needs no process pool or pickle, and no demo-size file is large enough to load it
NO_PROCESS_POOL = ("wikivote.ingest_split", "multiprocessing", "concurrent.futures.process",
                   "pickle")
WATCHED = NOT_LOADED + ("numpy",) + FITTING + NO_PROCESS_POOL

SCRIPT = """
import json, sys
sys.modules["numpy"] = None  # from here on, `import numpy` raises ImportError
from wikivote.cli import build_parser, main

watched, data, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
features = ["--dataset", f"{data}/demo_parties.csv", "--pageviews", f"{data}/demo_pageviews.csv"]
steps = {
    "help": ["--help"],
    "usage_error": ["predict", *features, "--scenario", f"{out}/absent.csv", "--model", "9.9"],
    "features": ["features", *features, "--out", f"{out}/features.csv"],
    "fit": ["fit", *features, "--format", "csv", "--output-dir", f"{out}/fit"],
    "predict": ["predict", *features, "--model", "2.3", "--scenario", f"{out}/scenario.csv",
                "--out", f"{out}/predict.csv"],
    "report": ["report", *features, "--output-dir", f"{out}/report"],
    "attention": ["attention", "--pageviews", f"{data}/demo_general_pages.csv",
                  "--election-date", "2014-05-25", "--output-dir", f"{out}/attention"],
    "turnout": ["turnout", "--records", f"{data}/demo_turnout.csv", "--out", f"{out}/turnout.txt"],
}


def loaded():
    return [name for name in watched if sys.modules.get(name) is not None]


build_parser()
seen = {"build_parser": [0, loaded()]}
for step, argv in steps.items():
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's exit for --help and usage errors
        code = exc.code
    seen[step] = [code, loaded()]
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    """{step: [exit code, watched modules loaded after it]} from one fresh interpreter."""
    out = tmp_path_factory.mktemp("closure")
    (out / "scenario.csv").write_text(
        "party_id,news_share,wiki_share,new_party,incumbent\nx1,20.0,25.0,0,1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(WATCHED), str(DATA_DIR), str(out)],
        env=env, cwd=out, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_other_than_ingest_load_no_http_client_or_thread_pool(seen):
    codes = {step: code for step, (code, _) in seen.items()}
    assert codes == {"build_parser": 0, "help": 0, "usage_error": 2, "features": 0,
                     "fit": 0, "predict": 0, "report": 0, "attention": 0, "turnout": 0}
    assert {step: [name for name in names if name in NOT_LOADED]
            for step, (_, names) in seen.items()} == {step: [] for step in codes}


def test_no_command_loads_the_split_parser_a_process_pool_or_pickle(seen):
    assert {step: [name for name in names if name in NO_PROCESS_POOL]
            for step, (_, names) in seen.items()} == {step: [] for step in seen}


def test_every_command_runs_without_numpy(seen):
    assert {step: "numpy" in names for step, (_, names) in seen.items()} == dict.fromkeys(
        seen, False)


def test_parser_help_usage_errors_and_features_load_no_fitting_code(seen):
    # the steps run in order in one interpreter, and these four come before any fit
    steps = ("build_parser", "help", "usage_error", "features")
    assert {step: [name for name in seen[step][1] if name in FITTING]
            for step in steps} == dict.fromkeys(steps, [])
    assert [name for name in seen["fit"][1] if name in FITTING] == list(FITTING)


# none loads at start: json and tempfile load to write outputs, urllib.parse to
# fetch, and no record needs dataclasses (with inspect) or typing
DEFERRED = ("dataclasses", "inspect", "typing", "json", "tempfile", "pathlib", "urllib.parse")

BARE_SCRIPT = """
import sys
from wikivote.cli import build_parser, main

deferred, data, out = sys.argv[1].split(","), sys.argv[2], sys.argv[3]
features = ["--dataset", f"{data}/demo_parties.csv", "--pageviews", f"{data}/demo_pageviews.csv"]
steps = {
    "help": ["--help"],
    "usage_error": ["predict", *features, "--scenario", f"{out}/absent.csv", "--model", "9.9"],
    "features": ["features", *features],
    "fit": ["fit", *features, "--output-dir", f"{out}/fit"],
}
build_parser()
seen = {"build_parser": [0, [name for name in deferred if name in sys.modules]]}
for step, argv in steps.items():
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    seen[step] = [code, [name for name in deferred if name in sys.modules]]
print(repr(seen))
"""


def test_bare_start_loads_json_and_tempfile_only_for_a_command_that_writes(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", BARE_SCRIPT, ",".join(DEFERRED), str(DATA_DIR), str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # features writes its table to stdout, so the report is the last line
    seen = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert seen == {"build_parser": [0, []], "help": [0, []], "usage_error": [2, []],
                    "features": [0, []], "fit": [0, ["json", "tempfile"]]}


LARGE_SCRIPT = """
import sys
from wikivote.cli import main

views, out, watched = sys.argv[1], sys.argv[2], sys.argv[3].split(",")
code = main(["attention", "--pageviews", views, "--election-date", "2014-05-25",
             "--output-dir", out])
print(repr([code, [name for name in watched if name in sys.modules]]))
"""


def test_a_file_above_the_split_floor_loads_no_process_pool_or_pickle(tmp_path):
    from datetime import date, timedelta

    from wikivote.ingest import _SPLIT_FLOOR

    days = [date(2014, 1, 1) + timedelta(days=i) for i in range(250)]
    election = date(2014, 5, 25)
    row_bytes = len("aa.wikipedia,Page 0000,2014-01-01,10000\n")
    views = tmp_path / "views.csv"
    with open(views, "w", encoding="utf-8") as handle:
        handle.write("wiki_project,page_title,date,views\n")
        for page in range(_SPLIT_FLOOR // (row_bytes * len(days)) + 10):
            handle.writelines(
                f"aa.wikipedia,Page {page:04d},{day},"
                f"{1000 + int(50000 * 0.9 ** abs((day - election).days))}\n" for day in days)
    assert views.stat().st_size > _SPLIT_FLOOR
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_SCRIPT, str(views), str(tmp_path / "out"),
         ",".join(NO_PROCESS_POOL)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    split = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
             and len(os.sched_getaffinity(0)) >= 2)
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == [
        0, ["wikivote.ingest_split"] if split else []]
