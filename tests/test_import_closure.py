"""Commands other than ingest start without the HTTP client or a thread pool,
no command needs numpy, and the parser and features load no fitting code.

The steps run in one fresh interpreter, in order, since this test process has
long since imported requests and numpy itself. That interpreter blocks numpy
before it imports wikivote, so any `import numpy` would end a step in an
ImportError.
"""

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
WATCHED = NOT_LOADED + ("numpy",) + FITTING

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


def test_every_command_runs_without_numpy(seen):
    assert {step: "numpy" in names for step, (_, names) in seen.items()} == dict.fromkeys(
        seen, False)


def test_parser_help_usage_errors_and_features_load_no_fitting_code(seen):
    # the steps run in order in one interpreter, and these four come before any fit
    steps = ("build_parser", "help", "usage_error", "features")
    assert {step: [name for name in seen[step][1] if name in FITTING]
            for step in steps} == dict.fromkeys(steps, [])
    assert [name for name in seen["fit"][1] if name in FITTING] == list(FITTING)
