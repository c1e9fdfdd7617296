"""Commands other than ingest start without the HTTP client or a thread pool,
and only the commands that fit load numpy.

The steps run in one fresh interpreter, in order, since this test process has
long since imported requests and numpy itself.
"""

import json
import os
import subprocess
import sys

import pytest

from conftest import DATA_DIR

SRC = DATA_DIR.parent / "src"
# scipy may serve the tests as an oracle, never the program
NOT_LOADED = ("requests", "urllib3", "concurrent.futures.thread", "scipy")
WATCHED = NOT_LOADED + ("numpy",)
# the steps before fit compute nothing with numpy; fit loads it, and it stays loaded
WITHOUT_NUMPY = ("build_parser", "help", "usage_error", "features")
WITH_NUMPY = ("fit", "report", "attention", "turnout")

SCRIPT = """
import json, sys
from wikivote.cli import build_parser, main

watched, data, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
features = ["--dataset", f"{data}/demo_parties.csv", "--pageviews", f"{data}/demo_pageviews.csv"]
steps = {
    "help": ["--help"],
    "usage_error": ["predict", *features, "--scenario", f"{out}/absent.csv", "--model", "9.9"],
    "features": ["features", *features, "--out", f"{out}/features.csv"],
    "fit": ["fit", *features, "--format", "csv", "--output-dir", f"{out}/fit"],
    "report": ["report", *features, "--output-dir", f"{out}/report"],
    "attention": ["attention", "--pageviews", f"{data}/demo_general_pages.csv",
                  "--election-date", "2014-05-25", "--output-dir", f"{out}/attention"],
    "turnout": ["turnout", "--records", f"{data}/demo_turnout.csv", "--out", f"{out}/turnout.txt"],
}


def loaded():
    return [name for name in watched if name in sys.modules]


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
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
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
                     "fit": 0, "report": 0, "attention": 0, "turnout": 0}
    assert {step: [name for name in names if name in NOT_LOADED]
            for step, (_, names) in seen.items()} == {step: [] for step in codes}


def test_numpy_loads_only_in_the_commands_that_compute_with_it(seen):
    numpy = {step: "numpy" in names for step, (_, names) in seen.items()}
    assert numpy == {**dict.fromkeys(WITHOUT_NUMPY, False), **dict.fromkeys(WITH_NUMPY, True)}
