"""Commands other than ingest start without the HTTP client or a thread pool.

Each check runs in a fresh interpreter, since this test process has long since
imported requests itself.
"""

import json
import os
import subprocess
import sys

from conftest import DATA_DIR

SRC = DATA_DIR.parent / "src"
# scipy may serve the tests as an oracle, never the program
NOT_LOADED = ("requests", "urllib3", "concurrent.futures.thread", "scipy")

SCRIPT = """
import json, sys
from wikivote.cli import build_parser, main

not_loaded, data, out = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3]
features = ["--dataset", f"{data}/demo_parties.csv", "--pageviews", f"{data}/demo_pageviews.csv"]
steps = {
    "features": ["features", *features, "--out", f"{out}/features.csv"],
    "fit": ["fit", *features, "--format", "csv", "--output-dir", f"{out}/fit"],
    "report": ["report", *features, "--output-dir", f"{out}/report"],
    "attention": ["attention", "--pageviews", f"{data}/demo_general_pages.csv",
                  "--election-date", "2014-05-25", "--output-dir", f"{out}/attention"],
    "turnout": ["turnout", "--records", f"{data}/demo_turnout.csv", "--out", f"{out}/turnout.txt"],
}
build_parser()
seen = {"build_parser": [0, [name for name in not_loaded if name in sys.modules]]}
for step, argv in steps.items():
    code = main(argv)
    seen[step] = [code, [name for name in not_loaded if name in sys.modules]]
print(json.dumps(seen))
"""


def test_commands_other_than_ingest_load_no_http_client_or_thread_pool(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(NOT_LOADED), str(DATA_DIR), str(tmp_path)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {step: [0, []] for step in
                    ("build_parser", "features", "fit", "report", "attention", "turnout")}

