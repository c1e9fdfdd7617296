"""Golden outputs: the exact bytes of the reports on data/, pinned by SHA-256.

Run-to-run equality (test_reports_are_byte_identical_across_runs) cannot
catch a change that alters every run alike; these digests can. The fits
are plain Python float arithmetic, with no BLAS under them, and every float
sum is a math.fsum, which is correctly rounded; test_float_sums_go_through_fsum
keeps that rule. So every output, the full-precision ones included, is
byte-identical on Python 3.10-3.13, and every one is pinned but the
manifests, which name their input paths. test_other_pythons_write_the_same_bytes
runs the same commands under each of Python 3.10, 3.12 and 3.13 it finds, and
skips those it does not. A digest changes only with an intended change of
output format or content, and then the new digest goes here with it.
"""

import ast
import glob
import hashlib
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from conftest import DATA_DIR
from wikivote.cli import main

PARTIES = str(DATA_DIR / "demo_parties.csv")
PAGEVIEWS = str(DATA_DIR / "demo_pageviews.csv")
GENERAL = str(DATA_DIR / "demo_general_pages.csv")
TURNOUT = str(DATA_DIR / "demo_turnout.csv")
SRC_DIR = DATA_DIR.parent / "src"

# the scenario of CI's smoke run: x1 is outside model 2.3's fitted ranges, x2 inside
SCENARIO = ("party_id,news_share,wiki_share,new_party,incumbent\n"
            "x1,20.0,25.0,0,1\nx2,5.5,12.0,1,0\n")

DIGESTS = {
    "features.csv": "bd9a2e59efa7b986816da6aa45a7fef81006dadf64a40ec8d7b90d6cecda6290",
    "report_shares.csv": "1aeb0d4199da44b8f6ed015e70e3cd778772a7bca6a9c273e6574fd26e18f663",
    "report_scatter.csv": "5a31a0d9d36b3b0a41ea8520aeb817ce5eaa2b2debdace2922a8708b541341a9",
    "attention_series.csv": "8b1634370b14fccc808424576738a23e897fad6f7870abc5ceab384fa75f9023",
    "fit_table.txt": "9b2046cf4817d17639d5979b488d3ef66d04424509b40ee102a06812e2d66902",
    "turnout.txt": "63801076111cf2998978982baf5b3b206760f3120f421ae466afcf9ed61edd7c",
    "turnout_one_sided.txt": "580848c95519ee8b225d805539659f75f1cd345729707887973c5d53aa321e19",
    "fit_table.csv": "de9eb9cc230865d6402ba2c9169f4f20541dd4b945978cc76d137c8ada18fcd3",
    "fit_table.json": "d2896f17e72a27a1e93a153cb061b65dc6e52b7aa52b7f2413bfba31b4141e27",
    "model_1.0.json": "c5a8f21fc8714c808f3aea16737bca34a58be1de399c4eef103ccfbf138d8ace",
    "model_1.1.json": "bcdd190891e819f38ac2c4a49b733cd3c3d896dd8d8cda2672f9a57bc5b079d2",
    "model_1.2.json": "68370e07dce62d979201fec1f04a10c4887c089f3aa66d50d7f8c3fe39815377",
    "model_1.3.json": "d0ea0c7eb8ebe17a41968f697ca52ebf18dfd5c321897da8807a5413dad5a45d",
    "model_2.0.json": "6ef78de3c9400e77dc8fb9c53e5c2f5111dfb530d3430499a0121d49a92fc637",
    "model_2.1.json": "cd085365d901233980adaf3c2a0554eb0692f92dc6aee703f7812c8aaa9c6726",
    "model_2.2.json": "5720eae8d9c9a2190c07b6c94cec1868878d4fc47e4ed19f26c005c6e72cdb15",
    "model_2.3.json": "5cc155bf00d03f9d288492996c6640292176c69b35c4d171881f53cb39d6a392",
    "predict.csv": "3f9207f1af30adf6ccf30ca4339749e6865fa88a537f51e0733af04b3941bd81",
    "report_correlations.json": "acecdc322cbc5a4e65f128db20dfdd23978ddd2c0e412b77c5b51deb6c9eff1a",
    "attention_dynamics.json": "53c25bb85e06b4b75298e1a756bec8d368c64e40e4be8ca9edd8770e01bb9790",
    "turnout.json": "8ed0f94901f6ca8e7c1105a9a1efd5773195f1a72006d54d06bc7bf67e1e70b2",
}

# runs the golden commands, given as JSON in argv[1], in an interpreter without pytest
CHILD = """
import json, sys
from wikivote.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"wikivote {' '.join(argv)} failed")
"""


def golden_commands(out: Path) -> list[list[str]]:
    """Write the predict scenario into out, and return the argv of each golden
    command, every one writing its files into out."""
    (out / "scenario.csv").write_text(SCENARIO)
    feature_args = ["--dataset", PARTIES, "--pageviews", PAGEVIEWS]
    fit = ["fit", *feature_args, "--output-dir", str(out)]
    turnout = ["turnout", "--records", TURNOUT]
    return [
        ["features", *feature_args, "--out", str(out / "features.csv")],
        ["report", *feature_args, "--output-dir", str(out)],
        fit,
        [*fit, "--format", "json"],
        [*fit, "--format", "csv"],
        ["predict", *feature_args, "--model", "2.3", "--scenario", str(out / "scenario.csv"),
         "--out", str(out / "predict.csv")],
        ["attention", "--pageviews", GENERAL, "--election-date", "2014-05-25",
         "--output-dir", str(out)],
        [*turnout, "--out", str(out / "turnout.txt")],
        [*turnout, "--sides", "one", "--out", str(out / "turnout_one_sided.txt")],
        [*turnout, "--format", "json", "--out", str(out / "turnout.json")],
    ]


def output_digests(out: Path) -> dict[str, str]:
    """SHA-256 of each file in out but the scenario and the manifest."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())
            if path.name not in ("scenario.csv", "manifest.json")}


def test_outputs_on_data_match_their_digests(tmp_path, capsys):
    for argv in golden_commands(tmp_path):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert output_digests(tmp_path) == DIGESTS


def find_python(version: str) -> str | None:
    """An interpreter of version 3.X that starts: python3.X on PATH, else the
    first of pyenv's versions/3.X*/bin/python. None if neither starts."""
    pyenv = os.path.expanduser(f"~/.pyenv/versions/{version}*/bin/python")
    candidates = [shutil.which(f"python{version}"), *sorted(glob.glob(pyenv))]
    probe = f"import sys; sys.exit(sys.version_info[:2] != {tuple(map(int, version.split('.')))})"
    for path in filter(None, candidates):
        try:
            child = subprocess.run([path, "-c", probe], capture_output=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if child.returncode == 0:
            return path
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_other_pythons_write_the_same_bytes(tmp_path, version):
    python = find_python(version)
    if python is None:
        pytest.skip(f"no Python {version} interpreter starts here")
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR), "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run([python, "-c", CHILD, json.dumps(golden_commands(tmp_path))],
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert output_digests(tmp_path) == DIGESTS


@pytest.mark.parametrize("module", ["stats.py", "forecast.py"])
def test_float_sums_go_through_fsum(module):
    # the built-in sum of floats is compensated from Python 3.12 on and plain before it
    tree = ast.parse((SRC_DIR / "wikivote" / module).read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "sum"]
    assert lines == [], f"{module} calls the built-in sum on lines {lines}"
