"""Golden outputs: the exact bytes of the reports on data/, pinned by SHA-256.

Run-to-run equality (test_reports_are_byte_identical_across_runs) cannot
catch a change that alters every run alike; these digests can. The fits
are plain Python float arithmetic, with no BLAS under them. fit_table.txt,
all eight models at two decimals, reads the same on Python 3.10, 3.11 and
3.12 and is pinned, as is turnout's text table, two-sided and one-sided;
fit_table.csv, model_*.json, turnout's JSON, report_correlations.json,
attention_dynamics.json and predict's CSV write every digit, whose last
places change on 3.12, and are not. A digest changes only with an
intended change of output format or content, and then the new digest goes
here with it.
"""

import hashlib

from conftest import DATA_DIR
from wikivote.cli import main

PARTIES = str(DATA_DIR / "demo_parties.csv")
PAGEVIEWS = str(DATA_DIR / "demo_pageviews.csv")
GENERAL = str(DATA_DIR / "demo_general_pages.csv")
TURNOUT = str(DATA_DIR / "demo_turnout.csv")

DIGESTS = {
    "features.csv": "bd9a2e59efa7b986816da6aa45a7fef81006dadf64a40ec8d7b90d6cecda6290",
    "report_shares.csv": "1aeb0d4199da44b8f6ed015e70e3cd778772a7bca6a9c273e6574fd26e18f663",
    "report_scatter.csv": "5a31a0d9d36b3b0a41ea8520aeb817ce5eaa2b2debdace2922a8708b541341a9",
    "attention_series.csv": "8b1634370b14fccc808424576738a23e897fad6f7870abc5ceab384fa75f9023",
    "fit_table.txt": "9b2046cf4817d17639d5979b488d3ef66d04424509b40ee102a06812e2d66902",
    "turnout.txt": "63801076111cf2998978982baf5b3b206760f3120f421ae466afcf9ed61edd7c",
    "turnout_one_sided.txt": "580848c95519ee8b225d805539659f75f1cd345729707887973c5d53aa321e19",
}


def test_outputs_on_data_match_their_digests(tmp_path, capsys):
    feature_args = ["--dataset", PARTIES, "--pageviews", PAGEVIEWS]
    assert main(["features", *feature_args, "--out", str(tmp_path / "features.csv")]) == 0
    assert main(["report", *feature_args, "--output-dir", str(tmp_path)]) == 0
    assert main(["fit", *feature_args, "--output-dir", str(tmp_path)]) == 0
    assert main(["attention", "--pageviews", GENERAL, "--election-date", "2014-05-25",
                 "--output-dir", str(tmp_path)]) == 0
    assert main(["turnout", "--records", TURNOUT, "--out", str(tmp_path / "turnout.txt")]) == 0
    assert main(["turnout", "--records", TURNOUT, "--sides", "one",
                 "--out", str(tmp_path / "turnout_one_sided.txt")]) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DIGESTS}
    assert digests == DIGESTS
