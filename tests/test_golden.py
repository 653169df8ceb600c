"""Bitwise output contract: metrics.csv for every shipped preset, protocol
and baseline, at seed 1 and 300 rounds. A refactor that changes any byte of
these files changes behaviour; regenerate the hashes only for an intended
behaviour change, and say so in the change log."""

import hashlib

import pytest

from ternary_consensus.cli import main

GOLDEN = {
    ("fig1-complete", False): "564218f4c8ef42193a518a96b4e79dcadaf72fba4471b141c2bbf39985d30178",
    ("fig1-complete", True): "aac92107ad87d9d01d7e8e4ebcd77a9967e62e49ce8f6c3c47878d895aa6980f",
    ("fig1-line", False): "23cf363efeffcf6fad1765787fe696a17a2ba39dc34497e15a4e15a7fdae3569",
    ("fig1-line", True): "eb7b37a3cadd2226295c281d96fa6ff9fe8fc9c3f61d682a0c1dba806dea5477",
    ("fig2-sweep", False): "b3299478531bb86ea8d0192fbb415f727cd0c57fc6d521b74e81b95c8ebe2377",
    ("fig2-sweep", True): "8c8543468e9cc6c4578c3b2cb98e134611c181d310bcadf16b80b5530d1a64f5",
    ("fig3-varying", False): "947ae17a375d42a52a6d9d26b4fadcfe009edc2ddeb3a29c6310b36463bc4ad3",
    ("fig3-varying", True): "f136f43431a9f8db7497b4844136deec8acad81c14f8ad0dba88b133d4172407",
    ("theorem-a025-b050", False): "4852d3062f6ff536bbb40d627779fde76acc81dd45fc4fe0bd06e247301967bb",
    ("theorem-a025-b050", True): "aaebbc4a4959717b933484f53332e49a530247139996a5071efe1c58bb6f878b",
    ("theorem-a075-b0875", False): "af4ef965159a52f3428da3fea6ac7803738f118a892808f7ae9b27b974133a45",
    ("theorem-a075-b0875", True): "aaebbc4a4959717b933484f53332e49a530247139996a5071efe1c58bb6f878b",
}


@pytest.mark.parametrize(
    "preset,baseline",
    sorted(GOLDEN),
    ids=[f"{p}{'-baseline' if b else ''}" for p, b in sorted(GOLDEN)],
)
def test_metrics_csv_bytes(preset, baseline, tmp_path):
    argv = [
        "run", "--config", preset, "--seed", "1", "--t-max", "300",
        "--out", str(tmp_path), "--quiet",
    ]
    assert main(argv + ["--baseline"] if baseline else argv) == 0
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[preset, baseline]
