"""The synthetic generator: the demo files are pinned, and ``tastes`` scales the network."""

import hashlib
import json

import pytest

from hinstruct import synth

# sha256 of every file of the seed-0 demo dataset (9 tastes); a change to the
# generator that moves any byte of the demo shows here
DEMO_SHA256 = {
    "belongs_to.edges": "d8b60b713a81dfcf29b86659783a2551e15baf1b9c1222fd97c027cba818f364",
    "counts.json": "24060c04fd63600696861b3ea604acac8df1b345e32aae3c626e9255693e8a73",
    "friend.edges": "f0bcb8fab338713e3d0f0ca943faae3401af7ad0ea59e9dee17e40742ae9361f",
    "located_in.edges": "a89e764593109eeb8bcc3657a1ba7a7171bc1c4573b8f54d2e0fb0e8cc846c50",
    "rates.edges": "37dcb7f2b3bec0e5abaf3f660eb7ef2426ebca82397cf7ed1c9b78d327046ffb",
    "ratings.tsv": "5b3a8a2d142202298f2b53eda90a8b6a0e2fc2e0ebc5829c856e55bca1abeccc",
    "schema.json": "0f9c319559daf284d4f5c401edb8e6c0129b628c3390341e537429c6c1cabc22",
}


def digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("tastes", [None, synth.N_TASTES])
def test_demo_files_pinned(tmp_path, tastes):
    extra = {} if tastes is None else {"tastes": tastes}
    synth.generate(tmp_path, seed=0, **extra)
    assert digests(tmp_path) == DEMO_SHA256


def test_tastes_scale_the_network(tmp_path):
    summary = synth.generate(tmp_path, seed=0, tastes=3)
    counts = json.loads((tmp_path / "counts.json").read_text())
    assert counts == {"user": 96, "business": 48, "category": 6, "city": synth.N_CITIES}
    assert summary["nodes"] == 96 + 48 + 6 + synth.N_CITIES
    assert summary["friend_edges"] == 96 * (synth.SUBCLIQUE - 1 + synth.SUBCLIQUE)
    assert summary["positives"] == summary["negatives"] == 96 * 14


def test_too_few_tastes_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="at least 3 tastes"):
        synth.generate(tmp_path / "api", tastes=2)
    with pytest.raises(SystemExit) as exit_info:
        synth.main(["--out", str(tmp_path / "cli"), "--tastes", "2"])
    assert exit_info.value.code == 2
    assert "--tastes must be at least 3" in capsys.readouterr().err
    assert not (tmp_path / "api").exists() and not (tmp_path / "cli").exists()
