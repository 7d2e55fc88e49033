"""Workload inputs: the pinned demo dataset, renumbered by the seed, and a config.

Both workloads search the ROADMAP's demo network, ``hinstruct.synth`` with
synth seed 0. The benchmark seed renumbers it: the ids of each node type but
``business`` are rotated by an offset drawn from a generator seeded with it,
and every file keeps its line order, so the program reads a different but
isomorphic network, draws the same splits and scores every structure the
same. Business ids stay because the node-classification split orders them by
id. Seed 0 is the identity and reproduces the demo files byte for byte.

Two other ways to vary the input were measured and rejected, because they
change how much work the search does rather than which ids it sees. The synth
seed changes the trajectory: synth seeds 0, 1 and 2 end with pools of 129, 50
and 95 structures. A random permutation of the ids breaks the sorted runs the
sparse products' sorts exploit: the demo search took 58-65 s, against 46-53 s
with rotated ids, and its memory peak moved by 8% from seed to seed, against 4%.

``cls-slow-agent`` adds ``labels.tsv``: each business labelled by its taste
group, ``hinstruct.synth``'s ground truth, so 9 classes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fake_chat import MODEL
from hinstruct import synth

SYNTH_SEED = 0
FIXED_TYPE = "business"


def _renumber(data_dir: Path, seed: int):
    """Rotate the ids of every node type but FIXED_TYPE, in every file."""
    schema = json.loads((data_dir / "schema.json").read_text(encoding="utf-8"))
    counts = json.loads((data_dir / "counts.json").read_text(encoding="utf-8"))
    rng = np.random.default_rng(seed)
    new_id = {}
    for t in schema["node_types"]:
        ids = np.arange(counts[t["name"]])
        new_id[t["id"]] = ids if t["name"] == FIXED_TYPE else np.roll(ids, rng.integers(ids.size))
    type_id = {t["name"]: t["id"] for t in schema["node_types"]}
    columns = {f"{et['name']}.edges": (et["src"], et["dst"]) for et in schema["edge_types"]}
    columns["ratings.tsv"] = (type_id["user"], type_id["business"], None)  # None: the rating
    for name, types in columns.items():
        path = data_dir / name
        if not path.is_file():
            continue
        lines = [
            "\t".join(f if t is None else str(new_id[t][int(f)]) for f, t in zip(line.split("\t"), types))
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def make_inputs(work: Path, workload: str, seed: int, generations: int, chat_url=None) -> Path:
    """Write the dataset and a search config under ``work``; return the config path."""
    data_dir = work / "data"
    synth.generate(data_dir, seed=SYNTH_SEED)
    if seed:
        _renumber(data_dir, seed)
    config_path = work / "config.json"
    if workload == "rec-demo":
        synth.write_demo_config(config_path, data_dir, work / "out", seed=SYNTH_SEED,
                                generations=generations)
        return config_path

    (data_dir / "labels.tsv").write_text(
        "".join(f"{b}\t{b // synth.BIZ_PER_TASTE}\n" for b in range(synth.N_BIZ)), encoding="utf-8"
    )
    config = {
        "dataset_dir": str(data_dir),
        "task": {"kind": "classification", "target_type": "business"},
        "backend": {"kind": "http", "url": chat_url, "model": MODEL, "timeout": 30},
        "output_dir": str(work / "out"),
        "search": {"seed": SYNTH_SEED, "generations": generations},
    }
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path
