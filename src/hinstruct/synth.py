"""Synthetic review-network generator with a planted two-path structure.

The generated network hides one ground-truth pattern connecting a user to
the businesses they prefer: a friend rates the business, and that friend
shares a rated business with the user (social endorsement backed by taste
overlap). Preference labels are constructed so that

* the two conditions together separate positives from negatives perfectly at
  the connectivity level,
* each condition alone is defeated by a dedicated family of confuser
  negatives (socially-reachable cross-taste pairs, and same-taste pairs only
  the *other* friendship clique rates),
* witnesses are redundant enough that reserving a random half of the
  preference pairs for network construction leaves every surviving split
  pair connected.

Users come in "tastes"; each taste splits into two friendship cliques, and
cross-taste friendships point one taste forward around a directed ring,
which keeps two-hop friendship from leaking back into the home taste.

Run ``python -m hinstruct.synth --out DIR`` to write a dataset directory;
``--tastes N`` scales it (the demo has 9 tastes: 288 users, 144 businesses).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .hin import Schema, schema_from_dict
from .structure import MetaStructure

N_TASTES = 9  # the demo's size; ``generate(tastes=...)`` scales the network
# with fewer, every business is of the user's own or forward taste, so no
# random negatives exist, and two-hop friendship leaks back home
MIN_TASTES = 3
SUBCLIQUE = 16  # users per friendship clique, two cliques per taste
CATS_PER_TASTE = 2
SHARED_PER_CAT = 6  # plus one exclusive business per clique per category
N_CITIES = 10
TYPE_A_NEGS_PER_USER = 4  # friend-reachable, wrong taste
TYPE_B_NEGS_PER_USER = 2  # right taste, socially isolated (other clique's exclusives)

USERS_PER_TASTE = 2 * SUBCLIQUE
BIZ_PER_CAT = SHARED_PER_CAT + 2
BIZ_PER_TASTE = CATS_PER_TASTE * BIZ_PER_CAT
N_BIZ = N_TASTES * BIZ_PER_TASTE  # the demo's businesses


def toy_schema() -> Schema:
    return schema_from_dict(
        {
            "node_types": [
                {"id": 0, "name": "user", "noun": "User"},
                {"id": 1, "name": "business", "noun": "Business"},
                {"id": 2, "name": "category", "noun": "Category"},
                {"id": 3, "name": "city", "noun": "City"},
            ],
            "edge_types": [
                {"id": 0, "name": "rates", "src": 0, "dst": 1, "verb": "rates", "inverse": 1},
                {"id": 1, "name": "rated_by", "src": 1, "dst": 0, "verb": "is rated by", "inverse": 0},
                {"id": 2, "name": "friend", "src": 0, "dst": 0, "verb": "is friend of", "inverse": 2},
                {"id": 3, "name": "belongs_to", "src": 1, "dst": 2, "verb": "belongs to", "inverse": 4},
                {"id": 4, "name": "contains", "src": 2, "dst": 1, "verb": "contains", "inverse": 3},
                {"id": 5, "name": "located_in", "src": 1, "dst": 3, "verb": "is located in", "inverse": 6},
                {"id": 6, "name": "hosts", "src": 3, "dst": 1, "verb": "hosts", "inverse": 5},
            ],
        }
    )


def planted_structure() -> MetaStructure:
    """The hidden pattern: an endorsing friend who provably shares taste.

    Decomposes into two paths: User-friend-User-rates-Business, and
    User-rates-Business-rated_by-User-rates-Business through the same friend.
    """
    return MetaStructure(
        nodes=(0, 0, 1, 1),  # user, friend, shared business, target business
        edges=(
            (0, 1, 2),  # user is friend of friend
            (1, 3, 0),  # friend rates target
            (0, 2, 0),  # user rates a business ...
            (2, 1, 1),  # ... that the friend also rates
        ),
        source=0,
        target=3,
    )


def _user_id(taste, clique, j):
    return taste * USERS_PER_TASTE + clique * SUBCLIQUE + j

def _biz_id(taste, cat, k):
    return taste * BIZ_PER_TASTE + cat * BIZ_PER_CAT + k

def _biz_taste(biz):
    return biz // BIZ_PER_TASTE


def generate(out_dir, seed: int = 0, tastes: int = N_TASTES) -> dict:
    """Write a dataset directory of ``tastes`` taste groups; returns summary counts."""
    if tastes < MIN_TASTES:
        raise ValueError(f"the network needs at least {MIN_TASTES} tastes, not {tastes}")
    n_users, n_biz = tastes * USERS_PER_TASTE, tastes * BIZ_PER_TASTE
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = toy_schema()

    # each clique is a full friendship clique, plus every member befriends the
    # whole same-index clique one taste forward (directed, so two-hop
    # friendship never leaks back into the home taste)
    friend_edges = []
    for taste in range(tastes):
        for clique in range(2):
            members = [_user_id(taste, clique, j) for j in range(SUBCLIQUE)]
            partner = [_user_id((taste + 1) % tastes, clique, j) for j in range(SUBCLIQUE)]
            for a in members:
                for b in members:
                    if a != b:
                        friend_edges.append((a, b))
                for b in partner:
                    friend_edges.append((a, b))

    belongs_edges = []
    for taste in range(tastes):
        for cat in range(CATS_PER_TASTE):
            cat_id = taste * CATS_PER_TASTE + cat
            for k in range(BIZ_PER_CAT):
                belongs_edges.append((_biz_id(taste, cat, k), cat_id))

    located_edges = [(b, int(rng.integers(N_CITIES))) for b in range(n_biz)]

    # preference pairs: clique members like the shared businesses plus their
    # clique's exclusive one, in every category of their own taste
    positives = set()
    for taste in range(tastes):
        for clique in range(2):
            liked = [
                _biz_id(taste, cat, k)
                for cat in range(CATS_PER_TASTE)
                for k in [clique] + list(range(2, BIZ_PER_CAT))
            ]
            for j in range(SUBCLIQUE):
                u = _user_id(taste, clique, j)
                for b in liked:
                    positives.add((u, b))

    negatives = set()
    for taste in range(tastes):
        partner = (taste + 1) % tastes
        for clique in range(2):
            # what the befriended forward clique likes: the type-A confusers
            partner_liked = [
                _biz_id(partner, cat, k)
                for cat in range(CATS_PER_TASTE)
                for k in [clique] + list(range(2, BIZ_PER_CAT))
            ]
            for j in range(SUBCLIQUE):
                u = _user_id(taste, clique, j)
                for cat in range(CATS_PER_TASTE):
                    negatives.add((u, _biz_id(taste, cat, 1 - clique)))
                for idx in rng.choice(
                    len(partner_liked), size=TYPE_A_NEGS_PER_USER, replace=False
                ):
                    negatives.add((u, partner_liked[idx]))

    target_negs = len(positives)
    while len(negatives) < target_negs:
        u = int(rng.integers(n_users))
        b = int(rng.integers(n_biz))
        taste = u // USERS_PER_TASTE
        if _biz_taste(b) in (taste, (taste + 1) % tastes):
            continue
        if (u, b) in positives or (u, b) in negatives:
            continue
        negatives.add((u, b))

    ratings = [(u, b, 3) for u, b in sorted(positives)]
    ratings += [(u, b, 1) for u, b in sorted(negatives)]
    ratings.sort()

    counts = {"user": n_users, "business": n_biz, "category": tastes * CATS_PER_TASTE, "city": N_CITIES}
    (out_dir / "schema.json").write_text(
        json.dumps(schema.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "counts.json").write_text(
        json.dumps(counts, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _write_edges(out_dir / "rates.edges", sorted({(u, b) for u, b, _ in ratings}))
    _write_edges(out_dir / "friend.edges", sorted(set(friend_edges)))
    _write_edges(out_dir / "belongs_to.edges", belongs_edges)
    _write_edges(out_dir / "located_in.edges", located_edges)
    with (out_dir / "ratings.tsv").open("w", encoding="utf-8") as fh:
        for u, b, r in ratings:
            fh.write(f"{u}\t{b}\t{r}\n")

    return {
        "nodes": sum(counts.values()),
        "positives": len(positives),
        "negatives": len(negatives),
        "friend_edges": len(set(friend_edges)),
    }


def _write_edges(path, pairs):
    with Path(path).open("w", encoding="utf-8") as fh:
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")


def write_demo_config(path, dataset_dir, output_dir, seed: int = 0, generations: int = 30) -> dict:
    config = {
        "dataset_dir": str(dataset_dir),
        "task": {"kind": "recommendation", "target_relation": "rates"},
        "rating_threshold": 2,
        "backend": {"kind": "stub"},
        "output_dir": str(output_dir),
        "search": {"seed": seed, "generations": generations},
    }
    Path(path).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hinstruct.synth", description="Generate the planted-structure demo dataset."
    )
    parser.add_argument("--out", required=True, help="dataset directory to create")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--tastes", type=int, default=N_TASTES,
        help=f"taste groups, each of {USERS_PER_TASTE} users and {BIZ_PER_TASTE} businesses "
        f"(default {N_TASTES})",
    )
    parser.add_argument(
        "--with-config",
        metavar="PATH",
        help="also write a ready-to-run search config pointing at the dataset",
    )
    args = parser.parse_args(argv)
    if args.tastes < MIN_TASTES:
        parser.error(f"--tastes must be at least {MIN_TASTES}, not {args.tastes}")
    summary = generate(args.out, seed=args.seed, tastes=args.tastes)
    print(json.dumps(summary, sort_keys=True))
    if args.with_config:
        write_demo_config(
            args.with_config, args.out, Path(args.out).parent / "search-output", seed=args.seed
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
