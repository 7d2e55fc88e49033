"""Natural-language encoding of meta-structures.

Every decomposed source-to-target path becomes one clause chain (a
"sub-logic"): the first clause names both endpoint nouns, each following hop
is attached with the literal conjunction ``THAT``. Sub-logics are joined
with the literal conjunction ``AND``. Both tokens are uppercase so they can
be recovered mechanically from prompts and stub responses.

Where sub-logics meet is part of what a structure means: a position that
several paths share stands for one node instance. So an interior position
that lies on two or more sub-logics carries a referent tag such as ``(a)``
after its noun, and every occurrence of one tag names the same position.
Positions on a single sub-logic are untagged, and so are the source and the
target, which every sub-logic shares. A single-path sentence therefore has
no tags, and tags add no ``THAT`` or ``AND`` tokens.

Sentences render :func:`structure.sub_logics`, the one decomposition of a
structure that the evaluator scores too: sub-logics in its order (type
sequence, then canonical positions), tags lettered by first appearance.
Within the exact range of :func:`structure.canonical_key` isomorphic
structures therefore print the same sentence, and distinct canonical keys
print distinct sentences.
"""

from __future__ import annotations

import functools
import re
from collections import Counter

from .hin import Schema
from .structure import MetaPath, MetaStructure, sub_logics

THAT = "THAT"
AND = "AND"
# a referent tag as it follows its noun; its group is the tag's name
REFERENT_TAG = re.compile(r" \(([a-z]+)\)")
# schemas whose checked vocabulary is kept; a process usually loads one
VOCABULARY_SCHEMAS = 8


class GrammarError(ValueError):
    """Schema lacks the vocabulary needed to verbalize a path."""


def encode_metastructure(ms: MetaStructure, schema: Schema) -> str:
    """Join the structure's sub-logics with AND, ordered by path type
    sequence, tagging the interior positions that sub-logics share."""
    logics = sub_logics(ms)
    shared = Counter(p for _, positions, _ in logics for p in positions[1:-1])
    vocabulary = _vocabulary(schema)
    names: dict[int, str] = {}
    sentences = []
    for _, positions, path in logics:
        tags = {
            i: names.setdefault(p, _tag_name(len(names)))
            for i, p in enumerate(positions)
            if shared[p] > 1
        }
        sentences.append(_render(path, vocabulary, tags))
    return f" {AND} ".join(sentences)


def _render(path: MetaPath, vocabulary, tags: dict[int, str]) -> str:
    """Sentence for ``path`` in a schema's ``vocabulary`` (see
    :func:`_vocabulary`); ``tags`` maps a path index to its referent tag."""
    nouns_by_type, verbs_by_type = vocabulary
    verbs = [_usable(verbs_by_type[eid]) for eid in path.edge_types]
    nouns = []
    for i, t in enumerate(path.node_types):
        noun = _usable(nouns_by_type[t])
        nouns.append(f"{noun} ({tags[i]})" if i in tags else noun)

    parts = [f"{nouns[0]} {verbs[0]} {nouns[1]}"]
    for verb, noun in zip(verbs[1:], nouns[2:]):
        parts.append(f"{verb} {noun}")
    return f" {THAT} ".join(parts)


@functools.lru_cache(maxsize=VOCABULARY_SCHEMAS)
def _vocabulary(schema: Schema) -> tuple[tuple, tuple]:
    """Nouns by node type id and verbs by edge type id, each checked once as
    a (word, problem) pair: ``problem`` is None for a usable word, else the
    message of the :class:`GrammarError` that using the word raises."""
    nouns = tuple(
        (nt.noun, _ambiguity(f"node type {nt.name!r}", nt.noun)) for nt in schema.node_types
    )
    verbs = tuple(
        (et.verb, _ambiguity(f"edge type {et.name!r}", et.verb) if et.verb
         else f"edge type {et.name!r} has no verb phrase")
        for et in schema.edge_types
    )
    return nouns, verbs


def _usable(entry: tuple[str, str | None]) -> str:
    word, problem = entry
    if problem is not None:
        raise GrammarError(problem)
    return word


def _ambiguity(owner: str, word: str) -> str | None:
    """Why a noun or verb would make sentences ambiguous to split, or None."""
    padded = f" {word} "
    if f" {THAT} " in padded or f" {AND} " in padded or REFERENT_TAG.search(padded):
        return (
            f"{owner} has ambiguous vocabulary {word!r}: it contains "
            f"{THAT!r}, {AND!r} or a referent tag"
        )
    return None


def _tag_name(index: int) -> str:
    """a, b, ..., z, aa, ab, ... for index 0, 1, ..."""
    name = ""
    index += 1
    while index:
        index, rest = divmod(index - 1, 26)
        name = chr(ord("a") + rest) + name
    return name
