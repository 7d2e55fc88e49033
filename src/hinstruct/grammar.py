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

Sentences render the (type sequence, positions) pairs of
:func:`structure.sub_logics`, the one decomposition of a structure, which the
evaluator scores too: sub-logics in its order (type sequence, then canonical
positions), tags lettered by first appearance. Structures with one canonical
key therefore print the same sentence, and non-isomorphic structures, which
never share a key, print distinct sentences. Within the permutation budget of
:func:`structure.canonical_key` isomorphic structures share one key and so
one sentence.
"""

from __future__ import annotations

import functools
import re
from collections import Counter

from .hin import Schema
from .structure import MetaStructure, sub_logics

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
    nouns, verbs, problems = _vocabulary(schema)
    if problems:
        _check_words(logics, problems)
    # a Counter lists positions in order of first appearance
    visits = Counter(p for _, positions in logics for p in positions[1:-1])
    shared = [p for p, count in visits.items() if count > 1]
    tags = {p: f" ({_tag_name(i)})" for i, p in enumerate(shared)}
    sentences = []
    for seq, positions in logics:
        # one "verb noun" hop per edge; the first also names the source
        hops = [
            f"{verbs[e]} {nouns[t]}{tags.get(p, '')}"
            for e, t, p in zip(seq[1::2], seq[2::2], positions[1:])
        ]
        hops[0] = f"{nouns[seq[0]]} {hops[0]}"
        sentences.append(f" {THAT} ".join(hops))
    return f" {AND} ".join(sentences)


def _check_words(logics, problems: dict[tuple[str, int], str]) -> None:
    """Raise the :class:`GrammarError` of the first unusable word: sub-logic
    by sub-logic, its verbs before its nouns."""
    for seq, _ in logics:
        words = [("verb", e) for e in seq[1::2]] + [("noun", t) for t in seq[::2]]
        for word in words:
            if word in problems:
                raise GrammarError(problems[word])


@functools.lru_cache(maxsize=VOCABULARY_SCHEMAS)
def _vocabulary(schema: Schema) -> tuple[tuple[str, ...], tuple[str, ...], dict]:
    """Nouns by node type id and verbs by edge type id, each checked once:
    ``problems`` maps ("noun", node type id) or ("verb", edge type id) of an
    unusable word to the message of the :class:`GrammarError` that using the
    word raises."""
    problems = {}
    for nt in schema.node_types:
        problem = _ambiguity(f"node type {nt.name!r}", nt.noun)
        if problem is not None:
            problems["noun", nt.id] = problem
    for et in schema.edge_types:
        problem = (
            _ambiguity(f"edge type {et.name!r}", et.verb) if et.verb
            else f"edge type {et.name!r} has no verb phrase"
        )
        if problem is not None:
            problems["verb", et.id] = problem
    nouns = tuple(nt.noun for nt in schema.node_types)
    verbs = tuple(et.verb for et in schema.edge_types)
    return nouns, verbs, problems


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
