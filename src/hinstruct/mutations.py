"""One-step neighborhood of a meta-structure.

Three operations modify a structure: INSERTION replaces an edge with a
compatible component path, GRAFTING merges a component's endpoints onto two
existing positions to open a branch, DELETION removes an interior position
and reconnects its neighbors through admissible edge types. Components are
the schema meta-paths that :func:`structure.schema_walks` yields from every
node type up to the component limits.

A :class:`ComponentLibrary` owns every fixed input of a neighbourhood: the
schema it was built from, the structure-size limit and the components, so a
library is scoped to one schema and one size limit. Each neighbourhood
function takes the origin and the library.

Every emitted neighbor is schema-valid, distinct from the origin, and
deduplicated by canonical key.

The origin must be valid (see :func:`structure.validate`); every caller
checks it. From a valid origin, INSERTION and GRAFTING are valid by
construction. An inserted component keeps every path through the edge it
replaces. A grafted component hangs between two anchors that already lie on
source-to-target paths, so the candidate is valid exactly when the branch
starts off the target, ends off the source, and closes no cycle: its end
must not reach its start in the origin. Grafting skips the other anchor
pairs without building them, and only DELETION candidates run through
``validate``.

Deduplication keys only the candidates that need a key. Each candidate
gets a cheap isomorphism invariant (:func:`structure.isomorphism_invariant`),
and equal canonical keys imply equal invariants. So a candidate whose
invariant no other candidate and not the origin shares repeats nothing and
is kept unkeyed. Only the members of an invariant collision group are
keyed, and the first of each key is kept, so the union is exactly the one
that keying every candidate gives. Of the distinct candidates, only those
:func:`one_step_neighbors` offers get their key, as :class:`Candidate`.

Given its library, the distinct union of the three operations is a pure
function of the origin. Each library keeps the unions of its
``UNION_MEMO_ENTRIES`` most recently used origins, keyed by the origin alone,
and sentences keyed by canonical form alone, so a library is scoped to one
search. Only the cap sample draws from the RNG, on every call.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .grammar import encode_metastructure
from .hin import LruMemo, Schema
from .structure import (
    MetaPath,
    MetaStructure,
    canonical_form,
    canonical_key,
    isomorphism_invariant,
    reachable,
    schema_walks,
    validate,
)

# Deletion reconnection enumerates one neighbor per admissible edge-type
# assignment; the combination count is clamped to keep degenerate schemas
# from exploding the candidate set.
MAX_RECONNECT_COMBOS = 512
# Origins whose unions a library keeps. Replaying the 153 neighbourhood
# calls of the seed-0 demo search, bounds of 1/2/4/8/unbounded hit
# 19/27/40/41/43 times.
UNION_MEMO_ENTRIES = 8
# Sentences a library keeps. The seed-0 demo search asks for 2,869 sentences
# of 2,134 distinct canonical forms; replayed, bounds of 512/1,024/4,096 keep
# 700/713/735 of its hits.
SENTENCE_MEMO_ENTRIES = 1024


class EmptyNeighborhoodError(RuntimeError):
    """The structure has no valid one-step neighbors."""


@dataclass(frozen=True)
class ComponentLibrary:
    schema: Schema
    max_nodes: int  # positions a neighbour may have
    insertion: tuple[MetaPath, ...]
    grafting: tuple[MetaPath, ...]
    # distinct unions of one_step_neighbors by origin and sentences by
    # canonical form;
    # every library starts empty
    unions: LruMemo = field(
        default_factory=lambda: LruMemo(UNION_MEMO_ENTRIES), init=False, repr=False, compare=False
    )
    sentences: LruMemo = field(
        default_factory=lambda: LruMemo(SENTENCE_MEMO_ENTRIES), init=False, repr=False, compare=False
    )

    def sentence(self, ms: MetaStructure) -> str:
        """``encode_metastructure(ms, self.schema)``, kept by canonical form:
        the sentence is a pure function of the form and the schema."""
        return self.sentences.get(canonical_form(ms), lambda: encode_metastructure(ms, self.schema))


@dataclass(frozen=True)
class Candidate:
    structure: MetaStructure
    key: str
    descriptor: dict = field(compare=False)


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[Candidate, ...]
    sampled: bool


def build_component_library(
    schema: Schema, max_nodes: int, insertion_max_interior: int, grafting_max_nodes: int
) -> ComponentLibrary:
    """The library of ``schema`` for neighbours of up to ``max_nodes``
    positions: insertion components of up to ``insertion_max_interior``
    interior positions and grafting components of up to
    ``grafting_max_nodes`` positions."""
    insertion_cap = 2 + insertion_max_interior
    starts = [nt.id for nt in schema.node_types]
    paths = list(schema_walks(schema, starts, max(insertion_cap, grafting_max_nodes), "component"))
    return ComponentLibrary(
        schema,
        max_nodes,
        insertion=tuple(p for p in paths if p.n_nodes <= insertion_cap),
        grafting=tuple(p for p in paths if p.n_nodes <= grafting_max_nodes),
    )


def _dedup_edges(edges):
    return tuple(dict.fromkeys(edges))


def _attach(ms: MetaStructure, edges, comp: MetaPath, u: int, w: int) -> MetaStructure:
    """``ms`` over ``edges`` with ``comp`` laid from position ``u`` to
    position ``w``, its interior as new positions."""
    mapped = [u, *range(ms.n_nodes, ms.n_nodes + comp.n_nodes - 2), w]
    laid = ((mapped[i], mapped[i + 1], ce) for i, ce in enumerate(comp.edge_types))
    return MetaStructure(
        nodes=ms.nodes + comp.node_types[1:-1],
        edges=_dedup_edges([*edges, *laid]),
        source=ms.source,
        target=ms.target,
    )


def neighbors_insertion(ms: MetaStructure, lib: ComponentLibrary) -> list[tuple[MetaStructure, dict]]:
    return _distinct(_insertions(ms, lib), ms)


def neighbors_grafting(ms: MetaStructure, lib: ComponentLibrary) -> list[tuple[MetaStructure, dict]]:
    return _distinct(_graftings(ms, lib), ms)


def neighbors_deletion(ms: MetaStructure, lib: ComponentLibrary) -> list[tuple[MetaStructure, dict]]:
    return _distinct(_valid(_deletions(ms, lib), lib), ms)


def _insertions(ms: MetaStructure, lib: ComponentLibrary):
    """(candidate, descriptor) pairs of INSERTION, all valid for a valid
    origin."""
    fitting = {}  # (component, type sequence) pairs by the end types they join
    for idx, (u, v, e) in enumerate(ms.edges):
        rest = ms.edges[:idx] + ms.edges[idx + 1 :]
        ends = (ms.nodes[u], ms.nodes[v])
        if ends not in fitting:
            fitting[ends] = [
                (comp, comp.type_sequence())
                for comp in lib.insertion
                if (comp.node_types[0], comp.node_types[-1]) == ends
                and ms.n_nodes + comp.n_nodes - 2 <= lib.max_nodes
            ]
        for comp, sequence in fitting[ends]:
            desc = {
                "op": "insertion",
                "edge": [u, v, e],
                "component": list(sequence),
            }
            yield _attach(ms, rest, comp, u, v), desc


def _graftings(ms: MetaStructure, lib: ComponentLibrary):
    """(candidate, descriptor) pairs of GRAFTING, all valid for a valid
    origin: anchor pairs whose branch would leave the target, enter the
    source or close a cycle are skipped unbuilt (``u == w`` is one, as a
    position reaches itself)."""
    succs = [[] for _ in range(ms.n_nodes)]
    for a, b, _ in ms.edges:
        succs[a].append(b)
    below = [reachable(succs, w) for w in range(ms.n_nodes)]
    starts, ends = {}, {}  # anchor positions by node type
    for p, t in enumerate(ms.nodes):
        if p != ms.target:
            starts.setdefault(t, []).append(p)
        if p != ms.source:
            ends.setdefault(t, []).append(p)
    for comp in lib.grafting:
        if ms.n_nodes + comp.n_nodes - 2 > lib.max_nodes:
            continue
        anchors = [
            (u, w)
            for u in starts.get(comp.node_types[0], ())
            for w in ends.get(comp.node_types[-1], ())
            if not below[w][u]
        ]
        if not anchors:
            continue
        sequence = comp.type_sequence()
        for u, w in anchors:
            desc = {
                "op": "grafting",
                "anchors": [u, w],
                "component": list(sequence),
            }
            yield _attach(ms, ms.edges, comp, u, w), desc


def _deletions(ms: MetaStructure, lib: ComponentLibrary):
    """Raw (candidate, descriptor) pairs of DELETION, valid or not."""
    for v in range(ms.n_nodes):
        if v in (ms.source, ms.target):
            continue
        kept = [edge for edge in ms.edges if v not in edge[:2]]
        preds = sorted({a for a, b, _ in ms.edges if b == v})
        succs = sorted({b for a, b, _ in ms.edges if a == v})
        pair_choices = []
        for p, s in itertools.product(preds, succs):
            if p == s:
                continue
            admissible = sorted(
                et.id for et in lib.schema.edge_types_between(ms.nodes[p], ms.nodes[s])
            )
            if admissible:
                pair_choices.append([(p, s, eid) for eid in admissible])
        combos = itertools.product(*pair_choices) if pair_choices else iter([()])
        for combo in itertools.islice(combos, MAX_RECONNECT_COMBOS):
            edges = _dedup_edges(list(kept) + list(combo))
            remap = [p if p < v else p - 1 for p in range(ms.n_nodes)]
            cand = MetaStructure(
                nodes=ms.nodes[:v] + ms.nodes[v + 1 :],
                edges=tuple((remap[a], remap[b], e) for a, b, e in edges),
                source=remap[ms.source],
                target=remap[ms.target],
            )
            desc = {
                "op": "deletion",
                "position": v,
                "reconnect": [list(c) for c in combo],
            }
            yield cand, desc


def _valid(raw, lib: ComponentLibrary):
    """The pairs of ``raw`` whose candidate ``validate`` accepts."""
    return ((cand, desc) for cand, desc in raw if not validate(cand, lib.schema))


def _distinct(pairs, origin: MetaStructure):
    """Valid (candidate, descriptor) pairs with the origin dropped and the
    first of each canonical key kept, in order.

    Only candidates whose :func:`structure.isomorphism_invariant` another
    candidate or the origin shares are keyed: equal keys imply equal
    invariants, so a candidate with an invariant of its own repeats nothing.
    """
    pairs = list(pairs)
    invariants = [isomorphism_invariant(cand) for cand, _ in pairs]
    origin_invariant = isomorphism_invariant(origin)
    members = Counter(invariants)
    members[origin_invariant] += 1
    seen = {canonical_key(origin)} if members[origin_invariant] > 1 else set()
    out = []
    for (cand, desc), invariant in zip(pairs, invariants):
        if members[invariant] > 1:
            key = canonical_key(cand)
            if key in seen:
                continue
            seen.add(key)
        out.append((cand, desc))
    return out


def _union(ms: MetaStructure, lib: ComponentLibrary):
    """Distinct (candidate, descriptor) pairs of the three operations, in
    operation order."""
    pairs = itertools.chain(_insertions(ms, lib), _graftings(ms, lib), _valid(_deletions(ms, lib), lib))
    return tuple(_distinct(pairs, ms))


def one_step_neighbors(
    ms: MetaStructure, lib: ComponentLibrary, rng: np.random.Generator, cap: int
) -> CandidateSet:
    """Union of the three operations over ``lib``, deduplicated, uniformly
    capped at ``cap``.

    ``ms`` must be valid. The union comes from ``lib``'s memo when ``lib``
    has built it for an equal ``ms`` among its last ``UNION_MEMO_ENTRIES``
    origins; the cap sample is drawn afresh, and only the candidates it
    offers are keyed.
    """
    union = lib.unions.get(ms, lambda: _union(ms, lib))
    if not union:
        raise EmptyNeighborhoodError("structure has no valid one-step neighbors")

    if len(union) <= cap:
        picked, sampled = range(len(union)), False
    else:
        picked, sampled = np.sort(rng.choice(len(union), size=cap, replace=False)), True
    offered = (union[i] for i in picked)
    return CandidateSet(
        tuple(Candidate(cand, canonical_key(cand), desc) for cand, desc in offered), sampled
    )
