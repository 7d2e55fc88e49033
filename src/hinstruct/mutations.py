"""One-step neighborhood of a meta-structure.

Three operations modify a structure: INSERTION replaces an edge with a
compatible component path, GRAFTING merges a component's endpoints onto two
existing positions to open a branch, DELETION removes an interior position
and reconnects its neighbors through admissible edge types. Components are
schema meta-paths enumerated up to configured size limits.

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
from .hin import DataError, LruMemo, Schema
from .structure import (
    MetaPath,
    MetaStructure,
    canonical_form,
    canonical_key,
    isomorphism_invariant,
    reachable,
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
# Schema walks a component library may hold. The walk count of a schema with
# a cycle grows exponentially with the component limit: the demo schema has
# 3,670 walks of up to 10 positions and 14,714 of up to 12.
MAX_SCHEMA_WALKS = 50_000
# Sentences a library keeps; the seed-0 demo search verbalises 2,138
# distinct canonical forms.
SENTENCE_MEMO_ENTRIES = 4096


class EmptyNeighborhoodError(RuntimeError):
    """The structure has no valid one-step neighbors."""


def size_limit_problems(max_nodes: int, insertion_max_interior: int, grafting_max_nodes: int, names):
    """(name, problem) pairs for the limits out of range, empty when all are
    usable; ``names`` names the three limits in the caller's terms.

    A structure has at least 2 positions, a component at least 2, and an
    insertion component 2 plus its interior. A component limit that no
    structure of ``max_nodes`` positions can hold is a problem too.
    """
    n_name, i_name, g_name = names
    problems = [
        (name, f"must be at least {low}, not {value}")
        for name, value, low in (
            (n_name, max_nodes, 2), (i_name, insertion_max_interior, 0), (g_name, grafting_max_nodes, 2)
        )
        if value < low
    ]
    if problems:
        return problems
    if insertion_max_interior + 2 > max_nodes:
        problems.append(
            (i_name, f"plus 2 must not exceed {n_name} ({max_nodes}), not {insertion_max_interior}")
        )
    if grafting_max_nodes > max_nodes:
        problems.append((g_name, f"must not exceed {n_name} ({max_nodes}), not {grafting_max_nodes}"))
    return problems


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
    paths = _schema_paths(schema, max(insertion_cap, grafting_max_nodes))
    return ComponentLibrary(
        schema,
        max_nodes,
        insertion=tuple(p for p in paths if p.n_nodes <= insertion_cap),
        grafting=tuple(p for p in paths if p.n_nodes <= grafting_max_nodes),
    )


def _schema_paths(schema: Schema, limit: int) -> list[MetaPath]:
    """Exhaustive meta-paths of 2..limit nodes, ordered by size then types.

    Walks grow one position per level. Before a level is built its size is
    counted, and a ``DataError`` naming ``limit`` stops the build when the
    walks would number more than ``MAX_SCHEMA_WALKS``.
    """
    out_edges = {
        nt.id: sorted(schema.out_edge_types(nt.id), key=lambda e: e.id) for nt in schema.node_types
    }
    level = [((nt.id,), ()) for nt in schema.node_types]
    found = []
    for n_nodes in range(2, limit + 1):
        if len(found) + sum(len(out_edges[nodes[-1]]) for nodes, _ in level) > MAX_SCHEMA_WALKS:
            raise DataError(
                f"component limit {limit}: schema walks of up to {n_nodes} positions "
                f"number more than {MAX_SCHEMA_WALKS:,}; lower the component limits"
            )
        level = [
            (nodes + (et.dst,), etypes + (et.id,))
            for nodes, etypes in level
            for et in out_edges[nodes[-1]]
        ]
        found.extend(MetaPath(nodes, etypes) for nodes, etypes in level)
    found.sort(key=lambda p: (p.n_nodes, p.type_sequence()))
    return found


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
    for idx, (u, v, e) in enumerate(ms.edges):
        rest = ms.edges[:idx] + ms.edges[idx + 1 :]
        for comp in lib.insertion:
            if comp.node_types[0] != ms.nodes[u] or comp.node_types[-1] != ms.nodes[v]:
                continue
            if ms.n_nodes + comp.n_nodes - 2 > lib.max_nodes:
                continue
            desc = {
                "op": "insertion",
                "edge": [u, v, e],
                "component": list(comp.type_sequence()),
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
    for comp in lib.grafting:
        first_t, last_t = comp.node_types[0], comp.node_types[-1]
        if ms.n_nodes + comp.n_nodes - 2 > lib.max_nodes:
            continue
        for u in range(ms.n_nodes):
            if ms.nodes[u] != first_t or u == ms.target:
                continue
            for w in range(ms.n_nodes):
                if ms.nodes[w] != last_t or w == ms.source or below[w][u]:
                    continue
                desc = {
                    "op": "grafting",
                    "anchors": [u, w],
                    "component": list(comp.type_sequence()),
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
