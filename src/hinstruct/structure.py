"""Meta-structure DAGs over a schema.

A meta-structure is a typed DAG with a single source and a single target
position; every position lies on a directed source-to-target path. The
linear special case is a meta-path. Canonical keys identify structures up
to type-preserving isomorphism and drive deduplication and fitness caching.

:func:`sub_logics` is the one decomposition of a structure into its
source-to-target paths, taken from its canonical form: the grammar renders
it from :func:`sub_logic_sequences`, its (type sequence, positions) pairs;
the evaluator scores it, and :func:`enumerate_paths` projects it.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections import deque
from dataclasses import dataclass

from .hin import Schema, json_int

log = logging.getLogger(__name__)

# Exhaustive canonicalization bounds: below these the key is exact (equal
# keys <=> isomorphic); above, the refined signature alone is used and
# isomorphic structures may, in principle, receive distinct keys.
EXACT_CANONICAL_NODES = 10
PERMUTATION_BUDGET = 40_320
# schema edges the seeding breadth-first search may expand before it stops
SEED_MAX_EXPANSIONS = 200_000


class StructureError(ValueError):
    """Operation applied to an invalid meta-structure."""


@dataclass(frozen=True)
class MetaPath:
    node_types: tuple[int, ...]
    edge_types: tuple[int, ...]

    def __post_init__(self):
        if len(self.node_types) != len(self.edge_types) + 1 or not self.edge_types:
            raise StructureError("meta-path needs k+1 node types for k >= 1 edges")

    @property
    def n_nodes(self) -> int:
        return len(self.node_types)

    def type_sequence(self) -> tuple[int, ...]:
        """Alternating node/edge type ids; the path's identity."""
        seq = [self.node_types[0]]
        for et, nt in zip(self.edge_types, self.node_types[1:]):
            seq.append(et)
            seq.append(nt)
        return tuple(seq)


@dataclass(frozen=True)
class MetaStructure:
    nodes: tuple[int, ...]  # node type id per position
    edges: tuple[tuple[int, int, int], ...]  # (from position, to position, edge type id)
    source: int
    target: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def to_dict(self) -> dict:
        return {
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
            "source": self.source,
            "target": self.target,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetaStructure":
        if not isinstance(payload, dict):
            kind = type(payload).__name__
            raise StructureError(f"malformed meta-structure payload: must be an object, not {kind}")
        try:
            return cls(
                nodes=tuple(json_int(t, "node type") for t in payload["nodes"]),
                edges=tuple(tuple(json_int(v, "edge entry") for v in (a, b, e)) for a, b, e in payload["edges"]),
                source=json_int(payload["source"], "source"),
                target=json_int(payload["target"], "target"),
            )
        except KeyError as exc:
            raise StructureError(f"malformed meta-structure payload: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise StructureError(f"malformed meta-structure payload: {exc}") from exc

    @classmethod
    def from_path(cls, path: MetaPath) -> "MetaStructure":
        edges = tuple((i, i + 1, e) for i, e in enumerate(path.edge_types))
        return cls(nodes=path.node_types, edges=edges, source=0, target=path.n_nodes - 1)


def validate(ms: MetaStructure, schema: Schema) -> list[str]:
    """Return all invariant violations; an empty list means valid."""
    n = ms.n_nodes
    fatal = []
    if n == 0:
        return ["no positions"]
    for t in ms.nodes:
        if not (0 <= t < schema.n_node_types):
            fatal.append(f"unknown node type id {t}")
    if not (0 <= ms.source < n):
        fatal.append(f"source position {ms.source} out of range")
    if not (0 <= ms.target < n):
        fatal.append(f"target position {ms.target} out of range")
    for a, b, e in ms.edges:
        if not (0 <= a < n and 0 <= b < n):
            fatal.append(f"edge ({a},{b}) position out of range")
        if not (0 <= e < schema.n_edge_types):
            fatal.append(f"unknown edge type id {e}")
    if fatal:
        return fatal

    violations = []
    if not ms.edges:
        violations.append("no edges")
    if ms.source == ms.target:
        violations.append("source equals target")

    seen = set()
    indeg = [0] * n
    outdeg = [0] * n
    succs = [[] for _ in range(n)]
    preds = [[] for _ in range(n)]
    for a, b, e in ms.edges:
        if a == b:
            violations.append(f"self-loop at position {a}")
            continue
        if (a, b, e) in seen:
            violations.append(f"duplicate edge ({a},{b},{e})")
        seen.add((a, b, e))
        et = schema.edge_type(e)
        if et.src != ms.nodes[a] or et.dst != ms.nodes[b]:
            violations.append(
                f"edge type {et.name!r} does not connect node types at positions {a}->{b}"
            )
        indeg[b] += 1
        outdeg[a] += 1
        succs[a].append(b)
        preds[b].append(a)

    if indeg[ms.source] > 0:
        violations.append("source has incoming edges")
    if outdeg[ms.target] > 0:
        violations.append("target has outgoing edges")

    # Kahn's algorithm for acyclicity
    remaining = list(indeg)
    queue = [p for p in range(n) if remaining[p] == 0]
    visited = 0
    while queue:
        p = queue.pop()
        visited += 1
        for b in succs[p]:
            remaining[b] -= 1
            if remaining[b] == 0:
                queue.append(b)
    if visited != n:
        violations.append("cycle")
        return violations

    from_source = reachable(succs, ms.source)
    to_target = reachable(preds, ms.target)
    for p in range(n):
        if not (from_source[p] and to_target[p]):
            violations.append(f"node {p} off all source-target paths")
    return violations


def reachable(adjacency, start):
    """Flags by position: True where ``adjacency`` (lists of neighbours by
    position) leads from ``start``, ``start`` itself included."""
    seen = [False] * len(adjacency)
    seen[start] = True
    stack = [start]
    while stack:
        p = stack.pop()
        for q in adjacency[p]:
            if not seen[q]:
                seen[q] = True
                stack.append(q)
    return seen


def sub_logics(ms: MetaStructure) -> list[tuple[tuple[int, ...], tuple[int, ...], MetaPath]]:
    """The structure's decomposition into sub-logics: one (type sequence,
    positions, path) per simple source-to-target path of
    :func:`canonical_form`, sorted by type sequence, then positions.

    The grammar renders this list and the evaluator scores its distinct type
    sequences, so both read one decomposition of one form.
    """
    return [
        (seq, positions, MetaPath(seq[::2], seq[1::2])) for seq, positions in sub_logic_sequences(ms)
    ]


def sub_logic_sequences(ms: MetaStructure) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """:func:`sub_logics` without the paths: the sorted (type sequence,
    positions) pairs, for readers that need no :class:`MetaPath`."""
    form = canonical_form(ms)
    nodes = form.nodes
    succs: dict[int, list[tuple[int, int]]] = {}
    for a, b, e in form.edges:
        succs.setdefault(a, []).append((b, e))

    # the walk carries each path's alternating type sequence with its positions
    found = []
    stack = [((nodes[form.source],), (form.source,))]
    while stack:
        seq, positions = stack.pop()
        if positions[-1] == form.target:
            found.append((seq, positions))
            continue
        for b, e in succs.get(positions[-1], ()):
            if b not in positions:  # simple paths only; cannot occur in a DAG
                stack.append((seq + (e, nodes[b]), positions + (b,)))
    if not found:
        raise StructureError("no source-target path; structure is invalid")
    found.sort()
    return found


def enumerate_paths(ms: MetaStructure) -> list[MetaPath]:
    """All simple source-to-target paths, in :func:`sub_logics` order."""
    return [path for _, _, path in sub_logics(ms)]


# ---------------------------------------------------------------------------
# canonical keys
# ---------------------------------------------------------------------------


def canonical_key(ms: MetaStructure) -> str:
    """Isomorphism-invariant identifier.

    Colors are refined from (type, source?, target?) by iterated in/out
    neighborhood signatures. A position's signature is its color plus its
    sorted out- and in-neighbours, each neighbour packed into one int,
    ``edge type * n + color``: colors are below ``n``, so the ints sort and
    rank like (edge type, color) pairs. Because a signature starts with the
    old color, a round can only split classes, and refinement stops at the
    first round that adds no class (its colors are the old ones) or once the
    coloring is discrete (every position has its own color, and a further
    round only confirms it). Remaining ties are broken by exhaustive
    permutation within color classes, which keeps the key exact; a discrete
    coloring leaves one ordering, which relabels each position by its color.
    Structures too large for that fall back to the refined signature alone.
    """
    return _canonicalize(ms)[0]


def canonical_form(ms: MetaStructure) -> MetaStructure:
    """``ms`` relabeled so that position ``i`` is the ``i``-th position of the
    ordering that :func:`canonical_key` chose.

    Within the exact range isomorphic structures share one canonical form.
    Beyond it positions are ordered by refined color, ties by original
    position, so the form is deterministic but not isomorphism-invariant.
    """
    return _canonicalize(ms)[1]


# a position label is type + out-degree * 2**12 + in-degree * 2**24, plus a
# source and a target bit
_LABEL_FIELDS = (1 << 12, 1 << 24, 1 << 36, 1 << 37)


def isomorphism_invariant(ms: MetaStructure) -> tuple:
    """A cheap invariant that equal canonical keys always share.

    Each position is labeled (type, in-degree, out-degree, source?,
    target?); the invariant is the sorted labels plus the sorted (tail
    label, head label, edge type) of the edges. Isomorphic structures share
    it, and so do structures with one refined-signature key: the stable
    refined colors fix every label, and the key lists each color's type and
    the colored edges. Structures with different invariants therefore never
    share a canonical key.

    A label is packed into one int (``_LABEL_FIELDS``). A field that
    outgrows its bits merges labels, which makes the invariant coarser but
    keeps it an invariant.
    """
    out_unit, in_unit, source_bit, target_bit = _LABEL_FIELDS
    labels = list(ms.nodes)
    for a, b, _ in ms.edges:
        labels[a] += out_unit
        labels[b] += in_unit
    labels[ms.source] += source_bit
    labels[ms.target] += target_bit
    return (
        tuple(sorted(labels)),
        tuple(sorted([(labels[a], labels[b], e) for a, b, e in ms.edges])),
    )


# Structures whose labelling is kept. The seed-0 demo search (30 generations)
# labels 3,770 distinct structures and hits the memo 6,921 times; the
# classification benchmark search labels 109. tracemalloc puts one entry at
# about 1.4 KB (key, form and cache link), 1.9 KB with its structure, so the
# bound holds about 30 MB and keeps every hit of a search about four times
# the demo's length.
CANONICAL_MEMO_ENTRIES = 16_384


@functools.lru_cache(maxsize=CANONICAL_MEMO_ENTRIES)
def _canonicalize(ms: MetaStructure):
    n = ms.n_nodes
    colors = _refine_colors(ms)
    if n <= EXACT_CANONICAL_NODES and max(colors) == n - 1:
        # discrete (colors are dense ranks): the one ordering puts position p
        # at index colors[p]
        nodes = [0] * n
        for p, c in enumerate(colors):
            nodes[c] = ms.nodes[p]
        form = MetaStructure(
            nodes=tuple(nodes),
            edges=tuple(sorted([(colors[a], colors[b], e) for a, b, e in ms.edges])),
            source=colors[ms.source],
            target=colors[ms.target],
        )
        return _exact_key(form), form
    groups: dict[int, list[int]] = {}
    for p in range(n):
        groups.setdefault(colors[p], []).append(p)
    # colors are dense ranks, so the classes in color order
    ordered_groups = [groups[c] for c in range(len(groups))]

    perms = 1
    for g in ordered_groups:
        perms *= math.factorial(len(g))
    if n > EXACT_CANONICAL_NODES or perms > PERMUTATION_BUDGET:
        log.warning(
            "canonical key falling back to refined signature for %d-node structure", n
        )
        ordering = sorted(range(n), key=lambda p: (colors[p], p))
        return _signature_key(ms, colors), _relabel(ms, ordering)

    edges = None
    for candidate in _orderings(ordered_groups):
        index = {old: i for i, old in enumerate(candidate)}
        relabeled = tuple(sorted((index[a], index[b], e) for a, b, e in ms.edges))
        if edges is None or relabeled < edges:
            edges, ordering, new_index = relabeled, candidate, index
    form = MetaStructure(
        nodes=tuple(ms.nodes[p] for p in ordering),
        edges=edges,
        source=new_index[ms.source],
        target=new_index[ms.target],
    )
    return _exact_key(form), form


def _exact_key(form: MetaStructure) -> str:
    types = ",".join(map(str, form.nodes))
    edge_part = ";".join([f"{a}-{b}-{e}" for a, b, e in form.edges])
    return f"n:{types}|e:{edge_part}|s:{form.source}|t:{form.target}"


def _relabel(ms: MetaStructure, ordering) -> MetaStructure:
    """Structure whose position ``i`` is position ``ordering[i]`` of ``ms``."""
    new_index = {old: i for i, old in enumerate(ordering)}
    return MetaStructure(
        nodes=tuple(ms.nodes[p] for p in ordering),
        edges=tuple(sorted((new_index[a], new_index[b], e) for a, b, e in ms.edges)),
        source=new_index[ms.source],
        target=new_index[ms.target],
    )


def _refine_colors(ms: MetaStructure) -> list[int]:
    """Stable refined colors as dense ranks, by the rounds that
    :func:`canonical_key` describes. The first colors rank (type, source?,
    target?), packed as ``type * 4 + 2 * source? + target?``."""
    n = ms.n_nodes
    packed = [(a, b, e * n) for a, b, e in ms.edges]
    base = [t * 4 for t in ms.nodes]
    base[ms.source] += 2
    base[ms.target] += 1
    uniq = sorted(set(base))
    rank = {sig: i for i, sig in enumerate(uniq)}
    colors = [rank[sig] for sig in base]

    classes = len(uniq)
    while classes < n:
        outs = [[] for _ in range(n)]
        ins = [[] for _ in range(n)]
        for a, b, e in packed:
            outs[a].append(e + colors[b])
            ins[b].append(e + colors[a])
        sigs = []
        for p in range(n):
            out_sig, in_sig = outs[p], ins[p]
            out_sig.sort()
            in_sig.sort()
            sigs.append((colors[p], tuple(out_sig), tuple(in_sig)))
        uniq = sorted(set(sigs))
        if len(uniq) == classes:
            break
        rank = {sig: i for i, sig in enumerate(uniq)}
        colors = [rank[sig] for sig in sigs]
        classes = len(uniq)
    return colors


def _orderings(groups):
    """All position orderings that permute only within color groups."""
    for combo in itertools.product(*[itertools.permutations(g) for g in groups]):
        yield [p for group in combo for p in group]


def _signature_key(ms: MetaStructure, colors) -> str:
    node_part = ",".join(str(c) for c in sorted(f"{ms.nodes[p]}.{colors[p]}" for p in range(ms.n_nodes)))
    edge_part = ";".join(
        sorted(f"{colors[a]}-{colors[b]}-{e}" for a, b, e in ms.edges)
    )
    return f"wl|n:{node_part}|e:{edge_part}|s:{colors[ms.source]}|t:{colors[ms.target]}"


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------


def seed_population(
    schema: Schema,
    source_type: int,
    target_type: int,
    size: int,
    max_nodes: int,
) -> list[MetaStructure]:
    """The ``size`` shortest meta-paths between the task's endpoint types,
    found by breadth-first search over the schema graph and converted to
    linear structures. Pads with duplicates when fewer exist."""
    found: list[MetaPath] = []
    queue = deque([((source_type,), ())])
    expansions = 0
    while queue and len(found) < size:
        node_types, edge_types = queue.popleft()
        if len(node_types) >= max_nodes:
            continue
        for et in sorted(schema.out_edge_types(node_types[-1]), key=lambda e: e.id):
            expansions += 1
            child = (node_types + (et.dst,), edge_types + (et.id,))
            if et.dst == target_type:
                found.append(MetaPath(child[0], child[1]))
                if len(found) == size:
                    break
            queue.append(child)
        if expansions > SEED_MAX_EXPANSIONS:
            break

    if not found:
        raise StructureError(
            f"no schema path from node type {source_type} to node type {target_type}"
        )
    seeds = [MetaStructure.from_path(p) for p in found]
    while len(seeds) < size:
        seeds.append(seeds[len(seeds) % len(found)])
    return seeds[:size]
