import io
import itertools
import json
import math
import re
from collections import Counter
from http.client import HTTPMessage
from urllib.error import HTTPError

import numpy as np
import pytest

from hinstruct.hin import Schema, schema_from_dict
from hinstruct.sparse import SparseMatrix
from hinstruct.structure import MetaStructure, canonical_key, validate
from hinstruct.synth import generate, toy_schema

# the minimal schema from the ingestion examples: 4 node types, 4 edge types
MINI_SCHEMA_DICT = {
    "node_types": [
        {"id": 0, "name": "user", "noun": "User"},
        {"id": 1, "name": "business", "noun": "Business"},
        {"id": 2, "name": "category", "noun": "Category"},
        {"id": 3, "name": "city", "noun": "City"},
    ],
    "edge_types": [
        {"id": 0, "name": "rates", "src": 0, "dst": 1, "verb": "rates"},
        {"id": 1, "name": "belongs_to", "src": 1, "dst": 2, "verb": "belongs to"},
        {"id": 2, "name": "located_in", "src": 1, "dst": 3, "verb": "is located in"},
        {"id": 3, "name": "friend", "src": 0, "dst": 0, "verb": "is friend of", "inverse": 3},
    ],
}


@pytest.fixture
def mini_schema() -> Schema:
    return schema_from_dict(MINI_SCHEMA_DICT)


@pytest.fixture(scope="session")
def schema() -> Schema:
    return toy_schema()


@pytest.fixture(scope="session")
def planted_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("planted-data")
    generate(path, seed=0)
    return path


# ---------------------------------------------------------------------------
# independent generators and oracles
# ---------------------------------------------------------------------------


def random_structure(schema: Schema, rng: np.random.Generator, max_nodes: int = 8) -> MetaStructure:
    """Random valid structure, independent of the mutation machinery.

    Grows a random schema walk, then adds branch nodes and chord edges while
    maintaining a topological order, so validity holds by construction.
    """
    for _ in range(200):
        length = int(rng.integers(2, max(3, max_nodes - 1)))
        start = int(rng.integers(schema.n_node_types))
        types = [start]
        etypes = []
        for _ in range(length - 1):
            outs = schema.out_edge_types(types[-1])
            if not outs:
                break
            et = outs[int(rng.integers(len(outs)))]
            etypes.append(et.id)
            types.append(et.dst)
        if len(types) < 2:
            continue

        order = list(range(len(types)))  # position ids in topological order
        nodes = list(types)
        edges = [(order[i], order[i + 1], etypes[i]) for i in range(len(etypes))]

        for _ in range(int(rng.integers(0, 4))):
            if len(nodes) < max_nodes and rng.random() < 0.6:
                # branch node between two ordered positions
                i, j = sorted(rng.choice(len(order), size=2, replace=False))
                if i == j or order.index(order[i]) == len(order) - 1:
                    continue
                a, b = order[i], order[j]
                options = [
                    (e1.id, e1.dst, e2.id)
                    for e1 in schema.out_edge_types(nodes[a])
                    for e2 in schema.out_edge_types(e1.dst)
                    if e2.dst == nodes[b]
                ]
                if not options:
                    continue
                e1, mid_t, e2 = options[int(rng.integers(len(options)))]
                mid = len(nodes)
                nodes.append(mid_t)
                order.insert(i + 1, mid)
                edges.extend([(a, mid, e1), (mid, b, e2)])
            else:
                # chord between ordered positions, never into source/out of target
                i, j = sorted(rng.choice(len(order), size=2, replace=False))
                if i == j or i == len(order) - 1 or j == 0:
                    continue
                a, b = order[i], order[j]
                between = schema.edge_types_between(nodes[a], nodes[b])
                if not between:
                    continue
                et = between[int(rng.integers(len(between)))]
                if (a, b, et.id) not in edges:
                    edges.append((a, b, et.id))

        ms = MetaStructure(
            nodes=tuple(nodes), edges=tuple(edges), source=order[0], target=order[-1]
        )
        if not validate(ms, schema):
            return ms
    raise RuntimeError("random structure generation failed to converge")


def brute_force_paths(ms: MetaStructure):
    """Exhaustive DFS path enumeration, independent of enumerate_paths."""
    succ = {}
    for a, b, e in ms.edges:
        succ.setdefault(a, []).append((b, e))
    results = []
    stack = [(ms.source, (ms.source,), ())]
    while stack:
        pos, npath, epath = stack.pop()
        if pos == ms.target:
            results.append(
                (tuple(ms.nodes[p] for p in npath), epath)
            )
            continue
        for b, e in succ.get(pos, ()):
            if b not in npath:
                stack.append((b, npath + (b,), epath + (e,)))
    return sorted(results)


def decode_sentence(sentence: str, schema: Schema) -> MetaStructure:
    """Rebuild a structure from its sentence, independent of the grammar.

    Every sub-logic starts at the shared source and ends at the shared
    target; each tagged interior noun is the one position of its tag, each
    untagged interior noun a fresh position. Clauses are matched against the
    schema's vocabulary and must match exactly one edge type.
    """
    tag = r"(?: \(([a-z]+)\))?"

    def clause(text, src_type, first):
        matches = []
        for et in schema.edge_types:
            if src_type is not None and et.src != src_type:
                continue
            head = re.escape(schema.node_type(et.src).noun) + " " if first else ""
            pattern = f"{head}{re.escape(et.verb)} {re.escape(schema.node_type(et.dst).noun)}{tag}"
            m = re.fullmatch(pattern, text)
            if m:
                matches.append((et, m.group(1)))
        assert len(matches) == 1, f"clause {text!r} matches {len(matches)} edge types"
        return matches[0]

    nodes = [None, None]  # positions 0 and 1 are the source and the target
    edges = set()
    tagged = {}
    for sub in sentence.split(" AND "):
        clauses = sub.split(" THAT ")
        pos, node_type = 0, None
        for i, text in enumerate(clauses):
            et, name = clause(text, node_type, first=i == 0)
            if i == 0:
                assert nodes[0] in (None, et.src), "sub-logics disagree on the source type"
                nodes[0] = et.src
            if i == len(clauses) - 1:
                assert name is None, "the target carries no tag"
                assert nodes[1] in (None, et.dst), "sub-logics disagree on the target type"
                nodes[1] = et.dst
                nxt = 1
            elif name is not None and name in tagged:
                nxt = tagged[name]
                assert nodes[nxt] == et.dst, f"tag ({name}) names two node types"
            else:
                nxt = len(nodes)
                nodes.append(et.dst)
                if name is not None:
                    tagged[name] = nxt
            edges.add((pos, nxt, et.id))
            pos, node_type = nxt, et.dst
    return MetaStructure(nodes=tuple(nodes), edges=tuple(sorted(edges)), source=0, target=1)


def contains_substructure(big: MetaStructure, small: MetaStructure) -> bool:
    """True if an injective, type- and role-preserving embedding of ``small``
    into ``big`` maps every edge of ``small`` onto an edge of ``big``."""
    if small.n_nodes > big.n_nodes or small.n_edges > big.n_edges:
        return False
    big_edges = set(big.edges)
    assignment: dict[int, int] = {small.source: big.source, small.target: big.target}
    if big.nodes[big.source] != small.nodes[small.source]:
        return False
    if big.nodes[big.target] != small.nodes[small.target]:
        return False
    free = [p for p in range(small.n_nodes) if p not in assignment]

    def ok_so_far():
        for a, b, e in small.edges:
            if a in assignment and b in assignment:
                if (assignment[a], assignment[b], e) not in big_edges:
                    return False
        return True

    def search(i):
        if not ok_so_far():
            return False
        if i == len(free):
            return True
        p = free[i]
        used = set(assignment.values())
        for q in range(big.n_nodes):
            if q in used or big.nodes[q] != small.nodes[p]:
                continue
            assignment[p] = q
            if search(i + 1):
                return True
            del assignment[p]
        return False

    return search(0)


def brute_isomorphic(a: MetaStructure, b: MetaStructure) -> bool:
    """Permutation-search isomorphism oracle (role- and type-preserving)."""
    if a.n_nodes != b.n_nodes or a.n_edges != b.n_edges:
        return False
    if sorted(a.nodes) != sorted(b.nodes):
        return False
    b_edges = set(b.edges)
    for perm in itertools.permutations(range(b.n_nodes)):
        if perm[a.source] != b.source or perm[a.target] != b.target:
            continue
        if any(a.nodes[p] != b.nodes[perm[p]] for p in range(a.n_nodes)):
            continue
        if all((perm[x], perm[y], e) in b_edges for x, y, e in a.edges):
            return True
    return False


def enumerate_corpus(schema: Schema, max_nodes: int):
    """All valid structures up to isomorphism, positions in topological order."""
    corpus = {}
    for n in range(2, max_nodes + 1):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for types in itertools.product(range(schema.n_node_types), repeat=n):
            options = []
            for i, j in pairs:
                ets = [None] + [et.id for et in schema.edge_types_between(types[i], types[j])]
                options.append(ets)
            if all(len(o) == 1 for o in options):
                continue
            for combo in itertools.product(*options):
                edges = tuple(
                    (i, j, e) for (i, j), e in zip(pairs, combo) if e is not None
                )
                if len(edges) < n - 1:
                    continue
                ms = MetaStructure(nodes=types, edges=edges, source=0, target=n - 1)
                if not validate(ms, schema):
                    corpus.setdefault(canonical_key(ms), ms)
    return corpus


def raw_graftings(ms: MetaStructure, lib):
    """Every (candidate, descriptor) pair of GRAFTING, valid or not: each
    component hung between every ordered pair of distinct positions whose
    types match its ends, with no anchor filter."""
    for comp in lib.grafting:
        interior = comp.node_types[1:-1]
        if ms.n_nodes + len(interior) > lib.max_nodes:
            continue
        for u, w in itertools.permutations(range(ms.n_nodes), 2):
            if (ms.nodes[u], ms.nodes[w]) != (comp.node_types[0], comp.node_types[-1]):
                continue
            mapped = [u] + [ms.n_nodes + i for i in range(len(interior))] + [w]
            edges = list(ms.edges)
            for i, et in enumerate(comp.edge_types):
                if (mapped[i], mapped[i + 1], et) not in edges:
                    edges.append((mapped[i], mapped[i + 1], et))
            cand = MetaStructure(ms.nodes + interior, tuple(edges), ms.source, ms.target)
            yield cand, {"op": "grafting", "anchors": [u, w], "component": list(comp.type_sequence())}


def neighbors_oracle(ms: MetaStructure, lib, rng: np.random.Generator, cap: int):
    """``one_step_neighbors`` by its definition, with no memo and no
    construction-time shortcut: ``validate`` on every raw candidate of
    insertion, grafting and deletion in that order, the origin and repeated
    canonical keys dropped, then the same cap sample. Returns
    ``(candidates, sampled)`` with candidates as (structure, key, descriptor),
    or None for an empty neighbourhood."""
    from hinstruct.mutations import _deletions, _insertions

    raw = itertools.chain(_insertions(ms, lib), raw_graftings(ms, lib), _deletions(ms, lib))
    seen, union = {canonical_key(ms)}, []
    for cand, desc in raw:
        if validate(cand, lib.schema):
            continue
        key = canonical_key(cand)
        if key not in seen:
            seen.add(key)
            union.append((cand, key, desc))
    if not union:
        return None
    if len(union) <= cap:
        return union, False
    picked = np.sort(rng.choice(len(union), size=cap, replace=False))
    return [union[i] for i in picked], True


# ---------------------------------------------------------------------------
# reference labelling, the oracle for structure._canonicalize
# ---------------------------------------------------------------------------


def canonicalize_reference(ms: MetaStructure):
    """``(canonical key, canonical form)`` by the plain algorithm: refine
    colors until they are stable, then try every ordering within color
    classes and relabel by the best; beyond the permutation budget, relabel
    by the color order, ties by position. The key spells out the form."""
    from hinstruct.structure import PERMUTATION_BUDGET

    n = ms.n_nodes
    colors = reference_colors(ms)
    groups = {}
    for p in range(n):
        groups.setdefault(colors[p], []).append(p)
    ordered_groups = [groups[c] for c in sorted(groups)]
    perms = 1
    for g in ordered_groups:
        perms *= math.factorial(len(g))
    if perms > PERMUTATION_BUDGET:
        form = _relabel_reference(ms, sorted(range(n), key=lambda p: (colors[p], p)))
    else:
        best = None
        for combo in itertools.product(*[itertools.permutations(g) for g in ordered_groups]):
            ordering = [p for group in combo for p in group]
            new_index = {old: i for i, old in enumerate(ordering)}
            relabeled = tuple(sorted((new_index[a], new_index[b], e) for a, b, e in ms.edges))
            if best is None or relabeled < best[0]:
                best = (relabeled, ordering)
        form = _relabel_reference(ms, best[1])
    types = ",".join(str(t) for t in form.nodes)
    edges = ";".join(f"{a}-{b}-{e}" for a, b, e in form.edges)
    return f"n:{types}|e:{edges}|s:{form.source}|t:{form.target}", form


def _relabel_reference(ms: MetaStructure, ordering) -> MetaStructure:
    new_index = {old: i for i, old in enumerate(ordering)}
    return MetaStructure(
        nodes=tuple(ms.nodes[p] for p in ordering),
        edges=tuple(sorted((new_index[a], new_index[b], e) for a, b, e in ms.edges)),
        source=new_index[ms.source],
        target=new_index[ms.target],
    )


def reference_colors(ms: MetaStructure) -> list[int]:
    """Refined colors as dense ranks, refined until a round changes nothing."""
    return reference_refinement(ms)[0]


def reference_refinement(ms: MetaStructure) -> tuple[list[int], int]:
    """``reference_colors`` and the number of rounds it takes, the last one,
    which changes nothing, included."""
    n = ms.n_nodes
    outs = [[] for _ in range(n)]
    ins = [[] for _ in range(n)]
    for a, b, e in ms.edges:
        outs[a].append((e, b))
        ins[b].append((e, a))

    base = sorted({(ms.nodes[p], p == ms.source, p == ms.target) for p in range(n)})
    rank = {sig: i for i, sig in enumerate(base)}
    colors = [rank[(ms.nodes[p], p == ms.source, p == ms.target)] for p in range(n)]
    rounds = 0
    for _ in range(n):
        rounds += 1
        sigs = []
        for p in range(n):
            out_sig = tuple(sorted((e, colors[b]) for e, b in outs[p]))
            in_sig = tuple(sorted((e, colors[a]) for e, a in ins[p]))
            sigs.append((colors[p], out_sig, in_sig))
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new_colors = [rank[s] for s in sigs]
        if new_colors == colors:
            break
        colors = new_colors
    return colors, rounds


def relabeled(ms: MetaStructure, rng: np.random.Generator) -> MetaStructure:
    """``ms`` with its positions renumbered by a random permutation."""
    perm = [int(p) for p in rng.permutation(ms.n_nodes)]
    nodes = [None] * ms.n_nodes
    for p, t in enumerate(ms.nodes):
        nodes[perm[p]] = t
    return MetaStructure(
        nodes=tuple(nodes),
        edges=tuple(sorted((perm[a], perm[b], e) for a, b, e in ms.edges)),
        source=perm[ms.source],
        target=perm[ms.target],
    )


# ---------------------------------------------------------------------------
# the decomposition and the sentences by the earlier code, the oracles for
# structure.sub_logics and grammar.encode_metastructure
# ---------------------------------------------------------------------------


def sub_logics_reference(ms: MetaStructure):
    """``structure.sub_logics`` as it was written before its one-pass walk."""
    from hinstruct.structure import MetaPath, StructureError, canonical_form

    form = canonical_form(ms)
    succs: dict[int, list[tuple[int, int]]] = {}
    for a, b, e in form.edges:
        succs.setdefault(a, []).append((b, e))

    found = []
    stack = [((form.source,), ())]
    while stack:
        positions, edge_types = stack.pop()
        if positions[-1] == form.target:
            path = MetaPath(tuple(form.nodes[p] for p in positions), edge_types)
            found.append((path.type_sequence(), positions, path))
            continue
        for b, e in succs.get(positions[-1], ()):
            if b not in positions:  # simple paths only; cannot occur in a DAG
                stack.append((positions + (b,), edge_types + (e,)))
    if not found:
        raise StructureError("no source-target path; structure is invalid")
    found.sort(key=lambda logic: logic[:2])
    return found


def encode_reference(ms: MetaStructure, schema: Schema) -> str:
    """``grammar.encode_metastructure`` as it was written before it rendered
    straight from the sub-logic pairs."""
    from hinstruct.grammar import AND, _tag_name

    logics = sub_logics_reference(ms)
    shared = Counter(p for _, positions, _ in logics for p in positions[1:-1])
    vocabulary = _vocabulary_reference(schema)
    names: dict[int, str] = {}
    sentences = []
    for _, positions, path in logics:
        tags = {
            i: names.setdefault(p, _tag_name(len(names)))
            for i, p in enumerate(positions)
            if shared[p] > 1
        }
        sentences.append(_render_reference(path, vocabulary, tags))
    return f" {AND} ".join(sentences)


def _render_reference(path, vocabulary, tags: dict[int, str]) -> str:
    from hinstruct.grammar import THAT

    nouns_by_type, verbs_by_type = vocabulary
    verbs = [_usable_reference(verbs_by_type[eid]) for eid in path.edge_types]
    nouns = []
    for i, t in enumerate(path.node_types):
        noun = _usable_reference(nouns_by_type[t])
        nouns.append(f"{noun} ({tags[i]})" if i in tags else noun)

    parts = [f"{nouns[0]} {verbs[0]} {nouns[1]}"]
    for verb, noun in zip(verbs[1:], nouns[2:]):
        parts.append(f"{verb} {noun}")
    return f" {THAT} ".join(parts)


def _vocabulary_reference(schema: Schema) -> tuple[tuple, tuple]:
    from hinstruct.grammar import _ambiguity

    nouns = tuple(
        (nt.noun, _ambiguity(f"node type {nt.name!r}", nt.noun)) for nt in schema.node_types
    )
    verbs = tuple(
        (et.verb, _ambiguity(f"edge type {et.name!r}", et.verb) if et.verb
         else f"edge type {et.name!r} has no verb phrase")
        for et in schema.edge_types
    )
    return nouns, verbs


def _usable_reference(entry: tuple[str, str | None]) -> str:
    from hinstruct.grammar import GrammarError

    word, problem = entry
    if problem is not None:
        raise GrammarError(problem)
    return word


# ---------------------------------------------------------------------------
# per-pair stub predictor, the oracle for StubBackend's predictor replies
# ---------------------------------------------------------------------------


def stub_predict_reference(user: str) -> str:
    """The stub's reply to a predictor prompt by the plain per-pair loop: each
    candidate takes the value of the first pool record of highest
    clause-multiset Jaccard similarity, and that similarity as confidence;
    with an empty pool every candidate gets (0.5, 0.0)."""
    from hinstruct.agents import _RE_CAND_PLAIN, _RE_RECORD, sentence_clauses

    records = [(m.group(3), float(m.group(2))) for m in _RE_RECORD.finditer(user)]
    candidates = [
        m.group(2)
        for m in _RE_CAND_PLAIN.finditer(user)
        if not m.group(2).startswith(("nodes=", "p="))
    ]
    record_clauses = [sentence_clauses(sentence) for sentence, _ in records]
    lines = []
    for i, sentence in enumerate(candidates):
        if not records:
            p, c = 0.5, 0.0
        else:
            clauses = sentence_clauses(sentence)
            sims = []
            for rec in record_clauses:
                union = sum((clauses | rec).values())
                sims.append(sum((clauses & rec).values()) / union if union else 0.0)
            best = max(range(len(records)), key=lambda j: (sims[j], -j))
            p, c = records[best][1], sims[best]
        lines.append(f"CANDIDATE {i}: p={p:.6f}, c={c:.6f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# socket-free chat transport for HttpChatBackend
# ---------------------------------------------------------------------------


def fake_urlopen(answer):
    """Stand-in for ``urllib.request.urlopen`` that serves each request
    without a socket. ``answer(body)`` takes the request's decoded JSON body
    and returns ``(status, payload, headers)``: below 400 the JSON payload is
    the response, otherwise it is raised as the ``HTTPError`` urllib raises,
    carrying ``headers``."""

    def urlopen(request, timeout=None):
        status, payload, headers = answer(json.loads(request.data))
        data = io.BytesIO(json.dumps(payload).encode())
        if status < 400:
            return data
        message = HTTPMessage()
        for name, value in headers.items():
            message[name] = value
        raise HTTPError(request.full_url, status, "error", message, data)

    return urlopen


# ---------------------------------------------------------------------------
# pure numpy CSR products, the oracle for SparseMatrix's scipy products
# ---------------------------------------------------------------------------


def spgemm_numpy(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_rows, n_cols):
    """CSR product via fully vectorized expand -> lexsort -> segment-reduce."""
    if a_indices.shape[0] == 0 or b_indices.shape[0] == 0:
        return _empty_csr(n_rows)
    counts = b_indptr[a_indices + 1] - b_indptr[a_indices]
    total = int(counts.sum())
    if total == 0:
        return _empty_csr(n_rows)

    a_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(a_indptr))
    out_i = np.repeat(a_rows, counts)
    lefts = np.repeat(a_data, counts)
    seg_ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_ends - counts, counts)
    pos = np.repeat(b_indptr[a_indices], counts) + within
    out_j = b_indices[pos]
    prods = lefts * b_data[pos]

    order = np.lexsort((out_j, out_i))
    out_i = out_i[order]
    out_j = out_j[order]
    prods = prods[order]

    head = np.empty(total, dtype=bool)
    head[0] = True
    head[1:] = (out_i[1:] != out_i[:-1]) | (out_j[1:] != out_j[:-1])
    starts = np.flatnonzero(head)

    data = np.add.reduceat(prods, starts)
    indices = out_j[starts]
    rows = out_i[starts]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
    return indptr, indices, data


def hadamard_numpy(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_rows, n_cols):
    """Elementwise product of two same-shape CSR matrices."""
    if a_indices.shape[0] == 0 or b_indices.shape[0] == 0:
        return _empty_csr(n_rows)
    a_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(a_indptr))
    b_rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(b_indptr))
    a_keys = a_rows * n_cols + a_indices
    b_keys = b_rows * n_cols + b_indices
    common, ia, ib = np.intersect1d(a_keys, b_keys, assume_unique=True, return_indices=True)
    if common.shape[0] == 0:
        return _empty_csr(n_rows)
    data = a_data[ia] * b_data[ib]
    rows = common // n_cols
    indices = common % n_cols
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n_rows))
    return indptr, indices, data


def row_dots_numpy(a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, n_cols, a_rows, b_rows):
    """Dot product of row ``a_rows[k]`` of A with row ``b_rows[k]`` of B, one
    pair at a time, over the columns both rows store."""
    out = np.zeros(len(a_rows), dtype=np.float64)
    for k, (i, j) in enumerate(zip(np.asarray(a_rows).tolist(), np.asarray(b_rows).tolist())):
        a_lo, b_lo = a_indptr[i], b_indptr[j]
        _, ia, ib = np.intersect1d(
            a_indices[a_lo:a_indptr[i + 1]], b_indices[b_lo:b_indptr[j + 1]],
            assume_unique=True, return_indices=True,
        )
        out[k] = np.dot(a_data[a_lo + ia], b_data[b_lo + ib])
    return out


def _empty_csr(n_rows: int):
    return (
        np.zeros(n_rows + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# dense views of CSR matrices
# ---------------------------------------------------------------------------


def from_dense(array) -> SparseMatrix:
    """CSR matrix of the nonzero cells of a nonnegative dense array."""
    array = np.asarray(array, dtype=np.float64)
    if np.any(array < 0):
        raise ValueError("negative values not allowed")
    r, c = np.nonzero(array)  # row-major, so r is sorted
    indptr = np.searchsorted(r, np.arange(array.shape[0] + 1))
    return SparseMatrix(*array.shape, indptr.astype(np.int64), c.astype(np.int64), array[r, c])


def to_dense(m: SparseMatrix) -> np.ndarray:
    out = np.zeros((m.rows, m.cols), dtype=np.float64)
    row_ids = np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.indptr))
    out[row_ids, m.indices] = m.data
    return out


def triplets(m: SparseMatrix):
    """Yield (row, col, value) in row-major order."""
    row_ids = np.repeat(np.arange(m.rows, dtype=np.int64), np.diff(m.indptr))
    yield from zip(row_ids.tolist(), m.indices.tolist(), m.data.tolist())


def allclose(a: SparseMatrix, b: SparseMatrix, rtol=1e-12, atol=0.0) -> bool:
    """Same shape and sparsity pattern, and data equal within tolerance."""
    return (
        (a.rows, a.cols) == (b.rows, b.cols)
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.allclose(a.data, b.data, rtol=rtol, atol=atol)
    )
