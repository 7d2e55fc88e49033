"""Meta-structure discovery for heterogeneous information networks.

Encodes typed-DAG structures as natural-language sentences, explores their
one-step neighborhoods with agent-guided mutation, and evolves a population
against a deterministic sparse-linear-algebra fitness function.
"""

from .agents import (
    BackendError,
    EvaluatedStructure,
    ExplainerReport,
    HttpChatBackend,
    PoolSample,
    PredictorOutput,
    PromptLibrary,
    ScoredCandidate,
    SelectorDecision,
    StubBackend,
    TranscriptLog,
    explain,
    make_stub_backend,
    predict_candidates,
    select_candidate,
)
from .evaluator import (
    EvalResult,
    EvaluationError,
    Evaluator,
    NodeClassificationEvaluator,
    RecommendationEvaluator,
    auc,
    macro_f1,
    path_commuting_matrix,
    structure_score_matrix,
)
from .evolution import (
    Individual,
    PerformancePool,
    PoolRecord,
    SearchConfig,
    SearchResult,
    eliminate,
    evaluate_population,
    mutate_population,
    reproduce,
    run_search,
)
from .grammar import GrammarError, encode_metastructure
from .hin import (
    DataError,
    EdgeType,
    HinGraph,
    NodeType,
    Schema,
    SchemaError,
    binarize_ratings,
    load_graph,
    load_labels,
    load_ratings,
    load_schema,
)
from .mutations import (
    Candidate,
    CandidateSet,
    ComponentLibrary,
    EmptyNeighborhoodError,
    build_component_library,
    neighbors_deletion,
    neighbors_grafting,
    neighbors_insertion,
    one_step_neighbors,
)
from .sparse import MatrixBlowupError, SparseMatrix
from .splits import (
    NodeLabelSplit,
    RecommendationSplit,
    SplitError,
    make_node_label_split,
    make_recommendation_split,
)
from .structure import (
    MetaPath,
    MetaStructure,
    StructureError,
    canonical_key,
    enumerate_paths,
    seed_population,
    validate,
)

__version__ = "0.1.0"
