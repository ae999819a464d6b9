"""potgraph: which degree sequences have a realization containing the
6-vertex wheel (K6 minus a 5-cycle)?

The package pairs a closed-form seven-condition decision with an exhaustive
search oracle so each can be validated against the other, and ships a CLI
(``potgraph``) for single sequences and batch surveys.
"""

from .catalogs import ExceptionCatalog, default_catalog, load_catalog
from .characterization import (
    CLAUSE_IDS,
    ConditionReport,
    FormDescriptor,
    decompose_form,
    extremal_sequence,
    in_exception_set_s,
    is_graphic_via_lemma26,
    lemma_family_decide,
    theorem31_decide,
)
from .errors import (
    BudgetExceededError,
    DomainError,
    InternalCheckError,
    PotgraphError,
    SequenceParseError,
)
from .graphs import (
    Graph,
    PatternGraph,
    contains_subgraph,
    degree_sequence_of,
    find_embedding,
    havel_hakimi_realize,
    pattern_k6_c5,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleVerdict,
    STRATEGY_EMBED,
    STRATEGY_FULL,
    oracle_potentially,
)
from .sequences import (
    DegreeSequence,
    is_graphic_eg,
    is_graphic_kw,
    layoff,
    parse_sequence,
)
from .survey import (
    SurveyRecord,
    SurveyReport,
    cross_validate,
    enumerate_graphic_sequences,
    sigma_empirical,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CLAUSE_IDS",
    "ConditionReport",
    "DEFAULT_BUDGET",
    "DegreeSequence",
    "DomainError",
    "ExceptionCatalog",
    "FormDescriptor",
    "Graph",
    "InternalCheckError",
    "OracleVerdict",
    "PatternGraph",
    "PotgraphError",
    "STRATEGY_EMBED",
    "STRATEGY_FULL",
    "SequenceParseError",
    "SurveyRecord",
    "SurveyReport",
    "contains_subgraph",
    "cross_validate",
    "decompose_form",
    "default_catalog",
    "degree_sequence_of",
    "enumerate_graphic_sequences",
    "extremal_sequence",
    "find_embedding",
    "havel_hakimi_realize",
    "in_exception_set_s",
    "is_graphic_eg",
    "is_graphic_kw",
    "is_graphic_via_lemma26",
    "layoff",
    "lemma_family_decide",
    "load_catalog",
    "oracle_potentially",
    "parse_sequence",
    "pattern_k6_c5",
    "sigma_empirical",
    "theorem31_decide",
]
