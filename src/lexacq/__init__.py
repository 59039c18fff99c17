"""Linkage parser with unknown-word syntactic and semantic acquisition.

Sentences are parsed under a connector-disjunct grammar: every word
contributes one disjunct (its required left and right links) and the
resulting link set must be planar, connected, correctly ordered, and free
of duplicate word pairs.  Words missing from the lexicon are acquired by
constraint solving: the parser treats them as wildcards, collects the
disjuncts that make the sentence valid, and optionally classifies the
word against noun/verb concept hierarchies using tagged usages of the
known words it links to.
"""

from .lexicon import (
    Connector,
    Disjunct,
    Lexicon,
    LexiconError,
    parse_lexicon,
    serialize_lexicon,
)
from .linker import (
    Link,
    Linkage,
    SearchBudgetError,
    SentenceTooLongError,
    UnknownWordError,
    Violation,
    linkage_records,
    match,
    parse,
    render_diagram,
    validate,
)
from .semantics import (
    ConceptHierarchies,
    ConceptHierarchy,
    Evidence,
    HierarchyError,
    NoSemanticEvidenceError,
    SemanticLexicon,
    SemanticTag,
    TaggedDisjunct,
    UnknownConceptError,
    UnknownCountError,
    classify_unknown,
    generalize,
    parse_semlex,
    serialize_semlex,
    tag_sentence,
)
from .syntax import (
    AcquisitionResult,
    NoSolutionError,
    TooManyUnknownsError,
    TraceEvent,
    acquire_syntax,
    filter_by_inventory,
    render_trace,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionResult",
    "ConceptHierarchies",
    "ConceptHierarchy",
    "Connector",
    "Disjunct",
    "Evidence",
    "HierarchyError",
    "Lexicon",
    "LexiconError",
    "Link",
    "Linkage",
    "NoSemanticEvidenceError",
    "NoSolutionError",
    "SearchBudgetError",
    "SemanticLexicon",
    "SemanticTag",
    "SentenceTooLongError",
    "TaggedDisjunct",
    "TooManyUnknownsError",
    "TraceEvent",
    "UnknownConceptError",
    "UnknownCountError",
    "UnknownWordError",
    "Violation",
    "acquire_syntax",
    "classify_unknown",
    "filter_by_inventory",
    "generalize",
    "linkage_records",
    "match",
    "parse",
    "parse_lexicon",
    "parse_semlex",
    "render_diagram",
    "render_trace",
    "serialize_lexicon",
    "serialize_semlex",
    "tag_sentence",
    "validate",
]
