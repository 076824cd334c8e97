"""Cross-domain NER data toolkit.

Pipelines for turning a raw domain corpus plus an entity dictionary into
pre-training corpora and masked-language-model training examples, plus
labeled NER dataset handling and entity-level evaluation.
"""

__version__ = "0.1.0"

from xner.corpus import (  # noqa: F401
    CorpusStats,
    Document,
    Sentence,
    load_corpus,
    segment,
)
from xner.errors import DataError  # noqa: F401
from xner.gazetteer import (  # noqa: F401
    EntityMention,
    Gazetteer,
    TypeHierarchy,
    find_mentions,
    pre_annotate,
    resolve_type,
)
from xner.masker import MaskedExample, MaskingConfig, mask_corpus, spanify  # noqa: F401
from xner.nerdata import LabeledSentence, parse_conll, validate_bio  # noqa: F401
from xner.selector import SelectorConfig  # noqa: F401
