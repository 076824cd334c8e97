"""Cross-domain NER data toolkit.

Pipelines for turning a raw domain corpus plus an entity dictionary into
pre-training corpora and masked-language-model training examples, plus
labeled NER dataset handling and entity-level evaluation.
"""

__version__ = "0.1.0"
