"""Attribute-conditioned GRU language modeling with attention, n-gram and
topic-model baselines, and style-variation generation."""

import os

# One BLAS thread unless the caller set a count: OpenBLAS splits the reduced
# axis of a large product over its threads, so trained weights would depend
# in their bits on the machine's CPU count. The output layer gets the CPUs
# through the worker pool instead (`tensor.run_pieces`). This works only if
# numpy is not imported yet, as in the `samlm` command.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .corpus import (
    AttributeInventory,
    Document,
    IndexedDocument,
    Vocabulary,
    build_attributes,
    build_vocab,
    index_corpus,
    index_document,
    ingest,
    split,
)
from .model import VARIANTS, ModelConfig, SamModel, build, load_model, save_model
from .trainer import TrainConfig, train
from .evaluate import PerplexityReport, perplexity, word_delta
from .ngram import KneserNeyModel
from .generation import GenRequest, GenResult, generate, style_variation

__version__ = "0.1.0"

__all__ = [
    "AttributeInventory",
    "Document",
    "GenRequest",
    "GenResult",
    "IndexedDocument",
    "KneserNeyModel",
    "ModelConfig",
    "PerplexityReport",
    "SamModel",
    "TrainConfig",
    "VARIANTS",
    "Vocabulary",
    "build",
    "build_attributes",
    "build_vocab",
    "generate",
    "index_corpus",
    "index_document",
    "ingest",
    "load_model",
    "perplexity",
    "save_model",
    "split",
    "style_variation",
    "train",
    "word_delta",
]
