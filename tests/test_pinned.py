"""Bit-for-bit pins of the one-document path on freshly built models.

Each digest is the SHA-256 (first 16 hex digits) of the raw float64 bytes,
or of the joined tokens, that an untrained model of each variant produces
from fixed seeds: decoding (greedy and sampled tokens and chosen-token
probabilities) and one teacher-forced document (per-word NLLs and the
attention trace). The expected digests were recorded before the recurrence
learned to step several documents at once, so they hold that one-row
products, the path of evaluation, word delta and decoding, still give the
same bits. They depend on the float64 kernels of numpy's BLAS: a different
BLAS build may round differently and fail them without a fault in the code.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from samlm.corpus import index_document
from samlm.generation import GenRequest, generate
from samlm.model import VARIANTS, ModelConfig, build

import synth

PINNED = {
    "RNN": ("e3b8a943359c6f08", "67f16ea848ae02c3", "28eca708115ebe94"),
    "RNN-BOW": ("57618e3d599a57c6", "19720f3d8120a3bd", "28f52b60397172a8"),
    "RNN-State": ("db45d04c76fe8dde", "3a031fbdd0156cd7", "c2cd092ae129c3d7"),
    "SAM-Au-Att": ("1562be9e3ed8a348", "0eb7df69a7fc5fee", "69f10b7bee0a4355"),
    "SAM-Cat": ("c84ca1a31402aec0", "116f789c43fe7816", "1d8e3ad68b576290"),
    "SAM-Title-Att": ("d85382035feb198f", "53c8e95ec345b25d", "7c7945d4d947685b"),
    "SAM-Title-Att-State": ("ac8169598b70bda4", "2f235116be2f6dfc", "d61ce3c9f9b9ad38"),
    "SAM-Title-Au-Att": ("ceda2f49b73c2263", "1af028cfa9645239", "638ee6886a4c780a"),
    "SAM-Title-State-Au-Att": ("b14b4398a4a1d4a9", "e4c20dcb8a1349c6", "b56152d770c2e2e3"),
}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def corpus():
    docs, _ = synth.title_selects_vocab_corpus(30, seed=4)
    authors = ("alice", "bob", "carol")
    docs = [
        dataclasses.replace(doc, author=authors[i % 3], category=f"k{i % 2}", text=doc.text * 3)
        for i, doc in enumerate(docs)
    ]
    vocab, attrs, _ = synth.pipeline(docs)
    return vocab, attrs, docs


def fresh_model(variant, vocab, attrs):
    model = build(
        ModelConfig(
            variant=variant,
            d=24,
            d_tilde=16,
            vocab_size=len(vocab),
            n_authors=len(attrs.authors),
            n_categories=len(attrs.categories),
            seed=11,
        )
    )
    for p in model.store.params():
        p.value *= 12.0  # peaked distributions, so decoded paths follow the conditioning
    return model


def run_digests(model, vocab, attrs, source):
    out = []
    for strategy in ("greedy", "sample"):
        req = GenRequest(title=source.title, author=source.author, category=source.category,
                         max_len=20, strategy=strategy, temperature=0.8, seed=7)
        result = generate(model, vocab, attrs, req)
        out.append(digest("\n".join(result.tokens), np.array(result.probabilities)))
    fwd = model.forward_document(index_document(source, vocab, attrs), want_caches=False)
    trace = [block for block in (fwd.trace.alpha, fwd.trace.beta) if block is not None]
    out.append(digest(np.array(fwd.per_word_nll), *trace))
    return tuple(out)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_one_document_path_keeps_its_bits(corpus, variant):
    vocab, attrs, docs = corpus
    got = run_digests(fresh_model(variant, vocab, attrs), vocab, attrs, docs[5])
    assert got == PINNED[variant]
