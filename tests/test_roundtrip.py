"""Property tests: what the program writes, it reads back unchanged."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from samlm.corpus import SPECIALS, Document, Vocabulary, build_attributes, build_vocab, index_corpus
from samlm.ngram import KneserNeyModel
from samlm.tensor import ParamStore, load_checkpoint, save_checkpoint

# finite float64 values, half of them drawn from negative zero, subnormals and extremes
EDGES = [-0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def stores(draw):
    names = draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=5, unique=True))
    store = ParamStore()
    for name in names:
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
        store.add(name, shape, init="zeros").value[...] = draw(hnp.arrays(np.float64, shape, elements=FINITE))
    return store


@given(stores(), st.dictionaries(st.text(max_size=5), st.integers() | st.text(max_size=5), max_size=3))
@settings(max_examples=80, deadline=None)
def test_checkpoint_loads_bit_identical(store, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, store, config=config)
        values, loaded_config = load_checkpoint(path)
    assert list(values) == store.names()
    assert loaded_config == config
    for p in store.params():
        assert values[p.name].shape == p.shape
        assert values[p.name].tobytes() == p.value.tobytes(), p.name


# tokens as the corpus reader makes them: split on whitespace, so none holds any
TOKENS = st.text(min_size=1, max_size=6).filter(lambda t: not any(c.isspace() for c in t))


@given(st.lists(st.lists(TOKENS, min_size=1, max_size=8), min_size=1, max_size=6), st.integers(4, 40))
@example(texts=[["<unk>"]], cap=4)
@settings(max_examples=80, deadline=None)
def test_vocabulary_file_reads_back_equal(texts, cap):
    docs = [Document(id=str(i), text=tuple(t)) for i, t in enumerate(texts)]
    if all(token in SPECIALS for text in texts for token in text):
        # the reserved strings collapse onto their slots, and no regular token is left to keep
        with pytest.raises(ValueError, match="no tokens survive vocabulary filtering"):
            build_vocab(docs, cap=cap)
        return
    vocab = build_vocab(docs, cap=cap)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "vocab.txt"
        vocab.save(path)
        loaded = Vocabulary.load(path)
    assert loaded == vocab
    assert loaded.index == vocab.index


@given(
    st.lists(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12), min_size=1, max_size=6),
    st.integers(1, 4),
)
@settings(max_examples=80, deadline=None)
def test_kn_count_file_resaves_same_bytes(texts, order):
    docs = [Document(id=str(i), text=tuple(t)) for i, t in enumerate(texts)]
    vocab = build_vocab(docs, cap=20)
    indexed = index_corpus(docs, vocab, build_attributes(docs))
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.counts", Path(tmp) / "b.counts"
        KneserNeyModel.fit(indexed, order=order, vocab_size=len(vocab)).save(first)
        KneserNeyModel.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()
