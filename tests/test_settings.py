import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samlm import settings as checks
from samlm.corpus import EOS_ID, Document, IndexedDocument, build_vocab, split
from samlm.evaluate import word_delta
from samlm.generation import GenRequest
from samlm.lda import LdaConfig
from samlm.model import ModelConfig, build
from samlm.ngram import KneserNeyModel
from samlm.trainer import TrainConfig

DOCS = [Document(id="d", text=("a", "b", "a"))]
VOCAB = build_vocab(DOCS)
# every variant passes with these sizes, so a drawn variant alone decides
MODEL = dict(variant="SAM-Title-Au-Att", d=4, d_tilde=3, vocab_size=7, n_authors=2, n_categories=2)
# two language models over VOCAB, for word_delta
RNN_A, RNN_B = (build(ModelConfig("RNN", d=4, d_tilde=4, vocab_size=len(VOCAB), seed=seed)) for seed in (0, 1))


def _config_calls(cls, base):
    return {
        f"{cls.__name__}.{f.name}": (f.name, lambda value, name=f.name: cls(**{**base, name: value}).validate())
        for f in dataclasses.fields(cls)
    }


# "<call>.<setting>" -> (the setting's name, a call that validates a value for it)
CALLS = {
    **_config_calls(TrainConfig, {}),
    **_config_calls(ModelConfig, MODEL),
    **_config_calls(GenRequest, {}),
    **_config_calls(LdaConfig, {}),
    "build_vocab.cap": ("cap", lambda value: build_vocab(DOCS, cap=value)),
    "build_vocab.min_count": ("min_count", lambda value: build_vocab(DOCS, min_count=value)),
    "split.seed": ("seed", lambda value: split(DOCS * 3, (0.4, 0.3, 0.3), seed=value)),
    "KneserNeyModel.order": ("order", lambda value: KneserNeyModel(value, 10)),
    "KneserNeyModel.vocab_size": ("vocab_size", lambda value: KneserNeyModel(2, value)),
    "word_delta.threshold": ("threshold", lambda value: word_delta(RNN_A, RNN_B, [], VOCAB, threshold=value)),
    "word_delta.min_count": ("min_count", lambda value: word_delta(RNN_A, RNN_B, [], VOCAB, min_count=value)),
}
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.sampled_from([np.int64(3), np.float64("nan"), np.bool_(True), "3", "0.5", "sample", "RNN"]),
)


class TestChecker:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(7), 10**30])
    def test_integral_values_at_or_above_the_minimum_pass(self, value):
        checks.integer("n", value, 3)

    @pytest.mark.parametrize("value", [2, 3.0, np.float64(4), True, np.bool_(True), "4", None, Fraction(4)])
    def test_other_values_are_named(self, value):
        with pytest.raises(ValueError, match=f"^n must be an integer of at least 3, got {re.escape(repr(value))}$"):
            checks.integer("n", value, 3)

    @pytest.mark.parametrize("value", [1e-300, 1, np.float64(2.5), np.int64(1), Fraction(1, 3), 1e308])
    def test_finite_positive_values_pass(self, value):
        checks.real("x", value)

    @pytest.mark.parametrize("value", [0, 0.0, -1, math.nan, math.inf, -math.inf, np.float64("nan"), True, "1",
                                       None, 1j])
    def test_other_values_are_not_positive(self, value):
        with pytest.raises(ValueError, match="^x must be finite and positive, got "):
            checks.real("x", value)

    def test_zero_passes_where_allowed(self):
        checks.real("x", 0, or_zero=True)
        checks.real("x", -0.0, or_zero=True)
        for value in (-1e-9, math.nan, math.inf, False):
            with pytest.raises(ValueError, match=f"^x must be finite and at least 0, got {value!r}$"):
                checks.real("x", value, or_zero=True)


class TestLibrarySettings:
    @settings(max_examples=400, deadline=None)
    @given(setting=st.sampled_from(sorted(CALLS)), value=SCALARS)
    def test_any_scalar_passes_or_is_named(self, setting, value):
        # any other exception than ValueError fails the test
        name, call = CALLS[setting]
        try:
            call(value)
        except ValueError as exc:
            if str(exc) == "no tokens survive vocabulary filtering":  # a count above every word's
                assert setting == "build_vocab.min_count" and value > 2
            else:
                assert str(exc).startswith(f"{name} must be"), (setting, value, str(exc))

    @pytest.mark.parametrize("call, name", [
        (lambda: TrainConfig(lr="0.1").validate(), "lr"),
        (lambda: TrainConfig(batch_size=2.5).validate(), "batch_size"),
        (lambda: TrainConfig(max_epochs=0).validate(), "max_epochs"),
        (lambda: TrainConfig(patience=True).validate(), "patience"),
        (lambda: TrainConfig(seed=-1).validate(), "seed"),
        (lambda: ModelConfig(**{**MODEL, "d": 8.5}).validate(), "d"),
        (lambda: ModelConfig(**{**MODEL, "d": "8"}).validate(), "d"),
        (lambda: ModelConfig(**{**MODEL, "n_authors": 0}).validate(), "n_authors"),
        (lambda: ModelConfig(**{**MODEL, "variant": "SAM-Cat", "n_categories": 0}).validate(), "n_categories"),
        (lambda: build_vocab(DOCS, cap=4.5), "cap"),
        (lambda: build_vocab(DOCS, min_count=0), "min_count"),
        (lambda: GenRequest(seed=1.5).validate(), "seed"),
        (lambda: split(DOCS * 3, (0.4, 0.3, 0.3), seed=1.5), "seed"),
        (lambda: GenRequest(strategy="beam").validate(), "strategy"),
        (lambda: KneserNeyModel(2.5, 10), "order"),
        (lambda: KneserNeyModel.fit([IndexedDocument(id="d", text_ids=(3, 1))], order=2.5, vocab_size=4), "order"),
        (lambda: LdaConfig(alpha=math.inf).validate(), "alpha"),
        (lambda: LdaConfig(seed=-1).validate(), "seed"),
        (lambda: word_delta(RNN_A, RNN_B, [], VOCAB, threshold=math.nan), "threshold"),
        (lambda: word_delta(RNN_A, RNN_B, [], VOCAB, threshold=-1), "threshold"),
        (lambda: word_delta(RNN_A, RNN_B, [], VOCAB, min_count=-1), "min_count"),
        (lambda: word_delta(RNN_A, RNN_B, [], VOCAB, min_count=2.5), "min_count"),
    ])
    def test_refused_settings_are_named(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call()

    def test_word_delta_counts_of_zero_and_one_keep_every_word(self):
        doc = IndexedDocument(id="d", text_ids=(3, 4, 3, EOS_ID))
        for min_count in (0, 1):
            buckets = word_delta(RNN_A, RNN_B, [doc], VOCAB, threshold=0, min_count=min_count).categories["all"]
            assert sorted(d.word for d in buckets.improved + buckets.alike + buckets.worse) == ["<eos>", "a", "b"]
