import numpy as np
import pytest

from samlm.corpus import EOS_ID, IndexedDocument
from samlm.evaluate import format_word_delta, perplexity, word_delta, write_word_delta_csv
from samlm.model import ModelConfig, build

import synth


def zeroed(model):
    for p in model.store.params():
        p.value[...] = 0.0
    return model


def make_models(vocab_size=9, seed=0):
    cfg = dict(d=6, d_tilde=4, vocab_size=vocab_size, n_authors=1, n_categories=3)
    model_a = build(ModelConfig(variant="RNN", seed=seed, **cfg))
    model_b = build(ModelConfig(variant="RNN", seed=seed, **cfg))
    return model_a, model_b


DOCS = [
    IndexedDocument(id="a", text_ids=(3, 4, EOS_ID), category_id=1),
    IndexedDocument(id="b", text_ids=(5, 6, 7, EOS_ID), category_id=2),
    IndexedDocument(id="c", text_ids=(3, 0, EOS_ID), category_id=1),
]


class TestPerplexity:
    def test_uniform_model_hits_vocab_size(self):
        model = zeroed(make_models()[0])
        report = perplexity(model, DOCS)
        np.testing.assert_allclose(report.perplexity, 9.0, atol=1e-6)

    def test_identical_models_identical_reports(self):
        model_a, model_b = make_models(seed=4)
        ra = perplexity(model_a, DOCS, model_id="x", corpus_id="y")
        rb = perplexity(model_b, DOCS, model_id="x", corpus_id="y")
        assert ra == rb

    def test_document_order_invariance(self):
        model, _ = make_models(seed=5)
        a = perplexity(model, DOCS).perplexity
        b = perplexity(model, list(reversed(DOCS))).perplexity
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_report_invariant(self):
        model, _ = make_models(seed=6)
        report = perplexity(model, DOCS)
        np.testing.assert_allclose(report.perplexity, np.exp(report.total_nll / report.token_count), atol=1e-9)

    def test_token_and_unk_counts(self):
        model, _ = make_models()
        report = perplexity(model, DOCS)
        assert report.token_count == sum(len(d.text_ids) for d in DOCS)
        assert report.unk_count == 1

    def test_empty_corpus_rejected(self):
        model, _ = make_models()
        with pytest.raises(ValueError, match="empty"):
            perplexity(model, [])

    def test_csv_shape(self):
        model, _ = make_models()
        lines = perplexity(model, DOCS, model_id="m", corpus_id="c").csv().splitlines()
        assert lines[0].startswith("model_id,")
        assert lines[1].startswith("m,c,")


class TestWordDelta:
    def test_identical_models_all_alike(self):
        model_a, model_b = make_models(seed=1)
        vocab, attrs, _ = synth.pipeline(synth.two_category_corpus(5, seed=1))
        report = word_delta(model_a, model_b, DOCS, vocab, min_count=1)
        bucket = report.categories["all"]
        assert not bucket.improved and not bucket.worse
        assert all(w.mean_delta == 0.0 for w in bucket.alike)

    def test_planted_bias_lands_in_improved(self):
        # model_b is the uniform predictor with the logit of token 3 raised,
        # so token 3 must improve and every other target must get worse
        model_a, model_b = make_models(seed=0)
        zeroed(model_a)
        zeroed(model_b)
        model_b.store["bout"].value[3] = 1.0
        vocab, attrs, _ = synth.pipeline(synth.two_category_corpus(5, seed=1))
        report = word_delta(model_a, model_b, DOCS, vocab, min_count=1)
        improved = {w.word for bucket in report.categories.values() for w in bucket.improved}
        worse = {w.word for bucket in report.categories.values() for w in bucket.worse}
        assert vocab.token_for(3) in improved
        assert vocab.token_for(3) not in worse
        assert worse

    def test_buckets_partition_words(self):
        model_a, model_b = make_models(seed=2)
        vocab, attrs, _ = synth.pipeline(synth.two_category_corpus(5, seed=1))
        report = word_delta(model_a, model_b, DOCS, vocab, min_count=1)
        for bucket in report.categories.values():
            words = [w.word for w in bucket.improved + bucket.alike + bucket.worse]
            assert len(words) == len(set(words))
        seen = sum(
            len(b.improved) + len(b.alike) + len(b.worse) for b in report.categories.values()
        )
        distinct_targets = len({t for d in DOCS for t in d.text_ids})
        assert seen == distinct_targets

    def test_min_count_filters(self):
        model_a, model_b = make_models(seed=3)
        vocab, attrs, _ = synth.pipeline(synth.two_category_corpus(5, seed=1))
        report = word_delta(model_a, model_b, DOCS, vocab, min_count=5)
        assert all(
            not (b.improved or b.alike or b.worse) for b in report.categories.values()
        )

    def test_groups_by_category_name(self):
        model_a, model_b = make_models(seed=4)
        categories = synth.pipeline(synth.two_category_corpus(8, seed=1))[1].categories
        report = word_delta(model_a, model_b, DOCS, make_vocab(), categories=categories, min_count=1)
        assert set(report.categories) <= set(categories.tokens)

    def test_vocab_mismatch_rejected(self):
        model_a, _ = make_models()
        model_c = build(ModelConfig(variant="RNN", d=6, d_tilde=4, vocab_size=12))
        with pytest.raises(ValueError, match="vocabulary"):
            word_delta(model_a, model_c, DOCS, make_vocab())

    def test_csv_and_text_outputs(self, tmp_path):
        model_a, model_b = make_models(seed=5)
        vocab = make_vocab()
        report = word_delta(model_a, model_b, DOCS, vocab, min_count=1)
        path = tmp_path / "wd.csv"
        write_word_delta_csv(report, path)
        assert path.read_text().startswith("category,bucket,word,")
        assert "improved" in format_word_delta(report)


def make_vocab():
    return synth.pipeline(synth.two_category_corpus(5, seed=1))[0]
