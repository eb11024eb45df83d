import json
import re

import numpy as np
import pytest

from samlm.corpus import EOS_ID, UNK_ID, Document, IndexedDocument
from samlm.ngram import KneserNeyModel

import oracles
import synth


def indexed_corpus(texts):
    docs = [Document(id=str(i), text=tuple(t.split())) for i, t in enumerate(texts)]
    return synth.pipeline(docs, cap=1000)


def random_token_corpus(n_tokens, vocab=("a", "b", "c", "d", "e"), seed=0, doc_len=20):
    rng = np.random.default_rng(seed)
    texts = []
    remaining = n_tokens
    while remaining > 0:
        take = min(doc_len, remaining)
        # skewed draws so the corpus has interesting count structure
        weights = np.arange(1, len(vocab) + 1, dtype=float)
        weights /= weights.sum()
        texts.append(" ".join(rng.choice(vocab, size=take, p=weights)))
        remaining -= take
    return indexed_corpus(texts)


class TestFit:
    def test_counts_dominate(self):
        vocab, attrs, docs = indexed_corpus(["a b a b"])
        model = KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab))
        a, b = vocab.index["a"], vocab.index["b"]
        assert model.prob((a,), b) > model.prob((a,), a)

    def test_order_validation(self):
        vocab, attrs, docs = indexed_corpus(["a b"])
        with pytest.raises(ValueError, match="order"):
            KneserNeyModel.fit(docs, order=0, vocab_size=len(vocab))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            KneserNeyModel.fit([], order=2, vocab_size=10)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_normalization_over_observed_contexts(self, order):
        vocab, attrs, docs = random_token_corpus(300, seed=1)
        model = KneserNeyModel.fit(docs, order=order, vocab_size=len(vocab))
        rng = np.random.default_rng(2)
        for _ in range(50):
            doc = docs[rng.integers(0, len(docs))]
            seq = tuple(doc.text_ids)
            start = rng.integers(0, max(1, len(seq) - order + 1))
            ctx = seq[start : start + order - 1]
            total = sum(model.prob(ctx, w) for w in range(len(vocab)))
            assert abs(total - 1.0) <= 1e-6, (order, ctx, total)

    def test_normalization_over_random_contexts(self):
        # includes unseen contexts, which must back off and still normalize
        vocab, attrs, docs = random_token_corpus(300, seed=3)
        model = KneserNeyModel.fit(docs, order=3, vocab_size=len(vocab))
        rng = np.random.default_rng(4)
        for _ in range(200):
            ctx = tuple(rng.integers(0, len(vocab), size=2))
            total = sum(model.prob(ctx, w) for w in range(len(vocab)))
            assert abs(total - 1.0) <= 1e-6


class TestDiscount:
    # every unigram continuation count is 2, so n1 = 0 at order 1
    TEXTS = ["a b c", "b c a", "c a b", "a c b"]

    def test_order_without_singletons_takes_half(self):
        vocab, attrs, docs = indexed_corpus(self.TEXTS)
        model = KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab))
        assert model.discounts == [0.5, 0.375]
        a = vocab.index["a"]
        assert model.prob((a,), UNK_ID) > 0
        held = [IndexedDocument(id="h", text_ids=(a, UNK_ID, EOS_ID))]
        assert np.isfinite(model.perplexity(held).perplexity)

    def test_load_reestimates_a_saved_zero_discount(self, tmp_path):
        vocab, attrs, docs = indexed_corpus(self.TEXTS)
        model = KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab))
        path = tmp_path / "kn2.counts"
        model.save(path)
        header, body = path.read_text().split("\n", 1)
        edited = dict(json.loads(header), discounts=[0.0, 0.375])
        path.write_text(json.dumps(edited) + "\n" + body)
        assert KneserNeyModel.load(path).discounts == [0.5, 0.375]


class TestAgainstOracle:
    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_perplexity_matches_direct_summation_oracle(self, order):
        vocab, attrs, docs = random_token_corpus(200, seed=5)
        model = KneserNeyModel.fit(docs, order=order, vocab_size=len(vocab))
        oracle = oracles.KneserNeyOracle(docs, order=order, vocab_size=len(vocab))
        total_model = sum(model.document_nll(d)[0] for d in docs)
        total_oracle = sum(oracle.document_nll(d) for d in docs)
        tokens = sum(len(d.text_ids) for d in docs)
        ppl_model = np.exp(total_model / tokens)
        ppl_oracle = np.exp(total_oracle / tokens)
        np.testing.assert_allclose(ppl_model, ppl_oracle, atol=1e-6)

    def test_held_out_probabilities_match_oracle(self):
        vocab, attrs, docs = random_token_corpus(200, seed=6)
        model = KneserNeyModel.fit(docs[:-2], order=3, vocab_size=len(vocab))
        oracle = oracles.KneserNeyOracle(docs[:-2], order=3, vocab_size=len(vocab))
        for doc in docs[-2:]:
            np.testing.assert_allclose(
                model.document_nll(doc)[0], oracle.document_nll(doc), atol=1e-9
            )


class TestPerplexity:
    def test_unigram_on_uniform_data_near_vocab_size(self):
        rng = np.random.default_rng(7)
        vocab_words = [f"w{i}" for i in range(30)]
        texts = [" ".join(rng.choice(vocab_words, size=40)) for _ in range(60)]
        vocab, attrs, docs = indexed_corpus(texts)
        model = KneserNeyModel.fit(docs, order=1, vocab_size=len(vocab))
        ppl = model.perplexity(docs).perplexity
        # uniform over 30 words plus the EOS share: within 20 percent of |words|
        assert 24 < ppl < 36

    def test_more_data_never_hurts_training_set(self):
        vocab, attrs, docs = random_token_corpus(400, seed=8)
        half = docs[: len(docs) // 2]
        small = KneserNeyModel.fit(half, order=3, vocab_size=len(vocab))
        double = KneserNeyModel.fit(half + half, order=3, vocab_size=len(vocab))
        assert (
            double.perplexity(half).perplexity
            <= small.perplexity(half).perplexity + 1e-9
        )

    def test_report_protocol_matches_eval(self):
        vocab, attrs, docs = random_token_corpus(100, seed=9)
        model = KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab))
        report = model.perplexity(docs, corpus_id="train")
        assert report.token_count == sum(len(d.text_ids) for d in docs)
        np.testing.assert_allclose(
            report.perplexity, np.exp(report.total_nll / report.token_count), atol=1e-9
        )

    def test_report_counts_unk_targets(self):
        vocab, attrs, docs = random_token_corpus(100, seed=9)
        model = KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab))
        # 8 targets (EOS included), 2 of them UNK
        held = [IndexedDocument(id="h", text_ids=(3, UNK_ID, 4, 5, UNK_ID, 3, 4, EOS_ID))]
        report = model.perplexity(held)
        assert (report.token_count, report.unk_count) == (8, 2)
        assert report.total_nll == model.document_nll(held[0])[0]

    def test_empty_eval_rejected(self):
        vocab, attrs, docs = random_token_corpus(50)
        model = KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab))
        with pytest.raises(ValueError, match="empty"):
            model.perplexity([])


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        vocab, attrs, docs = random_token_corpus(150, seed=10)
        model = KneserNeyModel.fit(docs, order=3, vocab_size=len(vocab))
        path = tmp_path / "kn3.counts"
        model.save(path)
        loaded = KneserNeyModel.load(path)
        assert loaded.discounts == model.discounts
        rng = np.random.default_rng(11)
        for _ in range(30):
            ctx = tuple(rng.integers(0, len(vocab), size=2))
            w = int(rng.integers(0, len(vocab)))
            assert loaded.prob(ctx, w) == model.prob(ctx, w)

    @pytest.mark.parametrize(
        "bad_line",
        [
            "2\t5\t3\n",  # context too short for its order
            "0\t\t5\t3\n",  # order 0
            "3\t4 5\t6\t1\n",  # order above the model's
            "\n",  # blank
            "7\n",  # one field
            "2\t3\tx\t1\n",  # a field that is no integer
            "2\t3\t4\t0\n",  # count below 1
            "2\t3\t4\t-3\n",
            "2\t3\t5\t1\n",  # token id past the vocabulary (5 entries)
            "2\t-1\t4\t1\n",
        ],
    )
    def test_malformed_count_line_names_its_number(self, tmp_path, bad_line):
        vocab, attrs, docs = indexed_corpus(["a b a", "b a b"])
        path = tmp_path / "kn2.counts"
        KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab)).save(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2] + [bad_line] + lines[2:]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed count line 3$"):
            KneserNeyModel.load(path)

    @pytest.mark.parametrize(
        "header",
        [
            "[2, 5]",  # a list
            '{"vocab_size": 5}',  # no order
            "order 2",  # not JSON
            '{"order": "2", "vocab_size": 5}',
            '{"order": true, "vocab_size": 5}',
            '{"order": 0, "vocab_size": 5}',
        ],
    )
    def test_malformed_header_names_the_file(self, tmp_path, header):
        vocab, attrs, docs = indexed_corpus(["a b a", "b a b"])
        path = tmp_path / "kn2.counts"
        KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab)).save(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([header + "\n"] + lines[1:]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed header"):
            KneserNeyModel.load(path)

    def test_file_is_sorted_text_with_header(self, tmp_path):
        vocab, attrs, docs = indexed_corpus(["a b a", "b a b"])
        model = KneserNeyModel.fit(docs, order=2, vocab_size=len(vocab))
        path = tmp_path / "kn.counts"
        model.save(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("{")
        body = [line.split("\t") for line in lines[1:]]
        assert body == sorted(body, key=lambda row: (int(row[0]), row[1], int(row[2])))
