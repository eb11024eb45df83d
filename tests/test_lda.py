import itertools

import numpy as np
import pytest

from samlm.corpus import Document, IndexedDocument
from samlm.lda import LdaConfig, assign_categories, fit, label_corpus, top_words

import oracles
import synth


def planted(n_topics, docs_per_topic=40, seed=0, **kwargs):
    docs, labels = synth.planted_topic_corpus(n_topics, docs_per_topic, seed=seed, **kwargs)
    vocab, attrs, indexed = synth.pipeline(docs)
    return docs, labels, vocab, indexed


class TestConfig:
    def test_defaults(self):
        cfg = LdaConfig()
        assert cfg.n_topics == 5
        assert cfg.effective_alpha == 10.0
        assert cfg.beta == 0.01

    def test_validation(self):
        with pytest.raises(ValueError, match="n_topics"):
            LdaConfig(n_topics=1).validate()
        with pytest.raises(ValueError, match="positive"):
            LdaConfig(beta=-1).validate()

    @pytest.mark.parametrize("field, value", [
        ("iterations", 2.5), ("n_topics", 3.0), ("seed", 1.5), ("seed", True), ("n_topics", "3"),
        ("alpha", "1"), ("beta", None), ("beta", False),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            LdaConfig(**{field: value}).validate()

    def test_integral_and_real_values_pass(self):
        LdaConfig(n_topics=np.int64(3), alpha=1, beta=np.float64(0.5), iterations=0, seed=np.int32(2)).validate()


class TestFit:
    def test_two_planted_topics_recovered(self):
        docs, labels, vocab, indexed = planted(2)
        cfg = LdaConfig(n_topics=2, iterations=100, seed=1)
        model = fit(indexed, cfg, vocab_size=len(vocab))
        purity = synth.best_alignment_purity(assign_categories(model), labels, 2)
        assert purity >= 0.9

    def test_same_seed_reproduces_exactly(self):
        docs, labels, vocab, indexed = planted(2, docs_per_topic=10)
        cfg = LdaConfig(n_topics=2, iterations=10, seed=5)
        m1 = fit(indexed, cfg, vocab_size=len(vocab))
        m2 = fit(indexed, cfg, vocab_size=len(vocab))
        for a1, a2 in zip(m1.assignments, m2.assignments):
            assert np.array_equal(a1, a2)

    def test_zero_vs_one_iteration_differ(self):
        docs, labels, vocab, indexed = planted(2, docs_per_topic=10)
        m0 = fit(indexed, LdaConfig(n_topics=2, iterations=0, seed=3), vocab_size=len(vocab))
        m1 = fit(indexed, LdaConfig(n_topics=2, iterations=1, seed=3), vocab_size=len(vocab))
        assert any(
            not np.array_equal(a0, a1) for a0, a1 in zip(m0.assignments, m1.assignments)
        )

    def test_count_tables_stay_consistent(self):
        docs, labels, vocab, indexed = planted(3, docs_per_topic=8)
        for sweeps in (0, 10, 20):
            model = fit(indexed, LdaConfig(n_topics=3, iterations=sweeps, seed=2), vocab_size=len(vocab))
            model.audit_counts()

    @pytest.mark.parametrize("table", ["doc_topic", "topic_word", "topic_totals"])
    def test_audit_catches_a_corrupted_table(self, table):
        docs, labels, vocab, indexed = planted(3, docs_per_topic=4)
        model = fit(indexed, LdaConfig(n_topics=3, iterations=2, seed=2), vocab_size=len(vocab))
        getattr(model, table).flat[1] += 1
        with pytest.raises(AssertionError, match="disagree"):
            model.audit_counts()

    def test_audit_catches_an_assignment_out_of_range(self):
        docs, labels, vocab, indexed = planted(3, docs_per_topic=4)
        model = fit(indexed, LdaConfig(n_topics=3, iterations=2, seed=2), vocab_size=len(vocab))
        model.assignments[1][0] = 3
        with pytest.raises(AssertionError):
            model.audit_counts()

    def test_assignments_in_topic_range(self):
        docs, labels, vocab, indexed = planted(4, docs_per_topic=6)
        model = fit(indexed, LdaConfig(n_topics=4, iterations=5, seed=0), vocab_size=len(vocab))
        for z in model.assignments:
            assert np.all((0 <= z) & (z < 4))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit([], LdaConfig(n_topics=2), vocab_size=10)

    @pytest.mark.parametrize("bad", [10, 11, -1])
    def test_token_id_outside_vocabulary_names_the_document(self, bad):
        docs = [IndexedDocument(id="fine", text_ids=(3, 4, 2)), IndexedDocument(id="odd", text_ids=(3, bad, 2))]
        with pytest.raises(ValueError, match="document odd"):
            fit(docs, LdaConfig(n_topics=2, iterations=1), vocab_size=10)


def chain_corpus():
    """Planted-topic documents of mixed lengths, repeated words, and one
    document that is only its EOS, so it has nothing to sample."""
    rng = np.random.default_rng(13)
    raw, _ = synth.planted_topic_corpus(4, docs_per_topic=6, seed=2, doc_len=25)
    docs = [Document(id=d.id, text=d.text[: int(rng.integers(1, 26))]) for d in raw]
    docs.insert(5, Document(id="eos-only", text=()))
    docs.append(Document(id="one-word", text=("t0w1",) * 9))
    vocab, _, indexed = synth.pipeline(docs)
    return indexed, len(vocab)


class DyadicDraws:
    """Stands in for numpy's Generator: `integers` from a real generator, and
    uniforms that cycle through a few dyadic fractions. When topic weights tie,
    the draw u = uniform * total then lands exactly on a running sum, where
    searchsorted(side="left") takes the lower topic; 31/32 and 1/16 move the
    chain out of states where one topic holds every token."""

    real_default_rng = staticmethod(np.random.default_rng)

    def __init__(self, seed):
        self._rng = self.real_default_rng(seed)
        self._uniforms = itertools.cycle([0.5, 0.96875, 0.25, 0.0625, 0.75])

    def integers(self, low, high, size):
        return self._rng.integers(low, high, size=size)

    def random(self, size=None):
        if size is None:
            return next(self._uniforms)
        return np.array([next(self._uniforms) for _ in range(size)])


class TestChainMatchesArrayOracle:
    """`fit` must draw the chain of the numpy-array sweep in tests/oracles.py:
    the same assignments and the same count tables, byte for byte."""

    @pytest.mark.parametrize("sweeps", [0, 1, 6])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n_topics, alpha", [(2, None), (5, 0.1), (20, None), (50, 0.1)])
    def test_assignments_and_tables_are_bytewise_equal(self, n_topics, alpha, seed, sweeps):
        docs, vocab_size = chain_corpus()
        assert any(len(d.text_ids) == 1 for d in docs)
        cfg = LdaConfig(n_topics=n_topics, alpha=alpha, iterations=sweeps, seed=seed)
        model = fit(docs, cfg, vocab_size=vocab_size)
        self.assert_same_chain(model, oracles.lda_gibbs_numpy(docs, cfg, vocab_size))

    @pytest.mark.parametrize("n_topics, copies", [(2, 3), (4, 5)])
    def test_draws_on_a_running_sum_take_the_lower_topic(self, n_topics, copies, monkeypatch):
        # one document that repeats one word: taking a token out of the
        # largest topic often leaves every topic with equal weight
        docs = [IndexedDocument(id="repeat", text_ids=(3,) * copies + (2,))]
        monkeypatch.setattr(np.random, "default_rng", DyadicDraws)
        cfg = LdaConfig(n_topics=n_topics, alpha=1.0, beta=1.0, iterations=6, seed=0)
        model = fit(docs, cfg, vocab_size=5)
        self.assert_same_chain(model, oracles.lda_gibbs_numpy(docs, cfg, 5))

    @staticmethod
    def assert_same_chain(model, reference):
        assignments, doc_topic, topic_word, topic_totals = reference
        assert len(model.assignments) == len(assignments)
        for got, want in zip(model.assignments, assignments):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for got, want in [(model.doc_topic, doc_topic), (model.topic_word, topic_word),
                          (model.topic_totals, topic_totals)]:
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestAssignment:
    def test_unanimous_document(self):
        docs, labels, vocab, indexed = planted(3, docs_per_topic=8)
        model = fit(indexed, LdaConfig(n_topics=3, iterations=30, seed=1), vocab_size=len(vocab))
        doc_index = 0
        model.doc_topic[doc_index] = 0
        model.doc_topic[doc_index, 1] = 7
        assert assign_categories(model)[doc_index] == 1

    def test_tie_takes_lowest_index(self):
        docs, labels, vocab, indexed = planted(3, docs_per_topic=8)
        model = fit(indexed, LdaConfig(n_topics=3, iterations=5, seed=1), vocab_size=len(vocab))
        model.doc_topic[0] = 0
        model.doc_topic[0, 1] = 4
        model.doc_topic[0, 2] = 4
        assert assign_categories(model)[0] == 1

    def test_label_corpus_writes_topic_names(self):
        docs, labels, vocab, indexed = planted(2, docs_per_topic=5)
        model = fit(indexed, LdaConfig(n_topics=2, iterations=20, seed=1), vocab_size=len(vocab))
        labeled = label_corpus(model, docs)
        assert all(d.category in ("topic-0", "topic-1") for d in labeled)
        assert [d.text for d in labeled] == [d.text for d in docs]


class TestTopWords:
    def test_planted_keywords_rank_first(self):
        docs, labels, vocab, indexed = planted(2, docs_per_topic=30)
        model = fit(indexed, LdaConfig(n_topics=2, iterations=100, seed=4), vocab_size=len(vocab))
        tops = top_words(model, 5, vocab)
        pools = [{f"t0w{j}" for j in range(10)}, {f"t1w{j}" for j in range(10)}]
        for words in tops:
            hit = [len(set(words) & pool) for pool in pools]
            assert max(hit) == 5  # each topic's top words come from one pool

    def test_k_larger_than_vocab_gives_full_ranking(self):
        docs, labels, vocab, indexed = planted(2, docs_per_topic=5)
        model = fit(indexed, LdaConfig(n_topics=2, iterations=10, seed=1), vocab_size=len(vocab))
        tops = top_words(model, 10_000, vocab)
        seen = model.topic_word.sum(axis=0) > 0
        assert sum(len(t) for t in tops) >= int(seen.sum())

    def test_negative_count_rejected(self):
        docs, labels, vocab, indexed = planted(2, docs_per_topic=5)
        model = fit(indexed, LdaConfig(n_topics=2, iterations=0, seed=1), vocab_size=len(vocab))
        assert top_words(model, 0, vocab) == [[], []]
        with pytest.raises(ValueError, match="non-negative"):
            top_words(model, -1, vocab)

    def test_tie_break_is_lexicographic(self):
        docs, labels, vocab, indexed = planted(2, docs_per_topic=5)
        model = fit(indexed, LdaConfig(n_topics=2, iterations=0, seed=1), vocab_size=len(vocab))
        counts = model.topic_word[0]
        tops = top_words(model, len(vocab), vocab)[0]
        for first, second in zip(tops, tops[1:]):
            c1, c2 = counts[vocab.index[first]], counts[vocab.index[second]]
            assert c1 > c2 or (c1 == c2 and first < second)
