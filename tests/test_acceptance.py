"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 3's perplexity bands are derived from the planted corpus's Bayes
rates, which `synth.two_category_optimal_perplexity` computes from the
generator alone.
Criterion 8 is the optional full-scale run and only executes when the
SAMLM_PTB_DIR environment variable points at the standard preprocessed
Penn Treebank directory.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from samlm.corpus import EOS, EOS_ID, Document, IndexedDocument, build_vocab, index_corpus
from samlm.generation import GenRequest, generate, style_variation
from samlm.lda import LdaConfig, assign_categories, fit as lda_fit, top_words
from samlm.model import VARIANTS, ModelConfig, build
from samlm.ngram import KneserNeyModel
from samlm.tensor import grad_check
from samlm.trainer import TrainConfig, mean_nll, train

import oracles
import synth


def passed(criterion, name, detail=""):
    print(f"[acceptance] criterion {criterion} ({name}): PASS {detail}")


TINY_DIMS = dict(d=4, d_tilde=3, vocab_size=7, n_authors=2, n_categories=2)
TINY_DOC = IndexedDocument(
    id="acceptance", text_ids=(3, 5, 4, EOS_ID), title_ids=(4, 6), author_id=1, category_id=1
)


class TestCriterion1GradientFidelity:
    def test_every_variant_passes_finite_differences(self):
        started = time.perf_counter()
        failures = []
        for variant in sorted(VARIANTS):
            model = build(ModelConfig(variant=variant, seed=1, **TINY_DIMS))
            model.store.zero_grads()
            fwd = model.forward_document(TINY_DOC, want_trace=False)
            model.backward_document(fwd)
            report = grad_check(
                lambda s: model.forward_document(
                    TINY_DOC, want_trace=False, want_caches=False
                ).total_nll,
                model.store,
                eps=1e-5,
                tol=1e-4,
            )
            if not report.passed:
                failures.append((variant, report.format_table()))
        elapsed = time.perf_counter() - started
        assert not failures, failures
        assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s"
        passed(1, "gradient fidelity", f"[9 variants, {elapsed:.1f}s]")


class TestCriterion2ScalarOracles:
    def test_forward_passes_match_scalar_loop_oracles(self):
        started = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(seed)

            # gate block
            from samlm.gru import GruCell
            from samlm.tensor import ParamStore

            store = ParamStore()
            cell = GruCell(store, "g", 3, 4, np.random.default_rng(seed))
            w = rng.uniform(-1, 1, 3)
            h_prev = rng.uniform(-1, 1, 4)
            h, _ = cell.step(w, h_prev)
            expected = oracles.scalar_gru_step(
                oracles.gru_weights(store, "g"), w.tolist(), h_prev.tolist()
            )
            np.testing.assert_allclose(h, expected, atol=1e-10)

            # title-word attention
            from samlm.attention import BilinearAttention

            att_store = ParamStore()
            att = BilinearAttention(att_store, "M1", 3, 5, np.random.default_rng(seed))
            states = [rng.uniform(-1, 1, 3) for _ in range(4)]
            h_main = rng.uniform(-1, 1, 5)
            context, weights, _ = att.attend(np.array(states)[None], h_main[None])
            exp_context, exp_weights = oracles.scalar_attention(
                att.M.value.tolist(), [s.tolist() for s in states], h_main.tolist()
            )
            np.testing.assert_allclose(context[0], exp_context, atol=1e-10)
            np.testing.assert_allclose(weights[0], exp_weights, atol=1e-10)

            # attribute attention over a small candidate set
            att2_store = ParamStore()
            att2 = BilinearAttention(att2_store, "M2", 3, 5, np.random.default_rng(seed + 99))
            cands = [rng.uniform(-1, 1, 3) for _ in range(3)]
            context, weights, _ = att2.attend(np.array(cands)[None], h_main[None])
            exp_context, exp_weights = oracles.scalar_attention(
                att2.M.value.tolist(), [c.tolist() for c in cands], h_main.tolist()
            )
            np.testing.assert_allclose(context[0], exp_context, atol=1e-10)
            np.testing.assert_allclose(weights[0], exp_weights, atol=1e-10)

            # full teacher-forced document pass, every variant
            for variant in sorted(VARIANTS):
                model = build(ModelConfig(variant=variant, seed=seed, **TINY_DIMS))
                fwd = model.forward_document(TINY_DOC, want_caches=False)
                total, per_word = oracles.scalar_forward_document(model, TINY_DOC)
                np.testing.assert_allclose(fwd.total_nll, total, atol=1e-10)
                np.testing.assert_allclose(fwd.per_word_nll, per_word, atol=1e-10)
        passed(2, "scalar-loop oracles", f"[20 seeds, {time.perf_counter() - started:.1f}s]")


@pytest.fixture(scope="module")
def category_runs():
    """RNN and SAM-Cat trained on the two-category planted corpus."""
    docs = synth.two_category_corpus(2000, seed=1, stop_prob=1 / 6)
    vocab, attrs, indexed = synth.pipeline(docs)
    tr, va, te = indexed[:1600], indexed[1600:1800], indexed[1800:]
    out = {"vocab": vocab, "attrs": attrs, "test": te, "test_docs": docs[1800:], "seconds": 0.0}
    started = time.perf_counter()
    for variant in ("RNN", "SAM-Cat"):
        model = build(
            ModelConfig(
                variant=variant,
                d=32,
                d_tilde=16,
                vocab_size=len(vocab),
                n_authors=len(attrs.authors),
                n_categories=len(attrs.categories),
                seed=0,
            )
        )
        train(model, tr, va, TrainConfig(max_epochs=50, patience=3, seed=0))
        out[variant] = (model, float(np.exp(mean_nll(model, te))))
    out["seconds"] = time.perf_counter() - started
    return out


# Band around an oracle optimum: the floor allows for sampling noise only, and
# the ceiling is the slack the SAM-Cat <= 12 bound gives over its optimum.
BAND_FLOOR, BAND_CEIL = 0.98, 1.13


def first_target_ppl(model, docs):
    fwds = (model.forward_document(d, want_trace=False, want_caches=False) for d in docs)
    return float(np.exp(np.mean([fwd.per_word_nll[0] for fwd in fwds])))


class TestCriterion3CategorySeparation:
    def test_closed_form_entropy_oracle(self):
        # hand-computed: stop_prob 1/4, cap 3, lengths 1, 2 and 3 (the last
        # hits the cap, so its EOS is forced); 6 words plus 3 EOS targets
        docs = [
            Document(id="l1", text=("a0",), category="cat-a"),
            Document(id="l2", text=("b1", "b2"), category="cat-b"),
            Document(id="l3", text=("a3", "a4", "a5"), category="cat-a"),
        ]
        opt = synth.two_category_optimal_perplexity(docs, stop_prob=0.25, cap=3)
        # first words 1/20 (blind) or 1/10 (aware); later words (3/4)/10;
        # unforced EOS 1/4
        assert opt.blind == pytest.approx((20**3 * (40 / 3) ** 3 * 4**2) ** (1 / 9), rel=1e-12)
        assert opt.aware == pytest.approx((10**3 * (40 / 3) ** 3 * 4**2) ** (1 / 9), rel=1e-12)
        # E[L] = 1 + 3/4 + 9/16 = 37/16, so P(EOS) = 16/53, each word 37/1060
        unigram = ((1060 / 37) ** 6 * (53 / 16) ** 3) ** (1 / 9)
        assert opt.unigram == pytest.approx(unigram, rel=1e-12)
        assert (opt.first_blind, opt.first_aware) == (20.0, 10.0)
        with pytest.raises(ValueError):
            synth.two_category_optimal_perplexity(docs, stop_prob=0.25, cap=2)

        # on a large corpus the oracle approaches the closed-form expectation
        # (ln 20 + (E[L]-1) ln(10/(1-q)) + ln(1/q)) / (E[L]+1), E[L] = 1/q (the
        # cap's share is ~1e-5); the standard error of log perplexity at
        # 20000 documents is below 1e-3
        q, mean_len = 1 / 6, 6.0
        opt = synth.two_category_optimal_perplexity(synth.two_category_corpus(20000, seed=11))
        tail = (mean_len - 1) * np.log(10 / (1 - q)) + np.log(1 / q)
        p_eos = 1 / (mean_len + 1)
        blind = np.exp((np.log(20) + tail) / (mean_len + 1))
        aware = np.exp((np.log(10) + tail) / (mean_len + 1))
        unigram = np.exp(
            (mean_len * np.log(20 / (1 - p_eos)) + np.log(1 / p_eos)) / (mean_len + 1)
        )
        assert (round(blind, 2), round(aware, 2)) == (11.69, 10.59)
        assert opt.blind == pytest.approx(blind, rel=5e-3)
        assert opt.aware == pytest.approx(aware, rel=5e-3)
        assert opt.unigram == pytest.approx(unigram, rel=5e-3)

        # the blind band excludes a history-free model, even allowing it the
        # same sampling noise as the band's floor
        assert BAND_CEIL * opt.blind < BAND_FLOOR * opt.unigram

    def test_trained_models_meet_stated_bands(self, category_runs):
        rnn_ppl = category_runs["RNN"][1]
        sam_ppl = category_runs["SAM-Cat"][1]
        elapsed = category_runs["seconds"]
        opt = synth.two_category_optimal_perplexity(category_runs["test_docs"], stop_prob=1 / 6)
        rnn_first = first_target_ppl(category_runs["RNN"][0], category_runs["test"])
        sam_first = first_target_ppl(category_runs["SAM-Cat"][0], category_runs["test"])
        first_ratio = rnn_first / sam_first
        measured = (
            f"RNN test ppl {rnn_ppl:.2f} (blind optimum B {opt.blind:.2f}), "
            f"SAM-Cat {sam_ppl:.2f} (category-aware optimum C {opt.aware:.2f}), "
            f"first-target ppl {rnn_first:.2f} / {sam_first:.2f} "
            f"(optima {opt.first_blind:.0f} / {opt.first_aware:.0f}), train time {elapsed:.0f}s"
        )
        print(f"[acceptance] criterion 3 measured: {measured}")
        failures = []
        if not sam_ppl <= 12.0:
            failures.append(f"SAM-Cat test perplexity {sam_ppl:.2f} exceeds 12")
        if not sam_ppl >= BAND_FLOOR * opt.aware:
            failures.append(
                f"SAM-Cat test perplexity {sam_ppl:.2f} below the floor "
                f"{BAND_FLOOR} * C = {BAND_FLOOR * opt.aware:.2f}: perplexity is miscounted"
            )
        if not sam_ppl < rnn_ppl:
            failures.append(f"SAM-Cat {sam_ppl:.2f} does not beat RNN {rnn_ppl:.2f}")
        if not elapsed < 600.0:
            failures.append(f"runtime {elapsed:.0f}s exceeds 10 minutes")
        if not BAND_FLOOR * opt.blind <= rnn_ppl <= BAND_CEIL * opt.blind:
            failures.append(
                f"RNN test perplexity {rnn_ppl:.2f} outside [{BAND_FLOOR} * B, {BAND_CEIL} * B] "
                f"= [{BAND_FLOOR * opt.blind:.2f}, {BAND_CEIL * opt.blind:.2f}]; below it the "
                "category leaks into the blind model or perplexity is miscounted, above it "
                "the model falls short of using its history "
                f"(history-free optimum {opt.unigram:.2f})"
            )
        # the category separates the models on the first target only, where
        # knowing it halves the support
        min_ratio = 0.8 * opt.first_blind / opt.first_aware
        if not first_ratio >= min_ratio:
            failures.append(
                f"first-target perplexity ratio RNN / SAM-Cat {first_ratio:.2f} "
                f"below {min_ratio:.2f}"
            )
        if failures:
            print(f"[acceptance] criterion 3 (synthetic category separation): FAIL [{failures}]")
        else:
            passed(3, "synthetic category separation")
        assert not failures, f"{'; '.join(failures)} [{measured}]"

    def test_category_conditioned_generation_stays_in_half(self, category_runs):
        model = category_runs["SAM-Cat"][0]
        vocab, attrs = category_runs["vocab"], category_runs["attrs"]
        half_a = {f"a{i}" for i in range(10)}
        emitted = []
        for seed in range(25):
            result = generate(
                model, vocab, attrs, GenRequest(category="cat-a", max_len=20, seed=seed)
            )
            emitted.extend(t for t in result.tokens if t != EOS)
        fraction = sum(1 for t in emitted if t in half_a) / len(emitted)
        assert fraction >= 0.95, f"in-half generation fraction {fraction:.3f}"
        passed(3, "category-conditioned generation", f"[in-half fraction {fraction:.3f}]")

    def test_word_delta_puts_category_words_in_improved(self, category_runs):
        # adding the category attribute should improve exactly the words the
        # category makes predictable, while EOS (a function-word analogue
        # whose hazard both models learn) stays alike
        from samlm.evaluate import word_delta

        rnn = category_runs["RNN"][0]
        sam = category_runs["SAM-Cat"][0]
        vocab, attrs = category_runs["vocab"], category_runs["attrs"]
        report = word_delta(
            rnn, sam, category_runs["test"], vocab, categories=attrs.categories, min_count=5
        )
        for group, own_half in (("cat-a", "a"), ("cat-b", "b")):
            bucket = report.categories[group]
            improved = {w.word for w in bucket.improved}
            assert len(improved) >= 5, (group, improved)
            assert all(w.startswith(own_half) for w in improved), (group, improved)
            eos_delta = next(
                w.mean_delta
                for w in bucket.improved + bucket.alike + bucket.worse
                if w.word == EOS
            )
            assert abs(eos_delta) < 0.1, (group, eos_delta)
        passed(3, "word-delta planted distribution")


class TestCriterion4TitleAttention:
    def test_title_attention_beats_blind_baseline_and_focuses(self):
        started = time.perf_counter()
        docs, positions = synth.title_selects_vocab_corpus(2000, seed=2)
        vocab, attrs, indexed = synth.pipeline(docs)
        tr, va, te = indexed[:1600], indexed[1600:1800], indexed[1800:]
        te_pos = positions[1800:]
        title_len = len(docs[0].title)

        ppls, models = {}, {}
        for variant, cfg in (
            ("RNN", TrainConfig(max_epochs=30, patience=4, seed=0)),
            ("SAM-Title-Att", TrainConfig(max_epochs=100, patience=10, lr=0.002, seed=0)),
        ):
            model = build(
                ModelConfig(
                    variant=variant,
                    d=24,
                    d_tilde=12,
                    vocab_size=len(vocab),
                    n_authors=1,
                    n_categories=1,
                    seed=0,
                )
            )
            train(model, tr, va, cfg)
            models[variant] = model
            ppls[variant] = float(np.exp(mean_nll(model, te)))

        improvement = 1.0 - ppls["SAM-Title-Att"] / ppls["RNN"]
        masses = []
        for doc, pos in zip(te, te_pos):
            fwd = models["SAM-Title-Att"].forward_document(doc, want_caches=False)
            masses.append(fwd.trace.alpha[pos].mean())
        mean_mass = float(np.mean(masses))
        elapsed = time.perf_counter() - started
        print(
            f"[acceptance] criterion 4 measured: RNN {ppls['RNN']:.2f}, "
            f"SAM-Title-Att {ppls['SAM-Title-Att']:.2f}, improvement {improvement:.1%}, "
            f"marker mass {mean_mass:.3f} (uniform {1 / title_len:.3f}), {elapsed:.0f}s"
        )
        assert improvement >= 0.30, f"relative improvement {improvement:.1%} below 30%"
        assert mean_mass >= 2.0 / title_len, (
            f"mean attention mass {mean_mass:.3f} below twice uniform {2 / title_len:.3f}"
        )
        assert elapsed < 600.0, f"runtime {elapsed:.0f}s exceeds 10 minutes"

        # alignment-matrix reading of the same behavior: at the step whose
        # target the title governs, the peak cell links the marker token to
        # the category word it selected (chance for an 8-word title is 12.5%)
        peak_hits = 0
        for doc, pos in zip(te[:100], te_pos[:100]):
            fwd = models["SAM-Title-Att"].forward_document(doc, want_caches=False)
            peak_hits += int(np.argmax(fwd.trace.alpha[:, 1]) == pos)
        assert peak_hits >= 70, f"peak alpha cell hit the marker in only {peak_hits}/100 docs"
        passed(4, "synthetic title attention", f"[peak-cell hits {peak_hits}/100]")


@pytest.fixture(scope="module")
def author_model():
    docs = synth.two_author_corpus(800, seed=3, stop_prob=1 / 4)
    vocab, attrs, indexed = synth.pipeline(docs)
    model = build(
        ModelConfig(
            variant="SAM-Au-Att",
            d=16,
            d_tilde=8,
            vocab_size=len(vocab),
            n_authors=len(attrs.authors),
            n_categories=len(attrs.categories),
            seed=0,
        )
    )
    train(
        model, indexed[:720], indexed[720:],
        TrainConfig(max_epochs=30, patience=30, lr=0.003, seed=0),
    )
    return model, vocab, attrs


class TestCriterion5StyleVariation:
    def test_identity_and_cross_author_swaps(self, author_model):
        model, vocab, attrs = author_model
        source = Document(id="src", text=("x0", "x1"), author="alice")

        identity = style_variation(model, vocab, attrs, source, fake_author="alice", max_len=20, seed=4)
        assert identity.divergence == 0.0
        assert identity.original.tokens == identity.varied.tokens

        cross = style_variation(model, vocab, attrs, source, fake_author="bob", max_len=20, seed=4)
        assert cross.divergence > 0.1, f"divergence {cross.divergence:.3f}"

        alice_half = set(synth.AUTHOR_HALVES["alice"])
        bob_half = set(synth.AUTHOR_HALVES["bob"])
        orig = [t for t in cross.original.tokens if t != EOS]
        varied = [t for t in cross.varied.tokens if t != EOS]
        assert sum(t in alice_half for t in orig) / len(orig) >= 0.95
        assert sum(t in bob_half for t in varied) / len(varied) >= 0.95
        assert set(orig) != set(varied)
        passed(5, "style variation", f"[divergence {cross.divergence:.3f}]")


class TestCriterion6KneserNey:
    def test_normalization_and_oracle_equality(self):
        started = time.perf_counter()
        rng = np.random.default_rng(6)
        vocab_words = [f"w{i}" for i in range(12)]
        weights = np.arange(1, 13, dtype=float)
        weights /= weights.sum()
        texts = []
        remaining = 200
        while remaining > 0:
            take = int(min(rng.integers(5, 15), remaining))
            texts.append(" ".join(rng.choice(vocab_words, size=take, p=weights)))
            remaining -= take
        docs = [Document(id=str(i), text=tuple(t.split())) for i, t in enumerate(texts)]
        vocab, attrs, indexed = synth.pipeline(docs)
        model = KneserNeyModel.fit(indexed, order=5, vocab_size=len(vocab))

        for _ in range(1000):
            ctx = tuple(rng.integers(0, len(vocab), size=int(rng.integers(0, 5))))
            total = sum(model.prob(ctx, w) for w in range(len(vocab)))
            assert abs(total - 1.0) <= 1e-6, (ctx, total)

        oracle = oracles.KneserNeyOracle(indexed, order=5, vocab_size=len(vocab))
        tokens = sum(len(d.text_ids) for d in indexed)
        ppl_model = float(np.exp(sum(model.document_nll(d)[0] for d in indexed) / tokens))
        ppl_oracle = float(np.exp(sum(oracle.document_nll(d) for d in indexed) / tokens))
        np.testing.assert_allclose(ppl_model, ppl_oracle, atol=1e-6)
        passed(6, "Kneser-Ney correctness", f"[{time.perf_counter() - started:.1f}s]")


class TestCriterion7LdaRecovery:
    @pytest.mark.parametrize("n_topics", [2, 5])
    def test_planted_topics_recovered(self, n_topics):
        docs, labels = synth.planted_topic_corpus(n_topics, docs_per_topic=40, seed=7)
        vocab, attrs, indexed = synth.pipeline(docs)
        model = lda_fit(
            indexed, LdaConfig(n_topics=n_topics, iterations=150, seed=1), vocab_size=len(vocab)
        )
        purity = synth.best_alignment_purity(assign_categories(model), labels, n_topics)
        assert purity >= 0.9, f"purity {purity:.3f}"

        pools = [{f"t{k}w{j}" for j in range(10)} for k in range(n_topics)]
        recovered = set()
        for words in top_words(model, 5, vocab):
            hits = [len(set(words) & pool) for pool in pools]
            assert max(hits) == 5, f"top words mix planted pools: {words}"
            recovered.add(int(np.argmax(hits)))
        assert recovered == set(range(n_topics))
        passed(7, f"LDA recovery ({n_topics} topics)", f"[purity {purity:.3f}]")


PTB_DIR = os.environ.get("SAMLM_PTB_DIR")


@pytest.mark.skipif(
    not PTB_DIR,
    reason="full-scale run: set SAMLM_PTB_DIR to the preprocessed Penn Treebank "
    "directory (ptb.train.txt / ptb.valid.txt / ptb.test.txt); runtime is hours",
)
class TestCriterion8FullScale:
    def _read(self, name, limit=None):
        lines = (Path(PTB_DIR) / name).read_text().splitlines()
        docs = [
            Document(id=f"{name}:{i}", text=tuple(line.split()))
            for i, line in enumerate(lines)
            if line.split()
        ]
        return docs[:limit] if limit else docs

    def test_full_scale_reference_band(self):
        train_docs = self._read("ptb.train.txt")
        valid_docs = self._read("ptb.valid.txt")
        test_docs = self._read("ptb.test.txt")
        vocab = build_vocab(train_docs, cap=10_000)

        lda_model = lda_fit(
            index_corpus(train_docs, vocab, synth.pipeline(train_docs[:1])[1]),
            LdaConfig(n_topics=5, iterations=200, seed=0),
            vocab_size=len(vocab),
        )
        from samlm.lda import label_corpus

        labeled_train = label_corpus(lda_model, train_docs)
        vocab2, attrs, indexed_train = synth.pipeline(labeled_train, cap=10_000)
        indexed_valid = index_corpus(valid_docs, vocab2, attrs)
        indexed_test = index_corpus(test_docs, vocab2, attrs)

        ppls = {}
        for variant in ("RNN", "SAM-Cat"):
            model = build(
                ModelConfig(
                    variant=variant,
                    d=200,
                    d_tilde=200,
                    vocab_size=len(vocab2),
                    n_authors=len(attrs.authors),
                    n_categories=len(attrs.categories),
                    seed=0,
                )
            )
            train(model, indexed_train, indexed_valid, TrainConfig(max_epochs=30, patience=3, seed=0))
            ppls[variant] = float(np.exp(mean_nll(model, indexed_test)))
        assert ppls["SAM-Cat"] < ppls["RNN"]
        assert 117.1 * 0.85 <= ppls["RNN"] <= 117.1 * 1.15
        passed(8, "full-scale reference band", f"[{ppls}]")
