import dataclasses

import numpy as np
import pytest

from samlm.corpus import Document, EOS, PAD, PAD_ID, UNK, UNK_ID, IndexedDocument
from samlm.generation import (
    GenRequest,
    _conditioning,
    generate,
    js_divergence,
    masked_distribution,
    sample_index,
    style_variation,
)
from samlm.attention import write_trace_csv
from samlm.model import VARIANTS, ModelConfig, SamModel, build
from samlm.tensor import softmax
from samlm.trainer import TrainConfig, train

import synth
from oracles import read_trace_csv


@pytest.fixture(scope="module")
def author_setup():
    """A small two-author model trained enough to separate the halves."""
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
    train(model, indexed[:720], indexed[720:], TrainConfig(max_epochs=30, patience=30, lr=0.003, seed=0))
    return model, vocab, attrs


@pytest.fixture(scope="module")
def title_setup():
    """An untrained title-attention model; enough for mechanical contracts."""
    docs, _ = synth.title_selects_vocab_corpus(30, seed=1)
    vocab, attrs, indexed = synth.pipeline(docs)
    model = build(
        ModelConfig(
            variant="SAM-Title-Att",
            d=8,
            d_tilde=5,
            vocab_size=len(vocab),
            n_authors=1,
            n_categories=1,
            seed=1,
        )
    )
    return model, vocab, attrs, docs


@pytest.fixture(scope="module")
def every_variant():
    """Untrained models of all variants over a corpus with every attribute.

    Weights are scaled up so that the next-token distributions are peaked and
    decoded paths depend on the conditioning.
    """
    docs, _ = synth.title_selects_vocab_corpus(30, seed=2)
    authors = ("alice", "bob", "carol")
    docs = [
        dataclasses.replace(doc, author=authors[i % 3], category=f"k{i % 2}") for i, doc in enumerate(docs)
    ]
    vocab, attrs, _ = synth.pipeline(docs)
    models = {}
    for name in sorted(VARIANTS):
        model = build(
            ModelConfig(
                variant=name,
                d=8,
                d_tilde=5,
                vocab_size=len(vocab),
                n_authors=len(attrs.authors),
                n_categories=len(attrs.categories),
                seed=3,
            )
        )
        for p in model.store.params():
            p.value *= 20.0
        models[name] = model
    return models, vocab, attrs, docs


AUTHOR_VARIANTS = sorted(name for name, spec in VARIANTS.items() if spec.author)


def count_calls(monkeypatch, *names):
    """Count the calls of the named SamModel methods from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(SamModel, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SamModel, name, counted)
    return counts


class TestSampler:
    def test_sampling_matches_distribution(self):
        # 100k draws from one fixed distribution, three standard errors
        rng = np.random.default_rng(0)
        probs = np.array([0.5, 0.25, 0.15, 0.1])
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[sample_index(probs, rng)] += 1
        freq = counts / n
        for p, f in zip(probs, freq):
            se = np.sqrt(p * (1 - p) / n)
            assert abs(f - p) <= 3 * se, (p, f)

    @pytest.mark.parametrize(
        "draw, probs, expected",
        [
            (0.0, [0.0, 0.3, 0.0, 0.7], 1),  # on the leading zero's running sum: not the zero
            (0.5, [0.0, 0.5, 0.0, 0.5], 3),  # each index owns [previous sum, its sum)
            (1.0, [0.3, 0.7, 0.0, 0.0], 1),  # a draw at the total lands on the last positive entry
        ],
    )
    def test_draws_on_interval_edges_skip_zero_probabilities(self, draw, probs, expected):
        class Fixed:
            def random(self):
                return draw

        assert sample_index(np.array(probs), Fixed()) == expected

    def test_masked_distribution_excludes_specials(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=9)
        dist = masked_distribution(logits)
        assert dist[PAD_ID] == 0.0 and dist[UNK_ID] == 0.0
        np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)

    def test_temperature_sharpens(self):
        logits = np.array([0.0, 0.0, 0.0, 1.0, 0.5])
        hot = masked_distribution(logits, temperature=2.0)
        cold = masked_distribution(logits, temperature=0.1)
        assert cold[3] > hot[3]


class TestJsDivergence:
    def test_identity_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert js_divergence(p, p) == 0.0

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert abs(js_divergence(p, q) - js_divergence(q, p)) < 1e-12
            assert 0.0 <= js_divergence(p, q) <= np.log(2) + 1e-12

    def test_disjoint_supports_hit_ln2(self):
        p = np.array([1.0, 0.0])
        q = np.array([0.0, 1.0])
        np.testing.assert_allclose(js_divergence(p, q), np.log(2), atol=1e-12)


class TestGenerate:
    def test_deterministic_under_seed(self, author_setup):
        model, vocab, attrs = author_setup
        req = GenRequest(author="alice", max_len=20, seed=11)
        r1 = generate(model, vocab, attrs, req)
        r2 = generate(model, vocab, attrs, req)
        assert r1.tokens == r2.tokens
        assert r1.probabilities == r2.probabilities

    def test_greedy_equals_tiny_temperature_limit(self, author_setup):
        model, vocab, attrs = author_setup
        greedy = generate(model, vocab, attrs, GenRequest(author="alice", strategy="greedy", max_len=15))
        frozen = generate(
            model, vocab, attrs,
            GenRequest(author="alice", strategy="sample", temperature=1e-6, max_len=15, seed=5),
        )
        assert greedy.tokens == frozen.tokens

    def test_never_emits_pad_or_unk_eos_only_terminal(self, author_setup):
        model, vocab, attrs = author_setup
        for seed in range(10):
            result = generate(model, vocab, attrs, GenRequest(author="bob", max_len=30, seed=seed))
            assert PAD not in result.tokens
            assert UNK not in result.tokens
            assert EOS not in result.tokens[:-1]
            assert len(result.tokens) <= 30

    def test_trained_author_stays_in_own_half(self, author_setup):
        model, vocab, attrs = author_setup
        alice_words = set(synth.AUTHOR_HALVES["alice"])
        emitted = []
        for seed in range(20):
            result = generate(model, vocab, attrs, GenRequest(author="alice", max_len=20, seed=seed))
            emitted.extend(t for t in result.tokens if t != EOS)
        in_half = sum(1 for t in emitted if t in alice_words)
        assert in_half / len(emitted) >= 0.95

    def test_unknown_author_warns_instead_of_failing(self, author_setup):
        model, vocab, attrs = author_setup
        result = generate(model, vocab, attrs, GenRequest(author="nobody", max_len=5, seed=0))
        assert result.warnings and "nobody" in result.warnings[0]

    def test_missing_required_attribute_is_an_error(self, author_setup):
        model, vocab, attrs = author_setup
        with pytest.raises(ValueError, match="author"):
            generate(model, vocab, attrs, GenRequest(max_len=5))

    def test_request_validation(self):
        with pytest.raises(ValueError, match="max_len"):
            GenRequest(max_len=0).validate()
        with pytest.raises(ValueError, match="temperature"):
            GenRequest(temperature=0.0).validate()
        with pytest.raises(ValueError, match="strategy"):
            GenRequest(strategy="beam").validate()

    @pytest.mark.parametrize("fields, name", [
        ({"max_len": 2.5}, "max_len"),
        ({"max_len": True}, "max_len"),
        ({"max_len": "3"}, "max_len"),
        ({"temperature": float("nan")}, "temperature"),
        ({"temperature": float("inf")}, "temperature"),
    ])
    def test_request_validation_names_a_value_of_the_wrong_kind(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            GenRequest(**fields).validate()

    def test_greedy_request_ignores_temperature(self):
        GenRequest(strategy="greedy", temperature=float("nan"), max_len=np.int64(3)).validate()

    def test_title_trace_shapes(self, title_setup):
        model, vocab, attrs, docs = title_setup
        req = GenRequest(title=docs[0].title, max_len=8, seed=3)
        result = generate(model, vocab, attrs, req)
        assert result.trace.alpha.shape == (len(docs[0].title), len(result.tokens))
        np.testing.assert_allclose(result.trace.alpha.sum(axis=0), 1.0, atol=1e-9)


class TestStyleVariation:
    def test_identity_swap_is_bitwise_identical(self, author_setup):
        model, vocab, attrs = author_setup
        source = Document(id="s", text=("x0",), author="alice")
        out = style_variation(model, vocab, attrs, source, fake_author="alice", max_len=15, seed=4)
        assert out.divergence == 0.0
        assert out.original.tokens == out.varied.tokens
        assert out.token_overlap == 1.0

    def test_cross_author_swap_diverges(self, author_setup):
        model, vocab, attrs = author_setup
        source = Document(id="s", text=("x0",), author="alice")
        out = style_variation(model, vocab, attrs, source, fake_author="bob", max_len=20, seed=4)
        assert out.divergence > 0.1
        assert out.original.tokens != out.varied.tokens

    def test_swapped_outputs_live_in_author_halves(self, author_setup):
        model, vocab, attrs = author_setup
        source = Document(id="s", text=("x0",), author="alice")
        out = style_variation(model, vocab, attrs, source, fake_author="bob", max_len=20, seed=9)
        alice_words = set(synth.AUTHOR_HALVES["alice"])
        bob_words = set(synth.AUTHOR_HALVES["bob"])
        orig = [t for t in out.original.tokens if t != EOS]
        varied = [t for t in out.varied.tokens if t != EOS]
        assert sum(t in alice_words for t in orig) / len(orig) >= 0.9
        assert sum(t in bob_words for t in varied) / len(varied) >= 0.9

    def test_authorless_model_rejected(self, title_setup):
        model, vocab, attrs, docs = title_setup
        source = Document(id="s", text=("a",), author="x")
        with pytest.raises(ValueError, match="author"):
            style_variation(model, vocab, attrs, source, fake_author="y")


class TestExportAttention:
    def test_one_word_title_block_is_ones(self, title_setup, tmp_path):
        model, vocab, attrs, docs = title_setup
        req = GenRequest(title=("cat0",), max_len=3, strategy="greedy")
        result = generate(model, vocab, attrs, req)
        path = tmp_path / "attn.csv"
        write_trace_csv(result.trace, path)
        header, body = read_trace_csv(path)
        assert header == result.tokens
        label, row = body[0]
        assert label == "cat0"
        np.testing.assert_allclose(row, 1.0, atol=1e-6)

    def test_beta_block_columns_sum_to_one(self, author_setup, tmp_path):
        model, vocab, attrs = author_setup
        result = generate(model, vocab, attrs, GenRequest(author="alice", max_len=6, seed=2))
        path = tmp_path / "attn.csv"
        write_trace_csv(result.trace, path)
        header, body = read_trace_csv(path)
        assert [label for label, _ in body] == ["author"]
        np.testing.assert_allclose(body[0][1], 1.0, atol=1e-6)

    def test_roundtrip_to_six_decimals(self, title_setup, tmp_path):
        model, vocab, attrs, docs = title_setup
        result = generate(model, vocab, attrs, GenRequest(title=docs[1].title, max_len=5, seed=7))
        path = tmp_path / "attn.csv"
        write_trace_csv(result.trace, path)
        _, body = read_trace_csv(path)
        expected = np.round(result.trace.alpha, 6)
        for (label, row), exp in zip(body, expected):
            np.testing.assert_allclose(row, exp, atol=1e-9)


class TestOneRecurrence:
    """Decoding, teacher forcing and style variation step the same loop."""

    @pytest.mark.parametrize("variant", AUTHOR_VARIANTS)
    @pytest.mark.parametrize("strategy", ["greedy", "sample"])
    def test_style_variation_makes_2L_plus_L_prime_steps(self, every_variant, variant, strategy, monkeypatch):
        models, vocab, attrs, docs = every_variant
        counts = count_calls(monkeypatch, "step", "prepare")
        out = style_variation(models[variant], vocab, attrs, docs[0], fake_author="bob",
                              max_len=12, strategy=strategy, seed=5)
        L, L_varied = len(out.original.tokens), len(out.varied.tokens)
        assert counts == {"step": 2 * L + L_varied, "prepare": 2}

    @pytest.mark.parametrize("variant", AUTHOR_VARIANTS)
    @pytest.mark.parametrize("strategy", ["greedy", "sample"])
    def test_output_layer_runs_once_per_step(self, every_variant, variant, strategy, monkeypatch):
        # decoding scores each stepped state once: L calls for generate and
        # 2L + L' for style_variation, whose divergence reuses those logits
        models, vocab, attrs, docs = every_variant
        counts = count_calls(monkeypatch, "step", "output")
        source = docs[0]
        req = GenRequest(title=source.title, author=source.author, category=source.category,
                         max_len=12, strategy=strategy, seed=5)
        L = len(generate(models[variant], vocab, attrs, req).tokens)
        assert counts == {"step": L, "output": L}
        counts.update(step=0, output=0)
        out = style_variation(models[variant], vocab, attrs, source, fake_author="bob",
                              max_len=12, strategy=strategy, seed=5)
        L, L_varied = len(out.original.tokens), len(out.varied.tokens)
        assert counts == {"step": 2 * L + L_varied, "output": 2 * L + L_varied}

    @pytest.mark.parametrize("variant", AUTHOR_VARIANTS)
    @pytest.mark.parametrize("strategy", ["greedy", "sample"])
    def test_divergence_equals_restepped_streams(self, every_variant, variant, strategy):
        # the reference conditions both authors afresh and steps both streams
        # along the original tokens in a loop of its own
        models, vocab, attrs, docs = every_variant
        model = models[variant]
        cases = ((docs[0], "bob"), (docs[1], "nobody"), (docs[2], docs[2].author))
        for seed, (source, fake) in enumerate(cases):
            out = style_variation(model, vocab, attrs, source, fake_author=fake,
                                  max_len=12, strategy=strategy, seed=seed)
            streams = []
            for author in (source.author, fake):
                req = GenRequest(title=source.title, author=author, category=source.category)
                streams.append(_conditioning(model, vocab, attrs, req)[0])
            ids = [vocab.id_for(t) for t in out.original.tokens]
            hs = [state.h0 for state in streams]
            divergences = []
            for x_id in [PAD_ID] + ids[:-1]:
                steps = [model.step([x_id], h, state) for h, state in zip(hs, streams)]
                p, q = (softmax(model.Wout.value @ s.h[0] + model.bout.value) for s in steps)
                divergences.append(js_divergence(p, q))
                hs = [s.h for s in steps]
            assert out.divergence == float(np.mean(divergences))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_greedy_trace_equals_teacher_forced_trace(self, every_variant, variant):
        models, vocab, attrs, docs = every_variant
        model = models[variant]
        source = docs[4]
        req = GenRequest(title=source.title, author=source.author, category=source.category,
                         max_len=10, strategy="greedy")
        result = generate(model, vocab, attrs, req)
        doc = IndexedDocument(
            id="generated",
            text_ids=tuple(vocab.id_for(t) for t in result.tokens),
            title_ids=tuple(vocab.id_for(t) for t in source.title),
            author_id=attrs.authors.index[source.author],
            category_id=attrs.categories.index[source.category],
        )
        forced = model.forward_document(doc, want_caches=False).trace
        for got, want in ((result.trace.alpha, forced.alpha), (result.trace.beta, forced.beta)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert result.trace.attr_names == forced.attr_names
