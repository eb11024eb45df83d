import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from samlm import model as model_module
from samlm.corpus import EOS_ID, PAD_ID, IndexedDocument
from samlm.model import VARIANTS, ModelConfig, build, load_model, save_model
from samlm.tensor import grad_check

import oracles
from test_tensor import append_tensor

TINY = dict(d=4, d_tilde=3, vocab_size=7, n_authors=2, n_categories=2)
DOC = IndexedDocument(id="doc", text_ids=(3, 5, 4, EOS_ID), title_ids=(4, 6), author_id=1, category_id=1)
LONG_DOC = IndexedDocument(
    id="long", text_ids=(3, 5, 4, 8, 6, 3, 7, EOS_ID), title_ids=(4, 6, 8, 3, 5), author_id=1, category_id=1
)


def tiny_model(variant, seed=0, **overrides):
    cfg = {**TINY, **overrides}
    return build(ModelConfig(variant=variant, seed=seed, **cfg))


class TestBuild:
    def test_rnn_has_no_attribute_machinery(self):
        model = tiny_model("RNN")
        assert model.title_cell is None
        assert model.author_table is None and model.category_table is None
        assert model.title_att is None and model.attr_att is None
        assert model.main_cell.input_dim == TINY["d"]

    def test_category_table_shape(self):
        model = tiny_model("SAM-Cat", n_categories=5, d_tilde=8)
        assert model.category_table.shape == (5, 8)
        assert model.main_cell.input_dim == TINY["d"] + 8

    def test_context_variants_widen_main_input(self):
        for name, spec in VARIANTS.items():
            model = tiny_model(name)
            expected = TINY["d"] + TINY["d_tilde"] if spec.uses_context else TINY["d"]
            assert model.main_cell.input_dim == expected, name

    def test_attribute_attention_only_with_multiple_candidates(self):
        assert tiny_model("SAM-Title-Au-Att").attr_att is not None
        assert tiny_model("SAM-Title-Att").attr_att is None
        assert tiny_model("SAM-Cat").attr_att is None

    def test_embedding_dim_equals_hidden_size(self):
        model = tiny_model("RNN")
        assert model.E.shape == (TINY["vocab_size"], TINY["d"])

    def test_state_map_identity_when_dims_agree(self):
        model = tiny_model("RNN-State", d=4, d_tilde=4)
        np.testing.assert_array_equal(model.state_W.value, np.eye(4))

    def test_missing_inventory_rejected(self):
        with pytest.raises(ValueError, match="author"):
            tiny_model("SAM-Au-Att", n_authors=0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            build(ModelConfig(variant="LSTM", d=4, d_tilde=4, vocab_size=7))

    def test_same_seed_same_checkpoint_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(tiny_model("SAM-Title-Au-Att", seed=9), p1)
        save_model(tiny_model("SAM-Title-Au-Att", seed=9), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_checkpoint_roundtrip(self, tmp_path):
        model = tiny_model("SAM-Title-Au-Att", seed=4)
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        fwd_a = model.forward_document(DOC, want_caches=False)
        fwd_b = loaded.forward_document(DOC, want_caches=False)
        assert fwd_a.total_nll == fwd_b.total_nll


class TestLoadModel:
    def _edit_header(self, path, edit):
        header_line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        edit(header)
        path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body)

    def test_missing_tensor_names_file_and_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model("SAM-Title-Au-Att", seed=2), path)

        def rename_e(header):
            header["tensors"][0]["name"] = "E_old"

        self._edit_header(path, rename_e)
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: missing tensor E$"):
            load_model(path)

    def test_stray_tensor_names_file_and_tensor(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model("SAM-Title-Au-Att", seed=2), path)
        append_tensor(path, "stray", np.ones(2))
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: unexpected tensor stray$"):
            load_model(path)

    def test_shape_mismatch_names_file(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model("SAM-Title-Au-Att", seed=2), path)

        def more_authors(header):
            header["config"]["n_authors"] += 1

        self._edit_header(path, more_authors)
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: shape mismatch loading authors"):
            load_model(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda config: config.update(width=4), "width"),  # an unknown key
        (lambda config: config.pop("variant"), "variant"),  # a missing key
        (lambda config: config.update(d="4"), "d must be an integer"),
        (lambda config: config.update(d=4.0), "d must be an integer"),
    ])
    def test_bad_config_names_file_and_setting(self, tmp_path, edit, named):
        path = tmp_path / "m.ckpt"
        save_model(tiny_model("SAM-Title-Au-Att", seed=2), path)
        self._edit_header(path, lambda header: edit(header["config"]))
        with pytest.raises(ValueError, match=f"^checkpoint {re.escape(str(path))}: .*{named}"):
            load_model(path)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_load_draws_nothing_and_resaves_identical_bytes(self, tmp_path, monkeypatch, variant):
        model = tiny_model(variant, seed=8)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(model, first)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_model drew from an rng")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_model(first)
        monkeypatch.undo()
        assert loaded.store.names() == model.store.names()
        for p in model.store.params():
            assert np.array_equal(loaded.store[p.name].value, p.value), p.name
        save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()


class TestForward:
    def test_zero_weights_uniform_predictions(self):
        model = tiny_model("RNN")
        for p in model.store.params():
            p.value[...] = 0.0
        fwd = model.forward_document(DOC)
        np.testing.assert_allclose(fwd.per_word_nll, np.log(TINY["vocab_size"]), atol=1e-12)

    def test_single_word_title_attention_is_all_ones(self):
        model = tiny_model("SAM-Title-Att")
        doc = IndexedDocument(id="d", text_ids=(3, 4, EOS_ID), title_ids=(5,))
        fwd = model.forward_document(doc)
        np.testing.assert_allclose(fwd.trace.alpha, 1.0, atol=1e-15)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_scalar_composition_oracle(self, variant):
        for seed in range(3):
            model = tiny_model(variant, seed=seed)
            fwd = model.forward_document(DOC, want_caches=False)
            total, per_word = oracles.scalar_forward_document(model, DOC)
            np.testing.assert_allclose(fwd.total_nll, total, atol=1e-10)
            np.testing.assert_allclose(fwd.per_word_nll, per_word, atol=1e-10)

    def test_probabilities_sum_to_one_each_step(self):
        # the pass keeps no distributions; its output-layer gradients are
        # those of softmax(Wout h + bout) - onehot(target) at every step
        model = tiny_model("SAM-Title-Au-Att", seed=3)
        fwd = model.forward_document(DOC)
        hidden = np.concatenate([s.h for s in fwd.caches])
        logits = model.output(hidden)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        for row, target, nll in zip(probs, DOC.text_ids, fwd.per_word_nll):
            assert abs(row.sum() - 1.0) <= 1e-12
            assert abs(-np.log(row[target]) - nll) <= 1e-12
        dlogits = probs - np.eye(TINY["vocab_size"])[list(DOC.text_ids)]
        np.testing.assert_allclose(fwd.dbout, dlogits.sum(axis=0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(fwd.dWout, dlogits.T @ hidden, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fwd.dhidden, dlogits @ model.Wout.value, rtol=0, atol=1e-12)

    def test_no_caches_keeps_no_per_token_arrays(self):
        fwd = tiny_model("SAM-Title-Au-Att", seed=3).forward_document(DOC, want_caches=False)
        assert fwd.caches == [] and fwd.dhidden is None and fwd.dWout is None

    def test_rnn_ignores_attributes(self):
        model = tiny_model("RNN", seed=2)
        bare = IndexedDocument(id="d", text_ids=DOC.text_ids)
        assert model.forward_document(bare).total_nll == model.forward_document(DOC).total_nll

    def test_trace_columns_are_distributions(self):
        model = tiny_model("SAM-Title-Au-Att", seed=5)
        fwd = model.forward_document(DOC)
        np.testing.assert_allclose(fwd.trace.alpha.sum(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(fwd.trace.beta.sum(axis=0), 1.0, atol=1e-9)
        assert fwd.trace.alpha.shape == (len(DOC.title_ids), len(DOC.text_ids))
        assert fwd.trace.beta.shape == (2, len(DOC.text_ids))

    def test_missing_required_attribute_names_variant_and_doc(self):
        model = tiny_model("SAM-Au-Att")
        doc = IndexedDocument(id="orphan", text_ids=(3, EOS_ID))
        with pytest.raises(ValueError, match="SAM-Au-Att.*orphan"):
            model.forward_document(doc)

    def test_document_without_targets_rejected(self):
        model = tiny_model("RNN")
        with pytest.raises(ValueError, match="empty has no tokens"):
            model.forward_document(IndexedDocument(id="empty", text_ids=()))

    def test_vocab_permutation_invariance(self):
        model = tiny_model("SAM-Cat", seed=6)
        base = model.forward_document(DOC, want_caches=False).total_nll

        # relabel the non-special token ids and permute the tied rows
        perm = np.array([0, 1, 2, 5, 3, 6, 4])
        permuted = tiny_model("SAM-Cat", seed=6)
        for name in ("E", "Wout"):
            permuted.store[name].value[perm] = model.store[name].value.copy()
        permuted.store["bout"].value[perm] = model.store["bout"].value.copy()
        doc2 = IndexedDocument(
            id="doc",
            text_ids=tuple(int(perm[t]) for t in DOC.text_ids),
            title_ids=DOC.title_ids,
            author_id=DOC.author_id,
            category_id=DOC.category_id,
        )
        np.testing.assert_allclose(
            permuted.forward_document(doc2, want_caches=False).total_nll, base, atol=1e-10
        )

    def test_degenerate_attention_equals_constant_context(self):
        # one-word title with M1 frozen at zero: the context every step is
        # exactly the single encoder state
        model = tiny_model("SAM-Title-Att", seed=7)
        model.store["M1"].value[...] = 0.0
        doc = IndexedDocument(id="d", text_ids=(3, 5, EOS_ID), title_ids=(6,))
        fwd = model.forward_document(doc, want_caches=False)

        from samlm.attention import encode_title
        from samlm.corpus import PAD_ID
        from samlm.tensor import softmax

        enc = encode_title(model.title_cell, [doc.title_ids], model.E.value)
        h = np.zeros(model.config.d)
        total = 0.0
        for x, target in zip((PAD_ID,) + doc.text_ids[:-1], doc.text_ids):
            w = np.concatenate((model.E.value[x], enc.padded[0, 0]))
            h, _ = model.main_cell.step(w, h)
            probs = softmax(model.Wout.value @ h + model.bout.value)
            total -= np.log(probs[target])
        np.testing.assert_allclose(fwd.total_nll, total, atol=1e-10)


class TestBackward:
    @pytest.mark.parametrize("variant", ["RNN", "SAM-Title-Au-Att"])
    def test_end_to_end_gradcheck(self, variant):
        model = tiny_model(variant, seed=1)
        model.store.zero_grads()
        fwd = model.forward_document(DOC, want_trace=False)
        model.backward_document(fwd)
        report = grad_check(
            lambda s: model.forward_document(DOC, want_trace=False, want_caches=False).total_nll,
            model.store,
        )
        assert report.passed, report.format_table()

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_output_layer_gradients_match_scalar_oracle(self, variant):
        for seed in range(2):
            model = tiny_model(variant, seed=seed)
            model.store.zero_grads()
            fwd = model.forward_document(DOC, want_trace=False)
            model.backward_document(fwd)
            probs, dwout, dbout = oracles.scalar_output_layer(
                model.Wout.value.tolist(),
                model.bout.value.tolist(),
                [step.h[0].tolist() for step in fwd.caches],
                DOC.text_ids,
            )
            nlls = [-np.log(p[t]) for p, t in zip(probs, DOC.text_ids)]
            np.testing.assert_allclose(fwd.per_word_nll, nlls, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.Wout.grad, dwout, rtol=0, atol=1e-12)
            np.testing.assert_allclose(model.bout.grad, dbout, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_per_step_reference_backward(self, variant, seed):
        model = tiny_model(variant, seed=seed, d=5, d_tilde=4, vocab_size=9)
        fwd = model.forward_document(LONG_DOC, want_trace=False)
        total, _ = oracles.scalar_forward_document(model, LONG_DOC)
        np.testing.assert_allclose(fwd.total_nll, total, rtol=0, atol=1e-10)
        model.store.zero_grads()
        model.backward_document(fwd)
        stacked = {p.name: p.grad.copy() for p in model.store.params()}
        model.store.zero_grads()
        oracles.reference_backward_document(model, LONG_DOC, fwd)
        for p in model.store.params():
            assert p.grad.any(), p.name
            np.testing.assert_allclose(stacked[p.name], p.grad, rtol=0, atol=1e-12, err_msg=p.name)

    def test_two_documents_accumulate_additively(self):
        model = tiny_model("SAM-Cat", seed=4)
        doc2 = IndexedDocument(id="d2", text_ids=(6, EOS_ID), category_id=0)

        def grads_for(docs):
            model.store.zero_grads()
            for doc in docs:
                fwd = model.forward_document(doc, want_trace=False)
                model.backward_document(fwd)
            return {p.name: p.grad.copy() for p in model.store.params()}

        lone1 = grads_for([DOC])
        lone2 = grads_for([doc2])
        both = grads_for([DOC, doc2])
        for name, grad in both.items():
            np.testing.assert_allclose(grad, lone1[name] + lone2[name], atol=1e-12)

    def test_backward_requires_caches(self):
        model = tiny_model("RNN")
        fwd = model.forward_document(DOC, want_caches=False)
        with pytest.raises(ValueError, match="caches"):
            model.backward_document(fwd)


# unequal text and title lengths, not given longest first, with one-target documents
BATCH = [
    IndexedDocument(id="b0", text_ids=(3, 5, 4, 8, EOS_ID), title_ids=(4, 6, 8), author_id=1, category_id=0),
    IndexedDocument(id="b1", text_ids=(EOS_ID,), title_ids=(5, 3, 7, 4, 6), author_id=0, category_id=1),
    IndexedDocument(id="b2", text_ids=(6, 3, 7, 8, 5, 4, 3, EOS_ID), title_ids=(7,), author_id=1, category_id=1),
    IndexedDocument(id="b3", text_ids=(4,), title_ids=(3, 8), author_id=0, category_id=0),
    IndexedDocument(id="b4", text_ids=(8, 7, 6, 5, 4, EOS_ID), title_ids=(6, 5, 4, 3), author_id=1, category_id=0),
]


class TestBatch:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_batch_matches_per_document_reference(self, variant, size):
        model = tiny_model(variant, seed=2, d=5, d_tilde=4, vocab_size=9)
        docs = BATCH[:size]
        model.store.zero_grads()
        fwd = model.forward_document(docs, want_trace=False)
        model.backward_document(fwd)
        batched = {p.name: p.grad.copy() for p in model.store.params()}
        model.store.zero_grads()
        per_word = []
        for doc in docs:
            one = model.forward_document(doc, want_trace=False)
            oracles.reference_backward_document(model, doc, one)
            per_word += one.per_word_nll
        np.testing.assert_allclose(fwd.per_word_nll, per_word, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fwd.total_nll, sum(per_word), rtol=0, atol=1e-10)
        for p in model.store.params():
            assert p.grad.any(), p.name
            err = np.abs(batched[p.name] - p.grad).max() / np.abs(p.grad).max()
            assert err <= 1e-12, (p.name, err)

    def test_one_row_batch_is_the_document(self):
        model = tiny_model("SAM-Title-State-Au-Att", seed=4)
        alone = model.forward_document(DOC, want_trace=False)
        batch = model.forward_document([DOC], want_trace=False)
        assert batch.per_word_nll == alone.per_word_nll
        for name in ("dhidden", "dWout", "dbout"):
            assert getattr(batch, name).tobytes() == getattr(alone, name).tobytes()

    @pytest.mark.parametrize("block_rows", [1, 6, 9])
    def test_output_blocks_match_one_block(self, monkeypatch, block_rows):
        # block_rows 1: every document alone; 6 and 9: runs of documents
        model = tiny_model("SAM-Title-Au-Att", seed=3, vocab_size=9)
        whole = model.forward_document(BATCH, want_trace=False)
        monkeypatch.setattr(model_module, "OUTPUT_BLOCK", block_rows * 9)
        blocked = model.forward_document(BATCH, want_trace=False)
        np.testing.assert_allclose(blocked.per_word_nll, whole.per_word_nll, rtol=0, atol=1e-12)
        for name in ("dhidden", "dWout", "dbout"):
            np.testing.assert_allclose(getattr(blocked, name), getattr(whole, name), rtol=0, atol=1e-12)

    def test_document_longer_than_a_block_matches_one_block(self, monkeypatch):
        # 40 targets in blocks of 6: one document is split like any batch
        rng = np.random.default_rng(5)
        text = tuple(rng.integers(3, 9, 39).tolist()) + (EOS_ID,)
        doc = IndexedDocument(id="long", text_ids=text, title_ids=(4, 6, 8), author_id=1, category_id=0)
        model = tiny_model("SAM-Title-Au-Att", seed=3, vocab_size=9)
        whole = model.forward_document(doc, want_trace=False)
        monkeypatch.setattr(model_module, "OUTPUT_BLOCK", 6 * 9)
        blocks = []
        monkeypatch.setattr(model, "output", lambda h, score=model.output: blocks.append(len(h)) or score(h))
        blocked = model.forward_document(doc, want_trace=False)
        assert blocks == [6] * 6 + [4]
        np.testing.assert_allclose(blocked.per_word_nll, whole.per_word_nll, rtol=0, atol=1e-10)
        for name in ("dhidden", "dWout", "dbout"):
            np.testing.assert_allclose(getattr(blocked, name), getattr(whole, name), rtol=0, atol=1e-12)

    def test_scoring_memory_does_not_grow_with_a_long_documents_logits(self, monkeypatch):
        # blocks of 16 targets at V = 2 000: the logits of all 1 000 targets
        # would be 16 MB, and the traced peak stays within 8 MB of a
        # 20-target document's (the step records grow by about 3 KB a step)
        monkeypatch.setattr(model_module, "OUTPUT_BLOCK", 16 * 2000)
        model = tiny_model("SAM-Title-Au-Att", seed=1, vocab_size=2000)

        def peak(n_targets):
            text = tuple((np.arange(n_targets - 1) % 1990 + 3).tolist()) + (EOS_ID,)
            doc = IndexedDocument(id="d", text_ids=text, title_ids=(4, 6, 8), author_id=1, category_id=0)
            tracemalloc.start()
            try:
                model.document_nll(doc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) - peak(20) < 8 * 2**20

    def test_rows_run_longest_first_as_a_shrinking_prefix(self):
        fwd = tiny_model("SAM-Title-Au-Att", seed=1, vocab_size=9).forward_document(BATCH, want_trace=False)
        assert [len(step.x_ids) for step in fwd.caches] == [5, 3, 3, 3, 3, 2, 1, 1]
        assert list(fwd.caches[0].x_ids) == [PAD_ID] * 5
        assert list(fwd.caches[1].x_ids) == [6, 8, 3]
        assert fwd.state.title_ids == [BATCH[i].title_ids for i in (2, 4, 0, 1, 3)]
        hidden = np.concatenate([s.h for s in fwd.caches])
        assert len(hidden) == len(fwd.per_word_nll) == sum(len(doc.text_ids) for doc in BATCH)

    def test_trace_of_a_batch_rejected(self):
        with pytest.raises(ValueError, match="one document"):
            tiny_model("SAM-Title-Att").forward_document(BATCH[:2])

    def test_batch_names_the_document_without_targets(self):
        empty = IndexedDocument(id="empty", text_ids=(), title_ids=(4,))
        with pytest.raises(ValueError, match="empty has no tokens"):
            tiny_model("RNN").forward_document([DOC, empty], want_trace=False)


def unsplit_output_layer(model, fwd, targets):
    """A one-document pass's output layer as one whole product each: NLLs,
    dhidden, dWout and dbout."""
    W, b = model.Wout.value, model.bout.value
    h = np.concatenate([s.h for s in fwd.caches])
    shifted = h @ W.T + b
    shifted -= shifted.max(axis=1, keepdims=True)
    picked = np.arange(len(h)), np.asarray(targets)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1)
    nll = np.log(sums) - shifted[picked]
    dlogits = exps / sums[:, None]
    dlogits[picked] -= 1.0
    return nll, dlogits @ W, dlogits.T @ h, dlogits.sum(axis=0)


@pytest.fixture(scope="module")
def output_models():
    """RNN models at paper width (d = 200) and the suite's tiny width, by V."""
    models = {(v, 200): build(ModelConfig("RNN", d=200, d_tilde=1, vocab_size=v, seed=2)) for v in (1000, 10000)}
    models[(7, 4)] = tiny_model("SAM-Title-Au-Att", seed=1)
    return models


# N targets: every 17th from 2 to 419 at V = 1 000, the small and the edge
# counts at V = 10 000 (one output block holds 419 targets there)
OUTPUT_SHAPES = (
    [(1000, 200, n) for n in list(range(2, 420, 17)) + [419]]
    + [(10000, 200, n) for n in (2, 3, 4, 5, 6, 9, 17, 62, 150, 418, 419)]
    + [(7, 4, n) for n in (2, 5, 17, 40)]
)


class TestOutputPieces:
    @pytest.mark.parametrize("vocab, d, n", OUTPUT_SHAPES)
    def test_pieces_have_the_bits_of_whole_products(self, monkeypatch, output_models, vocab, d, n):
        model = output_models[(vocab, d)]
        rng = np.random.default_rng(n)
        text = tuple(rng.integers(3, vocab, n - 1).tolist()) + (EOS_ID,)
        doc = IndexedDocument(id="d", text_ids=text, title_ids=(4, 6), author_id=1, category_id=0)
        expected = None
        for workers in (1, 2, 3):
            monkeypatch.setattr(model_module.tensor, "worker_count", lambda: workers)
            fwd = model.forward_document(doc, want_trace=False, want_caches=True)
            if expected is None:  # the hidden states do not depend on the workers
                expected = unsplit_output_layer(model, fwd, text)
            got = (np.array(fwd.per_word_nll), fwd.dhidden, fwd.dWout, fwd.dbout)
            for name, a, b in zip(("nll", "dhidden", "dWout", "dbout"), got, expected):
                assert a.tobytes() == b.tobytes(), (name, workers)

    def test_pieces_under_frequent_thread_switches(self, monkeypatch, output_models):
        # four workers on fewer cores, and the interpreter switching threads
        # every microsecond: the pieces write disjoint rows of shared arrays
        model = output_models[(1000, 200)]
        text = tuple(np.random.default_rng(0).integers(3, 1000, 149).tolist()) + (EOS_ID,)
        doc = IndexedDocument(id="d", text_ids=text)
        monkeypatch.setattr(model_module.tensor, "worker_count", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [model.forward_document(doc, want_trace=False) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        expected = unsplit_output_layer(model, runs[0], text)
        for fwd in runs:
            got = (np.array(fwd.per_word_nll), fwd.dhidden, fwd.dWout, fwd.dbout)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))

    def test_paper_width_splits_from_two_rows_a_piece(self, output_models):
        assert output_models[(10000, 200)].rows_per_piece == 2
        assert output_models[(1000, 200)].rows_per_piece == 11
