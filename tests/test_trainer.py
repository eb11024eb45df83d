import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import samlm
import samlm.tensor as tensor_mod
import samlm.trainer as trainer_mod
from samlm.corpus import EOS_ID, Document, IndexedDocument
from samlm.model import ModelConfig, build
from samlm.tensor import ParamStore
from samlm.trainer import Adam, EpochStats, TrainConfig, train, write_history_csv

import oracles
import synth


class TestAdam:
    def _scalar_store(self, theta0):
        store = ParamStore()
        p = store.add("theta", (1,), init="zeros")
        p.value[0] = theta0
        return store, p

    def test_quadratic_convergence_matches_scalar_recursion(self):
        # f(theta) = theta^2 / 2, gradient theta
        store, p = self._scalar_store(1.0)
        adam = Adam(store, lr=0.01)
        for _ in range(500):
            p.grad[0] = p.value[0]
            adam.step()
        assert abs(p.value[0]) < 1e-3
        expected = oracles.adam_scalar(1.0, lambda t: t, lr=0.01, steps=500)
        np.testing.assert_allclose(p.value[0], expected, atol=1e-12)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        store, p = self._scalar_store(0.7)
        adam = Adam(store, lr=0.1)
        adam.step()
        assert p.value[0] == 0.7

    def test_first_step_is_signed_learning_rate(self):
        # bias correction at t=1 gives m_hat = g, v_hat = g^2
        for g in (3.0, -0.004):
            store, p = self._scalar_store(0.0)
            adam = Adam(store, lr=0.001)
            p.grad[0] = g
            adam.step()
            np.testing.assert_allclose(p.value[0], -0.001 * np.sign(g), rtol=1e-4)

    def test_grads_zeroed_after_step(self):
        store, p = self._scalar_store(1.0)
        adam = Adam(store, lr=0.01)
        p.grad[0] = 5.0
        adam.step()
        assert p.grad[0] == 0.0

    def test_steps_bit_identical_to_expression_form(self):
        # gradients over eight orders of magnitude, tensors of three shapes
        rng = np.random.default_rng(3)
        shapes = {"E": (11, 3), "W": (7, 5), "b": (5,)}
        stores = []
        for _ in range(2):
            store = ParamStore()
            for name, shape in shapes.items():
                store.add(name, shape, rng=np.random.default_rng(len(name)))
            stores.append(store)
        adam = Adam(stores[0], lr=0.01)
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 6):
            for name, shape in shapes.items():
                grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
                stores[0][name].grad[...] = grad
                stores[1][name].grad[...] = grad
            adam.step()
            oracles.adam_expression_step(stores[1], m, v, t, lr=0.01)
            for name in shapes:
                assert stores[0][name].value.tobytes() == stores[1][name].value.tobytes(), (t, name)
                assert adam.m[name].tobytes() == m[name].tobytes(), (t, name)
                assert adam.v[name].tobytes() == v[name].tobytes(), (t, name)
                assert not stores[0][name].grad.any()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_blocked_steps_bit_identical_to_expression_form(self, monkeypatch, workers):
        # a tensor of four slices (the last one short), one of fewer than
        # CHUNK elements and one of a single element, split over 1-3 workers
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: workers)
        rng = np.random.default_rng(4)
        shapes = {"big": (3 * tensor_mod.CHUNK + 5,), "mid": (40, 25), "one": (1,)}
        stores = []
        for _ in range(2):
            store = ParamStore()
            for name, shape in shapes.items():
                store.add(name, shape, rng=np.random.default_rng(len(name)))
            stores.append(store)
        adam = Adam(stores[0], lr=0.01)
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 6):
            for name, shape in shapes.items():
                grad = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
                stores[0][name].grad[...] = grad
                stores[1][name].grad[...] = grad
            adam.step()
            oracles.adam_expression_step(stores[1], m, v, t, lr=0.01)
            for name in shapes:
                assert stores[0][name].value.tobytes() == stores[1][name].value.tobytes(), (t, name)
                assert adam.m[name].tobytes() == m[name].tobytes(), (t, name)
                assert adam.v[name].tobytes() == v[name].tobytes(), (t, name)
                assert not stores[0][name].grad.any()

    def test_non_finite_gradient_on_a_worker_names_tensor(self, monkeypatch):
        # two workers: the big tensor's last slice falls in the second share
        monkeypatch.setattr(tensor_mod, "worker_count", lambda: 2)
        store = ParamStore()
        for name, size in (("one", 1), ("big", 3 * tensor_mod.CHUNK + 5), ("mid", 1000)):
            store.add(name, (size,), init="zeros")
        store["big"].grad[-1] = np.nan
        with pytest.raises(ValueError, match="non-finite gradient in big"):
            Adam(store, lr=0.01).step()

    def test_non_finite_gradient_names_tensor(self):
        store, p = self._scalar_store(1.0)
        adam = Adam(store, lr=0.01)
        p.grad[0] = np.nan
        with pytest.raises(ValueError, match="theta"):
            adam.step()


def small_pipeline(variant, docs, d=16, d_tilde=8, seed=0):
    vocab, attrs, indexed = synth.pipeline(docs)
    cfg = ModelConfig(
        variant=variant,
        d=d,
        d_tilde=d_tilde,
        vocab_size=len(vocab),
        n_authors=len(attrs.authors),
        n_categories=len(attrs.categories),
        seed=seed,
    )
    return build(cfg), indexed


class TestTrainLoop:
    def test_memorizes_constant_document(self):
        # a constant sequence has zero entropy; perplexity must approach 1
        docs = [Document(id="d", text=("a",) * 4)]
        model, indexed = small_pipeline("RNN", docs, d=8, d_tilde=4)
        result = train(model, indexed, indexed, TrainConfig(lr=0.02, max_epochs=200, patience=200, batch_size=1))
        assert result.best_valid_ppl <= 1.05

    def test_early_stop_contract(self, monkeypatch):
        # validation worsens immediately: stop after epoch 2, keep epoch 1
        docs = [Document(id=str(i), text=("a", "b")) for i in range(4)]
        model, indexed = small_pipeline("RNN", docs, d=4, d_tilde=2)
        scripted = iter([1.0, 2.0, 3.0, 4.0])
        monkeypatch.setattr(trainer_mod, "mean_nll", lambda m, d: next(scripted))
        result = train(model, indexed, indexed, TrainConfig(max_epochs=10, patience=1))
        assert len(result.history) == 2
        assert result.best_epoch == 1
        np.testing.assert_allclose(result.best_valid_nll, 1.0)

    def test_best_checkpoint_restored(self, monkeypatch):
        docs = [Document(id=str(i), text=("a", "b")) for i in range(4)]
        model, indexed = small_pipeline("RNN", docs, d=4, d_tilde=2)
        snapshots = []
        scripted = iter([1.0, 2.0, 3.0])
        real_nll = trainer_mod.mean_nll

        def fake(m, d):
            snapshots.append(m.store.copy_values())
            return next(scripted)

        monkeypatch.setattr(trainer_mod, "mean_nll", fake)
        train(model, indexed, indexed, TrainConfig(max_epochs=10, patience=2))
        for name, value in snapshots[0].items():
            np.testing.assert_array_equal(model.store[name].value, value)

    def test_parameters_copied_only_when_validation_improves(self, monkeypatch):
        # epochs 1 and 3 improve: two whole-parameter copies, none before the first epoch
        docs = [Document(id=str(i), text=("a", "b")) for i in range(4)]
        model, indexed = small_pipeline("RNN", docs, d=4, d_tilde=2)
        scripted = iter([2.0, 3.0, 1.0, 4.0])
        monkeypatch.setattr(trainer_mod, "mean_nll", lambda m, d: next(scripted))
        copies = []
        real_copy = ParamStore.copy_values
        monkeypatch.setattr(ParamStore, "copy_values", lambda store: copies.append(1) or real_copy(store))
        train(model, indexed, indexed, TrainConfig(max_epochs=4, patience=2))
        assert len(copies) == 2

    @pytest.mark.parametrize("scripted, copied, loaded", [([1.0], 0, 0), ([2.0, 1.0], 1, 0), ([1.0, 2.0], 1, 1)])
    def test_no_copy_the_last_epoch_cannot_replace(self, monkeypatch, scripted, copied, loaded):
        # the model leaves the last epoch holding its weights: they are the best
        # ones when that epoch improves, and no later epoch can replace them
        docs = [Document(id=str(i), text=("a", "b")) for i in range(4)]
        model, indexed = small_pipeline("RNN", docs, d=4, d_tilde=2)
        nlls = iter(scripted)
        monkeypatch.setattr(trainer_mod, "mean_nll", lambda m, d: next(nlls))
        calls = []
        for method in ("copy_values", "load_values"):
            real = getattr(ParamStore, method)
            monkeypatch.setattr(
                ParamStore, method, lambda store, *a, method=method, real=real: calls.append(method) or real(store, *a)
            )
        result = train(model, indexed, indexed, TrainConfig(max_epochs=len(scripted), patience=2))
        assert result.best_epoch == 1 + scripted.index(min(scripted))
        assert (calls.count("copy_values"), calls.count("load_values")) == (copied, loaded)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_same_seed_checkpoints_do_not_depend_on_the_workers(self, monkeypatch, tmp_path, workers):
        # V = 1 000, d = 200: the output layer and the optimizer tail run in pieces on the pool
        rng = np.random.default_rng(3)
        docs = [
            IndexedDocument(
                id=str(i),
                text_ids=tuple(rng.integers(3, 1000, rng.integers(20, 40)).tolist()) + (EOS_ID,),
                title_ids=tuple(rng.integers(3, 1000, 3).tolist()),
                author_id=i % 2,
            )
            for i in range(10)
        ]
        config = ModelConfig("SAM-Title-Au-Att", d=200, d_tilde=200, vocab_size=1000, n_authors=2, seed=1)
        for run, count in (("one", 1), ("many", workers)):
            monkeypatch.setattr(tensor_mod, "worker_count", lambda: count)
            train(build(config), docs[:8], docs[8:], TrainConfig(batch_size=4, max_epochs=2), run_dir=tmp_path / run)
        for name in ("best.ckpt", "last.ckpt"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "many" / name).read_bytes(), name

    def test_blas_threads_do_not_change_trained_weights(self):
        # a fresh interpreter that imports samlm before numpy: one OpenBLAS
        # thread when the variable is unset, so the bits of the run at one thread
        child = "\n".join([
            "import hashlib",
            "import samlm",
            "import numpy as np",
            "from samlm import model, trainer",
            "from samlm.corpus import IndexedDocument",
            "rng = np.random.default_rng(0)",
            "docs = [IndexedDocument(id=str(i), text_ids=tuple(rng.integers(3, 10000, rng.integers(40, 60)).tolist())"
            " + (1,), title_ids=tuple(rng.integers(3, 10000, 4).tolist()), author_id=i % 2) for i in range(40)]",
            "config = model.ModelConfig('SAM-Title-Au-Att', d=200, d_tilde=200, vocab_size=10000, n_authors=2, seed=1)",
            "m = model.build(config)",
            "trainer.train(m, docs[:36], docs[36:], trainer.TrainConfig(batch_size=20, max_epochs=1))",
            "print(hashlib.sha256(b''.join(p.value.tobytes() for p in m.store.params())).hexdigest())",
        ])
        variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in variables}
        unset["PYTHONPATH"] = str(Path(samlm.__file__).parents[1])
        digests = set()
        for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
            run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, check=True)
            digests.add(run.stdout.strip())
        assert len(digests) == 1

    def test_history_is_reproducible(self):
        docs = synth.two_category_corpus(60, seed=5)
        runs = []
        for _ in range(2):
            model, indexed = small_pipeline("SAM-Cat", docs, seed=3)
            result = train(model, indexed[:50], indexed[50:], TrainConfig(max_epochs=4, seed=7))
            runs.append([(s.train_ppl, s.valid_ppl) for s in result.history])
        for (t1, v1), (t2, v2) in zip(*runs):
            np.testing.assert_allclose(t1, t2, atol=1e-9)
            np.testing.assert_allclose(v1, v2, atol=1e-9)

    def test_same_seed_runs_write_identical_checkpoints(self, tmp_path):
        # the full model: title encoder, state init, both attentions, author
        titled, _ = synth.title_selects_vocab_corpus(24, seed=2)
        docs = [replace(doc, author=("alice", "bob")[i % 2]) for i, doc in enumerate(titled)]
        for run in ("a", "b"):
            model, indexed = small_pipeline("SAM-Title-State-Au-Att", docs, d=6, d_tilde=4, seed=3)
            train(model, indexed[:18], indexed[18:], TrainConfig(max_epochs=2, seed=5), run_dir=tmp_path / run)
        for name in ("best.ckpt", "last.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_best_valid_ppl_is_exp_of_min_nll(self):
        docs = synth.two_category_corpus(40, seed=6)
        model, indexed = small_pipeline("RNN", docs)
        result = train(model, indexed[:30], indexed[30:], TrainConfig(max_epochs=5, patience=5))
        assert result.best_valid_ppl == float(np.exp(result.best_valid_nll))
        assert result.best_valid_ppl == min(s.valid_ppl for s in result.history)

    def test_category_model_beats_blind_model(self):
        # the attribute carries one of two disjoint vocabulary halves
        docs = synth.two_category_corpus(300, seed=7, stop_prob=1 / 4)
        split_at = 240
        ppls = {}
        for variant in ("RNN", "SAM-Cat"):
            model, indexed = small_pipeline(variant, docs, d=16, d_tilde=8)
            result = train(
                model, indexed[:split_at], indexed[split_at:], TrainConfig(max_epochs=12, patience=12, seed=1)
            )
            ppls[variant] = result.best_valid_ppl
        assert ppls["SAM-Cat"] < ppls["RNN"]

    def test_checkpoints_and_history_written(self, tmp_path):
        docs = synth.two_category_corpus(30, seed=8)
        model, indexed = small_pipeline("RNN", docs, d=8, d_tilde=4)
        train(model, indexed[:20], indexed[20:], TrainConfig(max_epochs=2), run_dir=tmp_path)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_ppl,valid_ppl,seconds"
        assert lines[1].startswith("1,")

    def test_empty_split_rejected(self):
        docs = synth.two_category_corpus(10, seed=9)
        model, indexed = small_pipeline("RNN", docs)
        with pytest.raises(ValueError, match="non-empty"):
            train(model, indexed, [], TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError, match="patience"):
            TrainConfig(patience=0).validate()
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=-1).validate()

    @pytest.mark.parametrize("name", ["lr", "clip_norm"])
    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), float("inf")])
    def test_step_sizes_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            TrainConfig(**{name: value}).validate()


class TestClipAndHistory:
    def test_post_clip_norm_bounded(self):
        store = ParamStore()
        rng = np.random.default_rng(0)
        for i in range(3):
            p = store.add(f"p{i}", (4, 4), init="zeros")
            p.grad[...] = rng.normal(size=(4, 4)) * 10
        store.clip_grad_norm(5.0)
        assert store.grad_norm() <= 5.0 + 1e-9

    def test_clip_is_noop_under_threshold(self):
        store = ParamStore()
        p = store.add("p", (2,), init="zeros")
        p.grad[...] = [0.3, 0.4]
        store.clip_grad_norm(5.0)
        np.testing.assert_array_equal(p.grad, [0.3, 0.4])

    def test_history_metadata_records_clip(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history_csv([EpochStats(1, 2.0, 3.0, 0.1)], path, TrainConfig(clip_norm=7.5))
        assert "clip_norm=7.5" in path.read_text()
