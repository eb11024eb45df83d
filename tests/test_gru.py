import numpy as np
import pytest

from samlm.gru import GruCell
from samlm.tensor import ParamStore, grad_check

import oracles


def make_cell(input_dim=3, hidden_dim=4, seed=0, zero=False):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    cell = GruCell(store, "g", input_dim, hidden_dim, rng)
    if zero:
        for p in store.params():
            p.value[...] = 0.0
    return store, cell


class TestStep:
    def test_zero_weights_closed_form(self):
        # sigma(0) = 0.5 gates, zero candidate: h = 0.5 * h_prev
        store, cell = make_cell(zero=True)
        h_prev = np.array([0.2, -0.4, 0.8, 1.0])
        h, cache = cell.step(np.ones(3), h_prev)
        np.testing.assert_allclose(cache.z, 0.5, atol=1e-15)
        np.testing.assert_allclose(cache.r, 0.5, atol=1e-15)
        np.testing.assert_allclose(cache.c, 0.0, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * h_prev, atol=1e-15)

    def test_zero_weights_zero_state(self):
        store, cell = make_cell(zero=True)
        h, _ = cell.step(np.ones(3), np.zeros(4))
        np.testing.assert_allclose(h, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_loop_oracle(self, seed):
        store, cell = make_cell(seed=seed)
        rng = np.random.default_rng(100 + seed)
        w = rng.uniform(-1, 1, 3)
        h_prev = rng.uniform(-1, 1, 4)
        h, _ = cell.step(w, h_prev)
        expected = oracles.scalar_gru_step(
            oracles.gru_weights(store, "g"), w.tolist(), h_prev.tolist()
        )
        np.testing.assert_allclose(h, expected, atol=1e-12)

    def test_shape_mismatch(self):
        store, cell = make_cell()
        with pytest.raises(ValueError, match="shape"):
            cell.step(np.zeros(5), np.zeros(4))

    def test_hidden_stays_in_tanh_range_from_zero_state(self):
        store, cell = make_cell(seed=9)
        rng = np.random.default_rng(9)
        for _ in range(20):
            h, _ = cell.step(rng.uniform(-5, 5, 3), np.zeros(4))
            assert np.all(np.abs(h) < 1.0)

    def test_step_is_pure(self):
        store, cell = make_cell(seed=2)
        w = np.linspace(-1, 1, 3)
        h_prev = np.linspace(0.5, -0.5, 4)
        h1, _ = cell.step(w, h_prev)
        h2, _ = cell.step(w, h_prev)
        assert np.array_equal(h1, h2)


class TestBackward:
    @pytest.mark.parametrize("seed", range(20))
    def test_gradcheck_single_step(self, seed):
        store, cell = make_cell(seed=seed)
        rng = np.random.default_rng(1000 + seed)
        w = rng.uniform(-1, 1, 3)
        h_prev = rng.uniform(-1, 1, 4)
        upstream = rng.uniform(-1, 1, 4)

        def f(store):
            h, _ = cell.step(w, h_prev)
            return float(h @ upstream)

        store.zero_grads()
        h, cache = cell.step(w, h_prev)
        _, _, da = cell.backward(cache, upstream)
        cell.add_weight_grads([cache], [da])
        report = grad_check(f, store)
        assert report.passed, report.format_table()

    def test_zero_upstream_zero_grads(self):
        store, cell = make_cell(seed=3)
        h, cache = cell.step(np.ones(3), np.ones(4) * 0.1)
        dw, dh_prev, da = cell.backward(cache, np.zeros(4))
        cell.add_weight_grads([cache], [da])
        assert not dw.any() and not dh_prev.any()
        assert all(not p.grad.any() for p in store.params())

    def test_accumulation_is_additive(self):
        store, cell = make_cell(seed=4)
        rng = np.random.default_rng(4)
        w = rng.uniform(-1, 1, 3)
        h_prev = rng.uniform(-1, 1, 4)
        up1, up2 = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)

        h, cache = cell.step(w, h_prev)

        def accumulate(upstream):
            _, _, da = cell.backward(cache, upstream)
            cell.add_weight_grads([cache], [da])

        store.zero_grads()
        accumulate(up1)
        grads1 = {p.name: p.grad.copy() for p in store.params()}
        store.zero_grads()
        accumulate(up2)
        grads2 = {p.name: p.grad.copy() for p in store.params()}
        store.zero_grads()
        accumulate(up1)
        accumulate(up2)
        for p in store.params():
            np.testing.assert_allclose(p.grad, grads1[p.name] + grads2[p.name], atol=1e-12)

    def test_gradcheck_through_chain_with_softmax_loss(self):
        # single-step cross-entropy composite, the shape backward sees in use
        store, cell = make_cell(input_dim=2, hidden_dim=3, seed=5)
        rng = np.random.default_rng(5)
        out = store.add("out", (4, 3), rng=rng)
        w = rng.uniform(-1, 1, 2)
        h_prev = rng.uniform(-1, 1, 3)

        def f(store):
            h, _ = cell.step(w, h_prev)
            logits = out.value @ h
            e = np.exp(logits - logits.max())
            return float(-np.log(e[1] / e.sum()))

        store.zero_grads()
        h, cache = cell.step(w, h_prev)
        logits = out.value @ h
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        dlogits = probs.copy()
        dlogits[1] -= 1.0
        out.grad += np.outer(dlogits, h)
        _, _, da = cell.backward(cache, out.value.T @ dlogits)
        cell.add_weight_grads([cache], [da])
        report = grad_check(f, store)
        assert report.passed, report.format_table()

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck_through_steps_with_one_product_per_weight(self, seed):
        # a four-step chain: dh flows back step by step, the weight gradients
        # are formed once over the stacked steps
        store, cell = make_cell(seed=seed)
        rng = np.random.default_rng(2000 + seed)
        inputs = rng.uniform(-1, 1, (4, 3))
        upstream = rng.uniform(-1, 1, (4, 4))

        def f(store):
            h, total = np.zeros(4), 0.0
            for w, up in zip(inputs, upstream):
                h, _ = cell.step(w, h)
                total += float(h @ up)
            return total

        store.zero_grads()
        h, caches = np.zeros(4), []
        for w in inputs:
            h, cache = cell.step(w, h)
            caches.append(cache)
        das = [None] * len(caches)
        dh_next = np.zeros(4)
        for t in range(len(caches) - 1, -1, -1):
            _, dh_next, das[t] = cell.backward(caches[t], upstream[t] + dh_next)
        cell.add_weight_grads(caches, das)
        report = grad_check(f, store)
        assert report.passed, report.format_table()
