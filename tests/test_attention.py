import numpy as np
import pytest

from samlm.attention import (
    AttentionTrace,
    BilinearAttention,
    encode_title,
    write_trace_csv,
)
from samlm.gru import GruCell
from samlm.tensor import ParamStore, grad_check, softmax

import oracles
from oracles import read_trace_csv


def make_attention(attr_dim, hidden_dim, seed=0, zero=False):
    store = ParamStore()
    att = BilinearAttention(store, "M", attr_dim, hidden_dim, np.random.default_rng(seed))
    if zero:
        att.M.value[...] = 0.0
    return store, att


def attend_one(att, vectors, h_prev):
    """`attend` for one row: its context, weights and the cache."""
    context, weights, cache = att.attend(vectors[None], h_prev[None])
    return context[0], weights[0], cache


def pad(vectors):
    """Stack candidate arrays of unequal lengths, zero-padded, with the bias
    that gives the padding zero weight."""
    n = max(len(v) for v in vectors)
    stacked = np.zeros((len(vectors), n, vectors[0].shape[1]))
    bias = np.full((len(vectors), n), -np.inf)
    for i, v in enumerate(vectors):
        stacked[i, : len(v)], bias[i, : len(v)] = v, 0.0
    return stacked, bias


def backward_one(att, cache, dcontext):
    """`backward` for one row: its candidate gradients, dh_prev and u."""
    dvectors, dh_prev, u = att.backward(cache, dcontext[None])
    return dvectors[0], dh_prev[0], u[0]


def make_encoder(d=4, dt=3, vocab=6, seed=0, zero=False):
    store = ParamStore()
    rng = np.random.default_rng(seed)
    cell = GruCell(store, "title", d, dt, rng)
    embeddings = rng.uniform(-0.5, 0.5, (vocab, d))
    if zero:
        for p in store.params():
            p.value[...] = 0.0
    return store, cell, embeddings


class TestEncodeTitle:
    def test_single_word_title(self):
        store, cell, E = make_encoder()
        enc = encode_title(cell, [(2,)], E)
        assert enc.padded.shape == (1, 1, 3)
        assert enc.bias.tolist() == [[0.0]]
        np.testing.assert_array_equal(enc.last, enc.padded[0])

    def test_zero_weights_give_zero_states(self):
        store, cell, E = make_encoder(zero=True)
        enc = encode_title(cell, [(1, 2, 3)], E)
        for state in enc.padded[0]:
            np.testing.assert_allclose(state, 0.0, atol=1e-15)

    def test_composition_equals_chained_steps(self):
        store, cell, E = make_encoder(seed=5)
        ids = (1, 4, 2)
        enc = encode_title(cell, [ids], E)
        h = np.zeros(3)
        for token_id, state in zip(ids, enc.padded[0]):
            h, _ = cell.step(E[token_id], h)
            np.testing.assert_allclose(state, h, atol=1e-12)

    def test_empty_title_rejected(self):
        store, cell, E = make_encoder()
        with pytest.raises(ValueError, match="empty title"):
            encode_title(cell, [(1, 2), ()], E)

    @pytest.mark.parametrize("seed", range(3))
    def test_batch_equals_each_title_alone(self, seed):
        # titles of unequal lengths, not given longest first: each keeps its
        # own states in the given order, zero-padded, and the encoder steps
        # the running titles as a prefix
        store, cell, E = make_encoder(seed=seed)
        titles = [(1, 4, 2), (5,), (2, 3, 1, 4, 5), (3, 3, 1)]
        enc = encode_title(cell, titles, E)
        assert list(enc.order) == [2, 0, 3, 1]
        assert [len(cache.w) for cache in enc.caches] == [4, 3, 3, 1, 1]
        assert enc.padded.shape == (4, 5, 3)
        for i, title in enumerate(titles):
            alone = encode_title(cell, [title], E)
            np.testing.assert_allclose(enc.padded[i, : len(title)], alone.padded[0], rtol=0, atol=1e-15)
            assert not enc.padded[i, len(title) :].any()
            assert enc.bias[i].tolist() == [0.0] * len(title) + [-np.inf] * (5 - len(title))
        for row, i in enumerate(enc.order):
            np.testing.assert_array_equal(enc.token_ids[row, : len(titles[i])], titles[i])
        np.testing.assert_array_equal(enc.last, [enc.padded[i, len(title) - 1] for i, title in enumerate(titles)])


class TestTitleContext:
    def test_single_candidate_is_identity(self):
        store, att = make_attention(3, 5, seed=1)
        rng = np.random.default_rng(1)
        state = rng.uniform(-1, 1, 3)
        context, weights, _ = attend_one(att, state[None, :], rng.uniform(-1, 1, 5))
        np.testing.assert_allclose(weights, [1.0], atol=1e-15)
        np.testing.assert_allclose(context, state, atol=1e-15)

    def test_zero_scores_give_uniform_weights_and_mean(self):
        store, att = make_attention(3, 5, zero=True)
        rng = np.random.default_rng(2)
        states = rng.uniform(-1, 1, (4, 3))
        context, weights, _ = attend_one(att, states, rng.uniform(-1, 1, 5))
        np.testing.assert_allclose(weights, 0.25, atol=1e-15)
        np.testing.assert_allclose(context, np.mean(states, axis=0), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_oracle(self, seed):
        store, att = make_attention(4, 5, seed=seed)
        rng = np.random.default_rng(200 + seed)
        states = rng.uniform(-1, 1, (3, 4))
        h_prev = rng.uniform(-1, 1, 5)
        context, weights, _ = attend_one(att, states, h_prev)
        exp_context, exp_weights = oracles.scalar_attention(
            att.M.value.tolist(), [s.tolist() for s in states], h_prev.tolist()
        )
        np.testing.assert_allclose(context, exp_context, atol=1e-12)
        np.testing.assert_allclose(weights, exp_weights, atol=1e-12)

    def test_empty_candidates_rejected(self):
        store, att = make_attention(3, 4)
        with pytest.raises(ValueError, match="empty candidate"):
            attend_one(att, np.zeros((0, 3)), np.zeros(4))

    def test_weights_are_distribution(self):
        store, att = make_attention(3, 4, seed=3)
        rng = np.random.default_rng(3)
        for _ in range(25):
            vectors = rng.uniform(-2, 2, (rng.integers(1, 6), 3))
            _, weights, _ = attend_one(att, vectors, rng.uniform(-2, 2, 4))
            assert np.all(weights >= 0)
            assert abs(weights.sum() - 1.0) <= 1e-9

    def test_shift_invariance_of_weights(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-3, 3, 6)
        np.testing.assert_allclose(softmax(scores), softmax(scores + 17.3), atol=1e-12)

    def test_permutation_equivariance(self):
        store, att = make_attention(3, 4, seed=6)
        rng = np.random.default_rng(6)
        vectors = rng.uniform(-1, 1, (4, 3))
        h_prev = rng.uniform(-1, 1, 4)
        context, weights, _ = attend_one(att, vectors, h_prev)
        perm = [2, 0, 3, 1]
        context_p, weights_p, _ = attend_one(att, vectors[perm], h_prev)
        np.testing.assert_allclose(context_p, context, atol=1e-12)
        np.testing.assert_allclose(weights_p, weights[perm], atol=1e-12)


class TestBackward:
    def _setup(self, n_candidates, attr_dim, hidden_dim, seed):
        store, att = make_attention(attr_dim, hidden_dim, seed=seed)
        rng = np.random.default_rng(500 + seed)
        holders = [
            store.add(f"v{i}", (attr_dim,), rng=rng) for i in range(n_candidates)
        ]
        h_holder = store.add("h", (hidden_dim,), rng=rng)
        upstream = rng.uniform(-1, 1, attr_dim)

        def f(store):
            context, _, _ = attend_one(att, np.stack([v.value for v in holders]), h_holder.value)
            return float(context @ upstream)

        store.zero_grads()
        context, _, cache = attend_one(att, np.stack([v.value for v in holders]), h_holder.value)
        dvectors, dh, u = backward_one(att, cache, upstream)
        att.add_weight_grads([cache], [u])
        for v, dv in zip(holders, dvectors):
            v.grad += dv
        h_holder.grad += dh
        return store, f

    @pytest.mark.parametrize("seed", range(6))
    def test_gradcheck_title_shape(self, seed):
        store, f = self._setup(n_candidates=3, attr_dim=3, hidden_dim=3, seed=seed)
        report = grad_check(f, store)
        assert report.passed, report.format_table()

    @pytest.mark.parametrize("seed", range(3))
    def test_gradcheck_attribute_shape(self, seed):
        store, f = self._setup(n_candidates=3, attr_dim=4, hidden_dim=6, seed=seed)
        report = grad_check(f, store)
        assert report.passed, report.format_table()

    def test_zero_upstream(self):
        store, att = make_attention(3, 4, seed=8)
        rng = np.random.default_rng(8)
        vectors = rng.uniform(-1, 1, (3, 3))
        _, _, cache = attend_one(att, vectors, rng.uniform(-1, 1, 4))
        dvectors, dh, u = backward_one(att, cache, np.zeros(3))
        att.add_weight_grads([cache], [u])
        assert not dh.any() and not att.M.grad.any()
        assert dvectors.shape == (3, 3) and not dvectors.any()


class TestStackedCandidates:
    def test_single_word_title(self):
        store, cell, E = make_encoder(d=4, dt=3, seed=11)
        att_store, att = make_attention(3, 5, seed=11)
        enc = encode_title(cell, [(2,)], E)
        rng = np.random.default_rng(11)
        context, weights, cache = attend_one(att, enc.padded[0], rng.uniform(-1, 1, 5))
        np.testing.assert_array_equal(weights, [1.0])
        np.testing.assert_allclose(context, enc.last[0], atol=1e-15)
        upstream = rng.uniform(-1, 1, 3)
        dvectors, dh, u = backward_one(att, cache, upstream)
        att.add_weight_grads([cache], [u])
        # one candidate: the softmax is constant, so only the weighted sum passes gradient
        np.testing.assert_allclose(dvectors, upstream[None, :], atol=1e-15)
        assert not dh.any() and not u.any() and not att.M.grad.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_permuting_candidate_rows(self, seed):
        store, att = make_attention(3, 4, seed=seed)
        rng = np.random.default_rng(700 + seed)
        vectors = rng.uniform(-1, 1, (5, 3))
        h_prev = rng.uniform(-1, 1, 4)
        upstream = rng.uniform(-1, 1, 3)
        perm = rng.permutation(5)
        context, weights, cache = attend_one(att, vectors, h_prev)
        dvectors, dh, u = backward_one(att, cache, upstream)
        context_p, weights_p, cache_p = attend_one(att, vectors[perm], h_prev)
        dvectors_p, dh_p, u_p = backward_one(att, cache_p, upstream)
        np.testing.assert_allclose(context_p, context, atol=1e-12)
        np.testing.assert_allclose(weights_p, weights[perm], atol=1e-12)
        np.testing.assert_allclose(dvectors_p, dvectors[perm], atol=1e-12)
        np.testing.assert_allclose(dh_p, dh, atol=1e-12)
        np.testing.assert_allclose(u_p, u, atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_attend_their_own_candidates(self, seed):
        # three rows with 4, 1 and 6 candidates, zero-padded to 6 with a -inf
        # bias past each row's own: each row equals that row alone
        store, att = make_attention(3, 4, seed=seed)
        rng = np.random.default_rng(900 + seed)
        vectors = [rng.uniform(-1, 1, (n, 3)) for n in (4, 1, 6)]
        stacked, bias = pad(vectors)
        h_prev = rng.uniform(-1, 1, (3, 4))
        upstream = rng.uniform(-1, 1, (3, 3))
        context, weights, cache = att.attend(stacked, h_prev, bias)
        dvectors, dh, u = att.backward(cache, upstream)
        for i, n in enumerate((4, 1, 6)):
            context_i, weights_i, cache_i = attend_one(att, vectors[i], h_prev[i])
            dvectors_i, dh_i, u_i = backward_one(att, cache_i, upstream[i])
            np.testing.assert_allclose(context[i], context_i, rtol=0, atol=1e-15)
            np.testing.assert_allclose(weights[i, :n], weights_i, rtol=0, atol=1e-15)
            np.testing.assert_allclose(dvectors[i, :n], dvectors_i, rtol=0, atol=1e-15)
            assert not weights[i, n:].any() and not dvectors[i, n:].any()
            np.testing.assert_allclose(dh[i], dh_i, rtol=0, atol=1e-15)
            np.testing.assert_allclose(u[i], u_i, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_padded_titles_attend_as_each_title_alone(self, seed):
        # titles of 1, 4 and 9 words in one padded batch: the padding gets
        # weight 0.0 exactly, and each row agrees with its title attended alone
        # to 1e-12 of the row's largest entry
        store, cell, E = make_encoder(d=4, dt=3, vocab=6, seed=seed)
        att_store, att = make_attention(3, 5, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        titles = [tuple(rng.integers(1, 6, n)) for n in (1, 4, 9)]
        enc = encode_title(cell, titles, E)
        h_prev = rng.uniform(-1, 1, (3, 5))
        upstream = rng.uniform(-1, 1, (3, 3))
        context, weights, cache = att.attend(enc.padded, h_prev, enc.bias)
        dvectors, dh, u = att.backward(cache, upstream)
        for i, title in enumerate(titles):
            n = len(title)
            assert weights[i, n:].tolist() == [0.0] * (9 - n)
            assert not dvectors[i, n:].any()
            alone = encode_title(cell, [title], E)
            context_i, weights_i, cache_i = attend_one(att, alone.padded[0], h_prev[i])
            dvectors_i, dh_i, u_i = backward_one(att, cache_i, upstream[i])
            for got, want in (
                (weights[i, :n], weights_i),
                (context[i], context_i),
                (dh[i], dh_i),
                (u[i], u_i),
                (dvectors[i, :n], dvectors_i),
            ):
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (i, got, want)

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_over_steps_matches_per_step_oracle(self, seed):
        store, att = make_attention(3, 4, seed=seed)
        rng = np.random.default_rng(800 + seed)
        vectors = rng.uniform(-1, 1, (6, 3))
        caches, us, dvectors, dhs = [], [], [], []
        upstreams = rng.uniform(-1, 1, (4, 3))
        for upstream in upstreams:
            _, _, cache = attend_one(att, vectors, rng.uniform(-1, 1, 4))
            dv, dh, u = backward_one(att, cache, upstream)
            caches.append(cache)
            us.append(u)
            dvectors.append(dv)
            dhs.append(dh)
        att.add_weight_grads(caches, us)
        stacked = att.M.grad.copy()
        att.M.grad[...] = 0.0
        for cache, upstream, dv, dh in zip(caches, upstreams, dvectors, dhs):
            dv_ref, dh_ref = oracles.attention_backward_per_step(att, oracles.first_row(cache), upstream)
            np.testing.assert_allclose(dv, dv_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(dh, dh_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked, att.M.grad, rtol=0, atol=1e-12)


class TestTraceCsv:
    def test_roundtrip_at_six_decimals(self, tmp_path):
        rng = np.random.default_rng(0)
        alpha = rng.dirichlet(np.ones(3), size=4).T  # 3 title words x 4 steps
        beta = rng.dirichlet(np.ones(2), size=4).T
        trace = AttentionTrace(
            alpha=alpha,
            beta=beta,
            main_tokens=["w1", "w2", "w3", "w4"],
            title_tokens=["t1", "t2", "t3"],
            attr_names=["title", "author"],
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        header, body = read_trace_csv(path)
        assert header == ["w1", "w2", "w3", "w4"]
        assert [label for label, _ in body] == ["t1", "t2", "t3", "title", "author"]
        for (label, row), expected in zip(body, list(alpha) + list(beta)):
            np.testing.assert_allclose(row, np.round(expected, 6), atol=1e-9)

    def test_columns_sum_to_one_after_rounding(self, tmp_path):
        rng = np.random.default_rng(1)
        beta = rng.dirichlet(np.ones(2), size=5).T
        trace = AttentionTrace(beta=beta, attr_names=["a", "b"])
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        _, body = read_trace_csv(path)
        sums = np.array([row for _, row in body]).sum(axis=0)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_trace_csv(AttentionTrace(), tmp_path / "x.csv")
