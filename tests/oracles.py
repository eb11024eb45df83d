"""Independent oracles used to pin expected values.

The scalar-loop oracles are deliberately written with plain Python floats,
explicit index loops, and no shared code with the package, so a bug in the
production kernels cannot hide in its own oracle. `reference_backward_document`
is the per-step form of backpropagation through time, which the package's
per-document weight-gradient products must reproduce.
"""

import csv
import dataclasses
import math

import numpy as np

from samlm.corpus import PAD_ID


def dot(xs, ys):
    total = 0.0
    for x, y in zip(xs, ys):
        total += x * y
    return total


def scalar_matvec(m, v):
    out = []
    for row in m:
        acc = 0.0
        for x, y in zip(row, v):
            acc += x * y
        out.append(acc)
    return out


def scalar_softmax(xs):
    biggest = max(xs)
    exps = [math.exp(x - biggest) for x in xs]
    total = sum(exps)
    return [e / total for e in exps]


def scalar_sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def scalar_gru_step(weights, w, h_prev):
    """One gate-block step from a dict with keys Wz, Uz, Wr, Ur, Wc, Uc."""
    hidden = len(h_prev)
    z = [scalar_sigmoid(dot(weights["Wz"][i], w) + dot(weights["Uz"][i], h_prev)) for i in range(hidden)]
    r = [scalar_sigmoid(dot(weights["Wr"][i], w) + dot(weights["Ur"][i], h_prev)) for i in range(hidden)]
    hr = [h_prev[i] * r[i] for i in range(hidden)]
    c = [math.tanh(dot(weights["Wc"][i], w) + dot(weights["Uc"][i], hr)) for i in range(hidden)]
    return [(1.0 - z[i]) * c[i] + z[i] * h_prev[i] for i in range(hidden)]


def gru_weights(store, prefix):
    return {gate: store[f"{prefix}.{gate}"].value.tolist() for gate in ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc")}


def scalar_title_states(weights, embeddings, title_ids, hidden):
    states = []
    h = [0.0] * hidden
    for token_id in title_ids:
        h = scalar_gru_step(weights, embeddings[token_id], h)
        states.append(h)
    return states


def scalar_attention(m_matrix, vectors, h_prev):
    """Bilinear-score softmax attention; returns (context, weights)."""
    mh = scalar_matvec(m_matrix, h_prev)
    scores = [dot(v, mh) for v in vectors]
    weights = scalar_softmax(scores)
    context = [0.0] * len(vectors[0])
    for weight, vector in zip(weights, vectors):
        for i, x in enumerate(vector):
            context[i] += weight * x
    return context, weights


def scalar_forward_document(model, doc):
    """Re-derive forward_document with scalar loops; returns (total, per_word)."""
    cfg = model.config
    spec = model.variant
    values = {name: model.store[name].value.tolist() for name in model.store.names()}
    d, dt, vocab = cfg.d, cfg.d_tilde, cfg.vocab_size

    theta = None
    if spec.needs_title_encoder:
        theta = scalar_title_states(
            {g: values[f"title.{g}"] for g in ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc")},
            values["E"],
            doc.title_ids,
            dt,
        )
    h = [0.0] * d
    if spec.state_init:
        h = [dot(values["state.W"][i], theta[-1]) + values["state.b"][i] for i in range(d)]
    bow = None
    if spec.bow:
        mean = [
            sum(values["E"][y][j] for y in doc.title_ids) / len(doc.title_ids) for j in range(d)
        ]
        bow = scalar_matvec(values["bow.W"], mean)

    main_weights = {g: values[f"main.{g}"] for g in ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc")}
    targets = list(doc.text_ids)
    inputs = [PAD_ID] + targets[:-1]
    total, per_word = 0.0, []
    for x, target in zip(inputs, targets):
        candidates = []
        if spec.title_attention:
            context, _ = scalar_attention(values["M1"], theta, h)
            candidates.append(context)
        if spec.author:
            candidates.append(values["authors"][doc.author_id])
        if spec.category:
            candidates.append(values["categories"][doc.category_id])

        if spec.bow:
            w = list(values["E"][x]) + bow
        elif len(candidates) == 1:
            w = list(values["E"][x]) + list(candidates[0])
        elif candidates:
            fused, _ = scalar_attention(values["M2"], candidates, h)
            w = list(values["E"][x]) + fused
        else:
            w = list(values["E"][x])

        h = scalar_gru_step(main_weights, w, h)
        logits = [dot(values["Wout"][v], h) + values["bout"][v] for v in range(vocab)]
        probs = scalar_softmax(logits)
        nll = -math.log(probs[target])
        per_word.append(nll)
        total += nll
    return total, per_word


def scalar_output_layer(wout, bout, hidden, targets):
    """The affine softmax output layer token by token: returns the per-token
    distributions and the gradients of the summed NLL w.r.t. Wout and bout."""
    vocab, d = len(wout), len(wout[0])
    dwout = [[0.0] * d for _ in range(vocab)]
    dbout = [0.0] * vocab
    all_probs = []
    for h, target in zip(hidden, targets):
        probs = scalar_softmax([dot(wout[v], h) + bout[v] for v in range(vocab)])
        all_probs.append(probs)
        for v in range(vocab):
            g = probs[v] - (1.0 if v == target else 0.0)
            dbout[v] += g
            for j in range(d):
                dwout[v][j] += g * h[j]
    return all_probs, dwout, dbout


def gru_backward_per_step(cell, cache, dh):
    """One step of the gate block's backward pass, adding its weight
    gradients to the cell's buffers as outer products; returns (dw, dh_prev)."""
    z, r, c, hr = cache.z, cache.r, cache.c, cache.hr
    w, h_prev = cache.w, cache.h_prev

    dz = dh * (h_prev - c)
    dc = dh * (1.0 - z)
    dh_prev = dh * z

    da_c = dc * (1.0 - c * c)
    cell.Wc.grad += np.outer(da_c, w)
    cell.Uc.grad += np.outer(da_c, hr)
    dhr = cell.Uc.value.T @ da_c
    dh_prev += dhr * r
    dr = dhr * h_prev

    da_r = dr * r * (1.0 - r)
    da_z = dz * z * (1.0 - z)
    cell.Wr.grad += np.outer(da_r, w)
    cell.Ur.grad += np.outer(da_r, h_prev)
    cell.Wz.grad += np.outer(da_z, w)
    cell.Uz.grad += np.outer(da_z, h_prev)
    dh_prev += cell.Ur.value.T @ da_r + cell.Uz.value.T @ da_z

    dw = cell.Wc.value.T @ da_c + cell.Wr.value.T @ da_r + cell.Wz.value.T @ da_z
    return dw, dh_prev


def attention_backward_per_step(att, cache, dcontext):
    """One step of the bilinear attention's backward pass, candidate by
    candidate, adding outer(u, h_prev) to M's gradient; returns (per-candidate
    gradients, dh_prev)."""
    weights = cache.weights
    vectors = list(cache.vectors)
    dweights = np.array([dcontext @ v for v in vectors])
    dvectors = [w_t * dcontext for w_t in weights]
    dscores = weights * (dweights - weights @ dweights)
    u = np.zeros_like(cache.mh)
    for ds_t, v in zip(dscores, vectors):
        u += ds_t * v
    att.M.grad += np.outer(u, cache.h_prev)
    dh_prev = att.M.value.T @ u
    for t, ds_t in enumerate(dscores):
        dvectors[t] = dvectors[t] + ds_t * cache.mh
    return dvectors, dh_prev


def first_row(cache):
    """The one-row form of a row-form step cache (a `GruCache` or an
    `AttentionCache`): every field's first row."""
    return type(cache)(**{f.name: getattr(cache, f.name)[0] for f in dataclasses.fields(cache)})


def reference_backward_document(model, doc, fwd):
    """Backpropagation through time with every weight gradient added step by
    step, from the caches of `fwd = model.forward_document(doc)` for one document.
    Accumulates into the model's gradient buffers, as `backward_document`
    does."""
    spec = model.variant
    state = fwd.state
    targets = list(doc.text_ids)
    hidden = np.concatenate([step.h for step in fwd.caches])
    d = model.config.d
    enc = state.enc

    logits = hidden @ model.Wout.value.T + model.bout.value
    dlogits = np.exp(logits - logits.max(axis=1, keepdims=True))
    dlogits /= dlogits.sum(axis=1, keepdims=True)
    dlogits[np.arange(len(targets)), targets] -= 1.0
    model.Wout.grad += dlogits.T @ hidden
    model.bout.grad += dlogits.sum(axis=0)
    dhidden = dlogits @ model.Wout.value

    d_states = [np.zeros(model.config.d_tilde) for _ in enc.padded[0]] if enc is not None else None
    dbow = np.zeros(model.config.d_tilde) if spec.bow else None
    dh_next = np.zeros(d)

    for t in range(len(targets) - 1, -1, -1):
        cache = fwd.caches[t]
        dw, dh_prev = gru_backward_per_step(model.main_cell, first_row(cache.gru), dhidden[t] + dh_next)
        model.E.grad[cache.x_ids[0]] += dw[:d]
        if spec.bow:
            dbow += dw[d:]
        elif spec.candidate_names:
            dcontext = dw[d:]
            if cache.attr_att is not None:
                dcands, dh_att = attention_backward_per_step(model.attr_att, first_row(cache.attr_att), dcontext)
                dh_prev += dh_att
            else:
                dcands = [dcontext]
            for name, dcand in zip(spec.candidate_names, dcands):
                if name == "title":
                    dvecs, dh_att = attention_backward_per_step(model.title_att, first_row(cache.title_att), dcand)
                    dh_prev += dh_att
                    for i, dv in enumerate(dvecs):
                        d_states[i] += dv
                elif name == "author":
                    model.author_table.grad[state.author_ids[0]] += dcand
                else:
                    model.category_table.grad[state.category_ids[0]] += dcand
        dh_next = dh_prev

    if spec.state_init:
        model.state_W.grad += np.outer(dh_next, enc.last[0])
        model.state_b.grad += dh_next
        d_states[-1] += model.state_W.value.T @ dh_next
    if spec.bow:
        model.bow_W.grad += np.outer(dbow, state.mean_emb[0])
        dmean = model.bow_W.value.T @ dbow / len(state.title_ids[0])
        for token_id in state.title_ids[0]:
            model.E.grad[token_id] += dmean
    if enc is not None:
        dh_carry = np.zeros(model.config.d_tilde)
        for t in range(len(enc.padded[0]) - 1, -1, -1):
            dw_t, dh_carry = gru_backward_per_step(
                model.title_cell, first_row(enc.caches[t]), d_states[t] + dh_carry
            )
            model.E.grad[state.title_ids[0][t]] += dw_t


class KneserNeyOracle:
    """Direct-summation interpolated Kneser-Ney.

    Counts are recomputed from scratch by brute force, continuation counts by
    literally scanning for distinct left extensions, and the backoff mass is
    obtained as one minus the directly summed discounted numerators rather
    than from the closed-form shortcut.
    """

    def __init__(self, docs, order, vocab_size):
        self.order = order
        self.vocab_size = vocab_size
        self.raw = [dict() for _ in range(order)]
        for doc in docs:
            seq = (PAD_ID,) * (order - 1) + tuple(doc.text_ids)
            for i in range(order - 1, len(seq)):
                for k in range(1, order + 1):
                    gram = seq[i - k + 1 : i + 1]
                    self.raw[k - 1][gram] = self.raw[k - 1].get(gram, 0) + 1

        self.used = []
        for k in range(1, order + 1):
            table = {}
            if k == order:
                table = dict(self.raw[k - 1])
            else:
                for gram in self.raw[k - 1]:
                    if gram[:1] == (PAD_ID,):
                        table[gram] = self.raw[k - 1][gram]
                    else:
                        extensions = sum(
                            1 for longer in self.raw[k] if longer[1:] == gram
                        )
                        table[gram] = extensions
            self.used.append(table)

        self.discounts = []
        for table in self.used:
            n1 = sum(1 for c in table.values() if c == 1)
            n2 = sum(1 for c in table.values() if c == 2)
            self.discounts.append(n1 / (n1 + 2.0 * n2) if n1 > 0 else 0.5)

    def prob(self, context, word):
        ctx = tuple(context)[-(self.order - 1) :] if self.order > 1 else ()
        return self._prob(len(ctx) + 1, ctx, word)

    def _prob(self, k, ctx, word):
        if k == 0:
            return 1.0 / self.vocab_size
        table = self.used[k - 1]
        seen = {gram[-1]: count for gram, count in table.items() if gram[:-1] == ctx}
        total = sum(seen.values())
        if total == 0:
            return self._prob(k - 1, ctx[1:], word)
        d = self.discounts[k - 1]
        numerator = max(seen.get(word, 0) - d, 0.0) / total
        spent = sum(max(c - d, 0.0) for c in seen.values()) / total
        leftover = 1.0 - spent
        return numerator + leftover * self._prob(k - 1, ctx[1:], word)

    def document_nll(self, doc):
        seq = (PAD_ID,) * (self.order - 1) + tuple(doc.text_ids)
        nll = 0.0
        for i in range(self.order - 1, len(seq)):
            nll -= math.log(self._prob(self.order, seq[i - self.order + 1 : i], seq[i]))
        return nll


def lda_gibbs_numpy(docs, cfg, vocab_size):
    """Collapsed-Gibbs LDA with count tables held in numpy arrays and each
    token's draw made with array calls: the form `lda.fit` had before it
    moved to Python lists. Same seeding and generator calls; returns
    (assignments, doc_topic, topic_word, topic_totals)."""
    rng = np.random.default_rng(cfg.seed)
    K = cfg.n_topics
    alpha = cfg.effective_alpha
    beta = cfg.beta
    doc_tokens = [np.array(d.text_ids[:-1], dtype=np.int64) for d in docs]
    doc_topic = np.zeros((len(docs), K), dtype=np.int64)
    topic_word = np.zeros((K, vocab_size), dtype=np.int64)
    topic_totals = np.zeros(K, dtype=np.int64)
    assignments = []
    for d, tokens in enumerate(doc_tokens):
        z = rng.integers(0, K, size=len(tokens))
        assignments.append(z)
        for w, k in zip(tokens, z):
            doc_topic[d, k] += 1
            topic_word[k, w] += 1
            topic_totals[k] += 1

    beta_total = beta * vocab_size
    for _ in range(cfg.iterations):
        for d, tokens in enumerate(doc_tokens):
            z = assignments[d]
            for i, w in enumerate(tokens):
                k = z[i]
                doc_topic[d, k] -= 1
                topic_word[k, w] -= 1
                topic_totals[k] -= 1

                weights = (topic_word[:, w] + beta) / (topic_totals + beta_total)
                weights = weights * (doc_topic[d] + alpha)
                cumulative = np.cumsum(weights)
                k = int(np.searchsorted(cumulative, rng.random() * cumulative[-1]))

                z[i] = k
                doc_topic[d, k] += 1
                topic_word[k, w] += 1
                topic_totals[k] += 1
    return assignments, doc_topic, topic_word, topic_totals


def adam_scalar(theta0, grads_of, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """The bias-corrected update recursion on one scalar parameter."""
    theta, m, v = theta0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grads_of(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def adam_expression_step(store, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t of bias-corrected Adam written as whole-array expressions, the
    form `trainer.Adam.step` had before it wrote into preallocated buffers;
    updates the moment dicts `m` and `v` in place and zeroes the grads."""
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for p in store.params():
        mp, vp = m[p.name], v[p.name]
        mp *= beta1
        mp += (1.0 - beta1) * p.grad
        vp *= beta2
        vp += (1.0 - beta2) * p.grad * p.grad
        p.value -= lr * (mp / bias1) / (np.sqrt(vp / bias2) + eps)
        p.grad[...] = 0.0


def read_trace_csv(path):
    """Parse an attention-trace CSV back into (main tokens, labeled weight rows)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = rows[0][1:]
    body = [(row[0], [float(x) for x in row[1:]]) for row in rows[1:]]
    return header, body
