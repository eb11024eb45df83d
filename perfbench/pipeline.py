"""The paper's pipeline as timed stages, on one workload and one seed.

Stages, in pipeline order: set-up (ingest, vocabulary and inventories,
indexing, model build, checkpoint write and read-back), LDA labelling, the
Kneser-Ney baseline (fit, then held-out perplexity), training, perplexity,
word delta, generation and style variation.

A pass of a stage runs a fixed list of operations, so it does the same work
on every run and every commit. The run goes in short rounds, each making one
pass of every stage in pipeline order, so that each stage is timed at many
moments spread over the whole run: on a shared machine whose speed changes
in spells of seconds, that is what keeps a stage's median from following
whichever spell it happened to run in. Each stage is warmed once before its
first timed pass and garbage is collected after every pass. A run makes a
fixed number of rounds per workload, traced or not, so that every run does
the same work and has the same number of samples behind each median,
whatever the speed of the machine at the time.

Throughput is the work of one pass over the median pass time, set-up time
is the median round, and latencies are percentiles over every timed request.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from samlm import corpus, evaluate, generation, lda, model, ngram, trainer
from samlm.model import ModelConfig

import checks as chk
from corpora import N_AUTHORS, N_TOPICS, CorpusSpec, make_corpus, write_jsonl

VARIANT = "SAM-Title-State-Au-Att"
HIDDEN = 200  # d = d~, as in the paper
KN_ORDER = 5
CLIP_NORM = 5.0
LEARNING_RATE = 1e-3
LDA_ALPHA = 0.1  # short documents: a sparse doc-topic prior
LDA_PURITY_FLOOR = 0.5  # chance is about 0.3 for five balanced topics
GRAD_TOLERANCE = 1e-4
NLL_TOLERANCE = 1e-9
KN_SUM_TOLERANCE = 1e-9
KN_EVAL_CHUNKS = 5  # held-out documents are scored in this many operations
TRAIN_BATCHES = 2  # mini-batches per training pass
BATCH_SIZE = 2
EVAL_DOCS = 8
DELTA_DOCS = 4
GEN_REQUESTS = 18  # per round; rounds * GEN_REQUESTS >= 100 for a p90
VARY_REQUESTS = 4  # per round
LDA_ITERATIONS = 4
GRADCHECK_PER_TENSOR = 2
OUTER_REF_REPS = 20


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    vocab_cap: int
    rounds: int
    gen_max_len: int
    kn_fit_docs: int
    lda_docs: int  # timed labelling
    purity_docs: int  # one untimed fit with enough sweeps to check the planted topics
    purity_iterations: int


WORKLOADS = {
    # The output layer dominates: V = 10 000 (the paper's cap), short titles
    # and documents, a sparse long-tailed vocabulary for the KN tables.
    "paper-vocab": Workload(
        corpus=CorpusSpec(
            n_train=4000, n_heldout=2000, common_words=300, topic_words=2600, style_words=40,
            title_len=(5, 7), text_len=(20, 40),
        ),
        vocab_cap=10000, rounds=6, gen_max_len=16, kn_fit_docs=600,
        lda_docs=200, purity_docs=200, purity_iterations=10,
    ),
    # The recurrence dominates: V = 1 000, 25-30 word titles attended at
    # every step, 60-100 token documents.
    "long-title": Workload(
        corpus=CorpusSpec(
            n_train=1200, n_heldout=1000, common_words=100, topic_words=160, style_words=10,
            title_len=(25, 30), text_len=(60, 100),
        ),
        vocab_cap=1000, rounds=8, gen_max_len=32, kn_fit_docs=300,
        lda_docs=120, purity_docs=150, purity_iterations=6,
    ),
}


@dataclass
class Stage:
    name: str
    ops: list[Callable]
    warm: Callable | None = None
    before_pass: Callable | None = None
    after_pass: Callable | None = None
    first: list = field(default_factory=list)  # outputs of the first pass
    pass_s: list[float] = field(default_factory=list)  # passes with no failed operation
    op_s: list[float] = field(default_factory=list)  # their operations
    attempted: int = 0
    failed: int = 0

    def rate(self, work: float) -> float:
        return work / statistics.median(self.pass_s) if self.pass_s else 0.0

    def percentile_ms(self, q: float) -> float:
        return float(np.percentile(self.op_s, q)) * 1000.0 if self.op_s else 0.0


@dataclass
class Setup:
    train_docs: list
    held_docs: list
    vocab: object
    attrs: object
    itrain: list
    iheld: list
    model: object  # as built; the training stage trains it
    initial: object  # read back from the checkpoint; stays untrained


class Bench:
    def __init__(self, workload: Workload, seed: int, tracer, workdir: Path):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.traced = tracer is not None
        self.workdir = workdir
        self.stages: list[Stage] = []
        self.checks = chk.Checks()
        self.metrics: dict[str, float] = {}
        self.extra: dict = {}
        self.final_checks: list[Callable] = []  # checks on every pass, made after the last
        self.vary_lengths: list[tuple[int, int]] = []  # (L, L') of each traced style variation

    def run_pass(self, stage: Stage) -> None:
        if stage.before_pass is not None:
            stage.before_pass()
        outs, times, failed = [], [], 0
        if self.traced:
            self.tracer.on = True
        for op in stage.ops:
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out, failed = None, failed + 1
            times.append(time.perf_counter() - t0)
            outs.append(out)
        if self.traced:
            self.tracer.on = False
        stage.attempted += len(stage.ops)
        stage.failed += failed
        if not stage.first:
            stage.first = outs
        if not failed:
            stage.pass_s.append(sum(times))
            stage.op_s.extend(times)
        if stage.after_pass is not None:
            stage.after_pass()
        del outs
        gc.collect()

    def run(self) -> None:
        train_records, held_records = make_corpus(self.w.corpus, self.seed)
        paths = self.workdir / "train.jsonl", self.workdir / "heldout.jsonl"
        write_jsonl(train_records, paths[0])
        write_jsonl(held_records, paths[1])
        outer_ms = []

        setup = self.setup_stage(*paths)
        setup.warm()
        self.run_pass(setup)
        s = setup.first[0]
        self.check_setup(s)
        # each entry: a stage, and what to check on its first pass
        kn_fit = self.kn_fit_stage(s)
        later = [
            self.lda_stage(s), kn_fit, self.kn_eval_stage(s, kn_fit[0]), self.train_stage(s),
            self.eval_stage(s), self.delta_stage(s), self.gen_stage(s), self.vary_stage(s),
        ]
        self.stages = [setup] + [stage for stage, _ in later]
        for stage, check in later:
            gc.collect()
            if stage.warm is not None:
                stage.warm()
            self.run_pass(stage)
            check(stage)
        for _ in range(self.w.rounds - 1):
            if self.traced:
                outer_ms.append(outer_reference_ms())
            for stage in self.stages:
                self.run_pass(stage)

        for final_check in self.final_checks:
            final_check()
        by_name = {stage.name: stage for stage in self.stages}
        self.metrics["setup_s"] = statistics.median(setup.pass_s) if setup.pass_s else 0.0
        self.metrics["lda_tok_s"] = by_name["lda"].rate(self.extra["lda_tokens_per_pass"])
        self.metrics["kn_fit_tok_s"] = by_name["kn_fit"].rate(sum(len(d.text_ids) for d in s.itrain[: self.w.kn_fit_docs]))
        self.metrics["kn_eval_tok_s"] = by_name["kn_eval"].rate(sum(len(d.text_ids) for d in s.iheld))
        self.metrics["train_tok_s"] = by_name["train"].rate(self.extra["train_tokens_per_pass"])
        self.metrics["eval_tok_s"] = by_name["eval"].rate(sum(len(d.text_ids) for d in s.iheld[:EVAL_DOCS]))
        self.metrics["delta_tok_s"] = by_name["delta"].rate(sum(len(d.text_ids) for d in s.iheld[:DELTA_DOCS]))
        self.metrics["gen_ms.p50"] = by_name["gen"].percentile_ms(50)
        self.metrics["gen_ms.p90"] = by_name["gen"].percentile_ms(90)
        self.metrics["vary_ms.p50"] = by_name["vary"].percentile_ms(50)
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.extra["rounds"] = self.w.rounds
        if self.traced:
            self.extra["outer_ref_ms"] = statistics.median(outer_ms)
            self.extra["batch_tokens"] = self.extra["train_tokens_per_pass"] * len(by_name["train"].pass_s)
            self.extra["lda_tokens_sampled"] = self.extra["lda_tokens_per_pass"] * len(by_name["lda"].pass_s)
            scored = sum(len(d.text_ids) for d in s.iheld) * len(by_name["kn_eval"].pass_s)
            self.extra["prob_lookups_per_token"] = self.tracer.counts.get("ngram.prob_lookups", 0) / scored
            L, L2 = (sum(x) for x in zip(*self.vary_lengths))
            steps = self.tracer.calls_under("model.SamModel.step", "generation.style_variation")
            self.extra["steps_per_token"] = steps / (L + L2)
            self.extra["vary_L"], self.extra["vary_L_varied"] = L, L2
            self.extra["steps_per_token_if_3L"] = (3 * L + L2) / (L + L2)

    # ------------------------------------------------------------ stages

    def setup_stage(self, train_path, held_path) -> Stage:
        w = self.w
        ckpt = self.workdir / "initial.ckpt"

        def one_round():
            train_docs = corpus.ingest(train_path)
            held_docs = corpus.ingest(held_path)
            vocab = corpus.build_vocab(train_docs, cap=w.vocab_cap)
            attrs = corpus.build_attributes(train_docs)
            itrain = corpus.index_corpus(train_docs, vocab, attrs)
            iheld = corpus.index_corpus(held_docs, vocab, attrs)
            config = ModelConfig(
                variant=VARIANT, d=HIDDEN, d_tilde=HIDDEN, vocab_size=len(vocab),
                n_authors=len(attrs.authors), n_categories=len(attrs.categories), seed=self.seed,
            )
            built = model.build(config)
            model.save_model(built, ckpt)
            loaded = model.load_model(ckpt)
            return Setup(train_docs, held_docs, vocab, attrs, itrain, iheld, built, loaded)

        return Stage("setup", [one_round], warm=one_round)

    def check_setup(self, s: Setup) -> None:
        names = s.model.store.names()
        same = names == s.initial.store.names() and all(
            s.model.store[n].value.tobytes() == s.initial.store[n].value.tobytes() for n in names
        )
        ckpt, copy = self.workdir / "initial.ckpt", self.workdir / "reloaded.ckpt"
        model.save_model(s.initial, copy)
        self.checks.expect(
            "checkpoint_roundtrip",
            same and s.model.config == s.initial.config and ckpt.read_bytes() == copy.read_bytes(),
            "loaded tensors, config and rewritten file are bit-identical to the saved model",
        )
        self.checks.expect("vocab_size", len(s.vocab) == self.w.vocab_cap, f"{len(s.vocab)} entries")
        probe = s.iheld[0]
        short = corpus.IndexedDocument(
            id="gradcheck", text_ids=probe.text_ids[:5] + (corpus.EOS_ID,),
            title_ids=probe.title_ids, author_id=probe.author_id, category_id=probe.category_id,
        )
        worst, where = chk.gradient_check(s.initial, short, np.random.default_rng(self.seed), GRADCHECK_PER_TENSOR)
        self.checks.expect("gradient", worst <= GRAD_TOLERANCE, f"worst relative error {worst:.2e} at {where}")

    def lda_stage(self, s: Setup):
        w = self.w
        docs, raw = s.itrain[: w.lda_docs], s.train_docs[: w.lda_docs]
        cfg = lda.LdaConfig(n_topics=N_TOPICS, alpha=LDA_ALPHA, iterations=LDA_ITERATIONS, seed=self.seed)
        warm_cfg = lda.LdaConfig(n_topics=N_TOPICS, alpha=LDA_ALPHA, iterations=1, seed=self.seed)
        self.extra["lda_tokens_per_pass"] = LDA_ITERATIONS * sum(len(d.text_ids) - 1 for d in docs)

        def label():
            topic_model = lda.fit(docs, cfg, vocab_size=len(s.vocab))
            return topic_model, lda.label_corpus(topic_model, raw)

        def check(stage):
            cfg = lda.LdaConfig(n_topics=N_TOPICS, alpha=LDA_ALPHA, iterations=w.purity_iterations, seed=self.seed)
            fitted = lda.fit(s.itrain[: w.purity_docs], cfg, vocab_size=len(s.vocab))
            timed = stage.first[0]
            audited = timed is not None
            for topic_model in [fitted] + ([timed[0]] if timed is not None else []):
                try:
                    topic_model.audit_counts()
                except AssertionError:
                    audited = False
            self.checks.expect("lda_counts", audited, "count tables agree with the assignments")
            labels = lda.label_corpus(fitted, s.train_docs[: w.purity_docs])
            purity = chk.planted_purity([d.category for d in labels], [d.category for d in s.train_docs[: w.purity_docs]])
            self.checks.expect("lda_purity", purity >= LDA_PURITY_FLOOR,
                               f"planted-topic purity {purity:.3f} after {w.purity_iterations} sweeps")

        return Stage("lda", [label], warm=lambda: lda.fit(docs[:20], warm_cfg, len(s.vocab))), check

    def kn_fit_stage(self, s: Setup):
        docs = s.itrain[: self.w.kn_fit_docs]
        V = len(s.vocab)

        def check(stage):
            kn = stage.first[0]
            contexts = [(corpus.PAD_ID,) * (KN_ORDER - 1), (corpus.UNK_ID, corpus.EOS_ID, 3, 4)]
            contexts += [d.text_ids[: KN_ORDER - 1] for d in (docs[0], *s.iheld[:3])]
            err = chk.kn_normalization_error(kn, contexts, V) if kn is not None else math.inf
            self.checks.expect("kn_normalization", err <= KN_SUM_TOLERANCE,
                               f"largest |sum - 1| {err:.1e} over {len(contexts)} contexts")

        stage = Stage(
            "kn_fit", [lambda: ngram.KneserNeyModel.fit(docs, order=KN_ORDER, vocab_size=V)],
            warm=lambda: ngram.KneserNeyModel.fit(docs[:50], order=KN_ORDER, vocab_size=V),
        )
        return stage, check

    def kn_eval_stage(self, s: Setup, kn_fit: Stage):
        tokens = sum(len(d.text_ids) for d in s.iheld)

        size = -(-len(s.iheld) // KN_EVAL_CHUNKS)
        chunks = [s.iheld[i : i + size] for i in range(0, len(s.iheld), size)]

        def check(stage):
            reports = [r for r in stage.first if r is not None]
            scored = sum(r.token_count for r in reports)
            nll = sum(r.total_nll for r in reports)
            ok = len(reports) == len(chunks) and scored == tokens and 0.0 < nll < math.inf
            self.checks.expect("kn_perplexity", ok, f"perplexity {math.exp(nll / max(scored, 1)):.2f} over {scored} tokens")

        ops = [lambda chunk=chunk: kn_fit.first[0].perplexity(chunk) for chunk in chunks]
        return Stage("kn_eval", ops, warm=lambda: kn_fit.first[0].perplexity(s.iheld[:20])), check

    def train_stage(self, s: Setup):
        sam = s.model
        docs = s.itrain[: TRAIN_BATCHES * BATCH_SIZE]
        # `trainer.train` validates after its one epoch; a one-word title and a
        # one-token text keep that to two cell steps of the pass's hundreds
        head = docs[0]
        valid = [corpus.IndexedDocument(id="valid", text_ids=(corpus.EOS_ID,), title_ids=head.title_ids[:1],
                                        author_id=head.author_id, category_id=head.category_id)]
        cfg = trainer.TrainConfig(lr=LEARNING_RATE, batch_size=BATCH_SIZE, max_epochs=1, clip_norm=CLIP_NORM,
                                  seed=self.seed)
        self.extra["train_tokens_per_pass"] = sum(len(d.text_ids) for d in docs)
        initial = sam.store.copy_values()
        digests: set[str] = set()

        def reset():
            sam.store.load_values(initial)

        def digest():
            h = hashlib.sha256()
            for p in sam.store.params():
                h.update(p.value.tobytes())
            digests.add(h.hexdigest())

        def warm():
            reset()
            trainer.train(sam, docs[:1], valid, cfg)

        def check(stage):
            result = stage.first[0]
            finite = result is not None and len(result.history) == 1 and all(
                math.isfinite(x) for x in (result.history[0].train_ppl, result.history[0].valid_ppl)
            )
            self.checks.expect("train_finite", finite, "one epoch with finite train and validation perplexity")
            moved = any(not np.array_equal(sam.store[n].value, initial[n]) for n in ("E", "Wout", "M1"))
            self.checks.expect("train_moves", moved, "training changes the parameters")

        stage = Stage("train", [lambda: trainer.train(sam, docs, valid, cfg)], warm=warm, before_pass=reset,
                      after_pass=digest)
        self.final_checks.append(
            lambda: self.checks.expect(
                "train_deterministic", len(digests) == 1,
                f"{len(stage.pass_s)} passes from the same start end in {len(digests)} distinct parameter sets",
            )
        )
        return stage, check

    def eval_stage(self, s: Setup):
        docs = s.iheld[:EVAL_DOCS]
        trained = s.model

        def check(stage):
            short = min(docs, key=lambda d: len(d.text_ids))
            got = evaluate.perplexity(trained, [short]).total_nll
            values = {name: trained.store[name].value for name in trained.store.names()}
            want = chk.reference_nll(values, short)
            rel = abs(got - want) / abs(want)
            self.checks.expect("perplexity_reference", rel <= NLL_TOLERANCE,
                               f"total NLL {got:.12g} vs independent forward {want:.12g} (rel {rel:.1e})")
            counted = [r.token_count if r is not None else -1 for r in stage.first]
            self.checks.expect("perplexity_tokens", counted == [len(d.text_ids) for d in docs],
                               f"{sum(counted)} targets over {len(docs)} documents")

        ops = [lambda doc=doc: evaluate.perplexity(trained, [doc]) for doc in docs]
        return Stage("eval", ops, warm=ops[0]), check

    def delta_stage(self, s: Setup):
        docs = s.iheld[:DELTA_DOCS]
        trained, categories = s.model, s.attrs.categories

        def check(stage):
            if any(r is None for r in stage.first):
                self.checks.expect("word_delta_sum", False, "failed")
                return
            words = [
                wd for report in stage.first for g in report.categories.values()
                for b in (g.improved, g.alike, g.worse) for wd in b
            ]
            summed = math.fsum(wd.mean_delta * wd.count for wd in words)
            expected = evaluate.perplexity(trained, docs).total_nll - evaluate.perplexity(s.initial, docs).total_nll
            tokens = sum(len(d.text_ids) for d in docs)
            ok = sum(wd.count for wd in words) == tokens and abs(summed - expected) <= 1e-9 * max(1.0, abs(expected))
            self.checks.expect("word_delta_sum", ok,
                               f"word deltas sum to {summed:.9g}; corpus NLL difference {expected:.9g}")

        ops = [lambda doc=doc: evaluate.word_delta(s.initial, trained, [doc], s.vocab, categories, min_count=1)
               for doc in docs]
        return Stage("delta", ops, warm=ops[0]), check

    def gen_stage(self, s: Setup):
        w = self.w
        trained = s.model

        def request(i, doc):
            req = generation.GenRequest(title=doc.title, author=doc.author, category=doc.category,
                                        max_len=w.gen_max_len, strategy="sample", seed=i)
            return lambda: generation.generate(trained, s.vocab, s.attrs, req)

        def check(stage):
            problems = []
            for result in stage.first:
                if result is None:
                    problems.append("failed request")
                else:
                    problems += chk.generation_problems(result.tokens, result.probabilities, s.vocab, w.gen_max_len)
            self.checks.expect("generation", not problems,
                               "; ".join(sorted(set(problems))) or f"{len(stage.first)} requests")

        ops = [request(i, doc) for i, doc in enumerate(s.held_docs[:GEN_REQUESTS])]
        return Stage("gen", ops, warm=ops[0]), check

    def vary_stage(self, s: Setup):
        w = self.w
        trained = s.model
        sources = s.held_docs[:VARY_REQUESTS]

        def fake_author(doc):
            return f"author{(int(doc.author.removeprefix('author')) + 1) % N_AUTHORS}"

        def request(i, doc):
            def op():
                result = generation.style_variation(trained, s.vocab, s.attrs, doc, fake_author(doc),
                                                    max_len=w.gen_max_len, seed=i)
                if self.traced and self.tracer.on:
                    self.vary_lengths.append((len(result.original.tokens), len(result.varied.tokens)))
                return result

            return op

        def check(stage):
            bad = [r for r in stage.first
                   if r is None or not 0.0 <= r.divergence <= math.log(2) or not 0.0 <= r.token_overlap <= 1.0]
            self.checks.expect("vary_bounds", not bad, f"divergence in [0, ln 2] for {len(stage.first)} requests")
            same = generation.style_variation(trained, s.vocab, s.attrs, sources[0], sources[0].author,
                                              max_len=w.gen_max_len, seed=0)
            self.checks.expect("vary_identity", same.divergence == 0.0 and same.token_overlap == 1.0,
                               f"same author: divergence {same.divergence}, overlap {same.token_overlap}")

        ops = [request(i, doc) for i, doc in enumerate(sources)]
        return Stage("vary", ops, warm=ops[0]), check


def outer_reference_ms() -> float:
    """Median time of a fixed 10 000 x 200 outer-product accumulate: a
    yardstick of the machine that no change to the program can move."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal(10000), rng.standard_normal(200)
    acc = np.zeros((10000, 200))
    times = []
    for _ in range(OUTER_REF_REPS):
        t0 = time.perf_counter()
        acc += np.outer(a, b)
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)
