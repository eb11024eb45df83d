"""Command-line pipeline: ingest, label, train, evaluate, generate.

Settings come from flags and an optional JSON config file that the flags'
parser reads; flags win. A setting given by neither takes the default that
`--help` shows, or else that of the library call that uses it.
Exit codes: 0 success, 1 usage error, 2 runtime error. All randomness is seeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpus, evaluate, generation, lda, ngram, tensor, trainer
from .atomic import write_text
from .attention import write_trace_csv
from .corpus import AttributeInventory, Vocabulary
from .model import ModelConfig, SamModel, VARIANTS, build, load_model

# the GenRequest settings that generate and vary read
DECODING = ("max_len", "temperature", "strategy", "seed")


class CliParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the pipeline contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--out", type=Path, default="samlm-out", help="output directory (default %(default)s)")


def _add_vocab_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cap", type=int, help="total vocabulary size cap incl. specials")
    parser.add_argument("--min-count", type=int, help="minimum token count")


def _add_decoding_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=Path, required=True, help="checkpoint path")
    parser.add_argument("--title", help="title string, or path to a file holding it")
    parser.add_argument("--category")
    parser.add_argument("--max-len", type=int)
    parser.add_argument("--temperature", type=float)
    parser.add_argument("--strategy", choices=["greedy", "sample"])


def build_parser() -> CliParser:
    parser = CliParser(prog="samlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=CliParser)

    p = sub.add_parser("ingest", help="read a JSONL corpus and build vocabularies")
    _add_common(p)
    p.add_argument("--data", type=Path, required=True, help="JSONL corpus")
    _add_vocab_flags(p)

    p = sub.add_parser("lda-label", help="fit a topic model and write a category-labeled corpus")
    _add_common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--topics", type=int, help="number of topics")
    p.add_argument("--alpha", type=float, help="doc-topic prior")
    p.add_argument("--beta", type=float, help="topic-word prior")
    p.add_argument("--iterations", type=int, help="Gibbs sweeps")
    p.add_argument("--cap", type=int)
    p.add_argument("--top-words", type=int, default=15, help="words per topic in the report (default %(default)s)")

    p = sub.add_parser("train", help="train a model variant")
    _add_common(p)
    p.add_argument("--train", dest="train_path", type=Path, required=True)
    p.add_argument("--valid", dest="valid_path", type=Path, required=True)
    p.add_argument("--variant", choices=sorted(VARIANTS), default="RNN", help="model variant (default %(default)s)")
    p.add_argument("--d", type=int, default=64, help="hidden size (default %(default)s)")
    p.add_argument("--dtilde", type=int, help="attribute embedding size (default equals --d)")
    _add_vocab_flags(p)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--clip-norm", type=float)

    p = sub.add_parser("eval", help="corpus perplexity of a checkpoint")
    _add_common(p)
    p.add_argument("--model", type=Path, required=True, help="checkpoint path")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--corpus-id", default="")

    p = sub.add_parser("word-delta", help="per-word perplexity-change report between two checkpoints")
    _add_common(p)
    p.add_argument("--model-a", type=Path, required=True)
    p.add_argument("--model-b", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--threshold", type=float, help="nats separating improved/worse")
    p.add_argument("--min-word-count", type=int, help="occurrences required per word")

    p = sub.add_parser("ngram", help="fit and evaluate the smoothed n-gram baseline")
    _add_common(p)
    p.add_argument("--train", dest="train_path", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--order", type=int, default=5, help="n-gram order (default %(default)s)")
    _add_vocab_flags(p)

    p = sub.add_parser("generate", help="decode text under attribute conditioning")
    _add_common(p)
    _add_decoding_flags(p)
    p.add_argument("--author")

    p = sub.add_parser("vary", help="regenerate with a substituted author")
    _add_common(p)
    _add_decoding_flags(p)
    p.add_argument("--author", required=True, help="original author")
    p.add_argument("--fake-author", required=True)

    p = sub.add_parser("export-attn", help="export the attention trace of one document")
    _add_common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--doc-id", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of every variant")
    _add_common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--tol", type=float)

    return parser


def _given(args, *keys: str, **renamed: str) -> dict:
    """The settings among `keys` that a flag or the config file supplied, as
    keyword arguments for the library call that holds their defaults.
    `renamed` maps a keyword to the setting it is read from."""
    pairs = [(key, key) for key in keys] + list(renamed.items())
    return {name: getattr(args, key) for name, key in pairs if getattr(args, key, None) is not None}


def _with_config(parser: argparse.ArgumentParser, args, argv) -> argparse.Namespace:
    """`argv` parsed again over the config file's settings, each converted and
    checked as its flag's text is; a flag still wins, and null means unset."""
    try:
        config = json.loads(args.config.read_text(encoding="utf-8"))
        if not isinstance(config, dict):
            raise ValueError(f"found {type(config).__name__}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError included
        raise ValueError(f"{args.config}: a config file holds one JSON object ({exc})") from None
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    keys = {a.dest for p in commands.choices.values() for a in p._actions if not isinstance(a, argparse._HelpAction)}
    unknown = sorted(set(config) - (keys - {"config"}))  # a config file is not followed to another
    if unknown:
        raise ValueError(f"{args.config}: unknown config key {', '.join(map(repr, unknown))}")
    command = commands.choices[args.command]
    for action in [a for a in command._actions if config.get(a.dest) is not None]:
        value = config[action.dest]
        try:  # no flag text reads as a bool, list or object
            converted = (action.type or str)(str(value))
            if isinstance(value, (bool, list, dict)) or converted not in (action.choices or [converted]):
                raise ValueError
        except ValueError:
            raise ValueError(f"{args.config}: invalid {action.dest} {value!r}") from None
        command.set_defaults(**{action.dest: converted})
    return parser.parse_args(argv)


def _load_run(model_path: Path) -> tuple[SamModel, Vocabulary, AttributeInventory]:
    """Checkpoint plus the vocabulary and inventories that live beside it.

    Raises ValueError when an artifact's size disagrees with the checkpoint's
    config, since a shifted vocabulary silently scores the wrong words.
    """
    model = load_model(model_path)
    run_dir = model_path.parent
    vocab = Vocabulary.load(run_dir / "vocab.txt")
    attrs = AttributeInventory(
        authors=Vocabulary.load(run_dir / "authors.txt", n_specials=1),
        categories=Vocabulary.load(run_dir / "categories.txt", n_specials=1),
    )
    for name, loaded, key in (
        ("vocab.txt", vocab, "vocab_size"),
        ("authors.txt", attrs.authors, "n_authors"),
        ("categories.txt", attrs.categories, "n_categories"),
    ):
        expected = getattr(model.config, key)
        if len(loaded) != expected:
            raise ValueError(
                f"{run_dir / name} has {len(loaded)} entries but checkpoint {model_path} "
                f"has {key} {expected}"
            )
    return model, vocab, attrs


def _read_corpus(path: Path, vocab_settings: dict) -> tuple[list[corpus.Document], Vocabulary, AttributeInventory]:
    """The documents at `path`, with the vocabulary and inventories built from them."""
    docs = corpus.ingest(path)
    return docs, corpus.build_vocab(docs, **vocab_settings), corpus.build_attributes(docs)


def _save_corpus_artifacts(out: Path, vocab: Vocabulary, attrs: AttributeInventory) -> None:
    vocab.save(out / "vocab.txt")
    attrs.authors.save(out / "authors.txt")
    attrs.categories.save(out / "categories.txt")


def _title_tokens(raw: str | None) -> tuple[str, ...] | None:
    if raw is None:
        return None
    path = Path(raw)
    if path.is_file():
        raw = path.read_text(encoding="utf-8")
    tokens = tuple(raw.split())
    return tokens or None


def _indexed(path: Path, vocab, attrs):
    return corpus.index_corpus(corpus.ingest(path), vocab, attrs)


def cmd_ingest(args) -> int:
    docs, vocab, attrs = _read_corpus(args.data, _given(args, "cap", "min_count"))
    _save_corpus_artifacts(args.out, vocab, attrs)
    stats = {
        "documents": len(docs),
        "tokens": sum(len(d.text) for d in docs),
        "vocab_size": len(vocab),
        "authors": len(attrs.authors) - 1,
        "categories": len(attrs.categories) - 1,
    }
    write_text(args.out / "stats.json", json.dumps(stats, indent=2, sort_keys=True) + "\n")
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_lda_label(args) -> int:
    docs, vocab, attrs = _read_corpus(args.data, _given(args, "cap"))
    indexed = corpus.index_corpus(docs, vocab, attrs)
    cfg = lda.LdaConfig(**_given(args, "alpha", "beta", "iterations", "seed", n_topics="topics"))
    topic_model = lda.fit(indexed, cfg, vocab_size=len(vocab))
    labeled = lda.label_corpus(topic_model, docs)
    corpus.write_jsonl(labeled, args.out / "labeled.jsonl")
    lines = [
        f"topic-{i}: {' '.join(words)}"
        for i, words in enumerate(lda.top_words(topic_model, args.top_words, vocab))
    ]
    write_text(args.out / "topic_words.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_train(args) -> int:
    train_docs, vocab, attrs = _read_corpus(args.train_path, _given(args, "cap", "min_count"))
    valid_docs = corpus.ingest(args.valid_path)
    model_cfg = ModelConfig(
        variant=args.variant,
        d=args.d,
        d_tilde=args.d if args.dtilde is None else args.dtilde,
        vocab_size=len(vocab),
        n_authors=len(attrs.authors),
        n_categories=len(attrs.categories),
        **_given(args, "seed"),
    )
    sam = build(model_cfg)
    train_cfg = trainer.TrainConfig(
        **_given(args, "lr", "batch_size", "max_epochs", "patience", "clip_norm", "seed")
    )
    train_cfg.validate()  # a rejected setting leaves the run directory empty
    _save_corpus_artifacts(args.out, vocab, attrs)
    result = trainer.train(
        sam,
        corpus.index_corpus(train_docs, vocab, attrs),
        corpus.index_corpus(valid_docs, vocab, attrs),
        train_cfg,
        run_dir=args.out,
        log=print,
    )
    print(f"best epoch {result.best_epoch}  best valid ppl {result.best_valid_ppl:.3f}")
    return 0


def cmd_eval(args) -> int:
    sam, vocab, attrs = _load_run(args.model)
    docs = _indexed(args.data, vocab, attrs)
    report = evaluate.perplexity(
        sam, docs, model_id=sam.config.variant, corpus_id=args.corpus_id or args.data.stem
    )
    write_text(args.out / "perplexity.csv", report.csv())
    print(report.csv().strip())
    return 0


def cmd_word_delta(args) -> int:
    model_a, vocab_a, attrs_a = _load_run(args.model_a)
    model_b, vocab, attrs = _load_run(args.model_b)
    for what, read_by_a, mine, theirs in (
        ("vocabulary", True, vocab_a, vocab),
        ("author inventory", model_a.variant.author, attrs_a.authors, attrs.authors),
        ("category inventory", model_a.variant.category, attrs_a.categories, attrs.categories),
    ):
        if read_by_a and mine != theirs:
            raise ValueError(f"{args.model_a} and {args.model_b} differ in their {what}; both must score the same ids")
    docs = _indexed(args.data, vocab, attrs)
    report = evaluate.word_delta(
        model_a,
        model_b,
        docs,
        vocab,
        categories=attrs.categories,
        **_given(args, "threshold", min_count="min_word_count"),
    )
    evaluate.write_word_delta_csv(report, args.out / "word_delta.csv")
    print(evaluate.format_word_delta(report))
    return 0


def cmd_ngram(args) -> int:
    train_docs, vocab, attrs = _read_corpus(args.train_path, _given(args, "cap", "min_count"))
    kn = ngram.KneserNeyModel.fit(
        corpus.index_corpus(train_docs, vocab, attrs), order=args.order, vocab_size=len(vocab)
    )
    kn.save(args.out / f"kn{args.order}.counts")
    docs = _indexed(args.data, vocab, attrs)
    report = kn.perplexity(docs, corpus_id=args.data.stem)
    write_text(args.out / "ngram_perplexity.csv", report.csv())
    print(report.csv().strip())
    return 0


def cmd_generate(args) -> int:
    sam, vocab, attrs = _load_run(args.model)
    req = generation.GenRequest(
        title=_title_tokens(args.title),
        author=args.author,
        category=args.category,
        **_given(args, *DECODING),
    )
    result = generation.generate(sam, vocab, attrs, req)
    attn_path = None
    if not result.trace.empty:
        attn_path = args.out / "attention.csv"
        write_trace_csv(result.trace, attn_path)
    payload = {
        "tokens": result.tokens,
        "probabilities": result.probabilities,
        "warnings": result.warnings,
        "attention_csv_path": str(attn_path) if attn_path else None,
    }
    write_text(args.out / "generation.json", json.dumps(payload, indent=2) + "\n")
    print(" ".join(result.tokens))
    return 0


def cmd_vary(args) -> int:
    sam, vocab, attrs = _load_run(args.model)
    source = corpus.Document(
        id="vary-source",
        text=("-",),
        title=_title_tokens(args.title),
        author=args.author,
        category=args.category,
    )
    result = generation.style_variation(
        sam, vocab, attrs, source, fake_author=args.fake_author, **_given(args, *DECODING)
    )
    paths = {}
    for label, gen in (("original", result.original), ("varied", result.varied)):
        if not gen.trace.empty:
            path = args.out / f"attention_{label}.csv"
            write_trace_csv(gen.trace, path)
            paths[label] = str(path)
    payload = {
        "original": {"tokens": result.original.tokens, "warnings": result.original.warnings},
        "varied": {"tokens": result.varied.tokens, "warnings": result.varied.warnings},
        "divergence": result.divergence,
        "token_overlap": result.token_overlap,
        "attention_csv_path": paths,
    }
    write_text(args.out / "variation.json", json.dumps(payload, indent=2) + "\n")
    print(json.dumps({"divergence": result.divergence, "token_overlap": result.token_overlap}))
    return 0


def cmd_export_attn(args) -> int:
    sam, vocab, attrs = _load_run(args.model)
    raw_docs = corpus.ingest(args.data)
    matches = [d for d in raw_docs if d.id == args.doc_id]
    if not matches:
        raise ValueError(f"document id {args.doc_id!r} not found in {args.data}")
    if len(matches) > 1:
        raise ValueError(f"document id {args.doc_id!r} appears {len(matches)} times in {args.data}")
    (doc,) = matches
    indexed = corpus.index_document(doc, vocab, attrs)
    fwd = sam.forward_document(indexed, want_caches=False)
    if fwd.trace.empty:
        raise ValueError(f"variant {sam.config.variant} records no attention trace")
    fwd.trace.main_tokens = [vocab.token_for(t) for t in indexed.text_ids]
    fwd.trace.title_tokens = list(doc.title or [])
    path = args.out / f"attention_{args.doc_id}.csv"
    write_trace_csv(fwd.trace, path)
    print(str(path))
    return 0


def cmd_gradcheck(args) -> int:
    dims = dict(d=4, d_tilde=3, vocab_size=7, n_authors=2, n_categories=2, **_given(args, "seed"))
    tolerances = _given(args, "eps", "tol")
    doc = corpus.IndexedDocument(
        id="gradcheck",
        text_ids=(3, 5, 4, corpus.EOS_ID),
        title_ids=(4, 6),
        author_id=1,
        category_id=1,
    )
    all_passed = True
    for name in sorted(VARIANTS):
        sam = build(ModelConfig(variant=name, **dims))
        sam.store.zero_grads()
        fwd = sam.forward_document(doc, want_trace=False)
        sam.backward_document(fwd)
        report = tensor.grad_check(
            lambda store: sam.forward_document(doc, want_trace=False, want_caches=False).total_nll,
            sam.store,
            **tolerances,
        )
        all_passed = all_passed and report.passed
        print(f"## {name}")
        print(report.format_table())
    if not all_passed:
        raise ValueError("gradient check failed")
    return 0


COMMANDS = {
    "ingest": cmd_ingest,
    "lda-label": cmd_lda_label,
    "train": cmd_train,
    "eval": cmd_eval,
    "word-delta": cmd_word_delta,
    "ngram": cmd_ngram,
    "generate": cmd_generate,
    "vary": cmd_vary,
    "export-attn": cmd_export_attn,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    try:
        if args.config is not None:
            args = _with_config(parser, args, argv)
        if args.command != "gradcheck":  # the only command that writes nothing
            args.out.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](args)
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure contract: report and exit 2
        print(f"samlm {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
