import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import samlm
from samlm import generation
from samlm.cli import _with_config, build_parser, main
from samlm.corpus import write_jsonl

import synth
from test_tensor import CHECKPOINT_DEFECTS, append_tensor, corrupt_checkpoint, rewrite_header


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    docs = synth.two_author_corpus(120, seed=4, stop_prob=1 / 3)
    docs = [d for d in docs]
    write_jsonl(docs[:90], root / "train.jsonl")
    write_jsonl(docs[90:110], root / "valid.jsonl")
    write_jsonl(docs[110:], root / "test.jsonl")
    return root


@pytest.fixture(scope="module")
def trained_run(corpus_files, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(
        [
            "train",
            "--train", str(corpus_files / "train.jsonl"),
            "--valid", str(corpus_files / "valid.jsonl"),
            "--variant", "SAM-Au-Att",
            "--d", "12",
            "--dtilde", "6",
            "--max-epochs", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestUsage:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["eval", "--nonsense"])
        assert err.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_every_subcommand_documents_flags(self, capsys):
        parser = build_parser()
        for command in (
            "ingest", "lda-label", "train", "eval", "word-delta",
            "ngram", "generate", "vary", "export-attn", "gradcheck",
        ):
            with pytest.raises(SystemExit) as err:
                parser.parse_args([command, "--help"])
            assert err.value.code == 0
            out = capsys.readouterr().out
            assert "--seed" in out and "--out" in out

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        code = main(["ingest", "--data", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path)])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestPipeline:
    def test_ingest_writes_artifacts(self, corpus_files, tmp_path):
        code = main(["ingest", "--data", str(corpus_files / "train.jsonl"), "--out", str(tmp_path)])
        assert code == 0
        vocab_lines = (tmp_path / "vocab.txt").read_text().splitlines()
        assert vocab_lines[:3] == ["<unk>", "<eos>", "<pad>"]
        assert (tmp_path / "authors.txt").read_text().splitlines()[0] == "<unk>"
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["documents"] == 90

    def test_train_writes_run_dir(self, trained_run):
        for name in ("best.ckpt", "last.ckpt", "history.csv", "vocab.txt", "authors.txt", "categories.txt"):
            assert (trained_run / name).exists(), name

    def test_eval_idempotent(self, corpus_files, trained_run, tmp_path):
        args = [
            "eval",
            "--model", str(trained_run / "best.ckpt"),
            "--data", str(corpus_files / "test.jsonl"),
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        first = (tmp_path / "perplexity.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "perplexity.csv").read_bytes() == first
        assert first.decode().startswith("model_id,")

    def test_word_delta(self, corpus_files, trained_run, tmp_path):
        code = main(
            [
                "word-delta",
                "--model-a", str(trained_run / "best.ckpt"),
                "--model-b", str(trained_run / "best.ckpt"),
                "--data", str(corpus_files / "test.jsonl"),
                "--min-word-count", "1",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        body = (tmp_path / "word_delta.csv").read_text().splitlines()[1:]
        assert body and all(",alike," in line for line in body)

    def test_ngram(self, corpus_files, tmp_path):
        code = main(
            [
                "ngram",
                "--train", str(corpus_files / "train.jsonl"),
                "--data", str(corpus_files / "test.jsonl"),
                "--order", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "kn3.counts").exists()
        assert (tmp_path / "ngram_perplexity.csv").read_text().startswith("model_id,")

    def test_generate_writes_json_payload(self, trained_run, tmp_path):
        code = main(
            [
                "generate",
                "--model", str(trained_run / "best.ckpt"),
                "--author", "alice",
                "--max-len", "8",
                "--seed", "3",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "generation.json").read_text())
        assert set(payload) == {"tokens", "probabilities", "warnings", "attention_csv_path"}
        assert len(payload["tokens"]) <= 8
        assert payload["attention_csv_path"] is not None

    def test_generate_deterministic_rerun(self, trained_run, tmp_path):
        args = [
            "generate",
            "--model", str(trained_run / "best.ckpt"),
            "--author", "bob",
            "--max-len", "6",
            "--seed", "9",
            "--out", str(tmp_path),
        ]
        assert main(args) == 0
        first = (tmp_path / "generation.json").read_bytes()
        assert main(args) == 0
        assert first == (tmp_path / "generation.json").read_bytes()

    def test_vary(self, trained_run, tmp_path):
        code = main(
            [
                "vary",
                "--model", str(trained_run / "best.ckpt"),
                "--author", "alice",
                "--fake-author", "bob",
                "--seed", "7",
                "--max-len", "10",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "variation.json").read_text())
        assert payload["divergence"] >= 0.0
        assert set(payload["original"]) == {"tokens", "warnings"}

    def test_export_attn(self, corpus_files, trained_run, tmp_path):
        docs = json.loads((corpus_files / "test.jsonl").read_text().splitlines()[0])
        code = main(
            [
                "export-attn",
                "--model", str(trained_run / "best.ckpt"),
                "--data", str(corpus_files / "test.jsonl"),
                "--doc-id", docs["id"],
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        files = list(tmp_path.glob("attention_*.csv"))
        assert files and files[0].read_text().startswith(",")

    def test_export_attn_rejects_a_repeated_id(self, corpus_files, trained_run, tmp_path, capsys):
        lines = (corpus_files / "test.jsonl").read_text().splitlines()
        data = tmp_path / "data.jsonl"
        data.write_text("\n".join(lines + lines[:1] + lines[:1]) + "\n")
        doc_id = json.loads(lines[0])["id"]
        out = tmp_path / "out"
        args = ["export-attn", "--model", str(trained_run / "best.ckpt"), "--data", str(data), "--doc-id", doc_id]
        assert main(args + ["--out", str(out)]) == 2
        assert f"document id {doc_id!r} appears 3 times in {data}" in capsys.readouterr().err
        assert not list(out.glob("attention_*.csv"))

    @pytest.mark.parametrize("edit", ["truncated", "padded"])
    def test_vocab_that_disagrees_with_checkpoint_exits_two(self, corpus_files, trained_run, tmp_path, capsys, edit):
        run = tmp_path / "run"
        run.mkdir()
        for name in ("best.ckpt", "authors.txt", "categories.txt"):
            shutil.copy(trained_run / name, run / name)
        lines = (trained_run / "vocab.txt").read_text().splitlines()
        edited = lines[:10] if edit == "truncated" else lines + ["extra1", "extra2"]
        (run / "vocab.txt").write_text("\n".join(edited) + "\n")
        out = tmp_path / "out"
        commands = [
            ["eval", "--model", str(run / "best.ckpt"), "--data", str(corpus_files / "test.jsonl")],
            ["generate", "--model", str(run / "best.ckpt"), "--author", "alice", "--max-len", "4"],
        ]
        for args in commands:
            capsys.readouterr()
            assert main(args + ["--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"has {len(edited)} entries" in err and f"vocab_size {len(lines)}" in err
        assert not (out / "perplexity.csv").exists()

    @pytest.mark.parametrize("defect", CHECKPOINT_DEFECTS)
    def test_damaged_checkpoint_exits_two(self, corpus_files, trained_run, tmp_path, capsys, defect):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        expected = corrupt_checkpoint(run / "best.ckpt", defect)
        args = ["eval", "--model", str(run / "best.ckpt"), "--data", str(corpus_files / "test.jsonl")]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(run / "best.ckpt") in err and expected in err

    def test_checkpoint_missing_a_tensor_exits_two(self, corpus_files, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        ckpt = run / "best.ckpt"
        header_line, body = ckpt.read_bytes().split(b"\n", 1)
        header = json.loads(header_line)
        header["tensors"][0]["name"] = "E_old"
        ckpt.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
        args = ["eval", "--model", str(ckpt), "--data", str(corpus_files / "test.jsonl")]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt}: missing tensor E" in err

    def test_checkpoint_header_without_tensors_exits_two(self, corpus_files, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        ckpt = run / "best.ckpt"
        rewrite_header(ckpt, lambda header: {k: v for k, v in header.items() if k != "tensors"})
        args = ["eval", "--model", str(ckpt), "--data", str(corpus_files / "test.jsonl")]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert f"checkpoint {ckpt}: header is not an object with a list of tensors" in capsys.readouterr().err

    def test_checkpoint_with_a_stray_tensor_exits_two(self, corpus_files, trained_run, tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        ckpt = run / "best.ckpt"
        append_tensor(ckpt, "stray", np.ones(3))
        args = ["eval", "--model", str(ckpt), "--data", str(corpus_files / "test.jsonl")]
        assert main(args + ["--out", str(tmp_path / "out")]) == 2
        assert f"checkpoint {ckpt}: unexpected tensor stray" in capsys.readouterr().err
        assert not (tmp_path / "out" / "perplexity.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "generate", "vary", "word-delta", "export-attn"])
    def test_checkpoint_config_of_wrong_type_exits_two(self, corpus_files, trained_run, tmp_path, capsys, command):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        ckpt = run / "best.ckpt"
        rewrite_header(ckpt, lambda header: {**header, "config": {**header["config"], "d": 12.0}})
        doc_id = json.loads((corpus_files / "test.jsonl").read_text().splitlines()[0])["id"]
        args = {
            "eval": ["--model", str(ckpt), "--data", str(corpus_files / "test.jsonl")],
            "generate": ["--model", str(ckpt), "--author", "alice"],
            "vary": ["--model", str(ckpt), "--author", "alice", "--fake-author", "bob"],
            "word-delta": ["--model-a", str(trained_run / "best.ckpt"), "--model-b", str(ckpt),
                           "--data", str(corpus_files / "test.jsonl")],
            "export-attn": ["--model", str(ckpt), "--data", str(corpus_files / "test.jsonl"), "--doc-id", doc_id],
        }[command]
        out = tmp_path / "out"
        assert main([command, "--out", str(out)] + args) == 2
        assert f"checkpoint {ckpt}: d must be an integer of at least 1, got 12.0" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("field, value", [("author", 3), ("category", ["p"])])
    def test_non_string_attribute_exits_two(self, tmp_path, capsys, field, value):
        data = tmp_path / "docs.jsonl"
        data.write_text(json.dumps({"text": "a b", field: "x"}) + "\n" + json.dumps({"text": "c", field: value}) + "\n")
        assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "out")]) == 2
        assert f"{field} must be a string or null at line 2" in capsys.readouterr().err

    def test_bad_validation_record_names_the_file(self, corpus_files, tmp_path, capsys):
        valid = tmp_path / "b.jsonl"
        valid.write_text((corpus_files / "valid.jsonl").read_text() + '{"text": "a b"\n')
        out = tmp_path / "out"
        assert main(["train", "--train", str(corpus_files / "train.jsonl"), "--valid", str(valid),
                     "--d", "4", "--out", str(out)]) == 2
        assert f"{valid}: malformed record at line 21" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_word_delta_rejects_runs_with_different_vocabularies(self, tmp_path, capsys):
        # one run per author: same vocabulary size, disjoint words
        docs = synth.two_author_corpus(60, seed=1)
        runs = {}
        for author in ("alice", "bob"):
            half = [d for d in docs if d.author == author]
            data = tmp_path / f"{author}.jsonl"
            write_jsonl(half, data)
            runs[author] = tmp_path / f"run-{author}"
            assert main(["train", "--train", str(data), "--valid", str(data), "--d", "4",
                         "--max-epochs", "1", "--out", str(runs[author])]) == 0
        sizes = [len((run / "vocab.txt").read_text().splitlines()) for run in runs.values()]
        assert sizes[0] == sizes[1]
        capsys.readouterr()
        model_a, model_b = (str(runs[a] / "best.ckpt") for a in ("alice", "bob"))
        code = main(["word-delta", "--model-a", model_a, "--model-b", model_b,
                     "--data", str(tmp_path / "bob.jsonl"), "--out", str(tmp_path / "delta")])
        assert code == 2
        err = capsys.readouterr().err
        assert model_a in err and model_b in err and "vocabulary" in err
        assert not (tmp_path / "delta" / "word_delta.csv").exists()

    def test_word_delta_rejects_author_inventory_mismatch(self, corpus_files, trained_run, tmp_path, capsys):
        # same vocabulary, author names swapped: SAM-Au-Att would read the wrong rows
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        lines = (run / "authors.txt").read_text().splitlines()
        (run / "authors.txt").write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        assert lines[1:] != lines[:0:-1]
        code = main(["word-delta", "--model-a", str(run / "best.ckpt"),
                     "--model-b", str(trained_run / "best.ckpt"),
                     "--data", str(corpus_files / "test.jsonl"), "--out", str(tmp_path / "delta")])
        assert code == 2
        assert "author inventory" in capsys.readouterr().err

    def test_lda_label(self, tmp_path):
        docs, _ = synth.planted_topic_corpus(2, docs_per_topic=8, doc_len=20, seed=5)
        src = tmp_path / "unlabeled.jsonl"
        write_jsonl(docs, src)
        out = tmp_path / "lda"
        code = main(
            [
                "lda-label",
                "--data", str(src),
                "--topics", "2",
                "--iterations", "30",
                "--out", str(out),
            ]
        )
        assert code == 0
        labeled = [json.loads(line) for line in (out / "labeled.jsonl").read_text().splitlines()]
        assert all(rec["category"].startswith("topic-") for rec in labeled)
        assert (out / "topic_words.txt").read_text().startswith("topic-0:")

    def test_gradcheck_command(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gradcheck", "--out", "never"]) == 0
        out = capsys.readouterr().out
        assert "SAM-Title-State-Au-Att" in out and "PASS" in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, message", [
        (["--tol", "inf"], "tol must be finite and at least 0, got inf"),
        (["--tol", "nan"], "tol must be finite and at least 0, got nan"),
        (["--tol", "-1"], "tol must be finite and at least 0, got -1.0"),
        (["--eps", "0.1"], "eps must be in [1e-7, 1e-4], got 0.1"),
    ])
    def test_gradcheck_setting_out_of_range_exits_two(self, capsys, flags, message):
        assert main(["gradcheck"] + flags) == 2
        assert f"samlm gradcheck: error: {message}" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, corpus_files, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 4, "out": str(tmp_path / "from-config")}))
        code = main(
            [
                "ngram",
                "--config", str(config),
                "--train", str(corpus_files / "train.jsonl"),
                "--data", str(corpus_files / "test.jsonl"),
                "--order", "2",
                "--out", str(tmp_path / "flags-win"),
            ]
        )
        assert code == 0
        assert (tmp_path / "flags-win" / "kn2.counts").exists()

    def test_config_file_without_flags(self, corpus_files, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"order": 3, "out": str(tmp_path / "from-config")}))
        code = main(
            [
                "ngram",
                "--config", str(config),
                "--train", str(corpus_files / "train.jsonl"),
                "--data", str(corpus_files / "test.jsonl"),
            ]
        )
        assert code == 0
        assert (tmp_path / "from-config" / "kn3.counts").exists()

    def test_console_entry_point(self):
        # the child imports the same samlm as this process, installed or not
        src = str(Path(samlm.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "samlm.cli", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        assert "samlm" in proc.stdout


def _smallest_word_count(out):
    return min(int(line.split(",")[-1]) for line in (out / "word_delta.csv").read_text().splitlines()[1:])


# Per command: every setting the CLI forwards to a library call, given in the
# config file only; the keywords each callee that holds their defaults must
# receive, and an output the settings shape.
FORWARDED = {
    "ingest": (
        {"cap": 12, "min_count": 2},
        {"corpus.build_vocab": {"cap": 12, "min_count": 2}},
        lambda out: len((out / "vocab.txt").read_text().splitlines()) == 12,
    ),
    "lda-label": (
        # min_count is not an lda-label setting; forwarded, it would leave no word
        {"cap": 12, "min_count": 1000, "topics": 3, "alpha": 2.0, "beta": 0.05, "iterations": 4, "seed": 6},
        {"corpus.build_vocab": {"cap": 12},
         "lda.LdaConfig": {"n_topics": 3, "alpha": 2.0, "beta": 0.05, "iterations": 4, "seed": 6}},
        lambda out: len((out / "topic_words.txt").read_text().splitlines()) == 3,
    ),
    "train": (
        {"cap": 12, "min_count": 2, "lr": 0.005, "batch_size": 7, "max_epochs": 2, "patience": 1,
         "clip_norm": 2.5, "seed": 3, "d": 4},
        {"corpus.build_vocab": {"cap": 12, "min_count": 2},
         "cli.ModelConfig": {"seed": 3},
         "trainer.TrainConfig": {"lr": 0.005, "batch_size": 7, "max_epochs": 2, "patience": 1, "clip_norm": 2.5,
                                 "seed": 3}},
        lambda out: (out / "history.csv").read_text().endswith("# clip_norm=2.5 lr=0.005 batch_size=7 seed=3\n"),
    ),
    "word-delta": (
        {"threshold": 10.0, "min_word_count": 1},
        {"evaluate.word_delta": {"threshold": 10.0, "min_count": 1}},
        lambda out: _smallest_word_count(out) < 5,
    ),
    "ngram": (
        {"cap": 12, "min_count": 2, "order": 2},
        {"corpus.build_vocab": {"cap": 12, "min_count": 2}},
        lambda out: json.loads((out / "kn2.counts").read_text().splitlines()[0])["vocab_size"] == 12,
    ),
    "generate": (
        {"max_len": 1, "temperature": 0.5, "strategy": "greedy", "seed": 5},
        {"generation.GenRequest": {"max_len": 1, "temperature": 0.5, "strategy": "greedy", "seed": 5}},
        lambda out: len(json.loads((out / "generation.json").read_text())["tokens"]) == 1,
    ),
    "vary": (
        {"max_len": 1, "temperature": 0.5, "strategy": "sample", "seed": 5},
        {"generation.GenRequest": {"max_len": 1, "temperature": 0.5, "strategy": "sample", "seed": 5}},
        lambda out: len(json.loads((out / "variation.json").read_text())["varied"]["tokens"]) == 1,
    ),
    "gradcheck": (
        {"eps": 2e-5, "tol": 1e-3, "seed": 2},
        {"cli.ModelConfig": {"seed": 2}, "tensor.grad_check": {"eps": 2e-5, "tol": 1e-3}},
        lambda out: True,
    ),
}


def _command_args(command, corpus_files, trained_run):
    train, test = str(corpus_files / "train.jsonl"), str(corpus_files / "test.jsonl")
    model = str(trained_run / "best.ckpt")
    return {
        "ingest": ["--data", train],
        "lda-label": ["--data", train],
        "train": ["--train", train, "--valid", str(corpus_files / "valid.jsonl")],
        "word-delta": ["--model-a", model, "--model-b", model, "--data", test],
        "ngram": ["--train", train, "--data", test],
        "generate": ["--model", model, "--author", "alice"],
        "vary": ["--model", model, "--author", "alice", "--fake-author", "bob"],
        "gradcheck": [],
    }[command]


class TestSettings:
    @pytest.mark.parametrize("command", sorted(FORWARDED))
    def test_config_keys_reach_their_callee(self, corpus_files, trained_run, tmp_path, monkeypatch, command):
        settings, callees, shaped = FORWARDED[command]
        calls = {}
        for callee in callees:
            module_name, attr = callee.split(".")
            module = importlib.import_module(f"samlm.{module_name}")

            def spy(*args, _real=getattr(module, attr), _calls=calls.setdefault(callee, []), **kwargs):
                _calls.append(kwargs)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, attr, spy)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "out"
        args = [command, "--config", str(config), "--out", str(out)]
        assert main(args + _command_args(command, corpus_files, trained_run)) == 0
        for callee, expected in callees.items():
            assert calls[callee], callee
            assert all(call.items() >= expected.items() for call in calls[callee]), (callee, calls[callee])
        assert shaped(out)

    def test_unknown_config_key_exits_two(self, corpus_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ordr": 2}))
        out = tmp_path / "out"
        train, test = str(corpus_files / "train.jsonl"), str(corpus_files / "test.jsonl")
        assert main(["ngram", "--config", str(config), "--out", str(out), "--train", train, "--data", test]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and "'ordr'" in err
        assert not out.exists()

    def test_help_config_key_exits_two(self, corpus_files, tmp_path, capsys):
        # `help` is the dest of argparse's -h action, not a setting
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"help": 3}))
        train, test = str(corpus_files / "train.jsonl"), str(corpus_files / "test.jsonl")
        assert main(["ngram", "--config", str(config), "--out", str(tmp_path / "out"), "--train", train,
                     "--data", test]) == 2
        assert f"{config}: unknown config key 'help'" in capsys.readouterr().err

    def test_config_config_key_exits_two(self, corpus_files, tmp_path, capsys):
        # `config` names this file; a config file is not followed to another
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"config": "nowhere.json"}))
        train, test = str(corpus_files / "train.jsonl"), str(corpus_files / "test.jsonl")
        assert main(["ngram", "--config", str(config), "--out", str(tmp_path / "out"), "--train", train,
                     "--data", test]) == 2
        assert f"{config}: unknown config key 'config'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_lda_setting_of_wrong_type_exits_two(self, corpus_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"iterations": 2.5}))
        out = tmp_path / "out"
        assert main(["lda-label", "--config", str(config), "--out", str(out),
                     "--data", str(corpus_files / "train.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "iterations" in err and "2.5" in err
        assert not (out / "labeled.jsonl").exists()

    @pytest.mark.parametrize("command, config, flags, shaped", [
        ("lda-label", {"topics": 3, "iterations": 2}, ["--topics", "2"],
         lambda out: len((out / "topic_words.txt").read_text().splitlines()) == 2),
        ("word-delta", {"min_word_count": 10**6}, ["--min-word-count", "1"],
         lambda out: _smallest_word_count(out) < 5),
    ])
    def test_flag_beats_config_for_renamed_key(self, corpus_files, trained_run, tmp_path, command, config, flags,
                                               shaped):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        args = [command, "--config", str(path), "--out", str(out)] + flags
        assert main(args + _command_args(command, corpus_files, trained_run)) == 0
        assert shaped(out)

    @pytest.mark.parametrize("command, config, key", [
        ("train", {"batch_size": 2.5}, "batch_size"),
        ("train", {"d": 8.5}, "d"),
        ("train", {"patience": True}, "patience"),
        ("generate", {"max_len": 2.5, "strategy": "greedy"}, "max_len"),
        ("train", {"variant": "NOPE"}, "variant"),
        ("train", {"cap": [12]}, "cap"),
        # a str or Path setting takes any scalar's text, but no bool, list or object
        ("generate", {"author": True}, "author"),
        ("generate", {"title": ["zzz", "qqq"]}, "title"),
        ("train", {"out": {"dir": "o"}}, "out"),
    ])
    def test_config_value_its_flag_would_refuse_exits_two(self, corpus_files, trained_run, tmp_path, capsys,
                                                         command, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]
                    + _command_args(command, corpus_files, trained_run)) == 2
        err = capsys.readouterr().err
        assert f"{path}: invalid {key} {config[key]!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", "\"train\"", "3", "{\"order\": 2"])
    def test_config_that_is_not_a_json_object_exits_two(self, corpus_files, trained_run, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        out = tmp_path / "out"
        args = ["ngram", "--config", str(path), "--out", str(out)]
        assert main(args + _command_args("ngram", corpus_files, trained_run)) == 2
        assert f"{path}: a config file holds one JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_run_as_their_flags_do(self, corpus_files, trained_run, tmp_path):
        # strings and integers convert as flag text does, and null means unset
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"variant": "SAM-Au-Att", "d": "4", "lr": "0.005", "clip_norm": 2,
                                      "max_epochs": 1, "patience": None, "batch_size": None}))
        flags = ["--variant", "SAM-Au-Att", "--d", "4", "--lr", "0.005", "--clip-norm", "2", "--max-epochs", "1"]
        base = ["train"] + _command_args("train", corpus_files, trained_run)
        assert main(base + ["--config", str(config), "--out", str(tmp_path / "config")]) == 0
        assert main(base + flags + ["--out", str(tmp_path / "flags")]) == 0
        for name in ("best.ckpt", "last.ckpt", "vocab.txt"):
            assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes(), name
        histories = [(tmp_path / side / "history.csv").read_text().splitlines() for side in ("config", "flags")]
        # every column but the seconds, and the footer: clip_norm=2.0, as the flag reads it
        assert [line.rsplit(",", 1)[0] for line in histories[0]] == [line.rsplit(",", 1)[0] for line in histories[1]]
        assert histories[0][-1] == "# clip_norm=2.0 lr=0.005 batch_size=20 seed=0"

    # title, author and category from the config file; a flag still wins (vary's --author alice)
    @pytest.mark.parametrize("command, config, callee, conditioning", [
        ("generate", {"title": "zzz qqq", "author": "alice", "category": "c"}, "GenRequest",
         lambda args, kwargs: (kwargs["title"], kwargs["author"], kwargs["category"])),
        ("vary", {"title": "zzz qqq", "author": "carol", "category": "c"}, "style_variation",
         lambda args, kwargs: (args[3].title, args[3].author, args[3].category)),
    ])
    def test_config_conditioning_reaches_the_decoder(self, trained_run, tmp_path, monkeypatch, command, config,
                                                     callee, conditioning):
        calls = []

        def spy(*args, _real=getattr(generation, callee), **kwargs):
            calls.append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(generation, callee, spy)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--model", str(trained_run / "best.ckpt")]
        assert main(args + (["--author", "alice", "--fake-author", "bob"] if command == "vary" else [])) == 0
        assert len(calls) == 1 and conditioning(*calls[0]) == (("zzz", "qqq"), "alice", "c")

    def test_config_corpus_id_names_the_eval_corpus(self, corpus_files, trained_run, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"corpus_id": "held-out"}))
        out = tmp_path / "out"
        assert main(["eval", "--config", str(path), "--out", str(out), "--model", str(trained_run / "best.ckpt"),
                     "--data", str(corpus_files / "test.jsonl")]) == 0
        assert (out / "perplexity.csv").read_text().splitlines()[1].startswith("SAM-Au-Att,held-out,")

    @pytest.mark.parametrize("config, flags, name", [
        (None, ["--clip-norm", "-1"], "clip_norm"),
        (None, ["--clip-norm", "0"], "clip_norm"),
        (None, ["--lr", "nan"], "lr"),
        ("{\"lr\": NaN}", [], "lr"),
    ])
    def test_step_size_out_of_range_exits_two_before_a_checkpoint(self, corpus_files, trained_run, tmp_path, capsys,
                                                                  config, flags, name):
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            flags = flags + ["--config", str(tmp_path / "config.json")]
        out = tmp_path / "out"
        args = ["train", "--out", str(out), "--d", "4", "--max-epochs", "1"] + flags
        assert main(args + _command_args("train", corpus_files, trained_run)) == 2
        assert f"{name} must be finite and positive" in capsys.readouterr().err
        assert not list(out.iterdir())  # no checkpoint, history or vocabulary

    def test_nan_temperature_exits_two(self, corpus_files, trained_run, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["generate", "--out", str(out), "--temperature", "nan"]
        assert main(args + _command_args("generate", corpus_files, trained_run)) == 2
        assert "temperature must be finite and positive" in capsys.readouterr().err
        assert not (out / "generation.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--threshold", "nan"], "threshold must be finite and at least 0, got nan"),
        (["--threshold", "-1"], "threshold must be finite and at least 0, got -1.0"),
        (["--min-word-count", "-1"], "min_count must be an integer of at least 0, got -1"),
    ])
    def test_word_delta_setting_out_of_range_exits_two(self, corpus_files, trained_run, tmp_path, capsys, flags,
                                                        message):
        out = tmp_path / "out"
        args = ["word-delta", "--out", str(out)] + flags
        assert main(args + _command_args("word-delta", corpus_files, trained_run)) == 2
        assert message in capsys.readouterr().err
        assert not (out / "word_delta.csv").exists()


def _subcommands(parser):
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


# every (subcommand, config key) pair, and the JSON scalars a config file can give it; `help` and
# `config` are refused as keys
COMMAND_KEYS = [(name, action.dest) for name, sub in sorted(_subcommands(build_parser()).items())
                for action in sub._actions if action.dest not in ("help", "config")]
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
                         st.sampled_from(["2", "0.5", "-1", "1e3", "nan", "greedy", "RNN", " 7 ", ""]))


class TestConfigParse:
    @settings(max_examples=300, deadline=None)
    @given(setting=st.sampled_from(COMMAND_KEYS), value=JSON_SCALARS)
    def test_any_scalar_takes_its_flags_type_or_is_named(self, tmp_path_factory, setting, value):
        # parsing alone, no command run; any other exception than ValueError fails the test
        command, key = setting
        path = tmp_path_factory.getbasetemp() / "property-config.json"
        path.write_text(json.dumps({key: value}))
        parser = build_parser()
        sub = _subcommands(parser)[command]
        argv = [command, "--config", str(path)]
        for action in sub._actions:
            if action.required:
                argv += [action.option_strings[0], "x"]
        plain = parser.parse_args(argv)
        try:
            args = _with_config(parser, plain, argv)
        except ValueError as exc:
            assert value is not None and f"{path}: invalid {key} {value!r}" == str(exc)
            return
        (action,) = [a for a in sub._actions if a.dest == key]
        assert not isinstance(value, bool)  # no flag's text reads as true or false
        if value is None:
            assert getattr(args, key) == getattr(plain, key)
        else:
            assert isinstance(getattr(args, key), action.type or str)
            assert action.choices is None or getattr(args, key) in action.choices
