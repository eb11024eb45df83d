import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samlm.corpus import (
    EOS_ID,
    SPECIALS,
    UNK_ID,
    Document,
    Vocabulary,
    build_attributes,
    build_vocab,
    index_document,
    ingest,
    split,
    write_jsonl,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_field_mapping(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps({"id": "d1", "text": "a b c", "title": "t1 t2"})])
        docs = ingest(path)
        assert docs[0] == Document(id="d1", text=("a", "b", "c"), title=("t1", "t2"))

    def test_optional_fields_absent(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps({"text": "a"})])
        doc = ingest(path)[0]
        assert doc.title is None and doc.author is None and doc.category is None

    def test_empty_text_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps({"id": "d1", "text": "a"}), json.dumps({"id": "d2", "text": ""})])
        with pytest.raises(ValueError, match="empty text at line 2"):
            ingest(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps({"text": "a"}), "{not json"])
        with pytest.raises(ValueError, match="line 2"):
            ingest(path)

    def test_byte_that_is_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_bytes(b'{"text": "a"}\n\n{"text": "caf\xe9"}\n{"text": "b"}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3 is not UTF-8$"):
            ingest(path)

    @pytest.mark.parametrize("record, message", [
        ('{"text": "a"', "malformed record"),
        ('["a"]', "missing text field"),
        ('{"text": " "}', "empty text"),
        ('{"text": 3}', "text must be a string"),
        ('{"text": "a", "title": ["t"]}', "title must be a string"),
        ('{"text": "a", "author": 3}', "author must be a string or null"),
    ])
    def test_every_record_error_names_file_and_line(self, tmp_path, record, message):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps({"text": "a"}), record])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message} at line 2"):
            ingest(path)

    def test_crlf_lines_read_as_lf(self, tmp_path):
        lines = [json.dumps({"id": "d1", "text": "a b", "title": "t"}), "", '{"text": "caf\u00e9"}']
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes("\n".join(lines).encode() + b"\n")
        crlf.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        assert ingest(crlf) == ingest(lf)
        assert ingest(lf)[1].text == ("caf\u00e9",)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="no documents"):
            ingest(path)

    @pytest.mark.parametrize(
        "field, value, kind", [("author", 3, "int"), ("category", ["p"], "list"), ("author", {"a": 1}, "dict")]
    )
    def test_non_string_attribute_names_line(self, tmp_path, field, value, kind):
        # a string value on line 1 beside a wrong type on line 2 used to fail
        # later, in build_attributes, with a TypeError
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps({"text": "a", field: "x"}), json.dumps({"text": "b", field: value})])
        with pytest.raises(ValueError, match=f"{field} must be a string or null at line 2, got {kind}"):
            ingest(path)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=6,
        ),
        st.sampled_from(["author", "category"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_json_attribute_values(self, value, field):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "docs.jsonl"
            write_lines(path, [json.dumps({"text": "a", field: "x"}), json.dumps({"text": "b c", field: value})])
            if value is not None and not isinstance(value, str):
                with pytest.raises(ValueError, match="line 2"):
                    ingest(path)
                return
            docs = ingest(path)
        assert getattr(docs[1], field) == value
        attrs = build_attributes(docs)
        vocab = build_vocab(docs, cap=10)
        for doc in docs:
            index_document(doc, vocab, attrs)

    def test_file_order_and_count(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_lines(path, [json.dumps({"id": f"d{i}", "text": "w"}) for i in range(1780)])
        docs = ingest(path)
        assert len(docs) == 1780
        assert [d.id for d in docs[:3]] == ["d0", "d1", "d2"]

    def test_jsonl_roundtrip(self, tmp_path):
        docs = [
            Document(id="a", text=("x", "y"), title=("t",), author="au", category="c"),
            Document(id="b", text=("z",)),
        ]
        path = tmp_path / "out.jsonl"
        write_jsonl(docs, path)
        assert ingest(path) == docs


class TestBuildVocab:
    def test_frequency_ranking_min_count_cap(self):
        docs = [Document(id="d", text=("a",) * 3 + ("b",) * 2 + ("c",))]
        vocab = build_vocab([docs[0]], cap=5, min_count=2)
        assert vocab.tokens == list(SPECIALS) + ["a", "b"]

    def test_lexicographic_tie_break(self):
        doc = Document(id="d", text=("b", "a", "b", "a"))
        vocab = build_vocab([doc], cap=10, min_count=1)
        assert vocab.tokens[3:] == ["a", "b"]

    def test_cap_includes_specials(self):
        doc = Document(id="d", text=tuple(f"w{i}" for i in range(20)))
        vocab = build_vocab([doc], cap=10)
        assert len(vocab) == 10

    def test_nothing_survives(self):
        doc = Document(id="d", text=("a",))
        with pytest.raises(ValueError, match="survive"):
            build_vocab([doc], cap=10, min_count=5)

    def test_cap_precondition(self):
        doc = Document(id="d", text=("a",))
        with pytest.raises(ValueError, match="cap"):
            build_vocab([doc], cap=3)

    def test_literal_specials_collapse(self):
        doc = Document(id="d", text=("<unk>", "a", "<unk>"))
        vocab = build_vocab([doc], cap=10)
        assert vocab.tokens.count("<unk>") == 1

    def test_deterministic_file(self, tmp_path):
        docs = [Document(id="d", text=("b", "a", "c", "a"))]
        v1, v2 = build_vocab(docs, cap=8), build_vocab(docs, cap=8)
        p1, p2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
        v1.save(p1)
        v2.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_format_and_roundtrip(self, tmp_path):
        vocab = build_vocab([Document(id="d", text=("a", "b"))], cap=8)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        lines = path.read_text().splitlines()
        assert lines[:3] == ["<unk>", "<eos>", "<pad>"]
        assert Vocabulary.load(path) == vocab


class TestIndexing:
    def _fixture(self):
        docs = [
            Document(id="d1", text=("a", "b"), title=("t1",), author="CHOE SANG-HUN", category="news"),
            Document(id="d2", text=("a",), author="other"),
        ]
        vocab = build_vocab(docs, cap=10)
        attrs = build_attributes(docs)
        return docs, vocab, attrs

    def test_unknown_token_maps_to_unk(self):
        docs, vocab, attrs = self._fixture()
        indexed = index_document(Document(id="x", text=("a", "zzz")), vocab, attrs)
        assert indexed.text_ids == (vocab.index["a"], UNK_ID, EOS_ID)

    def test_eos_only_terminal_title_untouched(self):
        docs, vocab, attrs = self._fixture()
        indexed = index_document(docs[0], vocab, attrs)
        assert indexed.text_ids.count(EOS_ID) == 1
        assert indexed.text_ids[-1] == EOS_ID
        assert EOS_ID not in indexed.title_ids

    def test_author_lookup(self):
        docs, vocab, attrs = self._fixture()
        indexed = index_document(docs[0], vocab, attrs)
        assert indexed.author_id == attrs.authors.index["CHOE SANG-HUN"]

    def test_unknown_attribute_maps_to_unk_slot(self):
        docs, vocab, attrs = self._fixture()
        indexed = index_document(
            Document(id="x", text=("a",), author="nobody", category="nothing"), vocab, attrs
        )
        assert indexed.author_id == attrs.authors.unk_id
        assert indexed.category_id == attrs.categories.unk_id

    def test_absent_attributes_stay_absent(self):
        docs, vocab, attrs = self._fixture()
        indexed = index_document(Document(id="x", text=("a",)), vocab, attrs)
        assert indexed.author_id is None and indexed.category_id is None

    def test_all_ids_below_vocab_sizes(self):
        docs, vocab, attrs = self._fixture()
        for doc in docs:
            indexed = index_document(doc, vocab, attrs)
            assert all(i < len(vocab) for i in indexed.text_ids)

    @given(
        st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=8),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reindex_roundtrip(self, texts):
        docs = [Document(id=str(i), text=tuple(t)) for i, t in enumerate(texts)]
        vocab = build_vocab(docs, cap=50)
        attrs = build_attributes(docs)
        for doc in docs:
            indexed = index_document(doc, vocab, attrs)
            words = [vocab.token_for(i) for i in indexed.text_ids if i >= 3]
            again = index_document(Document(id=doc.id, text=tuple(words)), vocab, attrs)
            assert again.text_ids == indexed.text_ids


class TestSplit:
    def _docs(self, n):
        return [Document(id=str(i), text=("w",)) for i in range(n)]

    def test_sizes_with_clean_ratios(self):
        parts = split(self._docs(10), (0.8, 0.1, 0.1), seed=1)
        assert tuple(len(p) for p in parts) == (8, 1, 1)

    def test_deterministic(self):
        docs = self._docs(10)
        a = split(docs, (0.8, 0.1, 0.1), seed=1)
        b = split(docs, (0.8, 0.1, 0.1), seed=1)
        assert a == b

    def test_remainder_distribution_three_docs(self):
        # floors give (1, 0, 0); the two leftover slots go to the largest
        # fractional remainders, which enumeration puts at valid and test
        parts = split(self._docs(3), (0.34, 0.33, 0.33), seed=0)
        assert tuple(len(p) for p in parts) == (1, 1, 1)

    def test_remainder_tie_goes_to_train(self):
        parts = split(self._docs(10), (1 / 3, 1 / 3, 1 / 3), seed=0)
        assert tuple(len(p) for p in parts) == (4, 3, 3)

    def test_partition_is_exact(self):
        docs = self._docs(23)
        train, valid, test = split(docs, (0.7, 0.2, 0.1), seed=3)
        recombined = sorted(d.id for d in train + valid + test)
        assert recombined == sorted(d.id for d in docs)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            split(self._docs(10), (0.5, 0.2, 0.2), seed=0)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split(self._docs(2), (0.5, 0.25, 0.25), seed=0)


class TestAttributeInventory:
    def test_unknown_slot_first(self):
        attrs = build_attributes([Document(id="d", text=("a",), author="zoe", category="x")])
        assert attrs.authors.tokens[0] == "<unk>"
        assert attrs.categories.tokens[0] == "<unk>"

    def test_every_attribute_resolves(self):
        docs = [
            Document(id="1", text=("a",), author="bob", category="c1"),
            Document(id="2", text=("a",), author="eve", category="c2"),
        ]
        attrs = build_attributes(docs)
        for doc in docs:
            assert attrs.authors.id_for(doc.author) > 0
            assert attrs.categories.id_for(doc.category) > 0
