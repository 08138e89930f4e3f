import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge.errors import DataError
from satd_forge.textpipe import (
    EOS,
    SOS,
    UNKN_PAD,
    build_vocabulary,
    frame_comment,
    normalize_comment,
    pad_batch,
    stem_word,
)


class TestNormalizeComment:
    def test_stemming_and_filtering(self):
        assert normalize_comment("// TODO: fix issue #123") == ["todo", "fix", "issu"]

    def test_block_comment(self):
        assert normalize_comment("/* ugly hack */") == ["ugli", "hack"]

    def test_all_tokens_filtered(self):
        assert normalize_comment("// 12345 €") == []

    def test_non_ascii_words_dropped(self):
        assert normalize_comment("// café umärken plain") == ["plain"]

    def test_abbreviations_split_like_published_sample(self):
        # "e.g." separates into single letters, matching the corpus style
        assert normalize_comment("// todo e.g. check metadata") == [
            "todo",
            "e",
            "g",
            "check",
            "metadata",
        ]

    @given(st.text(max_size=120))
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        once = normalize_comment(raw)
        again = normalize_comment(" ".join(once))
        assert once == again

    def test_stems_are_cached(self):
        words = ["hacking", "workarounds", "generalizations", "hacking"]
        stem_word.cache_clear()
        assert [stem_word(w) for w in words] == [stem_word.__wrapped__(w) for w in words]
        assert stem_word.cache_info().hits == 1
        assert normalize_comment("// hacking the workarounds") == ["hack", "the", "workaround"]
        assert stem_word.cache_info().hits == 3

    @given(st.text(max_size=120))
    def test_output_is_lowercase_ascii_alpha(self, raw):
        for word in normalize_comment(raw):
            assert word.isascii() and word.isalpha() and word == word.lower()


class TestFrameComment:
    def test_single_word(self):
        assert frame_comment(["todo"]) == [SOS, "todo", EOS]

    def test_empty(self):
        assert frame_comment([]) == [SOS, EOS]

    @given(st.lists(st.text(min_size=1, max_size=8), max_size=20))
    def test_adds_exactly_two(self, words):
        assert len(frame_comment(words)) == len(words) + 2


class TestVocabulary:
    def test_code_vocab_order_and_size(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]], "code")
        assert vocab.words == [UNKN_PAD, "a", "b", "c"]
        assert vocab.size == 4

    def test_comment_vocab_reserved(self):
        vocab = build_vocabulary([["x"]], "comment")
        assert vocab.words[:3] == [UNKN_PAD, SOS, EOS]
        assert vocab.index_of[SOS] == 1
        assert vocab.index_of[EOS] == 2

    def test_oov_encodes_to_zero(self):
        vocab = build_vocabulary([["a", "b"], ["b", "c"]], "code")
        assert vocab.encode(["zzz"]) == [0]
        assert vocab.encode(["a"]) == [1]

    def test_decode_out_of_range(self):
        vocab = build_vocabulary([["a"]], "code")
        with pytest.raises(DataError):
            vocab.decode([99])

    def test_deterministic(self):
        corpus = [["m", "n"], ["n", "o", "m"]]
        assert build_vocabulary(corpus, "code").words == build_vocabulary(corpus, "code").words

    def test_empty_corpus_warns(self):
        with pytest.warns(UserWarning):
            vocab = build_vocabulary([], "code")
        assert vocab.words == [UNKN_PAD]

    def test_json_round_trip(self, tmp_path):
        # the vocabulary travels in the JSON header of a detector checkpoint
        from satd_forge.detector import check_detector_setting, fit_detector, load_detector, save_detector


        model = fit_detector(check_detector_setting({"model": "mnb"}), [["a", "b"], ["b"]], [1, 0], 0, "comment")
        vocab = model.vocab
        path = tmp_path / "m.ckpt"
        save_detector(model, path)
        loaded = load_detector(path).vocab
        assert loaded.words == vocab.words
        assert loaded.kind == "comment"

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=30))
    def test_round_trip_in_vocab(self, tokens):
        vocab = build_vocabulary([["a", "b", "c", "d"]], "code")
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_oov_decodes_to_reserved(self):
        vocab = build_vocabulary([["a"]], "code")
        assert vocab.decode(vocab.encode(["zzz"])) == [UNKN_PAD]


class TestPadBatch:
    def test_basic(self):
        matrix, mask = pad_batch([[1, 2], [3]], cap=10)
        assert matrix.tolist() == [[1, 2], [3, 0]]
        assert mask.tolist() == [[1.0, 1.0], [1.0, 0.0]]

    def test_single_sequence_no_padding(self):
        matrix, mask = pad_batch([[4, 5, 6]], cap=10)
        assert matrix.tolist() == [[4, 5, 6]]
        assert mask.tolist() == [[1.0, 1.0, 1.0]]

    def test_over_cap_rejected(self):
        with pytest.raises(DataError):
            pad_batch([[1] * 11], cap=10)
