"""Embedding providers."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from logevo import embeddings
from logevo.embeddings import (
    HashingProvider,
    _unit_rows,
    PrecomputedProvider,
    load_precomputed,
    load_word_vectors,
)
from logevo.errors import MissingEmbedding, ProviderError
from logevo.textnorm import TokenSeq

from helpers import load_word_vectors_reference, write_precomputed


def seq(*tokens, source_id="r0"):
    return TokenSeq(tuple(tokens), source_id)


def _reads(monkeypatch):
    """The bytes each read of a file that the provider opens returns from here on, in order."""
    reads = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        read = fh.read
        fh.read = lambda n: reads.append(read(n)) or reads[-1]
        return fh

    monkeypatch.setattr(embeddings, "open", recording_open, raising=False)
    return reads


class TestWordAveraging:
    def test_single_token_normalized(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 3 4\n")
        provider = load_word_vectors(path)
        np.testing.assert_allclose(provider.vector(seq("a")), [0.6, 0.8])

    def test_mean_then_normalize(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\na 1 0\nb 0 1\n")
        provider = load_word_vectors(path)
        np.testing.assert_allclose(
            provider.vector(seq("a", "b")), [0.7071, 0.7071], atol=1e-4
        )

    def test_fallback_for_empty_and_oov(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0 0\n")
        provider = load_word_vectors(path)
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_array_equal(provider.vector(seq()), e1)
        np.testing.assert_array_equal(provider.vector(seq("zz", "yy")), e1)

    def test_header_parsing(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
        provider = load_word_vectors(path)
        assert provider.dim == 3
        assert len(provider.lines) == 2

    @pytest.mark.parametrize("dim", [3, 10**20])
    def test_a_header_that_disagrees_with_the_first_word_stops_the_load(self, tmp_path, dim):
        # Unchecked, a header's dimension reached np.zeros even when no record used
        # a word: 10**20 floats ended in a ValueError traceback.
        path = tmp_path / "vec.txt"
        path.write_text(f"1 {dim}\n\ndisk 1 0\n")
        with pytest.raises(ProviderError, match=rf"^{path}:3: expected {dim} floats, got 2$"):
            load_word_vectors(path)

    @pytest.mark.parametrize("first", ["2 --3", "2 \u00b2"])
    def test_a_first_line_that_is_not_two_integers_is_a_word(self, tmp_path, first):
        # int() rejects both, which used to end in a ValueError traceback.
        path = tmp_path / "vec.txt"
        path.write_text(f"{first}\na 1\n")
        provider = load_word_vectors(path)
        assert provider.dim == 1 and list(provider.lines) == ["2", "a"]

    # A word's line is checked when the word is first used, not at load.

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1\n")
        provider = load_word_vectors(path)
        with pytest.raises(ProviderError, match=":3"):
            provider.embed([seq("a"), seq("b")])

    def test_non_numeric_value_names_line_and_value(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 1 1,5\n")
        provider = load_word_vectors(path)
        with pytest.raises(ProviderError, match=r"vec\.txt:2: non-numeric value.*'1,5'"):
            provider.embed([seq("b")])

    def test_repeated_word_is_checked_like_any_other(self, tmp_path):
        # The first line of a repeated word is the one kept, and checked.
        path = tmp_path / "vec.txt"
        path.write_text("b 1 0\na x 1\na 1 0\n")
        provider = load_word_vectors(path)
        with pytest.raises(ProviderError, match=r"vec\.txt:2: non-numeric value"):
            provider.embed([seq("a")])

    def test_unused_or_later_duplicate_bad_line_is_not_reported(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 1 x\na 0 nan\nc 1\n")
        provider = load_word_vectors(path)
        np.testing.assert_array_equal(provider.embed([seq("a"), seq("a", "zz")]), [[1.0, 0.0]] * 2)
        with pytest.raises(ProviderError, match=r"vec\.txt:2: non-numeric value"):
            provider.embed([seq("b")])
        with pytest.raises(ProviderError, match=r"vec\.txt:4: expected 2 floats, got 1"):
            provider.embed([seq("c")])

    def test_of_two_bad_lines_the_one_of_the_word_used_first_is_reported(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 1 x\nc 1\n")
        with pytest.raises(ProviderError, match=r"vec\.txt:3: "):
            load_word_vectors(path).embed([seq("a", "c"), seq("b")])
        with pytest.raises(ProviderError, match=r"vec\.txt:2: "):
            load_word_vectors(path).embed([seq("b"), seq("c")])

    def test_a_word_is_parsed_once(self, tmp_path, monkeypatch):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\n")
        provider = load_word_vectors(path)
        reads = _reads(monkeypatch)
        provider.embed([seq("a", "zz"), seq("a")])
        provider.embed([seq("zz", "a")])
        assert reads == [b"a 1 0\n"]

    def test_a_word_is_read_without_os_pread(self, tmp_path, monkeypatch):
        # Windows has no os.pread: a word's line is read with the handle's seek and read.
        monkeypatch.delattr(os, "pread", raising=False)
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\n")
        np.testing.assert_array_equal(load_word_vectors(path).embed([seq("b")]), [[0.0, 1.0]])

    def test_a_new_word_reads_its_own_line_and_no_more(self, tmp_path, monkeypatch):
        # The rarer line ends of str.splitlines are whitespace within a line.
        data = "2 2\na\x0c1 0\r\nb 0\r1\nc 1\x85 1\n d\u20281 1\r\n".encode()
        path = tmp_path / "vec.txt"
        path.write_bytes(data)
        provider = load_word_vectors(path)
        reads = _reads(monkeypatch)
        rows = provider.embed([seq("d", "b", "zz"), seq("b", "a", "c")])
        own = data.split(b"\n")
        assert reads == [own[k] + b"\n" for k in (4, 2, 1, 3)]  # in the order of first use
        np.testing.assert_allclose(rows, [np.array([1, 2]) / 5**0.5, [0.5**0.5] * 2])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProviderError, match="nope.txt"):
            load_word_vectors(tmp_path / "nope.txt")

    # Rewritten in place: another word at the offset of "b", or the line of "b" cut short.
    @pytest.mark.parametrize("changed", ["a 1 0\nc 5 5\n", "a 1 0\nb 0"], ids=["moved", "cut"])
    def test_a_file_changed_since_it_was_indexed_gives_no_vector(self, tmp_path, changed):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\nb 0 1\n")
        provider = load_word_vectors(path)
        path.write_text(changed)
        for _ in range(2):  # nothing is kept of the failed read
            with pytest.raises(ProviderError, match=rf"^{path}:2: the file changed since it was indexed$"):
                provider.embed([seq("a", "b")])
        path.unlink()
        with pytest.raises(ProviderError, match=rf"^cannot read word vectors from {path}: "):
            provider.embed([seq("b")])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "1e200"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        # Such a word would turn every record that uses it into e0. 1e200 is
        # finite, but the squared norm of its vector is not.
        path = tmp_path / "vec.txt"
        path.write_text(f"a 1 0\nb 1 {value}\n")
        provider = load_word_vectors(path)
        with pytest.raises(ProviderError, match=rf"^{path}:2: the vector of 'b' is not finite$"):
            provider.embed([seq("a", "b")])

    def test_duplicate_token_keeps_first(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 0\na 0 1\n")
        provider = load_word_vectors(path)
        np.testing.assert_allclose(provider.vector(seq("a")), [1.0, 0.0])

    def test_large_file_matches_reparse(self, tmp_path):
        # Independent oracle: re-read the file line by line and compare vectors.
        rng = np.random.default_rng(42)
        dim, n_words = 300, 10_000
        words = [f"w{i}" for i in range(n_words)]
        matrix = rng.normal(size=(n_words, dim))
        path = tmp_path / "big.txt"
        with path.open("w") as fh:
            fh.write(f"{n_words} {dim}\n")
            for word, row in zip(words, matrix):
                fh.write(word + " " + " ".join(f"{x:.6f}" for x in row) + "\n")
        provider = load_word_vectors(path)
        assert provider.dim == dim
        with path.open() as fh:
            next(fh)
            for lineno, line in enumerate(fh):
                parts = line.split()
                expected = np.array([float(v) for v in parts[1:]])
                np.testing.assert_array_equal(provider._rows([seq(parts[0])])[0], expected)
                if lineno > 500:  # spot-check the head, full-file is slow
                    break
        # and a random sample from the tail
        for i in rng.integers(0, n_words, size=200):
            np.testing.assert_allclose(provider._rows([seq(words[i])])[0], matrix[i], atol=5e-7)

    def test_a_line_ends_at_newline_and_a_lone_cr_is_whitespace(self, tmp_path):
        path = tmp_path / "vec.txt"
        batch = [seq("a"), seq("b", "c"), seq("c", "zz")]
        rows = []
        for end in ("\n", "\r\n"):
            path.write_bytes(end.join(["2 2", "a 1 0", "b 0 1", "c -1 3", ""]).encode())
            rows.append(load_word_vectors(path).embed(batch))
        np.testing.assert_array_equal(rows[0], rows[1])
        for inner in ("\x0c", "\x85", "\u2028", "\r"):
            data = f"x 1 0\na 1 0{inner}b 0 1\n".encode()
            path.write_bytes(data)
            provider = load_word_vectors(path)
            assert provider.lines == {"x": 1, "a": 2}
            assert list(provider.offsets) == [0, 6, len(data)]
            with pytest.raises(ProviderError, match=rf"^{path}:2: expected 2 floats, got 5$"):
                provider.embed([seq("a")])
            np.testing.assert_array_equal(provider.embed([seq("b")]), [[1.0, 0.0]])

    def test_a_zero_has_the_sign_np_mean_gives_it(self, tmp_path):
        # A sum of -0.0 values is -0.0 or 0.0 by where it starts; state.json writes the sign.
        path = tmp_path / "vec.txt"
        path.write_text("a -0.0 1\nb -0.0 3\n")
        rows = load_word_vectors(path).embed([seq("a"), seq("a", "b")])
        a, b = np.array([-0.0, 1.0]), np.array([-0.0, 3.0])
        expected = np.array([_one_record(np.mean([a], axis=0)), _one_record(np.mean([a, b], axis=0))])
        assert rows.tobytes() == expected.tobytes()

    def test_permutation_invariance(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1 2\nb 3 -1\nc 0 4\n")
        provider = load_word_vectors(path)
        np.testing.assert_array_equal(
            provider.vector(seq("a", "b", "c")), provider.vector(seq("c", "a", "b"))
        )


class TestHashing:
    def test_deterministic(self):
        provider = HashingProvider(32, seed=7)
        s = seq("disk", "quota", "exceed")
        np.testing.assert_array_equal(provider.vector(s), provider.vector(s))

    def test_unit_norm(self):
        provider = HashingProvider(16, seed=1)
        for tokens in [("a",), ("a", "b", "c"), ("x",) * 10]:
            assert np.linalg.norm(provider.vector(seq(*tokens))) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_empty_gets_fallback(self):
        provider = HashingProvider(8, seed=0)
        np.testing.assert_array_equal(
            provider.vector(seq()), np.eye(8)[0]
        )

    def test_disjoint_token_sets_orthogonal(self):
        provider = HashingProvider(64, seed=3)
        left, right = ["aa", "bb", "cc"], ["dd", "ee", "ff"]
        slots_l = {provider._slot(t)[0] for t in left}
        slots_r = {provider._slot(t)[0] for t in right}
        assert not slots_l & slots_r  # verified collision-free under this seed
        v1 = provider.vector(seq(*left))
        v2 = provider.vector(seq(*right))
        assert abs(float(np.dot(v1, v2))) < 1e-12

    def test_seed_changes_vectors(self):
        s = seq("connection", "timeout")
        assert not np.array_equal(
            HashingProvider(32, seed=0).vector(s), HashingProvider(32, seed=1).vector(s)
        )

    def test_rejects_tiny_dim(self):
        with pytest.raises(ProviderError):
            HashingProvider(1)

    @pytest.mark.parametrize("seed", [10**16, 10**16 + 7, -(10**15)])
    def test_rejects_a_seed_longer_than_the_salt(self, seed):
        # Cut to the 16 bytes of a blake2b salt, 10**16 and 10**16 + 7 hashed alike.
        with pytest.raises(ProviderError, match=f"hashing seed {seed} is longer than"):
            HashingProvider(32, seed=seed)

    @pytest.mark.parametrize("seed", [10**16 - 1, -(10**15) + 1])
    def test_seeds_of_16_characters_are_kept_apart(self, seed):
        s = seq("connection", "timeout")
        assert not np.array_equal(
            HashingProvider(32, seed=seed).vector(s), HashingProvider(32, seed=seed // 10).vector(s)
        )

    def test_slot_runs_once_per_distinct_token_of_a_batch(self, monkeypatch):
        provider = HashingProvider(16, seed=2)
        calls = []
        slot = provider._slot
        monkeypatch.setattr(provider, "_slot", lambda t: calls.append(t) or slot(t))
        batch = [seq("a", "b", "a"), seq("b", "c"), seq(), seq("a")]
        provider.embed(batch)
        assert sorted(calls) == ["a", "b", "c"]
        provider.embed(batch)  # no table outlives its batch
        assert sorted(calls) == ["a", "a", "b", "b", "c", "c"]


class TestPrecomputed:
    def test_total_coverage(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_precomputed(path, {"r0": np.array([1.0, 0.0]), "r1": np.array([0.0, 2.0])})
        provider = load_precomputed(path)
        np.testing.assert_allclose(provider.vector(seq(source_id="r1")), [0.0, 1.0])

    def test_missing_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_precomputed(path, {"r0": np.array([1.0, 0.0])})
        provider = load_precomputed(path)
        with pytest.raises(MissingEmbedding, match="^no precomputed vector for record id 'r9'$"):
            provider.vector(seq(source_id="r9"))

    def test_missing_id_in_a_batch(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_precomputed(path, {"r0": np.array([1.0, 0.0]), "r1": np.array([0.0, 1.0])})
        provider = load_precomputed(path)
        batch = [seq(source_id="r0"), seq(source_id="r7"), seq(source_id="r1")]
        with pytest.raises(MissingEmbedding, match="^no precomputed vector for record id 'r7'$"):
            provider.embed(batch)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        table = {f"r{i}": rng.normal(size=5) for i in range(20)}
        path = tmp_path / "emb.jsonl"
        write_precomputed(path, table)
        provider = load_precomputed(path)
        for rid, vec in table.items():
            np.testing.assert_allclose(provider.table[rid], vec, atol=1e-12)
        # A "\r" before each "\n" is whitespace; the SHA-256 is that of the bytes read.
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        crlf = load_precomputed(path)
        assert all(np.array_equal(crlf.table[rid], provider.table[rid]) for rid in table)
        assert crlf.sha256 == hashlib.sha256(path.read_bytes()).hexdigest() != provider.sha256

    def test_repeated_id_keeps_the_first_vector(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "r1", "vector": [1.0, 0.0]}\n{"id": "r1", "vector": [0.0, 1.0]}\n')
        np.testing.assert_array_equal(load_precomputed(path).table["r1"], [1.0, 0.0])

    def test_lookup_is_normalized(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        write_precomputed(path, {"r0": np.array([3.0, 4.0])})
        provider = load_precomputed(path)
        np.testing.assert_allclose(provider.vector(seq(source_id="r0")), [0.6, 0.8])

    @pytest.mark.parametrize(
        "line, detail",
        [
            ("{not json", "not an object with an id and a vector"),
            ('{"vector": [1.0, 0.0]}', "not an object with an id and a vector"),
            ('{"id": "r1"}', "not an object with an id and a vector"),
            ('["r1", [1.0, 0.0]]', "not an object with an id and a vector"),
            ('{"id": "r1", "vector": ["a", 0.0]}', "not an object with an id and a vector"),
            ('{"id": "r1", "vector": [null, 0.0]}', "the vector is not a list of numbers"),
            ('{"id": "r1", "vector": []}', "the vector is not a list of numbers"),
            ('{"id": "r1", "vector": 1.0}', "the vector is not a list of numbers"),
            ('{"id": "r1", "vector": [[1.0], [0.0]]}', "the vector is not a list of numbers"),
            ('{"id": "r1", "vector": [1e308, 1e308]}', "the vector is not a list of numbers"),
            ('{"id": "r1", "vector": [1.0, 0.0, 0.0]}', "vector dimension 3 != 2"),
            # A lone "\r" ends no line, as in a word-vectors file: this is one line.
            ('{"id": "r1", "vector": [1.0, 0.0]}\r{"id": "r2", "vector": [0.0, 1.0]}',
             "not an object with an id and a vector of numbers: Extra data"),
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line, detail):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "r0", "vector": [1.0, 0.0]}\n' + line + "\n")
        with pytest.raises(ProviderError, match=f"^{path}:2: {detail}"):
            load_precomputed(path)


@pytest.mark.parametrize(
    "load, text, detail",
    [(load_word_vectors, "\n  \n", "no word vectors found"),
     (load_precomputed, "\n  \n", "no vectors found"),
     (load_precomputed, None, "cannot read precomputed vectors")],
    ids=["word_vectors_blank", "precomputed_blank", "precomputed_missing"],
)
def test_a_file_without_vectors_is_a_provider_error(tmp_path, load, text, detail):
    path = tmp_path / "vectors"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ProviderError, match=detail):
        load(path)


def _providers(tmp_path):
    words = tmp_path / "vec.txt"
    words.write_text("a 1 0 0\nb 0 2 0\nc 0 0 -1\n")
    table = tmp_path / "emb.jsonl"
    write_precomputed(table, {"r0": np.array([1.0, 0.0, 0.0])})
    return [HashingProvider(3, seed=0), load_word_vectors(words), load_precomputed(table)]


def test_empty_batch_is_zero_rows_of_the_dimension(tmp_path):
    for provider in _providers(tmp_path):
        rows = provider.embed([])
        assert rows.shape == (0, 3) and rows.dtype == float


def _one_record(raw: np.ndarray) -> np.ndarray:
    """The per-record rule the batch must reproduce to the bit: scale by
    np.linalg.norm, or e0 for a zero or non-finite norm."""
    norm = float(np.linalg.norm(raw))
    return np.eye(len(raw))[0] if norm == 0.0 or not np.isfinite(norm) else raw / norm


@pytest.mark.parametrize("kind", ["hashing", "word_vectors", "precomputed"])
def test_mixed_batch_falls_back_to_e0_and_matches_one_at_a_time(tmp_path, kind):
    if kind == "hashing":
        provider = HashingProvider(64, seed=0)
        # tok3 and tok10 hash to one slot with opposite signs: a zero sum.
        assert provider._slot("tok3")[0] == provider._slot("tok10")[0]
        assert provider._slot("tok3")[1] == -provider._slot("tok10")[1]
        tokens = [(), ("tok3", "tok10"), ("disk", "full"), ("tok3",), ("disk", "quota", "disk")]
        fallback = [True, True, False, False, False]

        def raw(s):
            v = np.zeros(64)
            for t in s.tokens:
                index, sign = provider._slot(t)
                v[index] += sign
            return v
    elif kind == "word_vectors":
        rng = np.random.default_rng(3)
        path = tmp_path / "vec.txt"
        path.write_text(
            "".join(f"w{i} " + " ".join(map(str, rng.normal(size=64))) + "\n" for i in range(4))
            + "up " + " ".join(["1"] * 64) + "\ndown " + " ".join(["-1"] * 64) + "\n"
        )
        provider = load_word_vectors(path)
        vocab, _ = load_word_vectors_reference(path)
        tokens = [(), ("oov", "zz"), ("up", "down"), ("w0", "oov"), ("w1", "w2", "w3", "w1")]
        fallback = [True, True, True, False, False]

        def raw(s):
            hits = [vocab[t] for t in s.tokens if t in vocab]
            return np.mean(hits, axis=0) if hits else np.zeros(64)
    else:
        rng = np.random.default_rng(4)
        table = {f"r{i}": rng.normal(size=64) for i in range(5)}
        table["r1"] = np.zeros(64)
        path = tmp_path / "emb.jsonl"
        write_precomputed(path, table)
        provider = load_precomputed(path)
        tokens = [("x",)] * 5
        fallback = [False, True, False, False, False]

        def raw(s):
            return provider.table[s.source_id]
    batch = [seq(*t, source_id=f"r{i}") for i, t in enumerate(tokens)]
    rows = provider.embed(batch)
    assert rows.shape == (len(batch), 64)
    for row, s, is_e0 in zip(rows, batch, fallback):
        assert np.array_equal(row, np.eye(64)[0]) == is_e0
        np.testing.assert_array_equal(row, _one_record(raw(s)))
        np.testing.assert_array_equal(row, provider.vector(s))


def test_batch_rows_equal_the_per_record_rule_to_the_bit(tmp_path):
    # Norms summed in another order than np.linalg.norm(r), as norm(rows, axis=1)
    # does, differ from it in the last bit for some of these rows.
    rng = np.random.default_rng(5)
    vocab = {f"w{k}": rng.normal(size=48) for k in range(300)}
    path = tmp_path / "vec.txt"  # repr gives back each float to the bit
    path.write_text("".join(f"{w} {' '.join(map(repr, v.tolist()))}\n" for w, v in vocab.items()))
    provider = load_word_vectors(path)
    batch = [seq(*(f"w{k}" for k in rng.integers(0, 300, size=rng.integers(0, 12))))
             for _ in range(500)]
    for row, s in zip(provider.embed(batch), batch):
        hits = [vocab[t] for t in s.tokens]
        raw = np.mean(hits, axis=0) if hits else np.zeros(48)
        np.testing.assert_array_equal(row, _one_record(raw))


def test_the_index_takes_less_memory_than_half_the_file(tmp_path):
    # 20,000 words of 48 values, as the drift_many benchmark writes them. The
    # index keeps a line number per word and an offset per line, not the text.
    rng = np.random.default_rng(1)
    letters = np.array(list("bcfhjklmnpqrtvxzaiou"))
    path = tmp_path / "vectors.txt"
    with path.open("w") as fh:
        fh.write("20000 48\n")
        for k, row in enumerate(np.round(rng.standard_normal((20_000, 48)), 5).tolist()):
            word = "".join(rng.choice(letters, size=5 + 2 * (k % 2))) + str(k)
            fh.write(word + " " + " ".join(map(str, row)) + "\n")
    tracemalloc.start()
    try:
        provider = load_word_vectors(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(provider.lines) == 20_000
    assert peak < path.stat().st_size / 2, (peak, path.stat().st_size)


# --- the lazy loader against the loader that checks every line up front ---------

# Words as written; a surrogate stands for a byte that is not UTF-8 and is
# written as that byte: one that never starts a character, and a three-byte
# character cut after its second byte. Both "a" spellings read as "a\ufffd".
_WORDS = ["a", "b", "c", "d", "a\udcff", "a\udce2\udc80", "\udcff"]
# How a bad line spoils a good list of values.
_SPOIL = {
    "short": lambda v: v[:-1],
    "long": lambda v: v + ["0"],
    "none": lambda v: [],  # a cut character of the word then ends the line
    "text": lambda v: v[:-1] + ["x"],
    "nan": lambda v: v[:-1] + ["nan"],
    "overflow": lambda v: ["1e200"] * len(v),
}


def _decoded(text):
    return text.encode("utf-8", "surrogateescape").decode("utf-8", errors="replace")


@st.composite
def _vectors_file(draw):
    """The bytes of a small word2vec-text file, often with a bad line."""
    dim = draw(st.integers(1, 3))
    # Each rarer line end of str.splitlines is whitespace within a line.
    space = st.sampled_from([" ", "\t", "  ", " \t", "\r", "\x0c", "\x85", "\u2028"])
    value = st.floats(-1e6, 1e6, allow_nan=False).map(repr) | st.sampled_from(["0", "-2", "1e-3"])
    lines = []
    if draw(st.booleans()):  # a header, whose dimension is most often the first word's
        lines.append(f"{draw(st.integers(0, 9))} {draw(st.sampled_from([dim] * 4 + [0, 4]))}")
    first_word = None
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        first_word = len(lines) if first_word is None else first_word
        lead = draw(st.sampled_from(["", " ", "\t"]))
        values = "".join(draw(space) + draw(value) for _ in range(dim))
        lines.append(lead + draw(st.sampled_from(_WORDS)) + values)
    if draw(st.booleans()):  # after the first word's line, which sets the dimension
        values = _SPOIL[draw(st.sampled_from(sorted(_SPOIL)))]([draw(value) for _ in range(dim)])
        bad = draw(st.integers(first_word + 1, len(lines)))
        lines.insert(bad, " ".join([draw(st.sampled_from(_WORDS))] + values))
    # Only "\n" ends a line: any other of these joins the line to the next one.
    end = st.sampled_from(["\n", "\r\n"] * 3 + ["\r", "\x0c", "\x85", "\u2028"])
    text = "".join(line + draw(end) for line in lines)
    return text.encode("utf-8", "surrogateescape")


def _reference_rows(vocab, dim, batch):
    rows = np.zeros((len(batch), dim))
    for row, s in zip(rows, batch):
        hits = [vocab[t] for t in s.tokens if t in vocab]
        if hits:
            row[:] = np.mean(hits, axis=0)
    return _unit_rows(rows)


_TOKENS = sorted({_decoded(w) for w in _WORDS}) + ["zz"]
_BATCHES = st.lists(st.lists(st.lists(st.sampled_from(_TOKENS), max_size=4), max_size=4),
                    max_size=3)


# At least 300 examples, or more under a profile that asks for more (conftest.py).
@settings(max_examples=max(300, settings().max_examples), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_vectors_file(), _BATCHES)
def test_lazy_loader_agrees_with_the_eager_reference(tmp_path, data, tokens):
    path = tmp_path / "vec.txt"
    path.write_bytes(data)
    batches = [[seq(*t) for t in batch] for batch in tokens]
    try:
        provider = load_word_vectors(path)
    except ProviderError as got:
        # The load checks the header and the first word's line, which the reference checks first.
        with pytest.raises(ProviderError) as expected:
            load_word_vectors_reference(path)
        assert got.args[0] == expected.value.args[0]
        return
    # The reference stops at the first bad line: note its error and put a good
    # line of the same word in its place, until the reference reads the file.
    lines, bad = data.split(b"\n"), {}
    clean = tmp_path / "clean.txt"
    while True:
        clean.write_bytes(b"\n".join(lines))
        try:
            vocab, dim = load_word_vectors_reference(clean)
            break
        except ProviderError as exc:
            where, _, detail = exc.args[0].partition(": ")
            lineno = int(where.rpartition(":")[2])
            bad[lineno] = f"{path}:{lineno}: {detail}"
            word = lines[lineno - 1].decode("utf-8", errors="replace").split()[0]
            lines[lineno - 1] = (word + " 0" * provider.dim).encode()
    assert (provider.dim, provider.lines.keys()) == (dim, vocab.keys())
    # A bad line fails the run only if it is the first line of a used word; of
    # two such, the one of the word used first.
    used = dict.fromkeys(t for batch in tokens for words in batch for t in words)
    expected = next((bad[provider.lines[w]] for w in used
                     if provider.lines.get(w) in bad), None)
    try:
        for batch in batches:
            np.testing.assert_array_equal(provider.embed(batch), _reference_rows(vocab, dim, batch))
    except ProviderError as got:
        assert got.args[0] == expected
    else:
        assert expected is None
