"""Token normalization."""

import numpy as np
from hypothesis import given, strategies as st

from logevo.pipeline import RunConfig, embed_records
from logevo.records import TS_TOKEN, URL_TOKEN
from logevo.textnorm import TokenSeq, load_stopwords, normalize, stem

from helpers import record


def test_spec_example():
    seq = normalize("Connection timeouts occurring at <TS>")
    assert seq.tokens == ("connection", "timeout", "occur", "<TS>")


def test_empty_input():
    assert normalize("").tokens == ()


def test_identifier_splitting():
    assert normalize("conn_timeout").tokens == ("conn", "timeout")
    assert normalize("org.apache.hadoop").tokens == ("org", "apache", "hadoop")


def test_stemmer_rules():
    assert stem("timeouts") == "timeout"
    assert stem("occurring") == "occur"
    assert stem("failed") == "fail"
    assert stem("stopped") == "stop"
    assert stem("falling") == "fall"  # final "ll" kept
    assert stem("classes") == "class"
    assert stem("class") == "class"  # "-ss" is not a plural
    assert stem("gc") == "gc"  # too short to strip


_LOG_WORDS = st.sampled_from(
    "connection timeouts failed retries occurring errors the at filesystem "
    "blocks replicas corrupted checksums processing queues workers <TS> <URL> "
    "disk quota exceeded sessions opened closing nodes".split()
)


@given(st.lists(_LOG_WORDS, min_size=0, max_size=20))
def test_idempotent_on_own_output(words):
    first = normalize(" ".join(words))
    second = normalize(" ".join(first.tokens))
    assert second.tokens == first.tokens


@given(st.text(max_size=120))
def test_no_stopword_survives_and_all_lowercase(text):
    stopwords = load_stopwords()
    seq = normalize(text)
    for tok in seq.tokens:
        assert tok
        assert tok not in stopwords
        # the scrubbing placeholders are kept verbatim (see test_spec_example)
        assert tok == tok.lower() or tok in (TS_TOKEN, URL_TOKEN)


@given(st.text(max_size=120))
def test_deterministic_and_bounded(text):
    a, b = normalize(text), normalize(text)
    assert a.tokens == b.tokens
    # token count never exceeds the raw split count
    import re

    raw = re.findall(r"<TS>|<URL>|[A-Za-z0-9]+", text)
    assert len(a.tokens) <= len(raw)


def test_source_id_carried():
    assert normalize("x failure", source_id="rec-9").source_id == "rec-9"
    assert isinstance(normalize("x"), TokenSeq)


TABLE_TEXTS = [
    "Connection timeouts occurring at <TS>",
    "fetch <URL> failed at <TS> <TS>",
    "others willing Others",  # stems onto the stopwords "other" and "will"
    "",
    "Connection connection CONNECTION timeouts",
    "blk_1073741825 blk_1073741825 replicas",
]


@given(st.lists(st.one_of(st.sampled_from(TABLE_TEXTS), st.text(max_size=40)), max_size=12))
def test_a_shared_token_table_changes_nothing(texts):
    table = {}
    shared = [normalize(text, str(i), table=table) for i, text in enumerate(TABLE_TEXTS + texts)]
    assert shared == [normalize(text, str(i)) for i, text in enumerate(TABLE_TEXTS + texts)]
    assert table["others"] is None and table["<TS>"] == TS_TOKEN and table["timeouts"] == "timeout"


class _Recorder:
    """A provider that keeps the token sequences of each batch."""

    def __init__(self):
        self.batches = []

    def embed(self, seqs):
        self.batches.append([seq.tokens for seq in seqs])
        return np.zeros((len(seqs), 2))


def test_embed_records_calls_share_no_token_table(tmp_path):
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_text("disk\n")
    records = [record("a", "disk full"), record("b", "disk quota")]
    provider = _Recorder()
    for path in (None, str(stopwords), None):
        embed_records(RunConfig(input="unused", stopwords_path=path), records, provider)
    assert provider.batches == [
        [("disk", "full"), ("disk", "quota")],
        [("full",), ("quota",)],
        [("disk", "full"), ("disk", "quota")],
    ]
