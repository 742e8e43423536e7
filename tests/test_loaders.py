"""The three text loaders (quadruples, alignments, training config): every
malformed line is a line-numbered ValueError, and nothing else escapes."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgdistill.tkg import TemporalKG, Vocabulary, load_alignments, load_quadruples
from tkgdistill.trainer import parse_config_file

VALID = {
    "quadruples": ["a\tr\tb\t0", "b\tr\tc\t3", "# comment", ""],
    "alignments": ["a\tx", "b\ty\t0.5", "# comment", ""],
    "config": ["dim = 16", "seed = 3", "no_event_transfer = true", "# comment", ""],
}


def load(kind: str, path, frozen: bool):
    if kind == "quadruples":
        return load_quadruples(
            path, Vocabulary("abc", frozen=frozen), Vocabulary("r", frozen=frozen)
        )
    if kind == "alignments":
        return load_alignments(
            path, Vocabulary("ab", frozen=frozen), Vocabulary("xy", frozen=frozen)
        )
    return parse_config_file(path)


def _summary(loaded):
    if isinstance(loaded, TemporalKG):
        return (loaded.quadruples, loaded.entities.symbols(),
                loaded.relations.symbols(), loaded.horizon)
    return repr(loaded)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


class TestEncoding:
    @pytest.mark.parametrize("kind", sorted(VALID))
    def test_undecodable_line_is_named(self, tmp_path, kind):
        path = tmp_path / "in.txt"
        good = "\r\n".join(VALID[kind]).encode() + b"\r\n"
        path.write_bytes(good + b"caf\xe9\r\n" + good)
        line = len(VALID[kind]) + 1
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: invalid UTF-8"):
            load(kind, path, frozen=False)

    def test_line_after_lone_carriage_returns(self, tmp_path):
        path = tmp_path / "cr.tsv"
        path.write_bytes(b"a\tr\tb\t0\rb\tr\tc\t1\r\n\x80\n")
        with pytest.raises(ValueError, match=r"cr\.tsv:3: invalid UTF-8"):
            load_quadruples(path)

    @pytest.mark.parametrize("kind", sorted(VALID))
    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings_parse_as_lf(self, tmp_path, kind, newline):
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        lf.write_bytes(("\n".join(VALID[kind]) + "\n").encode())
        other.write_bytes((newline.join(VALID[kind]) + newline).encode())
        assert _summary(load(kind, lf, False)) == _summary(load(kind, other, False))


def _fields(kind: str):
    if kind == "config":
        return st.sampled_from(["dim", "epochs", "dropout", "no_event_transfer", "seed",
                                "exact_solver_cap", "=", "", " "])
    return st.sampled_from(["a", "b", "r", "x", "zz", "", "#"])


_TOKENS = st.one_of(
    st.integers(-3, 10**30).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "0.5", "true", "yes", "1_0", " "]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
            max_size=8),
)


@st.composite
def fuzz_line(draw, kind: str) -> bytes:
    parts = draw(st.lists(st.one_of(_fields(kind), _TOKENS), max_size=5))
    sep = draw(st.sampled_from(["\t", " = ", "="]))
    raw = bytearray(sep.join(parts).encode())
    if draw(st.booleans()):  # a byte that may not decode
        pos = draw(st.integers(0, len(raw)))
        raw[pos:pos] = bytes([draw(st.integers(0x80, 0xFF))])
    return bytes(raw)


class TestFuzz:
    @pytest.mark.parametrize("kind", sorted(VALID))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_malformed_line_is_a_numbered_value_error(self, fuzz_path, kind, data):
        # a config may set each key once, so its valid lines do not repeat
        good = data.draw(st.lists(st.sampled_from(VALID[kind]), max_size=8,
                                  unique=kind == "config"))
        cut = data.draw(st.integers(0, len(good)))
        before, after = good[:cut], good[cut:]
        newline = data.draw(st.sampled_from(["\n", "\r\n"])).encode()
        line = data.draw(fuzz_line(kind))
        body = [s.encode() for s in before] + [line] + [s.encode() for s in after]
        fuzz_path.write_bytes(newline.join(body) + newline)
        try:
            load(kind, fuzz_path, frozen=data.draw(st.booleans()))
        except ValueError as exc:
            # the lines around the fuzzed one are valid, so it is the culprit:
            # the error is on it, or on a later line repeating its key
            culprit = len(before) + 1
            assert str(exc).startswith(f"{fuzz_path}:{culprit}: ") or str(
                exc).endswith(f"first set on line {culprit}"), exc


# the symbols the vocabularies start with, and a valid line adding new ones
START = {"quadruples": ("abc", "r"), "alignments": ("ab", "xy")}
NEW_SYMBOLS = {"quadruples": "new\tr\tnew2\t1", "alignments": "new\tnew2"}


class TestNoPartialSymbols:
    """A failed load leaves the vocabularies it was given as they were."""

    def test_bad_line_after_a_new_symbol(self, tmp_path):
        path = tmp_path / "partial.tsv"
        path.write_text("a\tr\tb\t0\na\tr\tb\n")
        entities, relations = Vocabulary(["a"]), Vocabulary()
        with pytest.raises(ValueError, match=r"partial\.tsv:2: expected 4"):
            load_quadruples(path, entities, relations)
        assert entities.symbols() == ["a"] and relations.symbols() == []

    def test_bad_alignment_line_after_a_new_symbol(self, tmp_path):
        path = tmp_path / "partial.tsv"
        path.write_text("a\tnew\nb\tx\tnot-a-number\n")
        src, tgt = Vocabulary(["a", "b"]), Vocabulary(["x"])
        with pytest.raises(ValueError, match=r"partial\.tsv:2: bad confidence"):
            load_alignments(path, src, tgt)
        assert tgt.symbols() == ["x"]

    def test_key_overflow_adds_nothing(self, tmp_path):
        path = tmp_path / "far.tsv"
        path.write_text(f"a\tr\tnew\t0\nb\tr\tc\t{2**62}\n")
        entities, relations = Vocabulary(["a"]), Vocabulary()
        with pytest.raises(ValueError, match=r"far\.tsv:2: .*overflow the int64"):
            load_quadruples(path, entities, relations)
        assert entities.symbols() == ["a"] and relations.symbols() == []

    def test_frozen_rejects_at_first_use_before_a_later_bad_line(self, tmp_path):
        path = tmp_path / "frozen.tsv"
        path.write_text("a\tr\tb\t0\nzz\tr\ta\t1\nb\tr\tzz\t2\nbad\n")
        with pytest.raises(ValueError, match=r"frozen\.tsv:2: unknown symbol 'zz'"):
            load_quadruples(path, Vocabulary("ab", frozen=True),
                            Vocabulary("r", frozen=True))

    @pytest.mark.parametrize("kind", ["quadruples", "alignments"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_fuzzed_failure_adds_nothing(self, fuzz_path, kind, data):
        good = st.lists(st.sampled_from(VALID[kind] + [NEW_SYMBOLS[kind]]), max_size=4)
        before, after = data.draw(good), data.draw(good)
        body = [s.encode() for s in before] + [data.draw(fuzz_line(kind))]
        fuzz_path.write_bytes(b"\n".join(body + [s.encode() for s in after]) + b"\n")
        first, second = (Vocabulary(v) for v in START[kind])
        loader = load_quadruples if kind == "quadruples" else load_alignments
        try:
            loader(fuzz_path, first, second)
        except ValueError:
            assert (first.symbols(), second.symbols()) == tuple(map(list, START[kind]))
