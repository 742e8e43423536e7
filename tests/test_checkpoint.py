"""The checkpoint loader on damaged files: every mutation of the sidecar or
the payload is a ValueError or FileNotFoundError naming the file, never a
KeyError, TypeError or IndexError from deep inside the loader."""

import copy
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tkgdistill.alignment import init_align_params
from tkgdistill.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from tkgdistill.encoder import init_network_params
from tkgdistill.tkg import Vocabulary


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """(payload bytes, sidecar dict) of a small valid checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "good.mpkd"
    save_checkpoint(Checkpoint(
        init_network_params(5, 3, 4, seed=0), init_network_params(6, 3, 4, seed=1),
        init_align_params(4, seed=2), Vocabulary.integers(5), Vocabulary.integers(6),
        Vocabulary.integers(3), "deadbeef", 42,
    ), path)
    return path.read_bytes(), json.loads(path.with_suffix(".mpkd.json").read_text())


# one value of each JSON type; a replacement must differ from the original's
_ODD_VALUES = [None, True, "x", [], {}, [1, 2], 1.5, -3]


def _wrong_type(draw, value):
    return draw(st.sampled_from(
        [v for v in _ODD_VALUES if type(v) is not type(value)]
    ))


def _slot(draw, meta):
    """A (container, key) anywhere in the sidecar: top level, a block, a
    block's name or shape entry, or a symbol."""
    where = draw(st.sampled_from(["top", "block", "block_field", "shape", "symbol"]))
    if where == "top":
        return meta, draw(st.sampled_from(sorted(meta)))
    if where == "symbol":
        symbols = meta[draw(st.sampled_from(
            ["source_entity_symbols", "target_entity_symbols", "relation_symbols"]))]
        return symbols, draw(st.integers(0, len(symbols) - 1))
    blocks = meta["blocks"]
    i = draw(st.integers(0, len(blocks) - 1))
    if where == "block":
        return blocks, i
    if where == "block_field":
        return blocks[i], draw(st.sampled_from(["name", "shape"]))
    shape = blocks[i]["shape"]
    return shape, draw(st.integers(0, len(shape) - 1))


@st.composite
def damaged(draw, saved):
    """(payload, sidecar text) with one mutation that no valid file has."""
    payload, meta = bytearray(saved[0]), copy.deepcopy(saved[1])
    kind = draw(st.sampled_from([
        "drop_key", "rename_key", "wrong_type", "wrong_shape", "duplicate_symbol",
        "truncate", "append", "flip", "truncate_sidecar",
    ]))
    if kind in ("drop_key", "rename_key"):
        key = draw(st.sampled_from(sorted(meta)))
        value = meta.pop(key)
        if kind == "rename_key":
            meta[key + draw(st.sampled_from(["_", "s", "X"]))] = value
    elif kind == "wrong_type":
        container, key = _slot(draw, meta)
        container[key] = _wrong_type(draw, container[key])
    elif kind == "wrong_shape":
        block = draw(st.sampled_from(meta["blocks"]))
        new = draw(st.lists(st.integers(0, 40), max_size=3))
        if new == block["shape"]:
            new = new + [1]
        block["shape"] = new
    elif kind == "duplicate_symbol":
        symbols = meta[draw(st.sampled_from(
            ["source_entity_symbols", "target_entity_symbols", "relation_symbols"]))]
        symbols[-1] = symbols[0]
    elif kind == "flip":
        pos = draw(st.integers(0, len(payload) - 1))
        payload[pos] ^= draw(st.integers(1, 255))
    else:  # truncate or append, the digest kept or made to match
        if kind == "truncate":
            del payload[len(payload) - draw(st.integers(1, len(payload))):]
        elif kind == "append":
            payload += draw(st.binary(min_size=1, max_size=12))
        if draw(st.booleans()):
            meta["payload_sha256"] = hashlib.sha256(bytes(payload)).hexdigest()
    text = json.dumps(meta, sort_keys=True)
    if kind == "truncate_sidecar":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return bytes(payload), text


def _assert_rejected(path):
    with pytest.raises((ValueError, FileNotFoundError)) as info:
        load_checkpoint(path)
    message = str(info.value)
    assert str(path) in message or str(path) + ".json" in message, message


class TestDamagedCheckpoint:
    def test_valid_file_loads(self, tmp_path, saved):
        path = tmp_path / "ok.mpkd"
        path.write_bytes(saved[0])
        (tmp_path / "ok.mpkd.json").write_text(json.dumps(saved[1]))
        assert load_checkpoint(path).seed == 42

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_mutation_is_a_named_value_error(self, tmp_path_factory, saved, data):
        payload, text = data.draw(damaged(saved))
        path = tmp_path_factory.mktemp("bad") / "bad.mpkd"
        path.write_bytes(payload)
        (path.parent / "bad.mpkd.json").write_text(text)
        _assert_rejected(path)

    def test_sidecar_without_blocks(self, tmp_path, saved):
        path = tmp_path / "noblocks.mpkd"
        path.write_bytes(saved[0])
        meta = {k: v for k, v in saved[1].items() if k != "blocks"}
        (tmp_path / "noblocks.mpkd.json").write_text(json.dumps(meta))
        _assert_rejected(path)

    def test_transposed_block_with_the_same_size(self, tmp_path, saved):
        path = tmp_path / "transposed.mpkd"
        path.write_bytes(saved[0])
        meta = copy.deepcopy(saved[1])
        meta["blocks"][0]["shape"].reverse()  # (5, 4) -> (4, 5)
        (tmp_path / "transposed.mpkd.json").write_text(json.dumps(meta))
        _assert_rejected(path)

    def test_sidecar_that_is_not_utf8(self, tmp_path, saved):
        path = tmp_path / "latin.mpkd"
        path.write_bytes(saved[0])
        (tmp_path / "latin.mpkd.json").write_bytes(b"{\"format\": \"caf\xe9\"}")
        _assert_rejected(path)

    def test_earlier_layout_with_cross_blocks(self, tmp_path, saved):
        # MPKD1 stored two more (d, d) alignment blocks, cross_WQ and cross_WK
        d = saved[1]["dim"]
        payload = b"MPKD1" + saved[0][len(b"MPKD2"):]
        payload += np.eye(d, dtype="<f4").tobytes() * 2
        meta = copy.deepcopy(saved[1])
        meta["format"] = "MPKD1"
        meta["blocks"] += [
            {"name": f"align.{n}", "shape": [d, d]} for n in ("cross_WQ", "cross_WK")
        ]
        meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        path = tmp_path / "old.mpkd"
        path.write_bytes(payload)
        (tmp_path / "old.mpkd.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("missing", ["payload", "sidecar"])
    def test_missing_file(self, tmp_path, saved, missing):
        path = tmp_path / "gone.mpkd"
        if missing == "sidecar":
            path.write_bytes(saved[0])
        else:
            (tmp_path / "gone.mpkd.json").write_text(json.dumps(saved[1]))
        with pytest.raises(FileNotFoundError, match="gone.mpkd"):
            load_checkpoint(path)
