"""Checkpoint format: a magic-tagged binary of little-endian float32 blocks
in a fixed order, with a JSON sidecar carrying shapes, vocabularies, and a
payload digest. Training arithmetic stays 64-bit; storage is 32-bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .alignment import AlignParams
from .encoder import NetworkParams
from .tkg import Vocabulary

MAGIC = b"MPKD2"

_NETWORK_BLOCKS = ("entity_emb", "relation_emb", "transform_W", "attn_a", "time_freq")
_ALIGN_BLOCKS = ("temporal_WQ", "temporal_WK", "temporal_WV")


@dataclass
class Checkpoint:
    teacher: NetworkParams
    student: NetworkParams
    align: AlignParams
    source_entities: Vocabulary
    target_entities: Vocabulary
    relations: Vocabulary  # base relations; reciprocal rows are implicit
    config_digest: str
    seed: int


def _blocks_of(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    out = []
    for prefix, obj in (("teacher", ckpt.teacher), ("student", ckpt.student)):
        for name in _NETWORK_BLOCKS:
            out.append((f"{prefix}.{name}", getattr(obj, name)))
    for name in _ALIGN_BLOCKS:
        out.append((f"align.{name}", getattr(ckpt.align, name)))
    return out


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    path = Path(path)
    payload = bytearray(MAGIC)
    blocks = []
    for name, arr in _blocks_of(ckpt):
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        payload.extend(data)
        blocks.append({"name": name, "shape": list(arr.shape)})
    path.write_bytes(bytes(payload))
    meta = {
        "format": MAGIC.decode(),
        "dim": ckpt.teacher.dim,
        "dropout_rate": ckpt.teacher.dropout_rate,
        "n_relations": len(ckpt.relations),
        "blocks": blocks,
        "source_entity_symbols": ckpt.source_entities.symbols(),
        "target_entity_symbols": ckpt.target_entities.symbols(),
        "relation_symbols": ckpt.relations.symbols(),
        "config_digest": ckpt.config_digest,
        "seed": ckpt.seed,
        "payload_sha256": hashlib.sha256(bytes(payload)).hexdigest(),
    }
    sidecar = path.with_suffix(path.suffix + ".json")
    sidecar.write_text(
        json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )


# every key ``save_checkpoint`` writes, with its JSON type (bool is not int)
_SIDECAR_TYPES = {
    "format": str, "dim": int, "dropout_rate": (int, float), "n_relations": int,
    "blocks": list, "source_entity_symbols": list, "target_entity_symbols": list,
    "relation_symbols": list, "config_digest": str, "seed": int,
    "payload_sha256": str,
}
_SYMBOL_KEYS = ("source_entity_symbols", "target_entity_symbols", "relation_symbols")


def _read_sidecar(sidecar: Path) -> dict:
    """The sidecar's JSON object, every written key present and typed."""
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ValueError(f"{sidecar}: unreadable checkpoint sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{sidecar}: checkpoint sidecar is not a JSON object")
    for key, kind in _SIDECAR_TYPES.items():
        value = meta.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"{sidecar}: {key!r} is missing or of the wrong type")
    for key in _SYMBOL_KEYS:
        symbols = meta[key]
        if (not all(isinstance(x, str) for x in symbols)
                or len(set(symbols)) < len(symbols)):
            raise ValueError(f"{sidecar}: {key!r} must hold distinct strings")
    if meta["format"] != MAGIC.decode():
        raise ValueError(f"{sidecar}: unknown checkpoint format {meta['format']!r}")
    if meta["n_relations"] != len(meta["relation_symbols"]):
        raise ValueError(f"{sidecar}: n_relations does not match relation_symbols")
    if meta["dim"] < 1:
        raise ValueError(f"{sidecar}: dim must be at least 1")
    if not 0 <= meta["dropout_rate"] < 1:
        raise ValueError(f"{sidecar}: dropout_rate must be in [0, 1)")
    return meta


def _block_shapes(meta: dict) -> list[tuple[str, tuple[int, ...]]]:
    """The (name, shape) of every block, as the dim and vocabularies fix them."""
    d, rows = meta["dim"], 2 * meta["n_relations"]
    out = []
    for prefix, key in (("teacher", "source_entity_symbols"),
                        ("student", "target_entity_symbols")):
        shapes = ((len(meta[key]), d), (rows, d), (d, d), (4 * d,), (d,))
        out += [(f"{prefix}.{n}", s) for n, s in zip(_NETWORK_BLOCKS, shapes)]
    return out + [(f"align.{n}", (d, d)) for n in _ALIGN_BLOCKS]


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any damage to it or its sidecar is a ValueError
    (FileNotFoundError for a missing file) that names the file."""
    path = Path(path)
    payload = path.read_bytes()
    if payload[: len(MAGIC)] != MAGIC:
        raise ValueError(f"bad checkpoint magic in {path}")
    sidecar = path.with_suffix(path.suffix + ".json")
    if not sidecar.exists():
        raise FileNotFoundError(f"missing checkpoint sidecar {sidecar}")
    meta = _read_sidecar(sidecar)
    if hashlib.sha256(payload).hexdigest() != meta["payload_sha256"]:
        raise ValueError(f"{path}: checkpoint payload does not match sidecar digest")
    shapes = _block_shapes(meta)
    # compared as JSON text, so a shape of 4.0 or true is not 4
    want = [{"name": n, "shape": list(s)} for n, s in shapes]
    if json.dumps(meta["blocks"], sort_keys=True) != json.dumps(want, sort_keys=True):
        raise ValueError(f"{sidecar}: blocks do not match the dim and vocabularies")
    counts = [math.prod(s) for _, s in shapes]
    if len(payload) != len(MAGIC) + 4 * sum(counts):
        raise ValueError(f"{path}: payload size does not match the sidecar's blocks")

    arrays: dict[str, np.ndarray] = {}
    offset = len(MAGIC)
    for (name, shape), count in zip(shapes, counts):
        raw = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        arrays[name] = raw.astype(np.float64).reshape(shape)
        offset += 4 * count
    n_rel = meta["n_relations"]

    def network(prefix: str) -> NetworkParams:
        return NetworkParams(
            *(arrays[f"{prefix}.{n}"] for n in _NETWORK_BLOCKS),
            meta["dropout_rate"], n_rel,
        )

    align = AlignParams(*(arrays[f"align.{n}"] for n in _ALIGN_BLOCKS))
    return Checkpoint(
        network("teacher"),
        network("student"),
        align,
        *(Vocabulary(meta[key], frozen=True) for key in _SYMBOL_KEYS),
        meta["config_digest"],
        meta["seed"],
    )
