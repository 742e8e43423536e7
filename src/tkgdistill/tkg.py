"""Temporal knowledge graph data model, file I/O, splitting, and synthesis.

A graph is a multiset of (subject, relation, object, time) quadruples over
discrete time steps, stored as one read-only ``(n, 4)`` int64 block, plus a
sorted CSR neighbor index built once per graph: every lookup of an entity's
latest neighbors before a time is one binary search and one gather.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

GROUND_TRUTH = "ground-truth"
PSEUDO = "pseudo"


class Quadruple(NamedTuple):
    subject: int
    relation: int
    object: int
    time: int


class Vocabulary:
    """Ordered symbol table; indices are assigned in insertion order."""

    def __init__(self, symbols: Iterable[str] = (), frozen: bool = False):
        # first occurrence wins, as with repeated ``add`` calls
        self._symbols: list[str] = list(dict.fromkeys(symbols))
        self._index: dict[str, int] = {s: i for i, s in enumerate(self._symbols)}
        self.frozen = frozen

    def add(self, symbol: str) -> int:
        idx = self._index.get(symbol)
        if idx is not None:
            return idx
        if self.frozen:
            raise KeyError(f"unknown symbol {symbol!r} (vocabulary is frozen)")
        idx = len(self._symbols)
        self._symbols.append(symbol)
        self._index[symbol] = idx
        return idx

    @contextmanager
    def undo_on_error(self):
        """Symbols added inside the block are removed again if it raises."""
        n = len(self._symbols)
        try:
            yield self
        except BaseException:
            for s in self._symbols[n:]:
                del self._index[s]
            del self._symbols[n:]
            raise

    def symbol(self, idx: int) -> str:
        return self._symbols[idx]

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def symbols(self) -> list[str]:
        return list(self._symbols)

    @classmethod
    def integers(cls, n: int) -> "Vocabulary":
        return cls(map(str, range(n)), frozen=True)


class TemporalKG:
    """Immutable temporal KG: one event block and a sorted CSR neighbor index.

    ``events`` is the graph's one stored form of its quadruples: a read-only
    ``(n, 4)`` int64 block of (subject, relation, object, time) rows in input
    order. The constructor copies an int64 array once; any other iterable of
    quadruples is read into a block. Every range is checked on the block at
    once; an error names the first bad quadruple, and within it the entity
    check comes before the relation and time checks.

    The index holds each quadruple twice: once under the subject (with the
    object as neighbor) and once under the object (with the subject as
    neighbor). Entries are sorted by (entity, time, neighbor, relation),
    which fixes a deterministic total order for neighbor sampling. A table
    of ``n_entities + 1`` run starts gives each entity's run of entries; the
    entries of entity ``e`` before time ``t`` run from its start to the
    first entry whose key ``entity * (horizon + 1) + time`` is at least
    ``e * (horizon + 1) + t``, found by one binary search. An entity added
    to the vocabulary after the graph was built has none. This is the
    per-node sorted layout (T-CSR) of TGL (Zhou et al., VLDB 2022): memory
    is O(|Q| + E) whatever the lookup width. Every key, and the end of the
    last entity's run, must fit in int64.
    """

    def __init__(
        self,
        entities: Vocabulary,
        relations: Vocabulary,
        quadruples: np.ndarray | Iterable[Quadruple],
        horizon: int,
    ):
        if not (isinstance(quadruples, np.ndarray) and quadruples.dtype == np.int64):
            rows = tuple(quadruples)
            try:
                quadruples = np.fromiter(
                    chain.from_iterable(rows), np.int64, 4 * len(rows)
                )
            except OverflowError:  # a field beyond int64 fails a range or key check below
                quadruples = np.array(rows, dtype=object)
        block = np.array(quadruples).reshape(-1, 4)
        s, r, o, t = block.T
        bad_ent = (s < 0) | (s >= len(entities)) | (o < 0) | (o >= len(entities))
        bad_rel = (r < 0) | (r >= len(relations))
        bad = bad_ent | bad_rel | (t < 0) | (t >= horizon)
        if bad.any():
            i = int(bad.argmax())
            q = Quadruple._make(block[i].tolist())
            if bad_ent[i]:
                raise ValueError(f"entity id out of vocabulary in {q}")
            if bad_rel[i]:
                raise ValueError(f"relation id out of vocabulary in {q}")
            raise ValueError(f"time {q.time} outside horizon {horizon} in {q}")
        if len(entities) * (horizon + 1) > np.iinfo(np.int64).max:
            raise ValueError(f"{len(entities)} entities x horizon {horizon} "
                             "overflow the int64 index key")
        block.flags.writeable = False
        self.entities = entities
        self.relations = relations
        self.events = block
        self.horizon = horizon
        ent, nbr = np.concatenate([s, o]), np.concatenate([o, s])
        rel, tim = np.concatenate([r, r]), np.concatenate([t, t])
        n_ent, n_rel = len(entities), len(relations)
        if n_ent * n_ent * (horizon + 1) * n_rel <= np.iinfo(np.int64).max:
            # one stable sort of the packed (ent, tim, nbr, rel) key gives
            # lexsort's order bit for bit
            packed = ((ent * (horizon + 1) + tim) * n_ent + nbr) * n_rel + rel
            order = np.argsort(packed, kind="stable")
        else:
            order = np.lexsort((rel, nbr, tim, ent))
        ent, nbr, rel, tim = ent[order], nbr[order], rel[order], tim[order]
        self._key = ent * (horizon + 1) + tim
        self._start = np.searchsorted(ent, np.arange(n_ent + 1))
        # one zero entry past the end: padded lookup slots gather from it
        self._nbr, self._rel, self._time = (np.append(x, 0) for x in (nbr, rel, tim))

    @property
    def quadruples(self) -> tuple[Quadruple, ...]:
        """The events as ``Quadruple`` tuples, built anew on each read."""
        return tuple(map(Quadruple._make, self.events.tolist()))

    def adjacency(self, e: int) -> list[tuple[int, int, int]]:
        """Index entries of ``e`` as (neighbor, relation, time) tuples."""
        if not 0 <= e < len(self.entities):
            raise KeyError(f"unknown entity id {e}")
        run = slice(*self._start[np.minimum([e, e + 1], self._start.size - 1)])
        return list(zip(
            self._nbr[run].tolist(), self._rel[run].tolist(), self._time[run].tolist()
        ))

    def neighbor_arrays(
        self, ids: np.ndarray, t, b: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Padded (nbr, rel, time, mask) arrays of shape (len(ids), b).

        Row i holds the ``b`` latest entries of ``ids[i]`` strictly before
        its time, oldest first, then padding (zeros, mask False). ``t`` is
        one time for every row, one per row of ``ids``, or any shape that
        broadcasts against them, such as a (k, 1) column of k steps.
        """
        if b < 1:
            raise ValueError(f"neighbour count b must be at least 1, got {b}")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.min(initial=0) < 0:
            raise ValueError(f"entity id {ids.min()} is negative")
        # no entry lies before a time below 0; every entry lies before horizon
        t = np.clip(np.asarray(t, dtype=np.int64), 0, self.horizon)
        hi = np.searchsorted(self._key, ids * (self.horizon + 1) + t)
        lo = self._start[np.minimum(ids, self._start.size - 1)]  # newer ids: none
        first = np.maximum(lo, hi - b)
        idx = first[..., None] + np.arange(b)
        mask = idx < hi[..., None]
        idx = np.where(mask, idx, self._key.size)
        return self._nbr[idx], self._rel[idx], self._time[idx], mask

    def with_quadruples(self, quadruples: Iterable) -> "TemporalKG":
        return TemporalKG(self.entities, self.relations, quadruples, self.horizon)


@dataclass
class AlignmentPair:
    source_entity: int
    target_entity: int
    provenance: str = GROUND_TRUTH
    confidence: float = 1.0


@dataclass
class AlignmentSet:
    pairs: list[AlignmentPair] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def target_entities(self) -> set[int]:
        return {p.target_entity for p in self.pairs}

    def targets_of(self, source: int) -> set[int]:
        return {p.target_entity for p in self.pairs if p.source_entity == source}


@dataclass(frozen=True)
class SplitSpec:
    total_steps: int
    train_steps: int
    val_steps: int
    test_steps: int

    def __post_init__(self):
        if self.train_steps + self.val_steps + self.test_steps != self.total_steps:
            raise ValueError("train + val + test must equal total_steps")


# ---------------------------------------------------------------------------
# File formats. Quadruple files are UTF-8, LF, tab-separated
# subject/relation/object/time; '#' lines are comments. A load appends unseen
# symbols to the vocabularies it is given, unless they are frozen; a failed
# load leaves them as they were.
# ---------------------------------------------------------------------------


def numbered_lines(path) -> Iterator[tuple[int, str]]:
    """(lineno, line) over a UTF-8 file, newlines read as in text mode;
    undecodable bytes raise ``ValueError("path:lineno: ...")``."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise ValueError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from None
    return enumerate(io.StringIO(text, newline=None), start=1)


def _parse_time(text: str, path: str, lineno: int) -> int:
    try:
        t = int(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad time value {text!r}") from None
    if t < 0:
        raise ValueError(f"{path}:{lineno}: negative time {t}")
    return t


def _parse_confidence(text: str, path: str, lineno: int) -> float:
    try:
        conf = float(text)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: bad confidence value {text!r}") from None
    if not np.isfinite(conf):
        raise ValueError(f"{path}:{lineno}: non-finite confidence {text!r}")
    return conf


def load_quadruples(
    path,
    entity_vocab: Vocabulary | None = None,
    relation_vocab: Vocabulary | None = None,
    horizon: int | None = None,
) -> TemporalKG:
    """Parse a quadruple TSV into a TemporalKG.

    Without vocabularies, symbols are collected in file order. Without a
    horizon, it is one past the latest time. A failed load removes the
    symbols it added.
    """
    entities = entity_vocab if entity_vocab is not None else Vocabulary()
    relations = relation_vocab if relation_vocab is not None else Vocabulary()
    with entities.undo_on_error(), relations.undo_on_error():
        add_entity, add_relation = entities.add, relations.add
        quads: list[tuple[int, int, int, int]] = []
        max_t, max_line = -1, 0
        for lineno, line in numbered_lines(path):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise ValueError(
                    f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}"
                )
            s, r, o, t = fields
            t = _parse_time(t, path, lineno)
            if horizon is not None and t >= horizon:
                raise ValueError(
                    f"{path}:{lineno}: time {t} outside horizon {horizon}"
                )
            try:
                quads.append((add_entity(s), add_relation(r), add_entity(o), t))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
            if t > max_t:
                max_t, max_line = t, lineno
        if horizon is not None:
            return TemporalKG(entities, relations, quads, horizon)
        try:
            return TemporalKG(entities, relations, quads, max_t + 1)
        except ValueError as exc:  # the latest time overflows the index key
            raise ValueError(f"{path}:{max_line}: {exc}") from None


def dump_quadruples(kg: TemporalKG, path) -> None:
    ent, rel = kg.entities.symbols(), kg.relations.symbols()
    text = "".join(
        f"{ent[s]}\t{rel[r]}\t{ent[o]}\t{t}\n" for s, r, o, t in kg.events.tolist()
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_alignments(
    path,
    source_vocab: Vocabulary,
    target_vocab: Vocabulary,
) -> AlignmentSet:
    """Parse ``source<TAB>target[<TAB>confidence]`` lines; confidence defaults to 1.

    An aligned entity may have no recorded events yet: an unfrozen
    vocabulary gains it, a frozen one rejects it. A failed load removes the
    symbols it added.
    """
    with source_vocab.undo_on_error(), target_vocab.undo_on_error():
        pairs: list[AlignmentPair] = []
        for lineno, line in numbered_lines(path):
            if line.startswith("#") or not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) not in (2, 3):
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 fields")
            conf = 1.0
            if len(fields) == 3:
                conf = _parse_confidence(fields[2], path, lineno)
            try:
                pairs.append(
                    AlignmentPair(
                        source_vocab.add(fields[0]), target_vocab.add(fields[1]),
                        GROUND_TRUTH, conf,
                    )
                )
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
        return AlignmentSet(pairs)


def dump_alignments(
    alignments: AlignmentSet,
    source_vocab: Vocabulary,
    target_vocab: Vocabulary,
    path,
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for p in alignments:
            fh.write(
                f"{source_vocab.symbol(p.source_entity)}\t"
                f"{target_vocab.symbol(p.target_entity)}\n"
            )


# ---------------------------------------------------------------------------
# Splitting, subsampling, noise
# ---------------------------------------------------------------------------


def split_by_time(
    kg: TemporalKG, spec: SplitSpec
) -> tuple[TemporalKG, TemporalKG, TemporalKG]:
    """Partition by time step: t < train, train <= t < train+val, rest test.

    All three partitions keep the full vocabularies and the full horizon.
    """
    if kg.horizon != spec.total_steps:
        raise ValueError(
            f"split spec covers {spec.total_steps} steps but horizon is {kg.horizon}"
        )
    val_end = spec.train_steps + spec.val_steps
    t = kg.events[:, 3]
    masks = (t < spec.train_steps, (t >= spec.train_steps) & (t < val_end), t >= val_end)
    return tuple(kg.with_quadruples(kg.events[m]) for m in masks)


def subsample_events(
    kg: TemporalKG, ratio: float, seed: int, before_step: int | None = None
) -> TemporalKG:
    """Keep each quadruple independently with probability ``ratio`` (seeded).

    With ``before_step`` set, only quadruples earlier than that step are
    subject to thinning; later ones are always kept. Vocabularies unchanged.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(kg.events)) < ratio
    if before_step is not None:
        keep |= kg.events[:, 3] >= before_step
    return kg.with_quadruples(kg.events[keep])


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def inject_alignment_noise(
    alignments: AlignmentSet,
    noise_ratio: float,
    n_target_entities: int,
    seed: int,
) -> AlignmentSet:
    """Corrupt a seeded fraction of pairs by rerouting their target entity.

    Exactly round(noise_ratio * n) pairs get their target replaced by a
    distinct entity that has no alignment. Corrupted pairs keep ground-truth
    provenance: the noise is undisclosed downstream.
    """
    if not 0.0 <= noise_ratio <= 1.0:
        raise ValueError(f"noise_ratio must be in [0, 1], got {noise_ratio}")
    if n_target_entities < 2:
        raise ValueError("target vocabulary must have at least 2 entities")
    pairs = [replace(p) for p in alignments.pairs]
    n_corrupt = _round_half_up(noise_ratio * len(pairs))
    if n_corrupt == 0:
        return AlignmentSet(pairs)
    aligned = {p.target_entity for p in pairs}
    unaligned = np.array(
        [e for e in range(n_target_entities) if e not in aligned], dtype=np.int64
    )
    if unaligned.size < n_corrupt:
        raise ValueError(
            f"need {n_corrupt} unaligned target entities to corrupt, "
            f"only {unaligned.size} available"
        )
    rng = np.random.default_rng(seed)
    victims = rng.choice(len(pairs), size=n_corrupt, replace=False)
    replacements = rng.choice(unaligned, size=n_corrupt, replace=False)
    for idx, new_target in zip(victims, replacements):
        pairs[int(idx)].target_entity = int(new_target)
    return AlignmentSet(pairs)


# ---------------------------------------------------------------------------
# Synthetic bilingual benchmark pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    """Desk-scale bilingual benchmark shape.

    Each graph draws its events per step from a fixed pool of recurring base
    triples; a triple is only active inside its own time window, so events
    recur and cluster the way real event streams do, and entities carry
    distinctive activity signatures. A latent one-to-one entity map links
    the two graphs; source events whose endpoints are mapped replicate into
    the full target graph with probability ``copy_prob``. The exposed
    alignment set reveals ``coverage`` of the latent map, biased toward
    high-degree entities (prominent entities get aligned first).
    """

    source_entities: int = 200
    target_entities: int = 200
    relations: int = 20
    steps: int = 40
    train_steps: int = 28
    events_per_step: int = 25
    target_background_per_step: int | None = None  # None: same as events_per_step
    pool_per_entity: float = 1.0
    window_halfwidth: int = 6
    popularity_skew: float = 0.8  # Zipf exponent for entity participation
    coverage: float = 0.1
    target_ratio: float = 0.2
    copy_prob: float = 0.6

    def __post_init__(self):
        if min(self.source_entities, self.target_entities) < 2:
            raise ValueError("need at least 2 entities per graph")
        if self.relations < 1 or self.steps < 1 or self.events_per_step < 1:
            raise ValueError("relations, steps and events_per_step must be positive")
        if not 0.0 < self.coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        if not 0.0 < self.target_ratio <= 1.0:
            raise ValueError("target_ratio must be in (0, 1]")
        if not 0.0 <= self.copy_prob <= 1.0:
            raise ValueError("copy_prob must be in [0, 1]")
        if not 0 < self.train_steps <= self.steps:
            raise ValueError("train_steps must be in (0, steps]")


@dataclass
class SyntheticPair:
    source: TemporalKG
    target_full: TemporalKG
    target_incomplete: TemporalKG
    alignments: AlignmentSet
    latent_map: dict[int, int]  # source entity -> target entity


def _event_pool(
    rng, n_entities: int, n_relations: int, size: int, skew: float
) -> np.ndarray:
    # Zipf-weighted endpoints over a shuffled popularity ranking, so the
    # degree distribution is heavy-headed like a real event graph.
    weights = 1.0 / (1.0 + np.arange(n_entities)) ** skew
    weights /= weights.sum()
    rank_of = rng.permutation(n_entities)
    subj = rank_of[rng.choice(n_entities, size=size, p=weights)]
    obj = rank_of[rng.choice(n_entities, size=size, p=weights)]
    rel = rng.integers(0, n_relations, size=size)
    clash = subj == obj
    while clash.any():
        obj[clash] = rank_of[rng.choice(n_entities, size=int(clash.sum()), p=weights)]
        clash = subj == obj
    return np.stack([subj, rel, obj], axis=1)


def _sample_pool_events(rng, pool, centers, halfwidth, steps, per_step):
    """Per step, draw events from the triples whose window covers that step;
    (subject, relation, object, time) rows, in step order."""
    picks = []
    for t in range(steps):
        eligible = np.flatnonzero(np.abs(centers - t) <= halfwidth)
        if eligible.size == 0:
            eligible = np.arange(len(pool))
        picks.append(eligible[rng.integers(0, eligible.size, size=per_step)])
    return np.column_stack([pool[np.concatenate(picks)],
                            np.repeat(np.arange(steps), per_step)])


def generate_synthetic_pair(cfg: GeneratorConfig, seed: int) -> SyntheticPair:
    """Build a (source, full target, incomplete target, alignments) benchmark."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    root = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in root.spawn(5)]
    rng_pool, rng_events, rng_map, rng_copy, rng_cover = rngs

    src_pool = _event_pool(
        rng_pool, cfg.source_entities, cfg.relations,
        max(1, int(cfg.pool_per_entity * cfg.source_entities)),
        cfg.popularity_skew,
    )
    tgt_pool = _event_pool(
        rng_pool, cfg.target_entities, cfg.relations,
        max(1, int(cfg.pool_per_entity * cfg.target_entities)),
        cfg.popularity_skew,
    )
    src_centers = rng_pool.integers(0, cfg.steps, size=len(src_pool))
    tgt_centers = rng_pool.integers(0, cfg.steps, size=len(tgt_pool))

    background = (
        cfg.target_background_per_step
        if cfg.target_background_per_step is not None
        else cfg.events_per_step
    )
    src = _sample_pool_events(
        rng_events, src_pool, src_centers, cfg.window_halfwidth, cfg.steps,
        cfg.events_per_step,
    )
    tgt = _sample_pool_events(
        rng_events, tgt_pool, tgt_centers, cfg.window_halfwidth, cfg.steps,
        background,
    )

    # Latent bijection over the smaller entity set; copies flow through it.
    n_map = min(cfg.source_entities, cfg.target_entities)
    src_side = rng_map.permutation(cfg.source_entities)[:n_map]
    tgt_side = rng_map.permutation(cfg.target_entities)[:n_map]
    latent = dict(zip(src_side.tolist(), tgt_side.tolist()))
    target_of = np.full(cfg.source_entities, -1)  # -1: outside the latent map
    target_of[src_side] = tgt_side
    # one copy draw per source event with both endpoints mapped, in event order
    copies = src[(target_of[src[:, 0]] >= 0) & (target_of[src[:, 2]] >= 0)]
    copies = copies[rng_copy.random(len(copies)) < cfg.copy_prob]
    copies[:, [0, 2]] = target_of[copies[:, [0, 2]]]
    tgt = np.concatenate([tgt, copies])

    relations = Vocabulary.integers(cfg.relations)
    source = TemporalKG(
        Vocabulary.integers(cfg.source_entities), relations, src, cfg.steps
    )
    target_full = TemporalKG(
        Vocabulary.integers(cfg.target_entities), relations, tgt, cfg.steps
    )

    # Exposed pairs favor prominent entities: coverage lands on the targets
    # with the most events, the way interlanguage links favor popular pages.
    n_exposed = _round_half_up(cfg.coverage * cfg.target_entities)
    n_exposed = min(n_exposed, n_map)
    degree = np.bincount(tgt[:, [0, 2]].ravel(), minlength=cfg.target_entities)
    jitter = rng_cover.random(n_map)
    mapped_degrees = degree[tgt_side]
    order = np.lexsort((jitter, -mapped_degrees))
    exposed_idx = order[:n_exposed]
    pairs = [
        AlignmentPair(int(src_side[i]), int(tgt_side[i]), GROUND_TRUTH, 1.0)
        for i in sorted(int(i) for i in exposed_idx)
    ]

    incomplete = subsample_events(
        target_full,
        cfg.target_ratio,
        seed=int(root.generate_state(1)[0]),
        before_step=cfg.train_steps,
    )
    return SyntheticPair(source, target_full, incomplete, AlignmentSet(pairs), latent)
