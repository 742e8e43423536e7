"""Temporal knowledge graph data model, file I/O, splitting, and synthesis.

A graph is a multiset of (subject, relation, object, time) quadruples over
discrete time steps, plus a per-entity chronological adjacency index that
serves temporal-neighbor lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Sequence

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
        self._symbols: list[str] = []
        self._index: dict[str, int] = {}
        for s in symbols:
            self.add(s)
        self.frozen = frozen

    def add(self, symbol: str) -> int:
        idx = self._index.get(symbol)
        if idx is not None:
            return idx
        if getattr(self, "frozen", False):
            raise KeyError(f"unknown symbol {symbol!r} (vocabulary is frozen)")
        idx = len(self._symbols)
        self._symbols.append(symbol)
        self._index[symbol] = idx
        return idx

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def symbol(self, idx: int) -> str:
        return self._symbols[idx]

    def __len__(self) -> int:
        return len(self._symbols)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def symbols(self) -> list[str]:
        return list(self._symbols)

    @classmethod
    def integers(cls, n: int, frozen: bool = True) -> "Vocabulary":
        return cls((str(i) for i in range(n)), frozen=frozen)


class TemporalKG:
    """Immutable temporal KG with a sorted adjacency index.

    The adjacency holds each quadruple twice: once under the subject (with
    the object as neighbor) and once under the object (with the subject as
    neighbor). Entries are sorted by (time, neighbor, relation), which fixes
    a deterministic total order for neighbor sampling.
    """

    def __init__(
        self,
        entities: Vocabulary,
        relations: Vocabulary,
        quadruples: Sequence[Quadruple],
        horizon: int,
    ):
        for q in quadruples:
            if not (0 <= q.subject < len(entities) and 0 <= q.object < len(entities)):
                raise ValueError(f"entity id out of vocabulary in {q}")
            if not 0 <= q.relation < len(relations):
                raise ValueError(f"relation id out of vocabulary in {q}")
            if not 0 <= q.time < horizon:
                raise ValueError(f"time {q.time} outside horizon {horizon} in {q}")
        self.entities = entities
        self.relations = relations
        self.quadruples = tuple(quadruples)
        self.horizon = horizon
        self._adjacency = self._build_adjacency()
        self._windows: dict[int, tuple] = {}

    def _build_adjacency(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        raw: dict[int, list[tuple[int, int, int]]] = {}
        for q in self.quadruples:
            raw.setdefault(q.subject, []).append((q.time, q.object, q.relation))
            raw.setdefault(q.object, []).append((q.time, q.subject, q.relation))
        adjacency = {}
        for e, entries in raw.items():
            entries.sort()
            arr = np.asarray(entries, dtype=np.int64).reshape(-1, 3)
            adjacency[e] = (arr[:, 0].copy(), arr[:, 1].copy(), arr[:, 2].copy())
        return adjacency

    def adjacency(self, e: int) -> list[tuple[int, int, int]]:
        """Adjacency entries of ``e`` as (neighbor, relation, time) tuples."""
        if e not in self._adjacency:
            return []
        times, nbrs, rels = self._adjacency[e]
        return [(int(n), int(r), int(t)) for t, n, r in zip(times, nbrs, rels)]

    def adjacency_entry_count(self) -> int:
        return sum(t.size for t, _, _ in self._adjacency.values())

    def temporal_neighbors(self, e: int, t: int, b: int) -> list[tuple[int, int, int]]:
        """Up to ``b`` most recent (neighbor, relation, time) entries before ``t``.

        Strictly earlier than ``t``; the most recent ``b`` under the adjacency
        total order. Returned in ascending order.
        """
        if not 0 <= e < len(self.entities):
            raise KeyError(f"unknown entity id {e}")
        if e not in self._adjacency:
            return []
        times, nbrs, rels = self._adjacency[e]
        hi = int(np.searchsorted(times, t, side="left"))
        lo = max(0, hi - b)
        return [
            (int(nbrs[i]), int(rels[i]), int(times[i])) for i in range(lo, hi)
        ]

    # above this many table cells, fall back to per-row lookups
    _WINDOW_TABLE_LIMIT = 50_000_000

    def _window_table(self, b: int):
        """Lazy (n_entities, horizon+1, b) tables of the b latest adjacency
        entries strictly before each time step; shared by every lookup."""
        cached = self._windows.get(b)
        if cached is not None:
            return cached
        n = len(self.entities)
        t_axis = np.arange(self.horizon + 1, dtype=np.int64)
        shape = (n, self.horizon + 1, b)
        nbr = np.zeros(shape, dtype=np.int64)
        rel = np.zeros(shape, dtype=np.int64)
        tim = np.zeros(shape, dtype=np.int64)
        mask = np.zeros(shape, dtype=bool)
        offs = np.arange(b, dtype=np.int64)
        for e, (times, nbrs, rels) in self._adjacency.items():
            hi = np.searchsorted(times, t_axis, side="left")
            lo = np.maximum(0, hi - b)
            idx = lo[:, None] + offs[None, :]
            valid = idx < hi[:, None]
            idx = np.minimum(idx, len(times) - 1)
            nbr[e] = np.where(valid, nbrs[idx], 0)
            rel[e] = np.where(valid, rels[idx], 0)
            tim[e] = np.where(valid, times[idx], 0)
            mask[e] = valid
        self._windows[b] = (nbr, rel, tim, mask)
        return self._windows[b]

    def neighbor_arrays(
        self, ids: np.ndarray, t, b: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Padded (nbr, rel, time, mask) arrays of shape (len(ids), b).

        ``t`` is one time for every row or one time per row of ``ids``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        t = np.broadcast_to(np.asarray(t, dtype=np.int64), ids.shape)
        cells = len(self.entities) * (self.horizon + 1) * b
        if cells <= self._WINDOW_TABLE_LIMIT:
            nbr, rel, tim, mask = self._window_table(b)
            # no entry lies before a time below 0; index -1 would wrap
            t = np.clip(t, 0, self.horizon)
            return nbr[ids, t], rel[ids, t], tim[ids, t], mask[ids, t]
        n = len(ids)
        nbr = np.zeros((n, b), dtype=np.int64)
        rel = np.zeros((n, b), dtype=np.int64)
        tim = np.zeros((n, b), dtype=np.int64)
        mask = np.zeros((n, b), dtype=bool)
        for row, (e, t_row) in enumerate(zip(ids.tolist(), t.tolist())):
            entry = self._adjacency.get(e)
            if entry is None:
                continue
            times, nbrs, rels = entry
            hi = int(np.searchsorted(times, t_row, side="left"))
            lo = max(0, hi - b)
            k = hi - lo
            if k:
                nbr[row, :k] = nbrs[lo:hi]
                rel[row, :k] = rels[lo:hi]
                tim[row, :k] = times[lo:hi]
                mask[row, :k] = True
        return nbr, rel, tim, mask

    def with_quadruples(self, quadruples: Sequence[Quadruple]) -> "TemporalKG":
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
# subject/relation/object/time; '#' lines are comments.
# ---------------------------------------------------------------------------


def _parse_fields(line: str, n: int, path: str, lineno: int) -> list[str]:
    fields = line.rstrip("\n").split("\t")
    if len(fields) != n:
        raise ValueError(
            f"{path}:{lineno}: expected {n} tab-separated fields, got {len(fields)}"
        )
    return fields


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
    strict: bool = False,
) -> TemporalKG:
    """Parse a quadruple TSV into a TemporalKG.

    Without vocabularies, symbols are collected in file order. In strict mode
    the given vocabularies are treated as frozen and unknown symbols raise.
    """
    entities = entity_vocab if entity_vocab is not None else Vocabulary()
    relations = relation_vocab if relation_vocab is not None else Vocabulary()
    lookup = (lambda v, s: v.index(s)) if strict else (lambda v, s: v.add(s))
    quads: list[Quadruple] = []
    max_t = -1
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            s, r, o, t = _parse_fields(line, 4, path, lineno)
            try:
                quads.append(
                    Quadruple(
                        lookup(entities, s),
                        lookup(relations, r),
                        lookup(entities, o),
                        _parse_time(t, path, lineno),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
            max_t = max(max_t, quads[-1].time)
    if horizon is None:
        horizon = max_t + 1 if max_t >= 0 else 0
    return TemporalKG(entities, relations, quads, horizon)


def dump_quadruples(kg: TemporalKG, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for q in kg.quadruples:
            fh.write(
                f"{kg.entities.symbol(q.subject)}\t{kg.relations.symbol(q.relation)}\t"
                f"{kg.entities.symbol(q.object)}\t{q.time}\n"
            )


def expand_intervals(
    events: Sequence[tuple[int, int, int, int, int]]
) -> list[Quadruple]:
    """Unroll (subject, relation, object, t_start, t_end) into one quadruple per step."""
    out: list[Quadruple] = []
    for s, r, o, t_start, t_end in events:
        if t_start > t_end:
            raise ValueError(f"interval start {t_start} after end {t_end}")
        out.extend(Quadruple(s, r, o, t) for t in range(t_start, t_end + 1))
    return out


def load_intervals(
    path,
    entity_vocab: Vocabulary | None = None,
    relation_vocab: Vocabulary | None = None,
    strict: bool = False,
) -> TemporalKG:
    """Parse a 5-field interval TSV, expanding each event to per-step quadruples."""
    entities = entity_vocab if entity_vocab is not None else Vocabulary()
    relations = relation_vocab if relation_vocab is not None else Vocabulary()
    lookup = (lambda v, s: v.index(s)) if strict else (lambda v, s: v.add(s))
    events: list[tuple[int, int, int, int, int]] = []
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#") or not line.strip():
                continue
            s, r, o, ts, te = _parse_fields(line, 5, path, lineno)
            t_start = _parse_time(ts, path, lineno)
            t_end = _parse_time(te, path, lineno)
            if t_start > t_end:
                raise ValueError(f"{path}:{lineno}: interval start after end")
            events.append(
                (lookup(entities, s), lookup(relations, r), lookup(entities, o), t_start, t_end)
            )
    quads = expand_intervals(events)
    horizon = max((q.time for q in quads), default=-1) + 1
    return TemporalKG(entities, relations, quads, horizon)


def load_alignments(
    path,
    source_vocab: Vocabulary,
    target_vocab: Vocabulary,
    extend: bool = False,
) -> AlignmentSet:
    """Parse ``source<TAB>target[<TAB>confidence]`` lines; confidence defaults to 1.

    With ``extend``, entities unseen in the event files are added to the
    vocabularies (an aligned entity may have no recorded events yet).
    """
    pairs: list[AlignmentPair] = []
    path = str(path)
    was_frozen = (source_vocab.frozen, target_vocab.frozen)
    if extend:
        source_vocab.frozen = target_vocab.frozen = False
    lookup = (lambda v, s: v.add(s)) if extend else (lambda v, s: v.index(s))
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
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
                            lookup(source_vocab, fields[0]),
                            lookup(target_vocab, fields[1]),
                            GROUND_TRUTH,
                            conf,
                        )
                    )
                except KeyError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
    finally:
        source_vocab.frozen, target_vocab.frozen = was_frozen
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
    train = [q for q in kg.quadruples if q.time < spec.train_steps]
    val = [q for q in kg.quadruples if spec.train_steps <= q.time < val_end]
    test = [q for q in kg.quadruples if q.time >= val_end]
    return kg.with_quadruples(train), kg.with_quadruples(val), kg.with_quadruples(test)


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
    draws = rng.random(len(kg.quadruples))
    kept = [
        q
        for q, u in zip(kg.quadruples, draws)
        if u < ratio or (before_step is not None and q.time >= before_step)
    ]
    return kg.with_quadruples(kept)


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

    def __iter__(self):
        return iter(
            (self.source, self.target_full, self.target_incomplete, self.alignments)
        )


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
    """Per step, draw events from the triples whose window covers that step."""
    quads: list[Quadruple] = []
    for t in range(steps):
        eligible = np.flatnonzero(np.abs(centers - t) <= halfwidth)
        if eligible.size == 0:
            eligible = np.arange(len(pool))
        picks = eligible[rng.integers(0, eligible.size, size=per_step)]
        quads.extend(Quadruple(int(s), int(r), int(o), t) for s, r, o in pool[picks])
    return quads


def generate_synthetic_pair(cfg: GeneratorConfig, seed: int) -> SyntheticPair:
    """Build a (source, full target, incomplete target, alignments) benchmark."""
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
    src_quads = _sample_pool_events(
        rng_events, src_pool, src_centers, cfg.window_halfwidth, cfg.steps,
        cfg.events_per_step,
    )
    tgt_quads = _sample_pool_events(
        rng_events, tgt_pool, tgt_centers, cfg.window_halfwidth, cfg.steps,
        background,
    )

    # Latent bijection over the smaller entity set; copies flow through it.
    n_map = min(cfg.source_entities, cfg.target_entities)
    src_side = rng_map.permutation(cfg.source_entities)[:n_map]
    tgt_side = rng_map.permutation(cfg.target_entities)[:n_map]
    latent = {int(s): int(t) for s, t in zip(src_side, tgt_side)}
    for q in src_quads:
        if q.subject in latent and q.object in latent:
            if rng_copy.random() < cfg.copy_prob:
                tgt_quads.append(
                    Quadruple(latent[q.subject], q.relation, latent[q.object], q.time)
                )

    relations = Vocabulary.integers(cfg.relations)
    source = TemporalKG(
        Vocabulary.integers(cfg.source_entities), relations, src_quads, cfg.steps
    )
    target_full = TemporalKG(
        Vocabulary.integers(cfg.target_entities), relations, tgt_quads, cfg.steps
    )

    # Exposed pairs favor prominent entities: coverage lands on the targets
    # with the most events, the way interlanguage links favor popular pages.
    n_exposed = _round_half_up(cfg.coverage * cfg.target_entities)
    n_exposed = min(n_exposed, n_map)
    degree = np.zeros(cfg.target_entities, dtype=np.int64)
    for q in tgt_quads:
        degree[q.subject] += 1
        degree[q.object] += 1
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
