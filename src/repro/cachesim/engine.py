"""Batched, array-backed set-associative LRU simulation engine.

The dict-based :class:`~repro.cachesim.cache.SetAssociativeCache` walks
one reference at a time (~1 µs each) — fine as a trusted oracle, too
slow as the substrate behind every verification run and trace-driven FI
campaign.  This engine replays the same expanded line-touch stream in
large numpy batches and produces **bit-identical** per-label statistics
(hits, misses, writebacks, residency integrals).

How the batching works
----------------------
Accesses to different cache sets never interact, and within one set the
LRU outcome depends only on that set's access subsequence.  Each
:meth:`ArrayLRUEngine.replay` call processes its whole input (one
batch of :data:`~repro.cachesim.expand.REPLAY_CHUNK_REFS` references,
expanded) in staged, vectorised passes:

1. **Per-set grouping** — a stable sort by set index turns the batch
   into per-set subsequences while preserving each set's access order.
2. **Run collapse** — consecutive touches of the same line within a
   set's subsequence are guaranteed hits after the first (nothing in
   that set can evict the line in between); they collapse into one
   *run*, counted with one ``bincount``.  Each run carries the OR of
   its write flags, the position of its first access (insert/evict
   step) and of its last access (its LRU age).
3. **Wave scheduling** — runs are ranked within their set; wave *k*
   holds every set's *k*-th run.  A wave touches any set at most once,
   so it is a handful of whole-array numpy operations on gathered
   state rows (tag compare for hits, LRU argmin for victims, scatter
   for fills) with no conflicts.

State lives in per-set arrays ``tags``/``age``/``dirty``/``label`` of
shape ``(num_sets, ways)``; empty ways hold the sentinel tag ``-1``
(real tags are non-negative); ``age`` is the global access
position of the line's last touch, so the LRU victim is the row-wise
argmin.  Ages are unique (each access has a distinct position), which
makes victim choice — and with it writeback attribution and residency
events — deterministic and identical to the OrderedDict oracle.

Wave efficiency scales with the number of sets: a 4096-set cache packs
thousands of runs per wave, a 64-set cache at most 64.  When a batch's
mean wave would hold fewer than :data:`ADAPTIVE_WAVE_CUTOFF` runs, the
engine instead materialises just the touched sets into ordered dicts,
replays the (already collapsed) runs sequentially, and scatters the
result back into the arrays — same outcome, chosen automatically on
throughput.

The engine implements the LRU policy only; FIFO/random ablations stay
on the reference path (:class:`CacheEngineError` enforces the switch).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.cachesim import expand
from repro.cachesim.configs import CacheGeometry
from repro.cachesim.stats import CacheStats

#: Recognised values for the ``engine=`` switch on
#: :class:`~repro.cachesim.simulator.CacheSimulator`.
ENGINES = ("auto", "array", "reference")

#: A batch switches from wave to scalar replay when its mean wave would
#: hold fewer runs than this (per-wave numpy dispatch overhead, ~tens of
#: µs, then exceeds the ~1 µs/run sequential cost).
ADAPTIVE_WAVE_CUTOFF = 128

#: Residency event kinds (see :meth:`ArrayLRUEngine.replay`).
EVENT_EVICT = 0
EVENT_INSERT = 1

_NO_AGE = np.iinfo(np.int64).max


def _label_counts(label_arr: np.ndarray, n_labels: int) -> np.ndarray:
    """Per-label occurrence counts (``bincount`` with fast paths).

    One- and two-label traces — the common case for the Table II
    kernels — count with ``count_nonzero`` instead of a ``bincount``,
    which is several times faster on large int32 inputs.
    """
    if n_labels == 1:
        return np.array([label_arr.size], dtype=np.int64)
    if n_labels == 2:
        ones = int(np.count_nonzero(label_arr))
        return np.array([label_arr.size - ones, ones], dtype=np.int64)
    return np.bincount(label_arr, minlength=n_labels)


class CacheEngineError(ValueError):
    """An unsupported simulation engine/policy combination was requested."""


def check_engine(engine: str, policy: str) -> str:
    """Resolve the ``engine=`` switch against the replacement policy.

    Returns the concrete engine (``"array"`` or ``"reference"``).
    ``"auto"`` picks the array engine for LRU and the reference cache
    for everything else; an *explicit* ``"array"`` request with a
    non-LRU policy raises :class:`CacheEngineError` instead of silently
    falling back.
    """
    if engine not in ENGINES:
        raise CacheEngineError(
            f"engine must be one of {ENGINES}, got {engine!r}"
        )
    if engine == "auto":
        return "array" if policy == "lru" else "reference"
    if engine == "array" and policy != "lru":
        raise CacheEngineError(
            f"the array engine implements the LRU policy only; "
            f"policy={policy!r} requires engine='reference' "
            f"(or engine='auto' to route it there)"
        )
    return engine


class ArrayLRUEngine:
    """Array-backed LRU cache state plus the batched replay kernel.

    One instance holds the warm cache state across :meth:`replay`
    calls, mirroring the oracle's behaviour for traces split across
    several :meth:`~repro.cachesim.simulator.CacheSimulator.run` calls.
    Labels are interned into a table owned by the engine so victim
    attribution survives across calls.
    """

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        num_sets = geometry.num_sets
        shape = (num_sets, geometry.associativity)
        # Invariants the wave kernel relies on: an empty way holds
        # tag == -1 (real tags are >= 0, so ``tags != -1`` *is* the
        # validity bit — no separate array, no validity mask on the
        # hit compare) and age == _NO_AGE (so the LRU argmin never
        # picks a resident way over an empty one on full-row checks).
        self._tags = np.full(shape, -1, dtype=np.int64)
        self._age = np.full(shape, _NO_AGE, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=bool)
        self._label = np.zeros(shape, dtype=np.int32)
        #: log2(num_sets) when it is a power of two, else None (the
        #: batch kernel then falls back to %/// for the set split).
        self._set_shift = (
            num_sets.bit_length() - 1
            if num_sets & (num_sets - 1) == 0
            else None
        )
        #: Global access clock: number of line touches replayed so far.
        self.clock = 0
        self._labels: list[str] = []
        self._label_ids: dict[str, int] = {}

    # ------------------------------------------------------------------
    # label interning
    # ------------------------------------------------------------------
    def intern(self, name: str) -> int:
        """Engine-global id for ``name``, allocating on first use."""
        lid = self._label_ids.get(name)
        if lid is None:
            lid = len(self._labels)
            self._label_ids[name] = lid
            self._labels.append(name)
        return lid

    def label_name(self, lid: int) -> str:
        """Label string for an engine-global label id."""
        return self._labels[lid]

    # ------------------------------------------------------------------
    # introspection (oracle-comparable)
    # ------------------------------------------------------------------
    def resident_lines(self) -> int:
        """Number of lines currently resident in the whole cache."""
        return int(np.count_nonzero(self._tags != -1))

    def resident_lines_for(self, label: str) -> int:
        """Number of resident lines owned by ``label``."""
        lid = self._label_ids.get(label)
        if lid is None:
            return 0
        return int(
            np.count_nonzero((self._tags != -1) & (self._label == lid))
        )

    def flush(self, stats: CacheStats) -> int:
        """Evict everything, charging writebacks for dirty lines."""
        dirty = self._dirty & (self._tags != -1)
        writebacks = int(np.count_nonzero(dirty))
        if writebacks:
            counts = np.bincount(
                self._label[dirty], minlength=len(self._labels)
            )
            for lid in np.flatnonzero(counts):
                stats.label(self._labels[lid]).writebacks += int(counts[lid])
        self._tags[:] = -1
        self._age[:] = _NO_AGE
        return writebacks

    # ------------------------------------------------------------------
    # batched replay
    # ------------------------------------------------------------------
    def replay(
        self,
        line_ids: np.ndarray,
        is_write: np.ndarray,
        label_ids: np.ndarray,
        labels: list[str],
        stats: CacheStats,
        collect_events: bool = False,
    ):
        """Replay expanded line touches, accumulating into ``stats``.

        Parameters mirror the output of
        :func:`~repro.cachesim.expand._expand_lines` plus the trace's
        label table; the whole input is one batch (callers bound it,
        see :func:`~repro.cachesim.expand.iter_expanded`).  When
        ``collect_events`` is true, returns ``(steps, kinds,
        label_ids)`` arrays describing every eviction and insertion in
        chronological order (``steps`` are 1-based global access steps;
        ``kinds`` are :data:`EVENT_EVICT` / :data:`EVENT_INSERT`;
        ``label_ids`` index the engine label table) so the caller can
        reproduce the oracle's residency integrals exactly.  Otherwise
        returns ``None``.
        """
        ids = [self.intern(name) for name in labels]
        if ids != list(range(len(ids))):
            label_ids = np.asarray(ids, dtype=np.int32)[label_ids]
        n_labels = len(self._labels)
        hits = np.zeros(n_labels, dtype=np.int64)
        misses = np.zeros(n_labels, dtype=np.int64)
        writebacks = np.zeros(n_labels, dtype=np.int64)
        events = None
        if len(line_ids):
            events = self._replay_chunk(
                line_ids,
                is_write,
                label_ids,
                hits,
                misses,
                writebacks,
                collect_events,
            )
            self.clock += len(line_ids)
        for lid in np.flatnonzero(hits | misses | writebacks):
            counters = stats.label(self._labels[lid])
            counters.hits += int(hits[lid])
            counters.misses += int(misses[lid])
            counters.writebacks += int(writebacks[lid])
        if collect_events and events is None:
            return _merge_events([], [], [], [])
        return events

    # -- batch kernel ----------------------------------------------------
    def _replay_chunk(
        self,
        line_ids: np.ndarray,
        is_write: np.ndarray,
        engine_labels: np.ndarray,
        hits: np.ndarray,
        misses: np.ndarray,
        writebacks: np.ndarray,
        collect_events: bool,
    ):
        n_labels = hits.size
        base = self.clock
        # Stage 1: per-set grouping (stable sort keeps each set's
        # order).  Only the line ids and write flags are gathered into
        # sorted order; every other run column is gathered once at the
        # end through a composed touch index.
        num_sets = self.geometry.num_sets
        if self._set_shift is not None:
            set_idx = line_ids & (num_sets - 1)
        else:
            set_idx = line_ids % num_sets
        # A 16-bit sort key switches numpy's stable sort to radix,
        # several times faster than the int64 merge sort here.
        if num_sets <= 1 << 16:
            order = np.argsort(set_idx.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(set_idx, kind="stable")
        line_s = line_ids.take(order)
        w_s = is_write.take(order)
        # Stage 2: collapse same-line touches adjacent within a set.
        # Equal lines never sit in different sets, so adjacency is a
        # single line-id compare.
        n = line_s.size
        new_run = np.empty(n, dtype=bool)
        new_run[0] = True
        if n > 1:
            np.not_equal(line_s[1:], line_s[:-1], out=new_run[1:])
        starts = np.flatnonzero(new_run)
        n_runs = starts.size
        if n_runs != n:
            # Every collapsed touch is a guaranteed hit, charged to its
            # own label (a run may mix labels).
            dup_idx = order.take(np.flatnonzero(~new_run))
            hits += _label_counts(engine_labels.take(dup_idx), n_labels)
            run_write = np.logical_or.reduceat(w_s, starts)
        else:
            run_write = w_s
        ends = np.empty_like(starts)
        ends[:-1] = starts[1:] - 1
        ends[-1] = n - 1
        run_line = line_s.take(starts)
        if self._set_shift is not None:
            run_set = run_line & (num_sets - 1)
        else:
            run_set = run_line % num_sets
        # Stage 3: group runs by set; wave k = every set's k-th run.
        group_start = np.empty(n_runs, dtype=bool)
        group_start[0] = True
        if n_runs > 1:
            np.not_equal(run_set[1:], run_set[:-1], out=group_start[1:])
        group_first = np.flatnonzero(group_start)
        group_sizes = np.diff(group_first, append=n_runs)
        n_waves = int(group_sizes.max())
        if n_runs < n_waves * ADAPTIVE_WAVE_CUTOFF:
            # Set-sorted order is already per-set chronological, which
            # is all the sequential replay needs.
            comp = order.take(starts)
            runs = (
                run_set,
                self._run_tags(run_line),
                engine_labels.take(comp),
                run_write,
                comp + base,
                order.take(ends) + base,
            )
            return self._replay_runs_scalar(
                runs, hits, misses, writebacks, collect_events
            )
        # wave_sizes[k] = number of sets with more than k runs.
        n_groups = group_first.size
        size_hist = np.bincount(group_sizes, minlength=n_waves + 1)
        wave_sizes = n_groups - np.cumsum(size_hist)[:n_waves]
        # Wave-major order without a second sort: wave k holds
        # group_first + k for every group with more than k runs, in
        # ascending set order — exactly what the stable rank sort
        # used to produce.  The dense (n_waves, n_groups) mask is only
        # worth it when groups are reasonably balanced; skewed batches
        # (mask much larger than n_runs) fall back to a radix sort of
        # the explicit ranks.
        if n_waves * n_groups <= 4 * n_runs:
            offsets = group_first[None, :] + np.arange(n_waves)[:, None]
            in_wave = (
                np.arange(n_waves)[:, None] < group_sizes[None, :]
            )
            wave_order = offsets[in_wave]
        else:
            rank = np.arange(n_runs, dtype=np.int64)
            rank -= np.repeat(group_first, group_sizes)
            if n_waves <= 1 << 16:
                wave_order = np.argsort(
                    rank.astype(np.uint16), kind="stable"
                )
            else:
                wave_order = np.argsort(rank, kind="stable")
        run_line_w = run_line.take(wave_order)
        comp = order.take(starts.take(wave_order))
        comp_end = order.take(ends.take(wave_order))
        runs = (
            run_set.take(wave_order),
            self._run_tags(run_line_w),
            engine_labels.take(comp),
            run_write.take(wave_order),
            comp + base,
            comp_end + base,
        )
        return self._replay_runs_waves(
            runs, wave_sizes, hits, misses, writebacks, collect_events
        )

    def _run_tags(self, run_line: np.ndarray) -> np.ndarray:
        """Cache tags for an array of line ids."""
        if self._set_shift is not None:
            return run_line >> self._set_shift
        return run_line // self.geometry.num_sets

    def _replay_runs_waves(
        self,
        runs,
        wave_sizes: np.ndarray,
        hits: np.ndarray,
        misses: np.ndarray,
        writebacks: np.ndarray,
        collect_events: bool,
    ):
        """Vectorised replay: one access per set per wave.

        ``runs`` columns arrive in wave-major order; wave ``k``
        occupies the ``wave_sizes[k]`` rows after wave ``k - 1``.
        """
        n_labels = hits.size
        run_set, run_tag, run_label, run_write, run_first, run_last = runs
        ways = self.geometry.associativity
        tags_a = self._tags
        age_a = self._age
        # Flat views: scatters go through precomputed flat offsets
        # (set * ways + way), cheaper than dual fancy indexing.
        tags_f = tags_a.reshape(-1)
        age_f = age_a.reshape(-1)
        dirty_f = self._dirty.reshape(-1)
        label_f = self._label.reshape(-1)
        hit_labels: list[np.ndarray] = []
        miss_labels: list[np.ndarray] = []
        wb_labels: list[np.ndarray] = []
        evict_steps: list[np.ndarray] = []
        evict_labels: list[np.ndarray] = []
        insert_steps: list[np.ndarray] = []
        insert_labels: list[np.ndarray] = []
        row_off = np.arange(int(wave_sizes.max())) * ways
        num_sets = self.geometry.num_sets
        lo = 0
        for size in wave_sizes.tolist():
            hi = lo + size
            ws = run_set[lo:hi]
            wt = run_tag[lo:hi]
            wl = run_label[lo:hi]
            ww = run_write[lo:hi]
            wfirst = run_first[lo:hi]
            wlast = run_last[lo:hi]
            lo = hi
            if size == num_sets:
                # Full wave: runs stay set-sorted through the stable
                # rank sort, so a wave touching every set is the
                # identity permutation — compare against the state
                # arrays directly, no gather, sequential access.
                rows = tags_a
                base = row_off[:size]
            else:
                rows = tags_a[ws]
                base = ws * ways
            eq = rows == wt[:, None]
            # argmax + gather instead of any(): one scan over eq, not
            # two (way is only meaningful where hit is True).
            way = eq.argmax(axis=1)
            hit = eq.reshape(-1).take(row_off[:size] + way)
            if hit.all():
                flat = base + way
                age_f[flat] = wlast
                if ww.any():
                    # A write hit marks the line dirty; read hits
                    # leave the bit alone — no |= over the full wave.
                    dirty_f[flat.compress(ww)] = True
                hit_labels.append(wl)
                continue
            if hit.any():
                hidx = np.flatnonzero(hit)
                hflat = base.take(hidx) + way.take(hidx)
                age_f[hflat] = wlast.take(hidx)
                hw = ww.take(hidx)
                if hw.any():
                    dirty_f[hflat.compress(hw)] = True
                hit_labels.append(wl.take(hidx))
                midx = np.flatnonzero(~hit)
                ws = ws.take(midx)
                wt = wt.take(midx)
                wl = wl.take(midx)
                ww = ww.take(midx)
                wfirst = wfirst.take(midx)
                wlast = wlast.take(midx)
                rows = rows.take(midx, axis=0)
                base = base.take(midx)
            miss_labels.append(wl)
            # An empty way (tag == -1) fills first; any empty slot is
            # equivalent (way position never affects behaviour).  Full
            # rows evict the LRU way: the age argmin over resident
            # ways (_NO_AGE keeps empty ways out of contention).
            empty = rows == -1
            way = empty.argmax(axis=1)
            full = ~empty.reshape(-1).take(row_off[: ws.size] + way)
            if full.any():
                fidx = np.flatnonzero(full)
                es = ws.take(fidx)
                ew = age_a[es].argmin(axis=1)
                way[fidx] = ew
                vflat = es * ways + ew
                victim_label = label_f.take(vflat)
                victim_dirty = dirty_f.take(vflat)
                if victim_dirty.any():
                    wb_labels.append(victim_label.compress(victim_dirty))
                if collect_events:
                    evict_steps.append(wfirst.take(fidx) + 1)
                    evict_labels.append(victim_label)
            if collect_events:
                insert_steps.append(wfirst + 1)
                insert_labels.append(wl.copy())
            flat = base + way
            tags_f[flat] = wt
            dirty_f[flat] = ww
            label_f[flat] = wl
            age_f[flat] = wlast
        for bucket, counters in (
            (hit_labels, hits),
            (miss_labels, misses),
            (wb_labels, writebacks),
        ):
            if bucket:
                counters += _label_counts(
                    np.concatenate(bucket), n_labels
                )
        if not collect_events:
            return None
        return _merge_events(
            evict_steps, evict_labels, insert_steps, insert_labels
        )

    def _replay_runs_scalar(
        self,
        runs,
        hits: np.ndarray,
        misses: np.ndarray,
        writebacks: np.ndarray,
        collect_events: bool,
    ):
        """Sequential replay of collapsed runs for wave-hostile batches.

        Only the sets this batch touches are materialised from the
        state arrays into ordered dicts (LRU order = ascending age),
        replayed with dict operations like the oracle — but over the
        collapsed runs, not raw touches — and scattered back.
        """
        run_set, run_tag, run_label, run_write, run_first, run_last = runs
        touched = np.unique(run_set)
        ways = self.geometry.associativity
        # Materialise touched sets, LRU-first (ascending last-use age;
        # empty ways hold _NO_AGE so they sort last and are skipped).
        age_order = np.argsort(self._age[touched], axis=1, kind="stable")
        sets: dict[int, OrderedDict] = {}
        rows_valid = self._tags[touched] != -1
        tags_l = self._tags[touched].tolist()
        dirty_l = self._dirty[touched].tolist()
        label_l = self._label[touched].tolist()
        age_l = self._age[touched].tolist()
        valid_l = rows_valid.tolist()
        for i, set_id in enumerate(touched.tolist()):
            entries = OrderedDict()
            for way in age_order[i].tolist():
                if valid_l[i][way]:
                    entries[tags_l[i][way]] = [
                        dirty_l[i][way], label_l[i][way], age_l[i][way]
                    ]
            sets[set_id] = entries
        n_labels = hits.size
        hits_c = [0] * n_labels
        misses_c = [0] * n_labels
        wb_c = [0] * n_labels
        ev_steps: list[int] = []
        ev_labels: list[int] = []
        in_steps: list[int] = []
        in_labels: list[int] = []
        for set_id, tag, lid, write, pos_first, pos_last in zip(
            run_set.tolist(),
            run_tag.tolist(),
            run_label.tolist(),
            run_write.tolist(),
            run_first.tolist(),
            run_last.tolist(),
        ):
            entries = sets[set_id]
            line = entries.get(tag)
            if line is not None:
                hits_c[lid] += 1
                entries.move_to_end(tag)
                if write:
                    line[0] = True
                line[2] = pos_last
                continue
            misses_c[lid] += 1
            if len(entries) >= ways:
                _, victim = entries.popitem(last=False)
                if victim[0]:
                    wb_c[victim[1]] += 1
                if collect_events:
                    ev_steps.append(pos_first + 1)
                    ev_labels.append(victim[1])
            entries[tag] = [write, lid, pos_last]
            if collect_events:
                in_steps.append(pos_first + 1)
                in_labels.append(lid)
        for counters, acc in (
            (hits_c, hits), (misses_c, misses), (wb_c, writebacks)
        ):
            for lid, count in enumerate(counters):
                if count:
                    acc[lid] += count
        # Scatter the touched sets back (way slots are interchangeable:
        # lookups scan every way and the victim is the age argmin).
        n_touched = len(touched)
        out_tags = np.full((n_touched, ways), -1, dtype=np.int64)
        out_dirty = np.zeros((n_touched, ways), dtype=bool)
        out_label = np.zeros((n_touched, ways), dtype=np.int32)
        out_age = np.full((n_touched, ways), _NO_AGE, dtype=np.int64)
        for i, set_id in enumerate(touched.tolist()):
            for way, (tag, line) in enumerate(sets[set_id].items()):
                out_tags[i, way] = tag
                out_dirty[i, way] = line[0]
                out_label[i, way] = line[1]
                out_age[i, way] = line[2]
        self._tags[touched] = out_tags
        self._dirty[touched] = out_dirty
        self._label[touched] = out_label
        self._age[touched] = out_age
        if not collect_events:
            return None
        return _merge_events(
            [np.asarray(ev_steps, dtype=np.int64)],
            [np.asarray(ev_labels, dtype=np.int32)],
            [np.asarray(in_steps, dtype=np.int64)],
            [np.asarray(in_labels, dtype=np.int32)],
        )


def lru_miss_count(line_ids: np.ndarray, geometry: CacheGeometry) -> int:
    """Misses of a cold LRU cache of ``geometry`` over a line-id stream.

    Read-only touches under one label, replayed through an
    :class:`ArrayLRUEngine` in batches of
    :data:`~repro.cachesim.expand.REPLAY_CHUNK_REFS`; line ids must be
    non-negative.
    """
    ids = np.asarray(line_ids, dtype=np.int64)
    engine = ArrayLRUEngine(geometry)
    stats = CacheStats()
    step = expand.REPLAY_CHUNK_REFS
    reads = np.zeros(min(ids.size, step), dtype=bool)
    labels = np.zeros(reads.size, dtype=np.int32)
    for start in range(0, ids.size, step):
        batch = ids[start : start + step]
        engine.replay(
            batch, reads[: batch.size], labels[: batch.size], ["lines"], stats
        )
    return stats.misses("lines")


def _merge_events(
    evict_steps: list[np.ndarray],
    evict_labels: list[np.ndarray],
    insert_steps: list[np.ndarray],
    insert_labels: list[np.ndarray],
):
    """Chronologically merge eviction/insertion events of one batch.

    An eviction precedes the insertion that caused it (same step),
    matching the oracle's settle order.
    """
    ev_steps = (
        np.concatenate(evict_steps)
        if evict_steps
        else np.empty(0, dtype=np.int64)
    )
    ev_labels = (
        np.concatenate(evict_labels)
        if evict_labels
        else np.empty(0, dtype=np.int32)
    )
    in_steps = (
        np.concatenate(insert_steps)
        if insert_steps
        else np.empty(0, dtype=np.int64)
    )
    in_labels = (
        np.concatenate(insert_labels)
        if insert_labels
        else np.empty(0, dtype=np.int32)
    )
    steps = np.concatenate([ev_steps, in_steps])
    kinds = np.concatenate(
        [
            np.full(ev_steps.size, EVENT_EVICT, dtype=np.int8),
            np.full(in_steps.size, EVENT_INSERT, dtype=np.int8),
        ]
    )
    labels = np.concatenate([ev_labels, in_labels]).astype(
        np.int32, copy=False
    )
    merge = np.argsort(steps * 2 + kinds, kind="stable")
    return steps[merge], kinds[merge], labels[merge]
