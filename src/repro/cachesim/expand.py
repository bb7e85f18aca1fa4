"""Expansion of byte-reference traces into per-line touch streams.

The cache engines consume *expanded* streams: one entry per cache line
an access touches (an access spanning k lines contributes k consecutive
entries).  This module owns that expansion:

* :data:`REPLAY_CHUNK_REFS` and :func:`iter_expanded` — the one
  batching policy of exact and estimated replay: every trace or chunk
  is cut into batches of at most ``REPLAY_CHUNK_REFS`` references and
  each batch is expanded on its own;
* :func:`_expand_lines` — full expansion of a trace (the array engine's
  input format);
* :func:`expanded_size` — the expanded length *without* materialising
  the stream (a cheap touch count for reporting);
* :func:`set_index` — the cache set of each line, shared with the
  set-sampling estimator.

Everything here is pure numpy over the trace columns.
"""

from __future__ import annotations

import numpy as np

from repro.trace.reference import ReferenceTrace

#: References per replay batch.  Expansion is per-reference elementwise
#: and the engines keep their state across batches, so the value never
#: changes a result, only speed and peak memory: a sweep of 16Ki, 64Ki,
#: 256Ki and 1Mi over the Figure 4 cells and a 4Mi-reference stream
#: found 64Ki fastest (EXPERIMENTS.md, "One replay path").
REPLAY_CHUNK_REFS = 1 << 16


def set_index(line_ids: np.ndarray, num_sets: int) -> np.ndarray:
    """Cache-set index of each line (pow2 mask fast path)."""
    if num_sets & (num_sets - 1) == 0:
        return line_ids & (num_sets - 1)
    return line_ids % num_sets


def _line_spans(
    addresses: np.ndarray, sizes: np.ndarray, line_size: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """First line id and per-access span for each reference.

    Returns ``(first, spans)``; ``spans`` is ``None`` when no access
    straddles a line boundary (the overwhelmingly common case, detected
    without a second division on pow2 line sizes).
    """
    line_size = int(line_size)
    if line_size & (line_size - 1) == 0:
        # Power-of-two line size: shifts beat int64 division ~10x, and
        # the straddle test needs no second division at all.
        shift = line_size.bit_length() - 1
        first = addresses >> shift
        within = addresses & (line_size - 1)
        within = within + sizes
        if int(within.max()) <= line_size:
            return first, None
        last = (addresses + sizes - 1) >> shift
    else:
        first = addresses // line_size
        last = (addresses + sizes - 1) // line_size
    spans = last - first
    spans += 1
    if int(spans.max()) == 1:
        return first, None
    return first, spans


def expanded_size(trace, line_size: int) -> int:
    """Expanded line-touch count of ``trace`` without materialising it.

    Exactly ``len(_expand_lines(trace, line_size)[0])``, at the cost of
    the span arithmetic only.
    """
    n = len(trace.addresses)
    if n == 0:
        return 0
    _, spans = _line_spans(trace.addresses, trace.sizes, line_size)
    if spans is None:
        return n
    return int(spans.sum())


def _expand_lines(
    trace, line_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand byte accesses into per-line touches.

    Returns ``(line_ids, is_write, label_ids)``, with accesses spanning
    k lines contributing k consecutive entries.
    """
    if len(trace.addresses) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=bool), np.empty(0, dtype=np.int32)
    first, spans = _line_spans(trace.addresses, trace.sizes, line_size)
    if spans is None:
        return first, trace.is_write, trace.label_ids
    max_span = int(spans.max())
    if max_span == 2:
        # Common case: only two-line straddles.  Scatter each access to
        # slot i + (#straddles before i); straddles fill the next slot
        # too — cheaper than the generic np.repeat construction.
        straddle = spans == 2
        total = len(spans) + int(np.count_nonzero(straddle))
        slots = np.cumsum(spans) - spans
        line_ids = np.empty(total, dtype=np.int64)
        is_write = np.empty(total, dtype=bool)
        label_ids = np.empty(total, dtype=np.int32)
        line_ids[slots] = first
        is_write[slots] = trace.is_write
        label_ids[slots] = trace.label_ids
        extra = slots[straddle] + 1
        line_ids[extra] = first[straddle] + 1
        is_write[extra] = trace.is_write[straddle]
        label_ids[extra] = trace.label_ids[straddle]
        return line_ids, is_write, label_ids
    total = int(spans.sum())
    # Offsets of each access's first entry in the expanded arrays.
    starts = np.zeros(len(spans), dtype=np.int64)
    np.cumsum(spans[:-1], out=starts[1:])
    line_ids = np.repeat(first, spans)
    # Within-access line offsets: position - start_of_own_access.
    positions = np.arange(total, dtype=np.int64)
    line_ids += positions - np.repeat(starts, spans)
    return line_ids, np.repeat(trace.is_write, spans), np.repeat(
        trace.label_ids, spans
    )


def iter_expanded(source, line_size: int):
    """Yield ``(batch, line_ids, is_write, label_ids)`` replay batches.

    ``source`` is a :class:`ReferenceTrace` or an iterable of them (a
    chunk stream).  Each trace is cut into zero-copy batches of at most
    :data:`REPLAY_CHUNK_REFS` references, so expansion memory is
    bounded however large the trace is.  An empty trace still yields
    one empty batch, so its label table is seen.
    """
    if isinstance(source, ReferenceTrace):
        source = (source,)
    for trace in source:
        n = len(trace)
        for start in range(0, max(n, 1), REPLAY_CHUNK_REFS):
            batch = trace.slice_refs(start, min(start + REPLAY_CHUNK_REFS, n))
            yield (batch, *_expand_lines(batch, line_size))
