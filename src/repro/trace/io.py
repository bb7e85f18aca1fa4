"""Trace (de)serialisation.

Traces persist as ``.npz`` archives: the four columns plus the label
table.  This keeps multi-million-reference traces compact and fast to
reload (the paper notes cache simulation over raw traces is the
expensive path; caching traces on disk amortises collection).

The label table is stored as a fixed-width unicode array so archives
load with ``allow_pickle=False`` — no pickle deserialisation happens on
any trace read.  Archives written before schema 2 stored labels as an
object array; :func:`load_trace` still reads those (transparently
falling back to a pickled-label load for that one column), but new
archives are always pickle-free.
"""

from __future__ import annotations

import os

import numpy as np

from repro.trace.reference import ReferenceTrace

#: Version of the on-disk archive layout.  Bumped whenever the column
#: set or encoding changes incompatibly; the persistent trace cache
#: (:mod:`repro.trace.cache`) keys on it so stale artifacts are
#: re-collected instead of mis-read.
#:
#: * 1 — four columns + object-dtype (pickled) label table.
#: * 2 — label table as fixed-width unicode (``allow_pickle=False``).
TRACE_SCHEMA_VERSION = 2


def save_trace(trace: ReferenceTrace, path: str | os.PathLike) -> None:
    """Write a trace to ``path`` as a compressed ``.npz`` archive."""
    np.savez_compressed(
        path,
        schema_version=np.int64(TRACE_SCHEMA_VERSION),
        addresses=trace.addresses,
        sizes=trace.sizes,
        is_write=trace.is_write,
        label_ids=trace.label_ids,
        labels=np.asarray(trace.labels, dtype=np.str_),
    )


def _load_labels(path: str | os.PathLike, archive) -> list[str]:
    """Decode the label table, tolerating pre-schema-2 archives."""
    try:
        labels = archive["labels"]
    except ValueError:
        # Schema-1 archive: labels were saved as an object array and
        # need pickle.  Only that column is re-read with pickling
        # enabled; every numeric column still loads pickle-free.
        with np.load(path, allow_pickle=True) as legacy:
            labels = legacy["labels"]
    return [str(x) for x in labels]


def load_trace(path: str | os.PathLike) -> ReferenceTrace:
    """Read a trace previously written by :func:`save_trace`."""
    with np.load(path, allow_pickle=False) as archive:
        return ReferenceTrace(
            archive["addresses"],
            archive["sizes"],
            archive["is_write"],
            archive["label_ids"],
            _load_labels(path, archive),
        )
