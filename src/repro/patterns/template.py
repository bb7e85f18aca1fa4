"""Template-based access pattern (§III-C, "Template-Based Access Pattern").

Some structures are accessed in a complex but fully determined order —
stencil sweeps, FFT butterflies.  The user supplies the order as a
*template*: a sequence of element references, optionally generated by a
sweep rule (start group, per-iteration step, end group), exactly like the
paper's Multi-grid example::

    {(R(2,1,1), R(2,3,1), R(1,2,1), R(2,2,1)) : 1 :
     (R(n3-1,n2-2,n1), R(n3-1,n2,n1), R(n3-2,n2-1,n1), R(n3,n2-1,n1))}

The estimator converts element references to cache-block references and
applies the paper's two-step walk: first appearances count one memory
access; re-appearances count one more when the reuse distance exceeds
the available cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.cachesim.configs import CacheGeometry
from repro.patterns.base import AccessPattern, PatternError, ceil_div
from repro.patterns.distance import (
    lru_misses,
    misses_for_cache_blocks,
    positional_distances,
    set_associative_lru_misses,
    stack_distances,
)


@dataclass(frozen=True, slots=True)
class SweepTemplate:
    """A generated template: a reference group advanced until a boundary.

    Attributes
    ----------
    start:
        Flat element indices of the first iteration's reference group.
    step:
        Elements advanced per iteration (must be positive).
    end:
        Flat element indices of the *last* iteration's group; every
        ``end[i] - start[i]`` must equal the same non-negative multiple
        of ``step``.
    """

    start: tuple[int, ...]
    step: int
    end: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.step < 1:
            raise PatternError(f"sweep step must be >= 1, got {self.step}")
        if len(self.start) != len(self.end):
            raise PatternError(
                "sweep start/end groups must have the same number of references"
            )
        if not self.start:
            raise PatternError("sweep groups must be non-empty")
        spans = {e - s for s, e in zip(self.start, self.end)}
        if len(spans) != 1:
            raise PatternError(
                f"all references must advance by the same span; got spans {spans}"
            )
        span = spans.pop()
        if span < 0 or span % self.step:
            raise PatternError(
                f"end must be start + k*step for integer k >= 0; span={span}, "
                f"step={self.step}"
            )

    @property
    def iterations(self) -> int:
        """Number of groups the sweep expands to."""
        return (self.end[0] - self.start[0]) // self.step + 1


def expand_sweep(sweep: SweepTemplate) -> np.ndarray:
    """Expand a sweep into the flat element-index sequence it denotes."""
    starts = np.asarray(sweep.start, dtype=np.int64)
    offsets = np.arange(sweep.iterations, dtype=np.int64) * sweep.step
    # iterations x group, row-major: one group per iteration.
    return (offsets[:, None] + starts[None, :]).ravel()


class TemplateAccess(AccessPattern):
    """Explicit access-order template over one data structure.

    Parameters
    ----------
    element_size:
        Bytes per element (the paper's MG example passes 16).
    template:
        Either a flat sequence of element indices, a
        :class:`SweepTemplate`, or a mix (an iterable whose items are
        indices or sweeps, concatenated in order).
    num_elements:
        Optional total structure size (elements); defaults to one past
        the largest referenced index.
    repeats:
        Number of times the whole template is executed back to back
        (e.g. repeated smoother sweeps); reuse distances are evaluated
        across repeats, so a cache-resident structure only misses cold.
    distance:
        ``"stack"`` (default) replays the block template through the
        cache simulator's array LRU engine on the real geometry — the
        paper's two-step reuse-distance criterion made conflict-aware
        (a partial ``cache_ratio`` falls back to the fully-associative
        walk); ``"fully-associative"`` is the
        literal paper model (stack distance vs capacity);
        ``"positional"`` is the reference-count reading of the paper's
        step 2.  Both alternatives are kept for ablation.
    cache_ratio:
        Fraction of cache capacity available to this structure.
    """

    code = "t"
    name = "template"

    def __init__(
        self,
        element_size: int,
        template: SweepTemplate | Sequence[int] | Iterable,
        num_elements: int | None = None,
        repeats: int = 1,
        distance: str = "stack",
        cache_ratio: float = 1.0,
    ):
        if element_size < 1:
            raise PatternError(f"element_size must be >= 1, got {element_size}")
        if repeats < 1:
            raise PatternError(f"repeats must be >= 1, got {repeats}")
        if distance not in ("stack", "positional", "fully-associative"):
            raise PatternError(
                "distance must be 'stack', 'positional' or "
                f"'fully-associative', got {distance!r}"
            )
        if not 0 < cache_ratio <= 1.0:
            raise PatternError(f"cache_ratio must be in (0, 1], got {cache_ratio}")
        self.element_size = element_size
        self.repeats = repeats
        self.distance = distance
        self.cache_ratio = cache_ratio
        self._indices = _flatten_template(template)
        if len(self._indices) == 0:
            raise PatternError("template must contain at least one reference")
        if self._indices.min() < 0:
            raise PatternError("template element indices must be non-negative")
        max_ref = int(self._indices.max()) + 1
        if num_elements is None:
            num_elements = max_ref
        elif num_elements < max_ref:
            raise PatternError(
                f"num_elements={num_elements} smaller than largest referenced "
                f"element {max_ref - 1}"
            )
        self.num_elements = num_elements

    # ------------------------------------------------------------------
    @property
    def element_indices(self) -> np.ndarray:
        """The expanded element-index sequence (one repeat)."""
        return self._indices

    def footprint_bytes(self) -> int:
        return self.num_elements * self.element_size

    def min_accesses(self, geometry: CacheGeometry) -> float:
        """Distinct blocks the template references (compulsory misses)."""
        return float(np.unique(self.block_template(geometry)).size)

    def max_accesses(self, geometry: CacheGeometry) -> float:
        """``T*AE``: every block reference of every repeat misses."""
        return float(len(self.block_template(geometry)) * self.repeats)

    def block_template(self, geometry: CacheGeometry) -> np.ndarray:
        """Convert the element template to the cache-block template.

        Elements are assumed packed from a line-aligned base; an element
        spanning several lines contributes each in order (the parser
        conversion step of the paper's Fig. 2).
        """
        cl = geometry.line_size
        e = self.element_size
        starts = self._indices * e
        first = starts // cl
        last = (starts + e - 1) // cl
        if e <= cl and np.array_equal(first, last):
            return first
        # Element i contributes lines first[i] .. last[i], in order.
        count = last - first + 1
        offset = np.arange(int(count.sum()), dtype=np.int64)
        offset -= np.repeat(np.cumsum(count) - count, count)
        return np.repeat(first, count) + offset

    # ------------------------------------------------------------------
    def estimate_accesses(self, geometry: CacheGeometry) -> float:
        """Two-step walk: cold misses + long-reuse-distance misses."""
        blocks = self.block_template(geometry)
        if self.repeats > 1:
            blocks = np.tile(blocks, self.repeats)
        available_blocks = int(geometry.num_blocks * self.cache_ratio)
        if self.distance == "stack":
            # The default walk is a set-associative LRU pass: like the
            # paper's capacity-threshold step 2 but conflict-aware, which
            # resolves the near-capacity regime exactly instead of as an
            # all-or-nothing cliff.  With a partial cache share the set
            # structure is not meaningful and the fully-associative walk
            # is used instead.
            if self.cache_ratio == 1.0:
                return float(
                    set_associative_lru_misses(
                        blocks, geometry.num_sets, geometry.associativity
                    )
                )
            return float(lru_misses(blocks, available_blocks))
        if self.distance == "fully-associative":
            # The literal paper model (reuse distance vs capacity),
            # kept for ablation.
            return float(lru_misses(blocks, available_blocks))
        d = positional_distances(blocks)
        cold = int(np.count_nonzero(d < 0))
        far = int(np.count_nonzero((d >= 0) & (d >= available_blocks)))
        return float(cold + far)


def _flatten_template(template) -> np.ndarray:
    """Normalise the accepted template forms to a flat int64 index array."""
    if isinstance(template, SweepTemplate):
        return expand_sweep(template)
    if isinstance(template, np.ndarray):
        return np.asarray(template, dtype=np.int64).ravel()
    parts: list[np.ndarray] = []
    scalars: list[int] = []
    for item in template:
        if isinstance(item, SweepTemplate):
            if scalars:
                parts.append(np.asarray(scalars, dtype=np.int64))
                scalars = []
            parts.append(expand_sweep(item))
        else:
            scalars.append(int(item))
    if scalars:
        parts.append(np.asarray(scalars, dtype=np.int64))
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
