"""Barnes-Hut N-body simulation — random access pattern (paper Algorithm 2).

Bodies are organised into a quadtree ``T``; computing the net force on a
body walks the tree, descending only where the opening criterion
``size/dist >= theta`` demands.  Which nodes a walk visits depends on
the (random) particle distribution, so accesses to ``T`` are the paper's
canonical *random* pattern; the per-walk visit count ``k`` is measured
by profiling, exactly as the paper obtains its Aspen parameters.

Major data structures (Table II): the tree ``T`` (32-byte nodes) and the
particle array ``P`` (32-byte records: x, y, mass, padding).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.kernels.base import Kernel, ResourceCounts, Workload
from repro.patterns.random_access import WorkingSetRandomAccess
from repro.patterns.streaming import StreamingAccess
from repro.trace.recorder import TraceRecorder

_NODE_SIZE = 32
_PARTICLE_SIZE = 32
#: Entries kept by the quadtree-build and visit-frequency memos.  Every
#: benchmark op and service job brings a new seed, so an unbounded memo
#: grows for the life of the process; a sweep needs one entry at a time.
_MEMO_ENTRIES = 4


@dataclass
class _Node:
    """One quadtree node (an internal cell or a leaf holding a body)."""

    index: int
    cx: float
    cy: float
    half: float
    body: int | None = None
    children: list["_Node | None"] = field(default_factory=lambda: [None] * 4)
    mass: float = 0.0
    comx: float = 0.0
    comy: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return all(c is None for c in self.children)


class _QuadTree:
    """A Barnes-Hut quadtree over the unit square.

    After :meth:`build`, the tree is also held as flat per-node arrays
    indexed by ``_Node.index``: ``children`` ``(N, 4)`` (``-1`` where a
    quadrant is empty), ``mass``, ``comx``, ``comy``, ``half`` and
    ``leaf`` — the input of the vectorised visit profiling.
    """

    def __init__(self) -> None:
        self.nodes: list[_Node] = []
        self.root = self._new_node(0.5, 0.5, 0.5)

    def _new_node(self, cx: float, cy: float, half: float) -> _Node:
        node = _Node(index=len(self.nodes), cx=cx, cy=cy, half=half)
        self.nodes.append(node)
        return node

    def _quadrant(self, node: _Node, x: float, y: float) -> int:
        return (1 if x >= node.cx else 0) | (2 if y >= node.cy else 0)

    def _child(self, node: _Node, q: int) -> _Node:
        child = node.children[q]
        if child is None:
            h = node.half / 2
            cx = node.cx + (h if q & 1 else -h)
            cy = node.cy + (h if q & 2 else -h)
            child = self._new_node(cx, cy, h)
            node.children[q] = child
        return child

    def insert(self, body: int, x: float, y: float) -> None:
        node = self.root
        depth = 0
        while True:
            if node.is_leaf and node.body is None and node is not self.root:
                node.body = body
                return
            if node.is_leaf and node.body is not None:
                # Split: push the resident body down one level.
                resident = node.body
                node.body = None
                # Re-insert below (positions read from the caller's table).
                rx, ry = self._positions[resident]
                q = self._quadrant(node, rx, ry)
                child = self._child(node, q)
                child.body = resident
            q = self._quadrant(node, x, y)
            node = self._child(node, q)
            depth += 1
            if depth > 64:  # pathological duplicates: keep both in one leaf
                node.body = body
                return

    def build(self, positions: np.ndarray, masses: np.ndarray) -> None:
        self._positions = positions
        for body in range(len(positions)):
            self.insert(body, positions[body, 0], positions[body, 1])
        self._summarise(self.root, positions, masses)
        nodes = self.nodes
        self.children = np.array(
            [[-1 if c is None else c.index for c in node.children] for node in nodes],
            dtype=np.int64,
        ).reshape(-1, 4)
        self.mass = np.array([node.mass for node in nodes])
        self.comx = np.array([node.comx for node in nodes])
        self.comy = np.array([node.comy for node in nodes])
        self.half = np.array([node.half for node in nodes])
        self.leaf = (self.children == -1).all(axis=1)

    def _summarise(self, node: _Node, positions, masses) -> float:
        if node.is_leaf:
            if node.body is not None:
                node.mass = float(masses[node.body])
                node.comx = float(positions[node.body, 0])
                node.comy = float(positions[node.body, 1])
            return node.mass
        total = 0.0
        mx = my = 0.0
        for child in node.children:
            if child is None:
                continue
            m = self._summarise(child, positions, masses)
            total += m
            mx += child.comx * m
            my += child.comy * m
        node.mass = total
        if total > 0:
            node.comx = mx / total
            node.comy = my / total
        return total


class BarnesHutKernel(Kernel):
    """2-D Barnes-Hut force calculation (paper Algorithm 2).

    Workload parameters
    -------------------
    n:
        Number of particles.
    theta:
        Opening criterion (default 0.5).
    seed:
        RNG seed for particle placement.
    """

    name = "NB"
    method_class = "N-body method"

    def _build(self, workload: Workload) -> tuple[_QuadTree, np.ndarray, np.ndarray]:
        return _build_tree(int(workload["n"]), int(workload.get("seed", 0)))

    def tree_size(self, workload: Workload) -> int:
        """Number of quadtree nodes for this workload (deterministic)."""
        tree, _, _ = self._build(workload)
        return len(tree.nodes)

    def data_structures(self, workload: Workload) -> dict[str, tuple[int, int]]:
        n = int(workload["n"])
        return {
            "T": (self.tree_size(workload), _NODE_SIZE),
            "P": (n, _PARTICLE_SIZE),
        }

    # ------------------------------------------------------------------
    def _force_walk(
        self,
        tree: _QuadTree,
        positions: np.ndarray,
        body: int,
        theta: float,
        visit,
    ) -> tuple[float, float]:
        """Force on one body; ``visit(node_index)`` is called per node read."""
        x, y = positions[body]
        fx = fy = 0.0
        stack = [tree.root]
        while stack:
            node = stack.pop()
            visit(node.index)
            if node.mass == 0.0:
                continue
            dx = node.comx - x
            dy = node.comy - y
            dist2 = dx * dx + dy * dy + 1e-9
            if node.is_leaf or (2 * node.half) ** 2 < theta * theta * dist2:
                if node.is_leaf and node.body == body:
                    continue
                inv = node.mass / (dist2 * np.sqrt(dist2))
                fx += dx * inv
                fy += dy * inv
            else:
                for child in node.children:
                    if child is not None:
                        stack.append(child)
        return fx, fy

    def run_traced(self, workload: Workload, recorder: TraceRecorder) -> np.ndarray:
        tree, positions, masses = self._build(workload)
        n = len(positions)
        theta = float(workload.get("theta", 0.5))
        recorder.allocate("T", len(tree.nodes), _NODE_SIZE)
        recorder.allocate("P", n, _PARTICLE_SIZE)
        # Construction phase: every node/particle touched once (the
        # random model's assumed initial traversal).
        recorder.record_elements(
            "T", np.arange(len(tree.nodes), dtype=np.int64), True
        )
        recorder.record_elements("P", np.arange(n, dtype=np.int64), True)
        forces = np.zeros((n, 2))
        visited: list[int] = []
        # Per-body (P read, visited tree nodes) segment pairs, flushed
        # through one batched record_segments call — same reference
        # order as the per-body recording it replaces.
        segments: list[tuple[str, np.ndarray, bool]] = []
        body_index = np.arange(n, dtype=np.int64)
        for body in range(n):
            segments.append(("P", body_index[body : body + 1], False))
            visits: list[int] = []
            fx, fy = self._force_walk(tree, positions, body, theta, visits.append)
            segments.append(("T", np.asarray(visits, dtype=np.int64), False))
            forces[body] = (fx, fy)
            visited.append(len(visits))
        recorder.record_segments(segments)
        return forces

    # ------------------------------------------------------------------
    def profile_k(self, workload: Workload) -> float:
        """Average *distinct* tree nodes visited per force walk.

        The paper obtains ``k`` "by profiling [the] application on any
        available hardware"; this is that profiling run.
        """
        return float(self.profile_frequencies(workload).sum())

    def profile_frequencies(self, workload: Workload) -> np.ndarray:
        """Per-node visit frequency over all force walks.

        Entry ``i`` is the fraction of walks that touch tree node ``i`` —
        the profiling input of the working-set random model (walks share
        the upper tree levels, so the distribution is heavily skewed).
        All walks advance together, one tree level per step (see
        :func:`_visit_counts`); the counts equal those of the per-body
        :meth:`_force_walk`.  Results are memoised per workload
        configuration in a bounded cache and returned read-only.
        """
        return _visit_frequencies(
            int(workload["n"]),
            float(workload.get("theta", 0.5)),
            int(workload.get("seed", 0)),
        )

    def access_model(self, workload: Workload):
        n = int(workload["n"])
        freqs = self.profile_frequencies(workload)
        tree_nodes = len(freqs)
        return {
            "T": WorkingSetRandomAccess(
                num_elements=tree_nodes,
                element_size=_NODE_SIZE,
                visit_frequencies=freqs,
                iterations=n,
                cache_ratio=1.0,
            ),
            # Particles are swept once per force phase on top of the
            # construction traversal; the tree walk between consecutive
            # particle reads interferes with the re-sweep.
            "P": StreamingAccess(
                _PARTICLE_SIZE,
                n,
                1,
                sweeps=2,
                aligned=True,
                interfering_bytes=tree_nodes * _NODE_SIZE,
            ),
        }

    def resource_counts(self, workload: Workload) -> ResourceCounts:
        n = int(workload["n"])
        k = float(workload.get("k") or self.profile_k(workload))
        flops = 12.0 * k * n        # ~12 flops per node interaction
        loads = (_NODE_SIZE * k + _PARTICLE_SIZE) * n
        stores = _PARTICLE_SIZE * 1.0 * n
        return ResourceCounts(flops=flops, loads=loads, stores=stores)

    def aspen_source(self, workload: Workload) -> str:
        n = int(workload["n"])
        tree_nodes = self.tree_size(workload)
        k = float(workload.get("k") or self.profile_k(workload))
        return f"""\
// Barnes-Hut force phase (paper Algorithm 2): random tree accesses.
model nb {{
  param particles = {n}
  param nodes = {tree_nodes}
  param k = {k:.3f}
  data T {{
    elements: nodes, element_size: {_NODE_SIZE}
    pattern random {{ distinct: k, iterations: particles, cache_ratio: 1.0 }}
  }}
  data P {{
    elements: particles, element_size: {_PARTICLE_SIZE}
    pattern streaming {{ sweeps: 2, aligned: 1 }}
  }}
  kernel force {{
    flops: 12 * k * particles
    loads: ({_NODE_SIZE} * k + {_PARTICLE_SIZE}) * particles
    stores: {_PARTICLE_SIZE} * particles
  }}
}}
"""


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _build_tree(n: int, seed: int) -> tuple[_QuadTree, np.ndarray, np.ndarray]:
    """The seeded bodies and their quadtree (shared: read-only)."""
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2))
    masses = rng.random(n) + 0.1
    tree = _QuadTree()
    tree.build(positions, masses)
    positions.flags.writeable = False
    masses.flags.writeable = False
    return tree, positions, masses


@functools.lru_cache(maxsize=_MEMO_ENTRIES)
def _visit_frequencies(n: int, theta: float, seed: int) -> np.ndarray:
    tree, positions, _ = _build_tree(n, seed)
    freqs = _visit_counts(tree, positions, theta) / n
    freqs.flags.writeable = False
    return freqs


def _visit_counts(
    tree: _QuadTree, positions: np.ndarray, theta: float
) -> np.ndarray:
    """Number of force walks that visit each tree node.

    A level-synchronous walk over ``(body, node)`` frontier arrays: one
    step visits every pair, then opens the pairs whose node is non-empty,
    internal and fails the opening criterion, and expands those into
    their non-empty children.  A walk reaches each node at most once and
    whether it does is independent of traversal order, and the criterion
    is evaluated in :meth:`BarnesHutKernel._force_walk`'s operation
    order, so the counts equal the per-body walks' exactly.
    """
    counts = np.zeros(len(tree.nodes), dtype=np.int64)
    size2 = (2 * tree.half) ** 2
    theta2 = theta * theta
    body = np.arange(len(positions), dtype=np.int64)
    node = np.zeros(len(positions), dtype=np.int64)
    while node.size:
        counts += np.bincount(node, minlength=counts.size)
        dx = tree.comx[node] - positions[body, 0]
        dy = tree.comy[node] - positions[body, 1]
        dist2 = dx * dx + dy * dy + 1e-9
        opened = (
            (tree.mass[node] != 0.0)
            & ~tree.leaf[node]
            & ~(size2[node] < theta2 * dist2)
        )
        kids = tree.children[node[opened]]
        present = kids != -1
        body = np.repeat(body[opened], present.sum(axis=1))
        node = kids[present]
    return counts
