"""Seeded inputs and estimator scoring."""

import numpy as np
import pytest

from workloads import (
    STREAM_LABELS,
    STREAM_REFS,
    WORKLOADS,
    ci_scores,
    make_stream,
    op_seed,
)


@pytest.fixture(scope="module")
def streams():
    return make_stream(11), make_stream(11), make_stream(12)


def _columns(trace):
    return (trace.addresses, trace.sizes, trace.is_write, trace.label_ids)


def test_same_seed_gives_byte_identical_stream(streams):
    a, b, _ = streams
    assert a.labels == b.labels == list(STREAM_LABELS)
    for x, y in zip(_columns(a), _columns(b)):
        assert x.tobytes() == y.tobytes()


def test_other_seed_gives_other_stream(streams):
    a, _, c = streams
    assert a.addresses.tobytes() != c.addresses.tobytes()


def test_stream_shape(streams):
    trace = streams[0]
    assert len(trace) == STREAM_REFS
    shares = np.bincount(trace.label_ids, minlength=3) / len(trace)
    assert shares == pytest.approx([0.5, 0.3, 0.2], abs=0.01)
    assert trace.write_fraction() == pytest.approx(0.3, abs=0.01)
    first = trace.addresses // 64
    last = (trace.addresses + trace.sizes - 1) // 64
    assert np.mean(last > first) == pytest.approx(0.1, abs=0.01)
    conflict = trace.label_ids == STREAM_LABELS.index("conflict")
    sets = np.concatenate([first[conflict], last[conflict]]) % 8192
    assert sets.max() < 8192 // 64


def test_op_seeds_are_deterministic_and_distinct():
    assert op_seed(3, 1) == op_seed(3, 1)
    seeds = {op_seed(s, i) for s in range(4) for i in range(50)}
    assert len(seeds) == 200


@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_workload_parameters_follow_the_seed(name):
    def params(seed, index):
        workload = WORKLOADS[name]()
        workload.seed = seed
        return {k: w.params for k, w in workload.op_input(index).items()}

    assert params(5, 1) == params(5, 1)
    assert params(5, 1) != params(6, 1)
    assert params(5, 1) != params(5, 2)
    assert {p["seed"] for p in params(5, 1).values()} == {op_seed(5, 1)}


def test_ci_scores_on_a_hand_built_case():
    estimate = {"hot": (105.0, 10.0), "cold": (180.0, 10.0), "conflict": (50.0, 0.0)}
    exact = {"hot": 100, "cold": 200, "conflict": 50}
    covered, intervals, relative = ci_scores(estimate, exact)
    assert (covered, intervals) == (2, 3)
    assert relative == [0.1, 0.05, 0.0]
