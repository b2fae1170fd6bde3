"""One id rule at every public entry point that takes element ids: an id is
read with ``operator.index`` (numpy integers pass, floats and strings raise
``TypeError``) and must lie in ``0..n-1`` (``IndexError`` otherwise)."""

import numpy as np
import pytest

from prunekit import exact
from prunekit.knapsack import KnapsackInstance
from prunekit.objectives import Cut
from prunekit.prune import PrunedSet, prune_threshold_stream
from prunekit.selection import (density_greedy, greedy, threshold_greedy, threshold_stream,
                                window_greedy)

N = 4
CYCLE = Cut(N, [(0, 1), (1, 2), (2, 3), (3, 0)])

#: per entry point, a call on the id list ``[1, probe]`` over the 4-cycle
ENTRY_POINTS = {
    "eval": lambda ids: CYCLE.eval(ids),
    "marginal_element": lambda ids: CYCLE.marginal(ids[1], ids[:1]),
    "marginal_set": lambda ids: CYCLE.marginal(ids[0], ids[1:]),
    "greedy": lambda ids: greedy(CYCLE, ids, 2),
    "window_greedy": lambda ids: window_greedy(CYCLE, ids, 2, 2, lambda width: 0),
    "threshold_greedy": lambda ids: threshold_greedy(CYCLE, ids, 2, 0.1),
    "density_greedy": lambda ids: density_greedy(CYCLE, ids, [1.0] * N, 2.0, 3.0),
    "threshold_stream": lambda ids: threshold_stream(CYCLE, ids, 2, 2, 0.1),
    "opt_cardinality": lambda ids: exact.opt_cardinality(CYCLE, ids, 2),
    "opt_knapsack": lambda ids: exact.opt_knapsack(CYCLE, ids, [1.0] * N, [1.0, 2.0]),
    "knapsack_cost": lambda ids: KnapsackInstance([0.5, 0.25, 0.125, 1.0], 1.0).cost(ids),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("probe", [2.0, 0.7, "2", np.float64(2.0)],
                         ids=["float", "fraction", "string", "numpy_float"])
def test_non_integer_id_raises_type_error(entry, probe):
    with pytest.raises(TypeError):
        ENTRY_POINTS[entry]([1, probe])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("probe", [-1, N, np.int64(N)], ids=["negative", "pad_id", "numpy_n"])
def test_id_outside_ground_set_raises_index_error(entry, probe):
    with pytest.raises(IndexError, match="out of range"):
        ENTRY_POINTS[entry]([1, probe])


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, np.intp])
def test_numpy_integer_ids_act_as_ints(entry, kind):
    assert ENTRY_POINTS[entry]([kind(1), kind(2)]) == ENTRY_POINTS[entry]([1, 2])


def test_threshold_stream_rejects_a_repeated_id():
    with pytest.raises(ValueError, match="repeats"):
        threshold_stream(CYCLE, [0, 0, 2], 4, 4, 0.1)
    with pytest.raises(IndexError):
        threshold_stream(CYCLE, [0, 0, 2, -1], 4, 4, 0.1)
    assert threshold_stream(CYCLE, [0, 2, 1, 3], 4, 4, 0.1) == [0, 2]


def test_stream_pruner_reads_its_order_by_the_id_rule():
    with pytest.raises(TypeError):  # a permutation of 0..3 up to float equality
        prune_threshold_stream(CYCLE, [0.0, 1, 2, 3], 2, 2, 0.1)
    assert prune_threshold_stream(CYCLE, np.array([0, 2, 1, 3]), 2, 2, 0.1).elements == [0, 2]


def test_knapsack_cost_keeps_the_order_given():
    inst = KnapsackInstance([1e-16, 1e-16, 1.0], 1.0)
    assert inst.cost([0, 1, 2]) == 1.0 + 2.0 ** -52
    assert inst.cost([2, 0, 1]) == inst.cost(np.array([2, 0, 1])) == 1.0


@pytest.mark.parametrize("elements, error", [([0, 1.5], TypeError), ([0, "1"], TypeError),
                                             ([0, 5], IndexError), ([-1, 2], IndexError)])
def test_pruned_set_checks_its_elements(elements, error):
    with pytest.raises(error):
        PrunedSet("flat", {"n": 5}, elements, {"kind": "flat"})


def test_pruned_set_reads_numpy_ids_as_ints():
    pruned = PrunedSet("flat", {"n": 5}, np.array([3, 0, 3]), {"kind": "flat"})
    assert pruned.elements == [0, 3] and all(type(e) is int for e in pruned.elements)
