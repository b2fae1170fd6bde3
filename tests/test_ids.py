"""One id rule at every public entry point that takes element ids: an id is
read with ``operator.index`` (numpy integers pass, floats and strings raise
``TypeError``) and must lie in ``0..n-1`` (``IndexError`` otherwise).  The
budgets and sizes those entry points take are read by the same rule."""

import numpy as np
import pytest

from prunekit import exact
from prunekit.knapsack import KnapsackInstance, prune_sdg_density
from prunekit.objectives import Coverage, Cut, InterferenceCoverage, Modular, sorted_ids
from prunekit.prune import (PrunedSet, prune_fast_budget_range, prune_random,
                            prune_seq_disjoint, prune_std_greedy, prune_threshold_stream,
                            prune_window)
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


#: per constructor, a build whose ids (edge ends, pair ends, cover items or
#: Cut's ``n``) are the given values
CONSTRUCTORS = {
    "cut_edge": lambda a, b: Cut(3, [(a, b)]),
    "cut_n": lambda a, b: Cut(b, [(0, 1)]),
    "interference_pair": lambda a, b: InterferenceCoverage([[0], [1], [2]], {(a, b): 1.0}, 0.5),
    "coverage_items": lambda a, b: Coverage([[a, b], [2]]),
    "interference_items": lambda a, b: InterferenceCoverage([[a, b], [2]], {}, 0.5),
}


@pytest.mark.parametrize("build", CONSTRUCTORS)
@pytest.mark.parametrize("ends", [(0.9, 2.2), (0.0, 2.0), ("0", "2"),
                                  (np.float64(0), np.float64(2))],
                         ids=["fractions", "whole_floats", "string", "numpy_float"])
def test_constructors_read_ids_by_the_id_rule(build, ends):
    with pytest.raises(TypeError):
        CONSTRUCTORS[build](*ends)


@pytest.mark.parametrize("build", CONSTRUCTORS)
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_constructors_take_numpy_integer_ids(build, kind):
    assert CONSTRUCTORS[build](kind(0), kind(2)).to_dict() == CONSTRUCTORS[build](0, 2).to_dict()


MOD = Modular([1.0, 2.0, 3.0])

#: per entry point, a call with the budget or size ``b``
BUDGETS = {
    "opt_cardinality": lambda b: exact.opt_cardinality(MOD, range(3), b),
    "greedy": lambda b: greedy(MOD, range(3), b),
    "threshold_greedy": lambda b: threshold_greedy(MOD, range(3), b, 0.1),
    "window_greedy_rounds": lambda b: window_greedy(MOD, range(3), b, 1, lambda width: 0),
    "window_greedy_width": lambda b: window_greedy(MOD, range(3), 2, b, lambda width: 0),
    "threshold_stream_k": lambda b: threshold_stream(MOD, range(3), b, 2, 0.1),
    "threshold_stream_p": lambda b: threshold_stream(MOD, range(3), 2, b, 0.1),
    "prune_seq_disjoint_k": lambda b: prune_seq_disjoint(MOD, 3, b, ell=1),
    "prune_seq_disjoint_ell": lambda b: prune_seq_disjoint(MOD, 3, 1, ell=b),
    "prune_window_k": lambda b: prune_window(MOD, 3, b, 1),
    "prune_window_omega": lambda b: prune_window(MOD, 3, 1, b),
    "prune_std_greedy": lambda b: prune_std_greedy(MOD, 3, b),
    "prune_fast_budget_range": lambda b: prune_fast_budget_range(MOD, 3, b, 0.1),
    "prune_threshold_stream_k": lambda b: prune_threshold_stream(MOD, range(3), b, 2, 0.1),
    "prune_threshold_stream_p": lambda b: prune_threshold_stream(MOD, range(3), 2, b, 0.1),
    "prune_random": lambda b: prune_random(3, b),
    "prune_sdg_density_ell": lambda b: prune_sdg_density(MOD, KnapsackInstance([0.5] * 3, 1.0),
                                                         ell=b),
}


@pytest.mark.parametrize("entry", BUDGETS)
@pytest.mark.parametrize("budget", [2.7, 2.0, "2", np.float64(2.0)],
                         ids=["fraction", "float", "string", "numpy_float"])
def test_non_integer_budget_raises_type_error(entry, budget):
    # 2.7 used to run as 2 (opt_cardinality), as 3 (greedy's picks) or fail
    # on a float cap (prune_std_greedy)
    with pytest.raises(TypeError):
        BUDGETS[entry](budget)


@pytest.mark.parametrize("entry", BUDGETS)
def test_numpy_integer_budget_acts_as_an_int(entry):
    got, want = BUDGETS[entry](np.int64(2)), BUDGETS[entry](2)
    assert (got.to_dict() if hasattr(got, "to_dict") else got) == \
        (want.to_dict() if hasattr(want, "to_dict") else want)


# --------------------------------------------------------------------------
# sorted_ids: a range and a 1-d integer array take array operations, every
# other input the generic path; both read ids by the same rule

ACCEPTED = {
    "range": (range(5), [0, 1, 2, 3, 4]),
    "range_step": (range(1, 8, 3), [1, 4, 7]),
    "range_descending": (range(6, -1, -2), [0, 2, 4, 6]),
    "range_empty": (range(4, 2), []),
    "int64_sorted": (np.array([0, 2, 7]), [0, 2, 7]),
    "int32_unsorted_repeats": (np.array([7, 0, 2, 7, 0], dtype=np.int32), [0, 2, 7]),
    "uint8": (np.array([3, 1], dtype=np.uint8), [1, 3]),
    "uint64": (np.array([1, 7], dtype=np.uint64), [1, 7]),
    "int_empty": (np.array([], dtype=np.int64), []),
    "list_repeats": ([3, 1, 3], [1, 3]),
    "set": ({2, 0}, [0, 2]),
    "numpy_int_list": ([np.int64(5), np.uint16(1)], [1, 5]),
    "object_array": (np.array([4, 1], dtype=object), [1, 4]),
    "two_dim_row": (np.array([[1, 2]])[0], [1, 2]),
}


@pytest.mark.parametrize("ids", ACCEPTED)
def test_sorted_ids_accepts(ids):
    given, want = ACCEPTED[ids]
    got = sorted_ids(given, 8)
    assert got.dtype == np.intp and got.tolist() == want


@pytest.mark.parametrize("ids", [np.array([0.0, 2.0]), np.array([True, False]),
                                 [np.bool_(True)], [np.float64(1.0)], [1.0], ["1"],
                                 np.array(["1"]), np.array([[0, 1]])],
                         ids=["float_array", "bool_array", "numpy_bool", "numpy_float",
                              "float", "string", "string_array", "two_dim"])
def test_sorted_ids_rejects_non_integer_ids(ids):
    with pytest.raises(TypeError):
        sorted_ids(ids, 8)


@pytest.mark.parametrize("ids, bad", [(range(-1, 3), -1), (range(0, 9), 8), (range(9, 0, -1), 9),
                                      (np.array([3, -2]), -2), (np.array([8, 1]), 8),
                                      (np.array([2**63], dtype=np.uint64), 2**63),
                                      ([8, 1], 8), ([-1], -1)],
                         ids=["range_negative", "range_high", "range_descending_high",
                              "array_negative", "array_high", "uint64_huge", "list_high",
                              "list_negative"])
def test_sorted_ids_out_of_range(ids, bad):
    with pytest.raises(IndexError, match=f"element id {bad} out of range"):
        sorted_ids(ids, 8)


def test_sorted_ids_returns_a_fresh_array():
    given = np.array([0, 1, 2])
    sorted_ids(given, 8)[0] = 5
    assert given.tolist() == [0, 1, 2]
