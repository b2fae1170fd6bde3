import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_variants, scan_families, supermodular_counterexample
from prunekit import objectives
from prunekit.exact import GuardExceeded
from prunekit.objectives import (REAL_TOL, Coverage, Cut, FacilityLocation,
                                 InterferenceCoverage, Modular, OracleStats,
                                 PenaltyCurve, PropertyReport, Proxy,
                                 RestrictedFacilityLocation, TableObjective,
                                 check_monotone, check_submodular, counting_wrap,
                                 objective_from_dict, value_table)
from prunekit.instances import gen_interference
from prunekit.selection import greedy


class TestEval:
    def test_triangle_cut_singleton(self, triangle):
        assert triangle.eval({0}) == 2

    def test_full_set_cuts_nothing(self, triangle):
        assert triangle.eval({0, 1, 2}) == 0

    def test_empty_set_is_zero_everywhere(self, triangle, small_coverage):
        for obj in build_variants().values():
            assert obj.eval(()) == pytest.approx(0.0)
        assert triangle.eval(()) == 0
        assert small_coverage.eval(()) == 0

    def test_coverage_union(self, small_coverage):
        assert small_coverage.eval({0, 1}) == 3

    def test_out_of_range_id_rejected(self, triangle):
        with pytest.raises(IndexError):
            triangle.eval({3})
        with pytest.raises(IndexError):
            triangle.eval({-1})

    def test_weighted_coverage(self):
        cov = Coverage([{0}, {0, 1}], weights=[2.0, 0.5])
        assert cov.eval({0}) == pytest.approx(2.0)
        assert cov.eval({1}) == pytest.approx(2.5)

    def test_facility_location_row_max(self):
        sim = np.array([[1.0, 0.2], [0.3, 0.6]])
        fl = FacilityLocation(sim)
        assert fl.eval({0}) == pytest.approx(1.3)
        assert fl.eval({0, 1}) == pytest.approx(1.6)

    def test_restricted_fl_gates_rows(self):
        sim = np.array([[1.0, 0.2], [0.3, 0.6]])
        rfl = RestrictedFacilityLocation(sim, rel=[0.9, 0.1], tau=0.5)
        assert rfl.eval({0, 1}) == pytest.approx(1.0)
        all_gated = RestrictedFacilityLocation(sim, rel=[0.1, 0.1], tau=0.5)
        assert all_gated.eval({0, 1}) == 0.0

    def test_interference_penalty(self):
        obj = InterferenceCoverage([{0, 1}, {2}], {(0, 1): 2.0}, lam=0.5)
        assert obj.eval({0}) == pytest.approx(2.0)
        assert obj.eval({0, 1}) == pytest.approx(3.0 - 0.5 * 2.0)

    def test_coverage_counts_are_int_and_interference_values_float(self):
        covers = [{0, 1}, {1, 2}]
        assert type(Coverage(covers).eval({0, 1})) is int
        assert type(InterferenceCoverage(covers, {}, 0.5).eval({0, 1})) is float
        assert type(InterferenceCoverage(covers, {(0, 1): 1.0}, 0.5).eval({0, 1})) is float


class TestMarginal:
    def test_triangle_marginal_zero(self, triangle):
        assert triangle.marginal(1, {0}) == 0

    def test_coverage_marginal(self, small_coverage):
        assert small_coverage.marginal(1, {0}) == 1

    def test_marginal_from_empty_is_singleton(self):
        for obj in build_variants().values():
            assert obj.marginal(2, ()) == pytest.approx(obj.eval({2}))

    def test_member_rejected(self, triangle):
        with pytest.raises(ValueError):
            triangle.marginal(0, {0})

    @given(st.integers(0, 2**32 - 1), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_marginal_is_eval_difference(self, seed, e):
        rng = np.random.default_rng(seed)
        for obj in build_variants(seed=seed % 7).values():
            S = set(rng.choice(obj.n, size=rng.integers(0, obj.n), replace=False).tolist())
            S.discard(e)
            assert obj.marginal(e, S) == pytest.approx(obj.eval(S | {e}) - obj.eval(S))


class TestCountingOracle:
    def test_each_eval_is_one_query(self, triangle):
        oracle = counting_wrap(triangle)
        oracle.eval({0, 1})
        oracle.eval({1, 0})
        assert oracle.stats() == OracleStats(queries=2, cache_hits=0)

    def test_fresh_wrapper_zero(self, triangle):
        assert counting_wrap(triangle).stats().queries == 0

    def test_greedy_query_budget(self):
        objs = build_variants(n=8, seed=3)
        obj = objs["coverage"]
        oracle = counting_wrap(obj)
        greedy(oracle, range(8), 4)
        assert oracle.stats().queries <= 8 * 4 + 1

    def test_memo_transparency(self):
        rng = np.random.default_rng(0)
        for obj in build_variants(seed=5).values():
            oracle = counting_wrap(obj)
            for _ in range(20):
                S = rng.choice(obj.n, size=rng.integers(0, obj.n + 1), replace=False)
                assert oracle.eval(S) == pytest.approx(obj.eval(S))

    def test_record_adds_queries(self):
        obj = build_variants(n=8, seed=12)["coverage"]
        oracle = counting_wrap(obj)
        sets = [tuple(sorted(np.random.default_rng(i).choice(8, size=3, replace=False)))
                for i in range(16)]
        errors = [S for _ in range(8) for S in sets if oracle.eval(S) != obj.eval(S)]
        assert not errors
        oracle.record(5)
        oracle.record(0)
        # every eval, repeats included, is one query; record(q) adds q
        assert oracle.stats() == OracleStats(queries=8 * len(sets) + 5, cache_hits=0)


class TestBatchEval:
    def test_eval_ids_matches_scalar(self):
        rng = np.random.default_rng(11)
        for name, obj in build_variants(seed=2).items():
            M = rng.random((40, obj.n)) < 0.4
            batch = obj.eval_ids(np.where(M, np.arange(obj.n), obj.n))  # ids in place
            assert batch.tolist() == [obj.eval(np.flatnonzero(row)) for row in M], name

    def test_weighted_coverage_adds_items_in_ascending_order(self):
        # the reference: a running sum over the covered items, item by item
        rng = np.random.default_rng(12)
        covers = [rng.choice(300, size=40, replace=False).tolist() for _ in range(12)]
        obj = Coverage(covers, weights=rng.uniform(0.01, 100.0, size=300), m=300)
        for _ in range(50):
            S = rng.choice(12, size=int(rng.integers(0, 13)), replace=False)
            total = 0.0
            for v in sorted(set().union(*(obj.covers[e] for e in S))):
                total += float(obj.weights[v])
            assert obj.eval(S) == total

    def test_interference_pairs_add_in_ascending_order(self):
        # any insertion order gives the serial form's order, so a round trip
        # through to_dict keeps every value
        obj = gen_interference(16, 30, seed=4, interference_prob=0.8)
        reversed_intf = InterferenceCoverage(obj.covers, dict(reversed(obj.intf.items())),
                                             obj.lam, m=obj.m)
        clone = objective_from_dict(reversed_intf.to_dict())
        rng = np.random.default_rng(4)
        for _ in range(100):
            S = rng.choice(16, size=int(rng.integers(2, 17)), replace=False)
            assert reversed_intf.eval(S) == clone.eval(S) == obj.eval(S)

    @pytest.mark.parametrize("seed", range(3))
    def test_interference_kernel_equals_scalar_bit_for_bit(self, seed):
        # widths 1-8, ids in any order and empty slots anywhere, on a large
        # instance, a dense one, one with lam = 0 and one with no pairs
        big = gen_interference(300, 100, seed=seed)
        objs = {"n300": big,
                "dense": gen_interference(20, 30, seed=seed, interference_prob=0.9),
                "lam0": InterferenceCoverage(big.covers, big.intf, 0.0, m=big.m),
                "no_pairs": gen_interference(300, 100, seed=seed, interference_prob=0.0)}
        rng = np.random.default_rng(seed)
        for name, obj in objs.items():
            n = obj.n
            for width in range(1, 9):
                ids = np.full((200, width), n)
                for row in ids:
                    picked = rng.choice(n, size=int(rng.integers(0, width + 1)), replace=False)
                    row[rng.permutation(width)[:len(picked)]] = picked
                for row, val in zip(ids, obj.eval_ids(ids)):
                    assert val.hex() == obj.eval(row[row < n]).hex(), (name, width)

    def test_interference_kernel_mixes_sorted_and_permuted_blocks(self):
        # the ascending rows of every 6-subset, many kernel blocks long, with
        # the second half permuted row by row: every row keeps its value
        obj = gen_interference(20, 30, seed=5, interference_prob=0.6)
        ids = np.array(list(itertools.combinations(range(20), 6)))
        assert len(ids) > 2 * objectives._KERNEL_CELLS // ids.shape[1]
        rng = np.random.default_rng(5)
        mixed = ids.copy()
        half = len(ids) // 2
        mixed[half:] = rng.permuted(mixed[half:], axis=1)
        vals = obj.eval_ids(ids)
        assert [v.hex() for v in obj.eval_ids(mixed)] == [v.hex() for v in vals]
        for r in rng.choice(len(ids), size=300, replace=False):
            assert vals[r].hex() == obj.eval(ids[r][ids[r] < 20]).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_cut_kernel_equals_scalar_on_multigraphs(self, data):
        # repeated edges in both orientations, rows of every width with their
        # ids permuted and empty slots anywhere
        n = data.draw(st.integers(2, 8), label="n")
        base = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                                  .filter(lambda e: e[0] != e[1]), max_size=12), label="base")
        edges = base + [e[::-1] for e in base[:data.draw(st.integers(0, len(base)))]] \
            + base[:data.draw(st.integers(0, len(base)))]
        edges = data.draw(st.permutations(edges), label="edges")
        obj = Cut(n, edges)
        width = data.draw(st.integers(1, n), label="width")
        rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=width, unique=True)
                                  .flatmap(lambda s: st.permutations(s + [n] * (width - len(s)))),
                                  min_size=1, max_size=20), label="rows")
        ids = np.array(rows, dtype=np.intp)
        vals = obj.eval_ids(ids)
        assert vals.dtype == float
        assert vals.tolist() == [obj.eval([e for e in row if e < n]) for row in rows]

    def test_value_table_indexing(self, triangle):
        table = value_table(triangle)
        assert table[0b001] == 2 and table[0b111] == 0 and table[0b011] == 2


class TestPropertyCheckers:
    def test_coverage_is_submodular(self, small_coverage):
        assert check_submodular(small_coverage, trials=1000, seed=0).ok

    def test_proxy_with_convex_penalty_is_submodular(self):
        obj = build_variants(seed=4)["proxy"]
        assert check_submodular(obj, trials=1000, seed=0).ok

    def test_supermodular_counterexample_flagged(self):
        report = check_submodular(supermodular_counterexample(), exhaustive=True)
        assert not report.ok
        assert report.max_violation >= 2.0  # gap at (A={}, B={0}, x=1) is 2

    def test_fl_is_monotone(self):
        obj = build_variants(seed=6)["facility_location"]
        assert check_monotone(obj, trials=1000, seed=1).ok

    def test_triangle_cut_not_monotone(self, triangle):
        report = check_monotone(triangle, exhaustive=True)
        assert not report.ok
        assert report.max_violation >= 2.0  # f({0}) = 2 > f({0,1,2}) = 0

    def test_decreasing_proxy_not_monotone(self):
        sim = np.zeros((2, 3))
        proxy = Proxy(FacilityLocation(sim), PenaltyCurve([0.0, 0.0, 0.0, 0.0]))
        proxy.penalty = PenaltyCurve([0.0, 0.1, 0.2, 0.3])  # strictly increasing
        report = check_monotone(proxy, trials=500, seed=0)
        assert not report.ok

    def test_exhaustive_submodular_all_variants(self):
        for name, obj in build_variants(n=6, seed=1).items():
            report = check_submodular(obj, exhaustive=True)
            assert report.ok, (name, report.violations[:3])

    def test_exhaustive_nonnegative_small(self):
        # proxy is validated at construction instead; interference coverage
        # can dip below zero by its very formula (coverage minus a large
        # pairwise penalty), so the blanket invariant cannot apply to it
        for name, obj in build_variants(n=6, seed=8).items():
            if name in ("proxy", "interference_coverage"):
                continue
            assert value_table(obj).min() >= -1e-9, name

    def test_interference_negative_values_possible(self):
        obj = InterferenceCoverage([{0}, {1}], {(0, 1): 5.0}, lam=2.0)
        assert obj.eval({0, 1}) == pytest.approx(2.0 - 10.0)

    def test_nonnegative_at_fifteen_elements(self):
        # the invariant is exhaustively checkable up to n = 15
        rng = np.random.default_rng(44)
        covers = [rng.choice(20, size=rng.integers(1, 5), replace=False).tolist()
                  for _ in range(15)]
        assert value_table(Coverage(covers, m=20)).min() >= 0

    def test_exhaustive_checks_obey_the_guard(self, monkeypatch):
        obj = Modular(np.ones(5))
        monkeypatch.setenv("PRUNEKIT_GUARD", str(3 ** 5 - 1))
        for check in (check_submodular, check_monotone):
            with pytest.raises(GuardExceeded):
                check(obj, exhaustive=True)
            assert check(obj, trials=5).ok  # sampled mode enumerates nothing
        monkeypatch.setenv("PRUNEKIT_GUARD", str(3 ** 5))
        assert check_submodular(obj, exhaustive=True).ok

    def test_trials_validated(self, triangle):
        with pytest.raises(ValueError):
            check_submodular(triangle, trials=0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 6), seed=st.integers(0, 2**16), cells=st.integers(6, 40),
           kind=st.sampled_from(["real", "integer", "family"]))
    def test_exhaustive_checks_match_the_submask_loop(self, n, seed, cells, kind):
        # blocks of a few pairs put block boundaries inside the pairs of one B
        if kind == "family":
            families = scan_families(max(n, 2), seed)
            obj = families[sorted(families)[seed % len(families)]]
        else:
            rng = np.random.default_rng(seed)
            vals = rng.integers(-2, 3, 1 << n) if kind == "integer" else rng.normal(size=1 << n)
            obj = TableObjective(n, {frozenset(_ids(m)): v for m, v in enumerate(vals)})
        with mock.patch.object(objectives, "_KERNEL_CELLS", cells):
            got = [check_submodular(obj, exhaustive=True), check_monotone(obj, exhaustive=True)]
        assert [(r.checked, r.violations, r.max_violation.hex()) for r in got] == \
            [(r.checked, r.violations, r.max_violation.hex()) for r in submask_loop_reports(obj)]


def _ids(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def submask_loop_reports(obj):
    """The exhaustive checks as scalar loops that walk the submasks of each
    B with ``a = (a - 1) & b``: the reference for the vectorised checker."""
    t, n = value_table(obj), obj.n
    tol = 0.0 if getattr(obj, "integer_valued", False) else REAL_TOL
    sub, mono = PropertyReport("submodular", 0), PropertyReport("monotone", 0)

    def record(report, case, gap):
        report.checked += 1
        if gap > tol:
            if len(report.violations) < 100:
                report.violations.append((*case, float(gap)))
            report.max_violation = max(report.max_violation, float(gap))

    for b in range(1 << n):
        a = b
        while True:
            record(mono, (_ids(a), _ids(b)), t[a] - t[b])
            for x in range(n):
                if not b >> x & 1:
                    record(sub, (_ids(a), _ids(b), x),
                           -(t[a | 1 << x] - t[a] - t[b | 1 << x] + t[b]))
            if a == 0:
                break
            a = (a - 1) & b
    return sub, mono


class TestPenaltyCurve:
    def test_valid_curve(self):
        PenaltyCurve([0.0, 0.0, 0.1, 0.3])

    def test_rejects_nonzero_origin(self):
        with pytest.raises(ValueError):
            PenaltyCurve([0.5, 0.6])

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            PenaltyCurve([0.0, 0.5, 0.2])

    def test_rejects_concave(self):
        with pytest.raises(ValueError):
            PenaltyCurve([0.0, 1.0, 1.5])  # slopes 1.0 then 0.5

    def test_equality_reads_theta(self):
        curve = PenaltyCurve([0.0, 0.5, 1.5])
        assert curve == PenaltyCurve(np.array([0.0, 0.5, 1.5]))
        assert curve != PenaltyCurve([0.0, 0.5, 1.0])
        assert curve != PenaltyCurve([0.0, 0.5])
        assert curve != {"theta": [0.0, 0.5, 1.5]}


class TestProxy:
    def test_rejects_short_penalty(self):
        fl = FacilityLocation(np.ones((2, 3)))
        with pytest.raises(ValueError):
            Proxy(fl, PenaltyCurve([0.0, 0.1]))

    def test_rejects_penalty_above_full_value(self):
        fl = FacilityLocation(np.full((2, 2), 0.1))
        with pytest.raises(ValueError):
            Proxy(fl, PenaltyCurve([0.0, 1.0, 2.0]))

    def test_empty_set_value_zero_without_shift(self):
        fl = FacilityLocation(np.ones((2, 2)))
        proxy = Proxy(fl, PenaltyCurve([0.0, 0.5, 1.0]))
        assert proxy.eval(()) == pytest.approx(0.0)

    def test_shift_restores_nonnegativity(self):
        sim = np.array([[0.05, 0.05]])
        fl = FacilityLocation(sim)
        # theta(1) = 0.02, theta(2) = 0.05 <= FL(full) = 0.05, but
        # f({0}) = 0.05 - 0.02 = 0.03 and f(full) = 0.0; craft a dip
        proxy = Proxy(fl, PenaltyCurve([0.0, 0.02, 0.05]), shift=True)
        assert value_table(proxy).min() >= -1e-12
        # shifted scalar and batch paths agree
        for S in ((), (0,), (1,), (0, 1)):
            ids = np.full((1, 2), 2)
            ids[0, :len(S)] = S
            assert proxy.eval(S) == proxy.eval_ids(ids)[0]

    def test_clamp_flag(self):
        sim = np.array([[0.1, 0.1]])
        base = Proxy(FacilityLocation(sim), PenaltyCurve([0.0, 0.05, 0.1]))
        clamped = Proxy(FacilityLocation(sim), PenaltyCurve([0.0, 0.05, 0.1]),
                        clamp=True)
        assert value_table(clamped).min() >= 0
        assert base.eval({0, 1}) == pytest.approx(0.0)


class TestSerialization:
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 9))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_all_serializable_variants(self, seed, n):
        def as_read(o):  # the payload as written to a file and read back
            return json.loads(json.dumps(o.to_dict()))

        rng = np.random.default_rng(seed)
        ids = np.full((30, n), n)
        for r in range(len(ids)):
            S = rng.permutation(n)[:rng.integers(0, n + 1)]
            ids[r, :len(S)] = S
        # every family but the value table, which has no serial form: Proxy
        # with shift and with clamp, weighted Cut and weighted Coverage too
        for name, obj in scan_families(n, seed).items():
            if name == "table":
                continue
            clone = objective_from_dict(as_read(obj))
            assert type(clone) is type(obj) and as_read(clone) == as_read(obj), name
            if isinstance(obj, Proxy):
                assert clone.penalty == obj.penalty, name
            assert ([clone.eval(row[row < n]) for row in ids]
                    == [obj.eval(row[row < n]) for row in ids]), name
            assert clone.eval_ids(ids).tolist() == obj.eval_ids(ids).tolist(), name

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            objective_from_dict({"variant": "nope"})


def owned_input_families():
    """Per family that takes array or mapping inputs: a function making the
    objective from those inputs, and the inputs as a caller would hold them."""
    rng = np.random.default_rng(5)
    covers = [[0, 1], [1, 2], [3], [0, 4]]
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    sim = rng.uniform(0.1, 1.0, size=(5, 4))
    return {
        "facility_location": (FacilityLocation, [np.ones((3, 4))]),
        "restricted_fl": (lambda s, r: RestrictedFacilityLocation(s, r, tau=0.5),
                          [sim.copy(), np.array([0.9, 0.1, 0.7, 0.8, 0.2])]),
        "proxy": (lambda s, t: Proxy(FacilityLocation(s), PenaltyCurve(t)),
                  [sim.copy(), np.array([0.0, 0.1, 0.3, 0.6, 1.0])]),
        "weighted_coverage": (lambda w: Coverage(covers, weights=w), [np.arange(1.0, 6.0)]),
        "weighted_cut": (lambda w: Cut(4, edges, weights=w), [np.array([1.0, 2.0, 0.5, 3.0])]),
        "modular": (Modular, [np.ones(4)]),
        "interference": (lambda intf: InterferenceCoverage(covers, intf, lam=0.5),
                         [{(0, 1): 1.5, (1, 3): 2.0, (2, 3): 0.25}]),
    }


def _arrays(obj):
    """The arrays an objective holds, its inner facility location's and
    penalty curve's included."""
    out = []
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            out.append(value)
        elif isinstance(value, (FacilityLocation, PenaltyCurve)):
            out += _arrays(value)
    return out


@pytest.mark.parametrize("family", sorted(owned_input_families()))
def test_objectives_own_their_inputs(family):
    # every value path, read before and after the caller writes over the
    # arrays and mappings the objective was built from
    build, inputs = owned_input_families()[family]
    obj = build(*inputs)
    n = obj.n
    ids = np.array([[0, 1, n], [2, n, n], [1, 2, 3]])

    def readings():
        scan = obj.scan()
        scan.add(0)
        return ([obj.eval(S) for S in ([0], [0, 1], [1, 2, 3], range(n))],
                obj.eval_ids(ids).tolist(), scan.values(np.arange(1, n)).tolist(),
                json.dumps(obj.to_dict()))

    before = readings()
    for x in inputs:
        if isinstance(x, dict):
            for key in x:
                x[key] = 5.0
        else:
            x[...] = 5.0
    assert readings() == before, family
    for arr in _arrays(obj):
        assert not any(np.shares_memory(arr, x) for x in inputs
                       if isinstance(x, np.ndarray)), family


NON_FINITE_INPUTS = {
    "coverage": lambda bad: Coverage([[0], [1, 2]], weights=[1.0, bad, 2.0]),
    "cut": lambda bad: Cut(3, [(0, 1), (1, 2)], weights=[bad, 1.0]),
    "modular": lambda bad: Modular([bad, 1.0, 2.0]),
    "facility_location": lambda bad: FacilityLocation([[0.5, bad], [0.1, 0.2]]),
    "restricted_fl": lambda bad: RestrictedFacilityLocation([[0.5, 0.3], [bad, 0.2]],
                                                            [0.9, 0.9], tau=0.5),
    "restricted_fl_rel": lambda bad: RestrictedFacilityLocation([[0.5, 0.3], [0.1, 0.2]],
                                                                [0.9, bad], tau=0.5),
    "restricted_fl_tau": lambda bad: RestrictedFacilityLocation([[0.5, 0.3], [0.1, 0.2]],
                                                                [0.9, 0.9], tau=bad),
    "penalty_curve": lambda bad: PenaltyCurve([0.0, 0.1, bad]),
    "interference_lam": lambda bad: InterferenceCoverage([[0], [1]], {(0, 1): 1.0}, lam=bad),
    "interference_intensity": lambda bad: InterferenceCoverage([[0], [1]], {(0, 1): bad},
                                                               lam=1.0),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("family", sorted(NON_FINITE_INPUTS))
def test_non_finite_weights_and_similarities_rejected(family, bad):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_INPUTS[family](bad)


COVER_FAMILIES = {
    "coverage": lambda covers, m=None: Coverage(covers, m=m),
    "interference": lambda covers, m=None: InterferenceCoverage(covers, {(0, 1): 1.0}, 0.5, m=m),
}


@pytest.mark.parametrize("family", sorted(COVER_FAMILIES))
class TestCoverValidation:
    def test_negative_item_rejected(self, family):
        with pytest.raises(ValueError, match="negative item"):
            COVER_FAMILIES[family]([[0, 2], [1, -1]])

    def test_universe_below_largest_item_rejected(self, family):
        with pytest.raises(ValueError, match="universe size 5"):
            COVER_FAMILIES[family]([[0, 5], [1]], m=5)

    def test_universe_defaults_to_largest_item_plus_one(self, family):
        assert COVER_FAMILIES[family]([[0, 5], [1]]).m == 6
        assert COVER_FAMILIES[family]([[0, 5], [1]], m=9).m == 9

    def test_all_empty_covers_give_an_empty_universe(self, family):
        obj = COVER_FAMILIES[family]([[], []])
        assert obj.m == 0
        assert obj.eval({0}) == 0 and obj.eval_ids(np.array([[0, 2]])).tolist() == [0.0]
        assert obj.scan().values([0, 1]).tolist() == [0, 0]


def pair_arrays_loop(intf, n):
    """Reference for ``InterferenceCoverage``'s pair arrays: one pair at a
    time in mapping order, the first bad pair raising."""
    pairs = {}
    for (i, j), w in intf.items():
        i, j = int(i), int(j)
        if i == j:
            raise ValueError(f"interference diagonal ({i},{i}) must be absent")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"interference pair ({i},{j}) out of range")
        key = (min(i, j), max(i, j))
        w = float(w)
        if not 0 <= w < float("inf"):
            raise ValueError(f"interference intensities must be finite and "
                             f"non-negative, got {w} for pair {key}")
        if key in pairs and pairs[key] != w:
            raise ValueError(f"asymmetric intensities for pair {key}")
        pairs[key] = w
    ends = sorted(pairs)
    return ([i for i, _ in ends], [j for _, j in ends],
            np.array([pairs[key] for key in ends], dtype=float))


def pair_outcome(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


class TestPairValidation:
    N = 5

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-1, N), st.integers(-1, N),
                              st.sampled_from([0.0, -0.0, 1.0, 2.5, -0.5, float("nan"),
                                               float("inf")])), max_size=12))
    def test_arrays_and_first_bad_pair_match_the_loop(self, triples):
        intf = {(i, j): w for i, j, w in triples}
        want = pair_outcome(lambda: pair_arrays_loop(intf, self.N))

        def build():
            obj = InterferenceCoverage([[0]] * self.N, intf, 0.5)
            return obj._pi.tolist(), obj._pj.tolist(), obj._pw

        got = pair_outcome(build)
        if isinstance(want, str):
            assert got == want
        else:
            assert got[:2] == want[:2]
            assert got[2].dtype == want[2].dtype and got[2].tobytes() == want[2].tobytes()

    def test_a_pair_given_both_ways_keeps_one_entry(self):
        obj = InterferenceCoverage([[0], [1], [2]], {(2, 0): 1.5, (1, 2): 0.5, (0, 2): 1.5}, 1.0)
        assert obj.intf == {(0, 2): 1.5, (1, 2): 0.5}
        assert obj._pi.dtype == obj._pj.dtype == np.int64

    @pytest.mark.parametrize("intf, message", [
        ({(0, 1): 1.0, (2, 2): 1.0, (1, 0): 2.0}, r"diagonal \(2,2\)"),
        ({(0, 1): 1.0, (1, 0): 2.0, (2, 2): 1.0}, r"asymmetric intensities for pair \(0, 1\)"),
        ({(0, 1): 1.0, (0, 2**70): 1.0}, rf"pair \(0,{2**70}\) out of range"),
        ({(1, 0): -1.0}, r"got -1.0 for pair \(0, 1\)"),
    ], ids=["diagonal_first", "asymmetric_first", "huge_end", "negative"])
    def test_first_bad_pair_in_mapping_order(self, intf, message):
        with pytest.raises(ValueError, match=message):
            InterferenceCoverage([[0], [1], [2]], intf, 1.0)


class TestCutEdgeValidation:
    @pytest.mark.parametrize("edges, message", [
        ([(0, 1), (2, 2), (1, 5)], r"^self-loop \(2,2\) not allowed$"),
        ([(0, 1), (1, 5), (2, 2)], r"^edge \(1,5\) out of range for n=3$"),
        ([(1, 0), (-1, -1), (0, 9)], r"^self-loop \(-1,-1\) not allowed$"),
        ([(0, -1), (2, 2)], r"^edge \(0,-1\) out of range for n=3$"),
        ([(0, 2**70)], rf"^edge \(0,{2**70}\) out of range for n=3$"),
    ], ids=["loop_first", "range_first", "negative_loop", "negative_end", "huge_end"])
    def test_first_bad_edge_in_input_order(self, edges, message):
        with pytest.raises(ValueError, match=message):
            Cut(3, edges)

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2.0)], [(0, 1), (np.float64(1), 2)]])
    def test_float_end_raises_type_error(self, edges):
        with pytest.raises(TypeError):
            Cut(3, edges)

    def test_edges_keep_input_order_and_orientation(self):
        edges = [(2, 0), (0, 1), (0, 2), (2, 0)]
        obj = Cut(3, np.array(edges, dtype=np.uint8))
        assert obj.edges == edges and obj._us.dtype == obj._vs.dtype == np.int64
        lo, hi, count = obj._edge_pairs
        assert (lo.tolist(), hi.tolist(), count.tolist()) == ([0, 0], [1, 2], [1.0, 3.0])
