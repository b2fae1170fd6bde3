import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prunekit.instances import (_DRAW_CHUNK, GenSpec, InputFormatError, fit_penalty,
                                gen_coverage, gen_from_spec, gen_gnm, gen_interference,
                                gen_planted, load_costs_csv, load_coverage_list,
                                load_edge_list, load_penalty_csv, load_scores_csv,
                                load_similarity_csv, pava_nonincreasing, save_edge_list)
from prunekit.objectives import InterferenceCoverage, check_monotone, check_submodular


class TestGnm:
    def test_empty_graph(self):
        assert gen_gnm(5, 0, seed=0) == []

    def test_complete_graph(self):
        edges = gen_gnm(4, 6, seed=1)
        assert sorted(edges) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_exact_edge_count_simple(self):
        for seed in range(5):
            edges = gen_gnm(30, 90, seed=seed)
            assert len(edges) == 90
            assert len(set(edges)) == 90
            assert all(0 <= u < v < 30 for u, v in edges)

    def test_seeded_determinism(self):
        assert gen_gnm(20, 40, seed=3) == gen_gnm(20, 40, seed=3)
        assert gen_gnm(20, 40, seed=3) != gen_gnm(20, 40, seed=4)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            gen_gnm(4, 7, seed=0)

    def test_uniform_pair_coverage(self):
        # every pair should appear across enough seeds
        seen = set()
        for seed in range(40):
            seen.update(gen_gnm(5, 4, seed=seed))
        assert seen == {(u, v) for u in range(5) for v in range(u + 1, 5)}


class TestPlanted:
    def test_disjoint_cliques(self):
        edges = gen_planted(9, 3, p_in=1.0, p_out=0.0, seed=0)
        block = lambda v: v // 3
        assert all(block(u) == block(v) for u, v in edges)
        assert len(edges) == 3 * 3  # three K3s

    def test_simple_graph(self):
        edges = gen_planted(20, 4, seed=1)
        assert len(set(edges)) == len(edges)
        assert all(u != v for u, v in edges)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            gen_planted(10, 2, p_in=1.2)

    def test_equal_probabilities_match_binomial_expectation(self):
        p = 0.2
        total_pairs = 15 * 14 // 2
        counts = [len(gen_planted(15, 3, p_in=p, p_out=p, seed=s)) for s in range(40)]
        expect = total_pairs * p
        sd = np.sqrt(total_pairs * p * (1 - p))
        assert abs(np.mean(counts) - expect) < 4 * sd / np.sqrt(len(counts))

    def test_community_size_interpretation(self):
        edges_count = gen_planted(20, 4, p_in=1.0, p_out=0.0, seed=2)
        edges_size = gen_planted(20, 0, p_in=1.0, p_out=0.0, seed=2, community_size=5)
        assert edges_count == edges_size


class TestInterference:
    def test_determinism(self):
        a = gen_interference(12, 20, seed=5)
        b = gen_interference(12, 20, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_recipe_ranges(self):
        obj = gen_interference(25, 30, seed=6)
        assert all(3 <= len(c) <= 8 for c in obj.covers)
        assert 0.5 <= obj.lam <= 2.5
        assert all(1.0 <= w <= 5.0 for w in obj.intf.values())

    def test_zero_probability_gives_monotone_coverage(self):
        obj = gen_interference(8, 12, seed=7, interference_prob=0.0)
        assert not obj.intf
        assert check_monotone(obj, exhaustive=True).ok
        assert check_submodular(obj, exhaustive=True).ok

    def test_universe_floor(self):
        with pytest.raises(ValueError):
            gen_interference(5, 7, seed=0)

    @pytest.mark.parametrize("prob", [float("nan"), 1.5, -0.2])
    def test_probability_outside_unit_interval_rejected(self, prob):
        with pytest.raises(ValueError, match=r"probabilities must be in \[0, 1\]"):
            gen_interference(6, 10, seed=0, interference_prob=prob)

    @pytest.mark.parametrize("key,bad", [
        ("intensity_range", (5.0, 1.0)),
        ("intensity_range", (-1.0, 2.0)),
        ("intensity_range", (1.0, float("inf"))),
        ("intensity_range", (float("nan"), 2.0)),
        ("lambda_range", (2.5, 0.5)),
        ("lambda_range", (-0.5, 1.0)),
        ("lambda_range", (0.5, float("nan"))),
    ])
    def test_bad_range_rejected_before_any_draw(self, key, bad):
        # no pair and no lam is drawn, so only an up-front check can see it
        with pytest.raises(ValueError, match=key):
            gen_interference(6, 10, seed=0, interference_prob=0.0, lam=1.0, **{key: bad})

    @pytest.mark.parametrize("bad", [(5, 3), (-1, 3), (3, 11)])
    def test_bad_cover_size_range_rejected(self, bad):
        for gen in (gen_interference, gen_coverage):
            with pytest.raises(ValueError, match="cover_size_range"):
                gen(1, 10, seed=0, cover_size_range=bad)

    def test_degenerate_ranges_accepted(self):
        obj = gen_interference(6, 10, seed=0, interference_prob=1.0, intensity_range=(2.0, 2.0),
                               lambda_range=(0.0, 0.0), cover_size_range=(0, 10))
        assert set(obj.intf.values()) == {2.0} and obj.lam == 0.0

    def test_gen_from_spec(self):
        spec = GenSpec("interference", {"n": 10, "universe_m": 12}, seed=3)
        assert gen_from_spec(spec).to_dict() == gen_interference(10, 12, seed=3).to_dict()
        edges = gen_from_spec(GenSpec("gnm", {"n": 6, "m": 5}, seed=1))
        assert edges == gen_gnm(6, 5, seed=1)


#: sha256 of ``to_dict()`` (JSON with sorted keys) of generated instances,
#: pinned so that the cover and pair draws keep their rng call sequence
GENERATED_DIGESTS = [
    ("gen_coverage", 20, 30, 0, "e3488f844c25d6bb7229d6e6e5e370c987b58c9b73175d1731bd858a64c7589f"),
    ("gen_coverage", 20, 30, 1, "d48ca4d1cd53fba9f6ec92ca93cd0bf0038bf9a1e76d8073b11ce1ea7b13730e"),
    ("gen_coverage", 20, 30, 7919, "9f17bafe9d8072b7161b22449d73844ffa2b48bfe891f2e9507c897e6dd5d604"),
    ("gen_coverage", 1000, 400, 0, "43e70a1ac5ef2abea5b05c352a25dd768b42533707c244f812816a47a209b93c"),
    ("gen_coverage", 1000, 400, 1, "98e2a8ebcda0ac5a41ac87c0db4cb20656501d99525cb8c0e0d99881c188c05f"),
    ("gen_coverage", 1000, 400, 7919, "980d16aae919d4b915bd2de9c46dd640e34d5b69f1ef51166e4d14840ef256c7"),
    ("gen_interference", 20, 30, 0, "72cb13aa7fd8bc4e7a871ece0a4322dd99afb23b8507db41f7757dcd68be2692"),
    ("gen_interference", 20, 30, 1, "e9953764688c9e75f8b76b5ee2a98e030fc14fd87d684b7fed4ddf27a2afb770"),
    ("gen_interference", 20, 30, 7919, "208b4d4717af285ed9263fa68640cb2049111b0caa69f4faad67aa0e3c2288aa"),
    ("gen_interference", 1000, 400, 0, "aaee6176b3dee00dafbc6a4727ca59fa4bde14bb989087e208800a180717c0fa"),
    ("gen_interference", 1000, 400, 1, "af6738b78c97f02b17812f8df386a31e210608bffd60b91c8ec6e01c5dea33cb"),
    ("gen_interference", 1000, 400, 7919, "1c26465a1c51f9841ca8056cf757b751bd92bd5b2c954744a7c5dca580d532f9"),
]


@pytest.mark.parametrize("name,n,m,seed,expected", GENERATED_DIGESTS)
def test_generated_instances_keep_their_bytes(name, n, m, seed, expected):
    gen = {"gen_coverage": gen_coverage, "gen_interference": gen_interference}[name]
    payload = json.dumps(gen(n, m, seed=seed).to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == expected


def scalar_interference(n, universe_m, seed=0, interference_prob=0.25,
                        intensity_range=(1.0, 5.0), lambda_range=(0.5, 2.5), lam=None):
    """The reference for gen_interference: one rng call per draw."""
    rng = np.random.default_rng(seed)
    covers = []
    for _ in range(n):
        size = int(rng.integers(3, 9))
        covers.append(sorted(rng.choice(universe_m, size=size, replace=False).tolist()))
    intf = {}
    if interference_prob > 0:
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < interference_prob:
                    intf[(i, j)] = float(rng.uniform(*intensity_range))
    if lam is None:
        lam = float(rng.uniform(*lambda_range))
    return InterferenceCoverage(covers, intf, lam, m=universe_m).to_dict()


@pytest.mark.parametrize("n", [1, 2, 20, 57])
@pytest.mark.parametrize("prob", [0.0, 0.25, 1.0])
def test_buffered_pair_draws_equal_the_scalar_loop(n, prob):
    for seed, lam, intensity in itertools.product(
            range(5), [None, 1.5], [(1.0, 5.0), (0.125, 0.7)]):
        got = gen_interference(n, 30, seed=seed, interference_prob=prob,
                               intensity_range=intensity, lam=lam).to_dict()
        assert got == scalar_interference(n, 30, seed, prob, intensity, lam=lam)


@pytest.mark.parametrize("prob", [0.25, 1.0])
def test_pair_draws_across_buffer_boundaries(prob):
    n = 100
    assert n * (n - 1) // 2 > _DRAW_CHUNK  # the stream spans several buffers
    for seed in range(3):
        got = gen_interference(n, 30, seed=seed, interference_prob=prob).to_dict()
        assert got == scalar_interference(n, 30, seed, prob)


#: sha256 of the JSON edge lists of planted-partition graphs, pinned so that
#: the pair draws keep their rng call sequence: (n, communities, keywords,
#: seed, digest)
PLANTED_DIGESTS = [
    (20, 4, {}, 0, "f113165e22e8ccfb7d1dedfbab58fc1dfcca2578a4ebca18bafbf36d3d3e6591"),
    (20, 0, {"community_size": 5}, 1,
     "4c9583f545c39178592e4feb61097b4b838e201d52bd06d8260ef7782f6074b2"),
    (58, 4, {"p_in": 0.9, "p_out": 0.2}, 2,
     "cdbea7a9cc293a9d10320d7687f73124698d225a6e1cddf13d5571ce2ec41c97"),
    (200, 0, {"community_size": 30}, 7919,
     "8931396651b6a47bc861647f2532a04f2568bf638fd615f42d03054a9eaf1d38"),
    (1000, 10, {}, 0, "2dc7c7cea63e952995537d9db655e696b9f00efcf458490bf8bb56f7724ec212"),
    (1000, 0, {"community_size": 64, "p_in": 0.1, "p_out": 0.01}, 1,
     "1a5335cd3aff75f3c661113503e5185088eb643f809cbeb7cb6911c88de4e21f"),
    (1000, 7, {}, 7919, "0728abac269fdd4d805a0f6d33894bda30ff0a9b1588f9b6f9ca50f21538b41b"),
]


@pytest.mark.parametrize("n,communities,kwargs,seed,expected", PLANTED_DIGESTS)
def test_planted_edge_lists_keep_their_bytes(n, communities, kwargs, seed, expected):
    edges = gen_planted(n, communities, seed=seed, **kwargs)
    assert hashlib.sha256(json.dumps(edges).encode()).hexdigest() == expected


class TestLoaders:
    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        edges = [(0, 1, 1.0), (1, 2, 2.5), (0, 3, 1.0)]
        save_edge_list(path, edges, header_lines=["test graph"])
        assert load_edge_list(path) == edges

    def test_edge_list_comments_and_default_weight(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n2 3 0.5  # trailing comment\n")
        assert load_edge_list(path) == [(0, 1, 1.0), (2, 3, 0.5)]

    def test_edge_list_malformed_line_number(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nbroken line here now\n")
        with pytest.raises(InputFormatError) as err:
            load_edge_list(path)
        assert err.value.line_no == 2

    def test_comments_only_is_empty(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n# here\n")
        assert load_edge_list(path) == []

    def test_coverage_list(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("1: 4 5\n0: 2 3 4\n")
        assert load_coverage_list(path) == [[2, 3, 4], [4, 5]]

    def test_coverage_list_missing_element(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0: 1\n2: 3\n")
        with pytest.raises(InputFormatError):
            load_coverage_list(path)

    def test_similarity_matrix(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,0.5\n0.25,0.75\n")
        mat = load_similarity_csv(path)
        assert mat.shape == (2, 2) and mat[1, 1] == 0.75

    def test_similarity_ragged_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("1.0,0.5\n0.25\n")
        with pytest.raises(InputFormatError) as err:
            load_similarity_csv(path)
        assert err.value.line_no == 2

    def test_similarity_empty_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(InputFormatError):
            load_similarity_csv(path)

    def test_similarity_negative_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.5,-0.1\n")
        with pytest.raises(InputFormatError):
            load_similarity_csv(path)

    def test_costs(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# id,cost\n0,1.5\n1,2.0\n")
        assert load_costs_csv(path) == {0: 1.5, 1: 2.0}

    def test_costs_validation(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,1.0\n0,2.0\n")
        with pytest.raises(InputFormatError):
            load_costs_csv(path)
        path.write_text("0,0.0\n")
        with pytest.raises(InputFormatError):
            load_costs_csv(path)

    @pytest.mark.parametrize("cost", ["nan", "inf", "0.0", "-1"])
    def test_bad_cost_rejected_at_its_line(self, tmp_path, cost):
        path = tmp_path / "c.csv"
        path.write_text(f"# id,cost\n0,0.5\n1,{cost}\n2,0.25\n")
        with pytest.raises(InputFormatError, match="c.csv:3: cost of element 1") as info:
            load_costs_csv(path)
        assert info.value.line_no == 3

    def test_scores_allow_any_real(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("0,-0.25\n1,0.0\n")
        assert load_scores_csv(path) == {0: -0.25, 1: 0.0}

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_rejected_at_its_line(self, tmp_path, score):
        path = tmp_path / "r.csv"
        path.write_text(f"# id,score\n0,0.5\n1,{score}\n")
        with pytest.raises(InputFormatError, match="r.csv:3: score of id 1 must be finite"):
            load_scores_csv(path)

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_rejected_at_its_line(self, tmp_path, theta):
        path = tmp_path / "p.csv"
        path.write_text(f"0,0.0\n1,{theta}\n2,0.3\n")
        with pytest.raises(InputFormatError, match="p.csv:2: theta of size 1 must be finite"):
            load_penalty_csv(path)

    def test_penalty_curve(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0.0\n1,0.1\n2,0.3\n")
        curve = load_penalty_csv(path)
        assert curve.theta.tolist() == [0.0, 0.1, 0.3]

    def test_penalty_requires_dense_sizes(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,0.0\n2,0.3\n")
        with pytest.raises(InputFormatError):
            load_penalty_csv(path)

    @pytest.mark.parametrize("text,line_no,message", [
        ("0,0.0\n1,0.1\n1,0.2\n", 3, "duplicate size 1"),
        ("# size,theta\n\n0,0.0\n1,0.1,9\n", 4, "expected 'size,theta'"),
    ], ids=["duplicate", "three_columns"])
    def test_penalty_record_errors_name_their_line(self, tmp_path, text, line_no, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(InputFormatError) as info:
            load_penalty_csv(path)
        assert info.value.line_no == line_no
        assert str(info.value).endswith(message)


class TestPava:
    def test_hand_example(self):
        # [0.5, 0.8, 0.7, 0.4, 0.1] pooled non-increasing -> first three at 2/3
        fit = pava_nonincreasing([0.5, 0.8, 0.7, 0.4, 0.1])
        assert np.allclose(fit, [2 / 3, 2 / 3, 2 / 3, 0.4, 0.1])

    def test_already_sorted_untouched(self):
        y = [5.0, 4.0, 2.5, 1.0]
        assert np.allclose(pava_nonincreasing(y), y)

    def test_against_scipy(self):
        scipy_iso = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(31)
        for _ in range(25):
            y = rng.normal(size=rng.integers(1, 30))
            w = rng.uniform(0.5, 3.0, size=y.size)
            ours = pava_nonincreasing(y, w)
            ref = scipy_iso.isotonic_regression(y, weights=w, increasing=False)
            assert np.allclose(ours, ref.x)


class TestFitPenalty:
    def test_constant_quality_gives_zero(self):
        curve = fit_penalty([(s, 0.7) for s in range(6)])
        assert np.allclose(curve.theta, 0.0)

    def test_linear_decay_gives_linear_penalty(self):
        delta = 0.05
        pts = [(s, 1.0 - delta * s) for s in range(8)]
        curve = fit_penalty(pts)
        assert np.allclose(curve.theta, [delta * s for s in range(8)])

    def test_noisy_hump_hand_values(self):
        pts = [(1, 0.5), (2, 0.8), (3, 0.7), (4, 0.4), (5, 0.1)]
        curve = fit_penalty(pts)
        # isotonic fit pools the rise: q* = [2/3, 2/3, 2/3, 0.4, 0.1];
        # theta_raw = [0, 0, 0, 4/15, 17/30]; already convex on the grid
        assert np.allclose(curve.theta, [0, 0, 0, 0, 4 / 15, 17 / 30])

    def test_extends_past_observed_sizes(self):
        curve = fit_penalty([(0, 1.0), (2, 0.6)], n=4)
        # slope 0.2 per step continues past the data
        assert np.allclose(curve.theta, [0.0, 0.2, 0.4, 0.6, 0.8])

    def test_duplicate_sizes_averaged(self):
        curve = fit_penalty([(0, 1.0), (1, 0.4), (1, 0.6)])
        assert curve.theta[1] == pytest.approx(0.5)

    def test_invariants_on_fuzzed_inputs(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            n_pts = int(rng.integers(1, 40))
            sizes = rng.integers(0, 12, size=n_pts)
            quals = rng.normal(0.5, 0.5, size=n_pts)
            curve = fit_penalty(list(zip(sizes, quals)), n=12)
            theta = curve.theta
            assert theta[0] == pytest.approx(0.0)
            assert np.all(np.diff(theta) >= -1e-9)
            assert np.all(np.diff(np.diff(theta)) >= -1e-9)

    @given(st.lists(st.tuples(st.integers(0, 12),
                              st.floats(-5, 5, allow_nan=False)),
                    min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_invariants_hold_for_any_input(self, points):
        theta = fit_penalty(points, n=12).theta
        assert theta[0] == pytest.approx(0.0)
        assert np.all(np.diff(theta) >= -1e-9)
        assert np.all(np.diff(np.diff(theta)) >= -1e-9)

    @given(st.lists(st.tuples(st.integers(0, 10),
                              st.floats(-2, 2, allow_nan=False)),
                    min_size=1, max_size=25))
    @settings(max_examples=100, deadline=None)
    def test_penalty_is_a_minorant_of_the_raw_fit(self, points):
        # the convexified curve never exceeds the isotonic-fit penalty at
        # observed sizes
        curve = fit_penalty(points, n=10)
        by_size = {}
        for s, q in points:
            by_size.setdefault(s, []).append(q)
        sizes = sorted(by_size)
        fit = pava_nonincreasing([np.mean(by_size[s]) for s in sizes],
                                 [len(by_size[s]) for s in sizes])
        raw = fit[0] - fit
        for s, t in zip(sizes, raw):
            assert curve.theta[s] <= t + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_penalty([])

    def test_size_above_n_rejected(self):
        with pytest.raises(ValueError):
            fit_penalty([(5, 0.5)], n=3)
