import numpy as np
import pytest

from prunekit.objectives import (Coverage, Cut, FacilityLocation, InterferenceCoverage,
                                 Modular, PenaltyCurve, Proxy,
                                 RestrictedFacilityLocation, TableObjective)


@pytest.fixture
def triangle():
    """Cut on the 3-cycle: the canonical small non-monotone objective."""
    return Cut(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_coverage():
    """covers = {0: {1,2}, 1: {2,3}}, unit weights."""
    return Coverage([{1, 2}, {2, 3}])


def build_variants(n=6, seed=0):
    """One instance of every built-in objective family at ground-set size n."""
    rng = np.random.default_rng(seed)
    covers = [rng.choice(2 * n, size=rng.integers(1, 4), replace=False).tolist()
              for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    sim = rng.uniform(0, 1, size=(n + 2, n))
    theta = np.concatenate([[0.0], np.cumsum(np.linspace(0.0, 0.08, n))])
    intf = {(i, j): float(rng.uniform(1, 5))
            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25}
    rel = rng.uniform(0, 1, size=n + 2)
    return {
        "coverage": Coverage(covers, m=2 * n),
        "weighted_coverage": Coverage(covers, m=2 * n,
                                      weights=rng.uniform(0.5, 2.0, size=2 * n)),
        "cut": Cut(n, edges),
        "facility_location": FacilityLocation(sim),
        "restricted_fl": RestrictedFacilityLocation(sim, rel, tau=0.5),
        "proxy": Proxy(FacilityLocation(sim), PenaltyCurve(theta)),
        "interference_coverage": InterferenceCoverage(covers, intf, lam=1.5),
        "modular": Modular(rng.uniform(0, 3, size=n)),
    }


def scan_families(n, seed):
    """Every family and variant: build_variants, plus weighted Cut, Proxy with
    shift and with clamp, RFL without gated rows, a value table, and two
    tie-heavy objectives (a cycle cut, repeated modular weights)."""
    fams = dict(build_variants(n=n, seed=seed))
    rng = np.random.default_rng(seed + 1)
    edges = fams["cut"].edges
    sim = fams["facility_location"].sim
    dud = sim.copy()
    dud[:, 0] = 0.0  # {0} falls below the penalty: shift and clamp engage
    linear = PenaltyCurve(0.999 * float(dud.max(axis=1).sum()) * np.arange(n + 1) / n)
    fams.update({
        "weighted_cut": Cut(n, edges, weights=rng.uniform(0.5, 2.0, size=len(edges))),
        "proxy_shift": Proxy(FacilityLocation(dud), linear, shift=True),
        "proxy_clamp": Proxy(FacilityLocation(dud), linear, clamp=True),
        "restricted_fl_ungated": RestrictedFacilityLocation(sim, np.zeros(n + 2), tau=1.0),
        "table": TableObjective.from_function(
            n, lambda s: float(len(s) * (n - len(s))) + 0.25 * (min(s, default=0) % 3)),
        "tie_cut": Cut(n, [(i, (i + 1) % n) for i in range(n)]),  # n = 2: a double edge
        "tie_modular": Modular(rng.integers(0, 3, size=n).astype(float)),
    })
    return fams


def supermodular_counterexample(n=4):
    """f(S) = |S|^2: violates diminishing returns at (A={}, B={0}, x=1)."""
    return TableObjective.from_function(n, lambda s: float(len(s) ** 2))
