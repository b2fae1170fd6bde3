"""Instance generators, file loaders, and the size-penalty fitter.

Generators are seed-deterministic.  File formats:

* edge list -- one ``u v [w]`` per line, ``#`` comments, 0-indexed ids;
* coverage list -- ``elem: item item ...`` per line;
* similarity matrix -- dense CSV, rows are covered points;
* costs -- two-column CSV ``element,cost``;
* penalty curve -- two-column CSV ``size,theta``.

Malformed lines raise :class:`InputFormatError` carrying the line number.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .objectives import Coverage, Cut, InterferenceCoverage, Objective, PenaltyCurve

__all__ = [
    "GenSpec", "InputFormatError",
    "gen_gnm", "gen_planted", "gen_interference", "gen_coverage", "gen_from_spec",
    "objective_from_spec",
    "load_edge_list", "save_edge_list", "load_coverage_list",
    "load_similarity_csv", "load_costs_csv", "load_scores_csv", "load_penalty_csv",
    "fit_penalty", "pava_nonincreasing",
]

#: fixed parameters of the interference-coverage recipe; universe_m is the
#: one knob left open (an invented default, echoed in serialized output)
INTERFERENCE_DEFAULTS = {
    "interference_prob": 0.25,
    "intensity_range": (1.0, 5.0),
    "lambda_range": (0.5, 2.5),
    "cover_size_range": (3, 8),
}

#: most doubles a generator draws into one buffer: large enough to amortise
#: the call, small enough that the buffer's Python floats (about 25 kB) leave
#: peak memory alone, where one buffer for every possible draw of n = 1000
#: would hold a million
_DRAW_CHUNK = 1 << 10


class InputFormatError(ValueError):
    """A loader hit a malformed line; carries path and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


@dataclass(frozen=True)
class GenSpec:
    """Reproducible instance recipe: family tag, parameters, seed."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params), "seed": self.seed}


def gen_gnm(n: int, m: int, seed: int = 0) -> list[tuple[int, int]]:
    """Uniform simple graph with exactly m edges on n vertices."""
    total = n * (n - 1) // 2
    if not (0 <= m <= total):
        raise ValueError(f"m must be in [0, {total}] for n={n}, got {m}")
    idx = np.sort(np.random.default_rng(seed).choice(total, size=m, replace=False))
    # decode linear indices into the (u < v) pair grid: row u starts at starts[u]
    rows = np.arange(n, dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    u = np.searchsorted(starts, idx, "right") - 1
    v = u + 1 + idx - starts[u]
    return list(zip(u.tolist(), v.tolist()))


def gen_planted(n: int, communities: int, p_in: float = 0.3, p_out: float = 0.05,
                seed: int = 0, community_size: int | None = None) -> list[tuple[int, int]]:
    """Planted-partition graph: equal-size blocks (last one padded), edge
    probability p_in inside a block and p_out across blocks.

    ``communities`` is the block count; pass ``community_size`` instead to fix
    the block size and derive the count.  The probability defaults are
    invented (the benchmark names only the sizes) and callers should echo
    them in any serialized output.  Each unordered pair draws one double,
    in ascending pair order.

    Raises ``ValueError`` for a block count outside ``[1, n]`` and for a
    probability outside ``[0, 1]`` or NaN.
    """
    if community_size is not None:
        communities = math.ceil(n / community_size)
    if communities < 1 or communities > n:
        raise ValueError(f"communities must be in [1, n], got {communities}")
    _check_probability(p_in)
    _check_probability(p_out)
    block = np.minimum(np.arange(n) // math.ceil(n / communities), communities - 1)
    # one rng.random(size) call draws the doubles that size scalar calls would
    us, vs = np.triu_indices(n, 1)
    p = np.where(block[us] == block[vs], float(p_in), float(p_out))
    hit = np.random.default_rng(seed).random(len(us)) < p
    return list(zip(us[hit].tolist(), vs[hit].tolist()))


def gen_interference(n: int, universe_m: int, seed: int = 0,
                     interference_prob: float | None = None,
                     intensity_range: tuple[float, float] | None = None,
                     lambda_range: tuple[float, float] | None = None,
                     cover_size_range: tuple[int, int] | None = None,
                     lam: float | None = None) -> InterferenceCoverage:
    """Random interference-coverage objective.

    Every element covers a uniform subset of [universe_m] whose size is
    uniform on the cover-size range; unordered pairs interfere independently
    with the given probability and uniform intensity; the penalty weight is
    uniform on its range unless ``lam`` pins it.  Forcing
    ``interference_prob=0`` yields a plain monotone coverage objective.

    Raises ``ValueError``, before any draw, for:

    * an ``interference_prob`` outside ``[0, 1]`` or NaN;
    * an ``intensity_range`` or ``lambda_range`` that is not finite, has a
      negative end or has ``lo > hi``;
    * a ``cover_size_range`` outside ``0 <= lo <= hi <= universe_m``;
    * a ``universe_m`` below 8.
    """
    prob = INTERFERENCE_DEFAULTS["interference_prob"] if interference_prob is None \
        else interference_prob
    _check_probability(prob)
    intensity = _check_range("intensity_range", intensity_range)
    lam_range = _check_range("lambda_range", lambda_range)
    rng = np.random.default_rng(seed)
    covers = _draw_covers(rng, n, universe_m, cover_size_range)
    intf, drawn_lam = _draw_pairs(rng, n, prob, intensity, lam_range)
    return InterferenceCoverage(covers, intf, drawn_lam if lam is None else lam, m=universe_m)


def gen_coverage(n: int, universe_m: int, seed: int = 0,
                 cover_size_range: tuple[int, int] | None = None) -> Coverage:
    """Random monotone coverage: the covers :func:`gen_interference` draws,
    with its checks on ``cover_size_range`` and ``universe_m``."""
    covers = _draw_covers(np.random.default_rng(seed), n, universe_m, cover_size_range)
    return Coverage(covers, m=universe_m)


def _draw_covers(rng: np.random.Generator, n: int, universe_m: int,
                 cover_size_range: tuple[int, int] | None) -> list[list[int]]:
    """Per element a uniform size on the cover-size range, then that many
    distinct items of [universe_m], sorted."""
    if universe_m < 8:
        raise ValueError("universe_m must be >= 8")
    lo_c, hi_c = cover_size_range or INTERFERENCE_DEFAULTS["cover_size_range"]
    if not 0 <= lo_c <= hi_c <= universe_m:
        raise ValueError(f"cover_size_range must satisfy 0 <= lo <= hi <= universe_m="
                         f"{universe_m}, got {(lo_c, hi_c)}")
    covers = []
    for _ in range(n):
        size = int(rng.integers(lo_c, hi_c + 1))
        covers.append(sorted(rng.choice(universe_m, size=size, replace=False).tolist()))
    return covers


def _check_probability(p: float) -> None:
    if not 0 <= p <= 1:  # NaN fails too
        raise ValueError("probabilities must be in [0, 1]")


def _check_range(name: str, given: tuple[float, float] | None) -> tuple[float, float]:
    """``given`` (or the recipe default) as floats ``0 <= lo <= hi < inf``."""
    lo, hi = map(float, given or INTERFERENCE_DEFAULTS[name])
    if not 0 <= lo <= hi < math.inf:
        raise ValueError(f"{name} must be finite with 0 <= lo <= hi, got {(lo, hi)}")
    return lo, hi


def _draw_pairs(rng: np.random.Generator, n: int, prob: float,
                intensity: tuple[float, float], lam_range: tuple[float, float]):
    """``(intf, lam)``: each unordered pair in ascending order interferes
    when its draw is below ``prob``, with a uniform intensity, and then a
    uniform ``lam`` is drawn.

    Every draw is one ``rng.random()`` double, read in stream order from
    buffers of at most ``_DRAW_CHUNK``: one per pair (none when ``prob`` is
    0), one more per interfering pair and one for ``lam``.  ``uniform(lo,
    hi)`` is ``lo + (hi - lo) * random()`` bit for bit, so the values are
    those of one ``random`` and ``uniform`` call per draw.  ``rng`` must not
    be drawn from afterwards: the last buffer may be read only in part.
    """
    (lo_i, hi_i), (lo_l, hi_l) = intensity, lam_range
    pairs = n * (n - 1) // 2 if prob > 0 else 0
    size = min(_DRAW_CHUNK, 2 * pairs + 1)  # 2 * pairs + 1 draws always suffice
    draw = itertools.chain.from_iterable(iter(lambda: rng.random(size).tolist(), None))
    intf = {}
    if pairs:
        for i in range(n):
            for j in range(i + 1, n):
                if next(draw) < prob:
                    intf[i, j] = lo_i + (hi_i - lo_i) * next(draw)
    return intf, lo_l + (hi_l - lo_l) * next(draw)


_GENERATORS = {"gnm": gen_gnm, "planted": gen_planted,
               "interference": gen_interference, "coverage": gen_coverage}


def gen_from_spec(spec: GenSpec):
    """Materialize a :class:`GenSpec`; returns edges or an objective.

    Raises ``TypeError`` when ``params`` holds a key the generator does not
    take or lacks one it needs.
    """
    gen = _GENERATORS.get(spec.family)
    if gen is None:
        raise ValueError(f"unknown generator family {spec.family!r}")
    return gen(seed=spec.seed, **spec.params)


def objective_from_spec(spec: GenSpec) -> Objective:
    """The objective a :class:`GenSpec` describes: a generated graph becomes
    its unweighted :class:`~prunekit.objectives.Cut`."""
    made = gen_from_spec(spec)
    return made if isinstance(made, Objective) else Cut(spec.params["n"], made)


def _data_lines(path):
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line_no, line


def load_edge_list(path) -> list[tuple[int, int, float]]:
    """Parse ``u v [w]`` lines into (u, v, weight) triples (weight 1 default)."""
    edges = []
    for line_no, line in _data_lines(path):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InputFormatError(path, line_no,
                                   f"expected 'u v [w]', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise InputFormatError(path, line_no, f"non-numeric field in {line!r}")
        if u < 0 or v < 0:
            raise InputFormatError(path, line_no, "vertex ids must be >= 0")
        if w < 0:
            raise InputFormatError(path, line_no, "edge weight must be >= 0")
        edges.append((u, v, w))
    return edges


def save_edge_list(path, edges, header_lines: Sequence[str] = ()) -> None:
    """Write an edge list; header lines are emitted as ``#`` comments."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for edge in edges:
            if len(edge) == 3 and float(edge[2]) != 1.0:
                fh.write(f"{edge[0]} {edge[1]} {edge[2]}\n")
            else:
                fh.write(f"{edge[0]} {edge[1]}\n")


def load_coverage_list(path) -> list[list[int]]:
    """Parse ``elem: item item ...`` lines into per-element cover lists.

    Elements may appear in any order but must form a dense 0..n-1 range.
    """
    covers: dict[int, list[int]] = {}
    for line_no, line in _data_lines(path):
        if ":" not in line:
            raise InputFormatError(path, line_no, "expected 'elem: item item ...'")
        head, tail = line.split(":", 1)
        try:
            elem = int(head.strip())
            items = [int(tok) for tok in tail.split()]
        except ValueError:
            raise InputFormatError(path, line_no, f"non-integer field in {line!r}")
        if elem < 0 or any(v < 0 for v in items):
            raise InputFormatError(path, line_no, "ids must be >= 0")
        if elem in covers:
            raise InputFormatError(path, line_no, f"duplicate element {elem}")
        covers[elem] = sorted(set(items))
    if not covers:
        return []
    n = max(covers) + 1
    if sorted(covers) != list(range(n)):
        missing = sorted(set(range(n)) - set(covers))
        raise InputFormatError(path, 0, f"element ids not dense; missing {missing}")
    return [covers[e] for e in range(n)]


def _csv_records(path):
    """``(line_no, record)`` for each CSV record that is neither blank nor a
    ``#`` comment."""
    with open(path) as fh:
        for line_no, record in enumerate(csv.reader(fh), start=1):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if not record[0].lstrip().startswith("#"):
                yield line_no, record


def load_similarity_csv(path) -> np.ndarray:
    """Parse a dense similarity matrix; must be rectangular with >= 1 row."""
    rows = []
    width = None
    for line_no, record in _csv_records(path):
        try:
            row = [float(x) for x in record]
        except ValueError:
            raise InputFormatError(path, line_no, f"non-numeric entry in {record!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputFormatError(path, line_no,
                                   f"ragged row: expected {width} columns, got {len(row)}")
        if min(row) < 0:
            raise InputFormatError(path, line_no, "similarities must be >= 0")
        rows.append(row)
    if not rows:
        raise InputFormatError(path, 0, "similarity matrix needs at least one row")
    return np.asarray(rows, dtype=float)


def _two_col(path, what: str, key: str = "id"):
    """``(line_no, key, value)`` per two-column ``key,what`` record: a
    non-negative integer ``key``, distinct across records, and a float."""
    seen: set[int] = set()
    for line_no, record in _csv_records(path):
        if len(record) != 2:
            raise InputFormatError(path, line_no, f"expected '{key},{what}'")
        try:
            e, c = int(record[0]), float(record[1])
        except ValueError:
            raise InputFormatError(path, line_no, f"non-numeric field in {record!r}")
        if e < 0:
            raise InputFormatError(path, line_no, f"{key}s must be >= 0")
        if e in seen:
            raise InputFormatError(path, line_no, f"duplicate {key} {e}")
        seen.add(e)
        yield line_no, e, c


def _finite_two_col(path, what: str, key: str = "id"):
    """The records of :func:`_two_col`; a NaN or infinite value is an
    error at its line."""
    for line_no, e, c in _two_col(path, what, key):
        if not math.isfinite(c):
            raise InputFormatError(path, line_no, f"{what} of {key} {e} must be finite, got {c}")
        yield line_no, e, c


def load_costs_csv(path) -> dict[int, float]:
    """Parse two-column ``element,cost`` records into an id -> cost map;
    every cost must be positive and finite."""
    costs = {}
    for line_no, e, c in _two_col(path, "cost"):
        if not 0 < c < math.inf:
            raise InputFormatError(path, line_no,
                                   f"cost of element {e} must be positive and finite, got {c}")
        costs[e] = c
    return costs


def load_scores_csv(path) -> dict[int, float]:
    """Parse two-column ``id,score`` records (any finite real scores)."""
    return {e: c for _, e, c in _finite_two_col(path, "score")}


def load_penalty_csv(path) -> PenaltyCurve:
    """Parse two-column ``size,theta`` records into a validated curve.

    Sizes must be the dense range 0..n in any order.
    """
    entries = {s: t for _, s, t in _finite_two_col(path, "theta", key="size")}
    if not entries:
        raise InputFormatError(path, 0, "penalty curve needs at least one row")
    if sorted(entries) != list(range(max(entries) + 1)):
        raise InputFormatError(path, 0, "sizes must form a dense 0..n range")
    return PenaltyCurve([entries[s] for s in range(max(entries) + 1)])


def pava_nonincreasing(values: Sequence[float], weights: Sequence[float] | None = None) -> np.ndarray:
    """Weighted least-squares non-increasing fit (pool adjacent violators)."""
    y = np.asarray(values, dtype=float)
    w = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if y.shape != w.shape or y.ndim != 1:
        raise ValueError("values and weights must be matching 1-d arrays")
    # fit non-decreasing on the negated series
    blocks: list[list[float]] = []  # [sum_wy, sum_w, count]
    for yi, wi in zip(-y, w):
        blocks.append([yi * wi, wi, 1])
        while len(blocks) > 1 and blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]:
            b = blocks.pop()
            blocks[-1][0] += b[0]
            blocks[-1][1] += b[1]
            blocks[-1][2] += b[2]
    out = np.empty_like(y)
    pos = 0
    for s_wy, s_w, count in blocks:
        out[pos:pos + count] = -(s_wy / s_w)
        pos += count
    return out


def fit_penalty(points: Sequence[tuple[int, float]], n: int | None = None) -> PenaltyCurve:
    """Fit a convex non-decreasing size penalty from (size, quality) samples.

    Pipeline: (1) mean quality per observed size, (2) non-increasing isotonic
    fit, (3) raw penalty = fitted peak minus fitted quality (zero before the
    first observed size), (4) greatest convex non-decreasing minorant on the
    integer grid 0..n, extended past the data with the final slope.
    """
    pts = [(int(s), float(q)) for s, q in points]
    if not pts:
        raise ValueError("need at least one (size, quality) point")
    if any(s < 0 for s, _ in pts):
        raise ValueError("sizes must be >= 0")
    max_size = max(s for s, _ in pts)
    if n is None:
        n = max_size
    elif max_size > n:
        raise ValueError(f"observed size {max_size} exceeds n={n}")

    by_size: dict[int, list[float]] = {}
    for s, q in pts:
        by_size.setdefault(s, []).append(q)
    sizes = sorted(by_size)
    means = np.array([np.mean(by_size[s]) for s in sizes])
    counts = np.array([len(by_size[s]) for s in sizes], dtype=float)

    fit = pava_nonincreasing(means, counts)
    theta_raw = fit[0] - fit  # non-negative, non-decreasing

    # knots for the minorant: zero up to the first observed size
    xs = [0.0] if sizes[0] > 0 else []
    ys = [0.0] if sizes[0] > 0 else []
    xs += [float(s) for s in sizes]
    ys += [float(t) for t in theta_raw]
    hull_x, hull_y = _lower_convex_hull(xs, ys)

    theta = np.zeros(n + 1)
    slopes = np.zeros(n)  # slope on [s, s+1]
    seg = 0
    for s in range(n):
        while seg + 1 < len(hull_x) - 1 and hull_x[seg + 1] <= s:
            seg += 1
        if s + 1 <= hull_x[-1]:
            slopes[s] = (hull_y[seg + 1] - hull_y[seg]) / (hull_x[seg + 1] - hull_x[seg])
        else:
            # past the data: extend with the final hull slope
            slopes[s] = ((hull_y[-1] - hull_y[-2]) / (hull_x[-1] - hull_x[-2])
                         if len(hull_x) > 1 else 0.0)
    slopes = np.maximum.accumulate(np.clip(slopes, 0.0, None))
    theta[1:] = np.cumsum(slopes)
    return PenaltyCurve(theta)


def _lower_convex_hull(xs: Sequence[float], ys: Sequence[float]):
    """Lower convex hull of points with strictly increasing x."""
    hx: list[float] = []
    hy: list[float] = []
    for x, y in zip(xs, ys):
        while len(hx) >= 2:
            cross = ((hx[-1] - hx[-2]) * (y - hy[-2])
                     - (x - hx[-2]) * (hy[-1] - hy[-2]))
            if cross <= 0:  # middle point is above or on the new segment
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(x)
        hy.append(y)
    return hx, hy
