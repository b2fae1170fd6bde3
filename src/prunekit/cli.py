"""Command-line front end.

Subcommands: ``gen`` (instance files), ``prune`` (pruned-set reports),
``eval`` (containment reports), ``sweep`` (grid runs + aggregate table),
``check`` (structural property reports), ``separation`` (greedy vs disjoint
containment rates).

Every output embeds the fully resolved configuration.  Timestamps and wall
times live in the header record so that identical configs and seeds produce
byte-identical report bodies.  Exit codes: 0 success, 2 config error
(including an input or output path that cannot be opened), 3 enumeration
guard exceeded, 4 input parse error (including undecodable bytes).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

import numpy as np

from . import exact, harness, instances, knapsack, objectives, prune
from .harness import PRUNER_NAMES

SCHEMA = "prunekit/1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_PARSE = 4


class ConfigError(ValueError):
    pass


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S%z")


def _dump_json(path, header: dict, body: dict) -> None:
    doc = {"header": {"schema": SCHEMA, "generated_at": _now(), **header},
           "body": body}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _dump_jsonl(path, header: dict, records) -> None:
    with open(path, "w") as fh:
        head = {"record": "header", "schema": SCHEMA, "generated_at": _now(), **header}
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise instances.InputFormatError(path, exc.lineno, f"invalid JSON: {exc.msg}")


def _load_json_body(path):
    doc = _load_json(path)
    return doc["body"] if isinstance(doc, dict) and "body" in doc else doc


def _load_gen_spec(path) -> instances.GenSpec:
    """A ``--gen-spec`` file: a JSON object with a ``family`` string, a
    ``params`` object holding ``n`` and an optional ``seed``."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        problem = "generator spec must be a JSON object"
    elif not isinstance(raw.get("family"), str):
        problem = "generator spec misses its 'family' string"
    elif not isinstance(raw.get("params"), dict) or "n" not in raw["params"]:
        problem = "generator spec misses 'params.n'"
    else:
        return instances.GenSpec(raw["family"], raw["params"], raw.get("seed", 0))
    raise instances.InputFormatError(path, 1, problem)


def _resolve_objective(args) -> tuple[objectives.Objective, dict]:
    """Build the objective from source flags; returns (objective, config echo)."""
    cfg: dict = {}
    if getattr(args, "objective_file", None):
        payload = _load_json_body(args.objective_file)
        try:
            obj = objectives.objective_from_dict(payload)
        except TypeError as exc:  # a missing or ill-typed field
            raise instances.InputFormatError(args.objective_file, 1, str(exc))
        cfg = {"source": str(args.objective_file), "variant": payload["variant"]}
    elif getattr(args, "gen_spec", None):
        spec = _load_gen_spec(args.gen_spec)
        try:
            obj = instances.objective_from_spec(spec)
        except TypeError as exc:  # a param the generator does not take, or lacks
            raise instances.InputFormatError(args.gen_spec, 1, str(exc))
        cfg = {"source": str(args.gen_spec), "gen_spec": spec.to_dict()}
    elif getattr(args, "graph", None):
        edges = instances.load_edge_list(args.graph)
        n = args.n if args.n else (max((max(u, v) for u, v, _ in edges), default=-1) + 1)
        if n < 1:
            raise ConfigError("empty graph needs --n to fix the vertex count")
        weights = [w for _, _, w in edges]
        unweighted = all(w == 1.0 for w in weights)
        obj = objectives.Cut(n, [(u, v) for u, v, _ in edges],
                             None if unweighted else weights)
        cfg = {"source": str(args.graph), "variant": "cut", "n": n,
               "edges": len(edges)}
    elif getattr(args, "coverage", None):
        covers = instances.load_coverage_list(args.coverage)
        if not covers:
            raise ConfigError("coverage file has no elements")
        obj = objectives.Coverage(covers)
        cfg = {"source": str(args.coverage), "variant": "coverage"}
    elif getattr(args, "sim", None):
        sim = instances.load_similarity_csv(args.sim)
        fl = objectives.FacilityLocation(sim)
        if getattr(args, "penalty", None):
            curve = instances.load_penalty_csv(args.penalty)
            obj = objectives.Proxy(fl, curve, shift=getattr(args, "shift", False))
            cfg = {"source": str(args.sim), "variant": "proxy",
                   "penalty": str(args.penalty)}
        elif getattr(args, "rel", None):
            scores = instances.load_scores_csv(args.rel)
            if sorted(scores) != list(range(sim.shape[0])):
                raise ConfigError("--rel must score every similarity row 0..m-1")
            rel = [scores[v] for v in range(sim.shape[0])]
            obj = objectives.RestrictedFacilityLocation(sim, rel, args.tau)
            cfg = {"source": str(args.sim), "variant": "restricted_fl",
                   "rel": str(args.rel), "tau": args.tau}
        else:
            obj = fl
            cfg = {"source": str(args.sim), "variant": "facility_location"}
    else:
        raise ConfigError("no objective source: pass --objective-file, --graph, "
                          "--coverage, --sim, or --gen-spec")
    wanted = getattr(args, "objective", None)
    if wanted and wanted != "auto" and wanted != obj.variant:
        raise ConfigError(f"--objective {wanted} does not match resolved "
                          f"variant {obj.variant}")
    return obj, cfg


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _gen_spec(args, seed: int) -> instances.GenSpec:
    """The instance recipe the generator flags describe, with ``seed``; a
    family's missing required flag is a config error."""
    family = args.family
    if args.n is None or (family == "gnm" and args.m is None):
        raise ConfigError(f"{family} needs --n" + (" and --m" if family == "gnm" else ""))
    lam = getattr(args, "lam", None)  # only gen takes --lam
    if lam is not None and family != "interference":
        raise ConfigError(f"--lam applies to the interference family, not {family}")
    params = {"n": args.n}
    if family == "gnm":
        params["m"] = args.m
    elif family == "planted":
        params.update(communities=args.communities, p_in=args.p_in, p_out=args.p_out)
    else:
        params["universe_m"] = args.universe_m
        if lam is not None:
            params["lam"] = lam
    return instances.GenSpec(family, params, seed)


def cmd_gen(args) -> int:
    spec = _gen_spec(args, args.seed)
    made = instances.gen_from_spec(spec)
    cfg = {"family": spec.family, "seed": spec.seed, **spec.params}
    if spec.family == "planted":
        cfg["invented_defaults"] = ["p_in", "p_out"]
    elif spec.family == "interference":
        cfg.update(instances.INTERFERENCE_DEFAULTS)
    if isinstance(made, objectives.Objective):
        _dump_json(args.out, {"config": cfg}, made.to_dict())
    else:
        header = [f"schema: {SCHEMA}", f"generated: {_now()}",
                  f"config: {json.dumps(cfg, sort_keys=True)}"]
        instances.save_edge_list(args.out, made, header_lines=header)
    print(f"wrote {args.family} instance to {args.out}")
    return EXIT_OK


def cmd_prune(args) -> int:
    obj, src_cfg = _resolve_objective(args)
    n = obj.n
    cfg = {"algo": args.algo, "k": args.k, "omega": args.omega, "ell": args.ell,
           "epsilon": args.epsilon, "p": args.p, "seed": args.seed,
           "objective": src_cfg}
    t0 = time.perf_counter()
    if args.algo == "sdg_density":
        if not args.costs or args.budget is None:
            raise ConfigError("sdg_density needs --costs and --budget")
        inst = knapsack.KnapsackInstance(_cost_vector(args.costs, n), args.budget)
        pruned = knapsack.prune_sdg_density(obj, inst, ell=args.ell,
                                            epsilon=args.epsilon)
        cfg.update({"B": args.budget, "costs": str(args.costs)})
        body = pruned.to_dict()
    else:
        if args.k is None:
            raise ConfigError("cardinality pruning needs --k")
        pruned = harness.run_pruner(args.algo, obj, n, args.k, omega=args.omega,
                                    ell=args.ell, epsilon=args.epsilon, p=args.p,
                                    seed=args.seed,
                                    stream_shuffle=args.stream_shuffle)
        cfg["stream_shuffle"] = args.stream_shuffle
        body = pruned.to_dict()
    _dump_json(args.out, {"config": cfg,
                          "timing": {"elapsed": time.perf_counter() - t0}}, body)
    print(f"pruned to |P| = {len(body['elements'])} -> {args.out}")
    return EXIT_OK


def _load_pruned(path, kind: str, n: int):
    """The pruned set in ``path``.  A body with missing or ill-typed keys is
    an input parse error; element ids outside ``0..n-1`` are a config error,
    as a costs file that misses elements is."""
    body = _load_json_body(path)
    if not isinstance(body, dict):
        raise instances.InputFormatError(path, 1, "pruned-set body must be a JSON object")
    is_knapsack = body.get("algorithm") == "sdg_density"
    if kind == "knapsack" and not is_knapsack:
        raise ConfigError(f"{path} holds a cardinality pruned set; knapsack "
                          "eval needs an sdg_density one")
    if kind == "cardinality" and is_knapsack:
        raise ConfigError(f"{path} holds a knapsack pruned set; pass --costs "
                          "and --budget to evaluate it")
    if not objectives._ids(body.get("elements")):
        raise instances.InputFormatError(path, 1, "'elements' must be a list of integer ids")
    cls = knapsack.KnapsackPrunedSet if is_knapsack else prune.PrunedSet
    try:
        pruned = cls.from_dict(body)
    except KeyError as exc:
        raise instances.InputFormatError(path, 1, f"pruned-set body misses key {exc}")
    except IndexError as exc:  # an id outside the ground set the body's params name
        raise ConfigError(f"{path}: {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise instances.InputFormatError(path, 1, f"malformed pruned-set body: {exc}")
    outside = [e for e in pruned.elements if not 0 <= e < n]
    if outside:
        raise ConfigError(f"{path}: element ids {outside[:8]} lie outside the "
                          f"ground set 0..{n - 1}")
    if is_knapsack and pruned.instance.n != n:
        raise ConfigError(f"{path}: pruned for {pruned.instance.n} elements, "
                          f"the objective has n={n}")
    return pruned


def cmd_eval(args) -> int:
    obj, src_cfg = _resolve_objective(args)
    n = obj.n
    cfg = {"k": args.k, "reference": args.reference, "objective": src_cfg,
           "pruned": str(args.pruned) if args.pruned else None,
           "full": args.full}
    t0 = time.perf_counter()
    timing: dict = {}
    if args.costs and args.budget is not None:
        body = _eval_knapsack(args, obj, cfg)
    else:
        if args.k is None:
            raise ConfigError("eval needs --k")
        if args.full:
            pruned = prune.PrunedSet("full_universe", {"n": n}, list(range(n)),
                                     {"kind": "flat"}, objectives.OracleStats())
        elif args.pruned:
            pruned = _load_pruned(args.pruned, "cardinality", n)
        else:
            raise ConfigError("eval needs --pruned FILE or --full")
        report = harness.containment_report(obj, pruned, args.k,
                                            reference=args.reference)
        body = {"kind": "cardinality", "report": report.to_dict(),
                "algorithm": pruned.algorithm, "pruned_size": len(pruned.elements)}
        timing = report.timing
    _dump_json(args.out, {"config": cfg,
                          "timing": {"elapsed": time.perf_counter() - t0, **timing}}, body)
    alphas = (body["report"]["alphas"] if "report" in body else body["alphas"])
    print(f"alpha per budget: {[round(a, 4) for a in alphas]} -> {args.out}")
    return EXIT_OK


def _cost_vector(path, n: int) -> list[float]:
    cost_map = instances.load_costs_csv(path)
    missing = [e for e in range(n) if e not in cost_map]
    if missing:
        raise ConfigError(f"costs file {path} misses elements {missing[:8]}"
                          + (" ..." if len(missing) > 8 else ""))
    return [cost_map[e] for e in range(n)]


def _eval_knapsack(args, obj, cfg) -> dict:
    inst = knapsack.KnapsackInstance(_cost_vector(args.costs, obj.n), args.budget)
    if args.pruned:
        pruned = _load_pruned(args.pruned, "knapsack", obj.n)
    elif args.full:
        pruned = knapsack.KnapsackPrunedSet(
            params={"full": True, "B": inst.B, "n": obj.n}, instance=inst,
            elements=list(range(obj.n)), runs=[],
            total_cost=inst.cost(range(obj.n)), stats=objectives.OracleStats())
    else:
        raise ConfigError("knapsack eval needs --pruned FILE or --full")
    if args.budgets:
        grid = args.budgets
    else:
        # logarithmically spaced query budgets in (0.1 B, B]
        count = args.budgets_grid
        grid = list(np.geomspace(0.1 * inst.B, inst.B, count + 1)[1:])
    cfg.update({"B": inst.B, "budgets": [float(b) for b in grid]})
    inst.check_budgets(grid)  # before the guard and the sweep over N
    profile = exact.opt_knapsack(obj, range(obj.n), inst.costs, grid)
    extracted = knapsack.extract_budget_grid(pruned, obj, grid)
    alphas, values = [], []
    for b, opt, sel in zip(grid, profile.opt_by_budget, extracted):
        val = float(obj.eval(sel))
        values.append(val)
        alphas.append(val / opt if opt else 1.0)
    return {"kind": "knapsack", "budgets": [float(b) for b in grid],
            "alphas": alphas, "values": values,
            "opt_by_budget": [float(v) for v in profile.opt_by_budget],
            "total_cost": pruned.total_cost, "pruned_size": len(pruned.elements)}


def cmd_sweep(args) -> int:
    if args.family:
        insts = [(f"{args.family}-{s}", _gen_spec(args, s)) for s in args.instance_seeds]
    else:
        obj, src_cfg = _resolve_objective(args)
        insts = [(src_cfg.get("source", "objective"), obj)]
    algos = []
    for name in args.algo.split(","):
        name = name.strip()
        if name not in PRUNER_NAMES:
            raise ConfigError(f"unknown pruner {name!r}")
        for omega in (args.omegas or [None]):
            spec = {"algo": name}
            if omega is not None:
                spec["omega"] = omega
            if name == "fast_budget_range":
                spec = {"algo": name, "epsilon": args.epsilon or 0.2}
            if name == "threshold_stream" and args.epsilon:
                spec["epsilon"] = args.epsilon
            if spec not in algos:
                algos.append(spec)
    if args.k is None:
        raise ConfigError("sweep needs --k")
    cfg = {"k": args.k, "algos": algos, "seeds": args.seeds,
           "reference": args.reference, "jobs": args.jobs,
           "instances": [i for i, _ in insts]}
    result = harness.sweep(insts, algos, args.k, args.seeds,
                           reference=args.reference, jobs=args.jobs)
    records = [{"record": "row", **row} for row in result.rows]
    records += [{"record": "aggregate", **agg} for agg in result.aggregates]
    records += [{"record": "error", **err} for err in result.errors]
    _dump_jsonl(args.out, {"config": cfg}, records)
    if args.csv:
        _write_sweep_csv(args.csv, result)
    print(f"{len(result.rows)} cells, {len(result.errors)} errors -> {args.out}")
    for agg in result.aggregates:
        print(f"  {agg['algorithm']} {agg['params']}: "
              f"mean alpha {agg['mean_alpha']:.4f} (std {agg['std_alpha']:.4f})")
    return EXIT_OK


def _write_sweep_csv(path, result: harness.SweepResult) -> None:
    """Wide mean-alpha table: algorithm rows, one column per omega."""
    omegas = sorted({agg["params"].get("omega") for agg in result.aggregates
                     if agg["params"].get("omega") is not None})
    algos = []
    for agg in result.aggregates:
        if agg["algorithm"] not in algos:
            algos.append(agg["algorithm"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["algorithm"] + [f"omega={w}" for w in omegas] + ["(no omega)"]
        writer.writerow(header)
        for algo in algos:
            row = [algo]
            for w in omegas:
                agg = result.aggregate_for(algo, omega=w)
                row.append(f"{agg['mean_alpha']:.4f}" if agg else "")
            flat = [a for a in result.aggregates
                    if a["algorithm"] == algo and "omega" not in a["params"]]
            row.append(f"{flat[0]['mean_alpha']:.4f}" if flat else "")
            writer.writerow(row)


def cmd_check(args) -> int:
    obj, src_cfg = _resolve_objective(args)
    exhaustive = obj.n <= args.exhaustive_limit
    cfg = {"objective": src_cfg, "trials": args.trials, "seed": args.seed,
           "exhaustive": exhaustive}
    sub = objectives.check_submodular(obj, trials=args.trials, seed=args.seed,
                                      exhaustive=exhaustive)
    mono = objectives.check_monotone(obj, trials=args.trials, seed=args.seed,
                                     exhaustive=exhaustive)
    body = {"submodular": sub.to_dict(), "monotone": mono.to_dict()}
    if args.out:
        _dump_json(args.out, {"config": cfg}, body)
    print(f"submodular: {'pass' if sub.ok else 'fail'}, "
          f"monotone: {'pass' if mono.ok else 'fail'}")
    return EXIT_OK


def cmd_separation(args) -> int:
    gen_params = {"n": args.n, "universe_m": args.universe_m}
    cfg = {"gen_params": gen_params, "trials": args.trials, "k": args.k,
           "omega": args.omega, "seed": args.seed,
           "invented_defaults": ["universe_m"]}
    result = harness.separation_study(gen_params, args.trials, args.k,
                                      args.omega, seed=args.seed)
    _dump_json(args.out, {"config": cfg}, result.to_dict())
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "k", "omega", "instances", "greedy_subopt",
                             "opt_in_greedy", "opt_in_sdg", "value_seps",
                             "max_gap"])
            writer.writerow([args.n, args.k, args.omega, result.trials,
                             f"{result.greedy_subopt:.3f}",
                             f"{result.greedy_contain:.3f}",
                             f"{result.sdg_contain:.3f}",
                             f"{result.value_separations} "
                             f"({result.separation_rate:.1%})",
                             f"{result.max_gap:+.3f}"])
    print(f"greedy contain {result.greedy_contain:.1%}, "
          f"sdg contain {result.sdg_contain:.1%}, "
          f"value separations {result.value_separations} "
          f"({result.separation_rate:.1%}) -> {args.out}")
    return EXIT_OK


def _add_objective_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--objective", default="auto",
                   choices=["auto", "cut", "coverage", "facility_location",
                            "proxy", "restricted_fl", "interference_coverage"],
                   help="expected objective variant (validated against the source)")
    p.add_argument("--objective-file", help="JSON objective payload")
    p.add_argument("--graph", help="edge-list file -> cut objective")
    p.add_argument("--coverage", help="coverage-list file")
    p.add_argument("--sim", help="similarity CSV -> facility location")
    p.add_argument("--penalty", help="penalty CSV; with --sim builds the proxy")
    p.add_argument("--shift", action="store_true",
                   help="shift the proxy to enforce non-negativity")
    p.add_argument("--rel", help="relevance CSV; with --sim and --tau builds RFL")
    p.add_argument("--tau", type=float, default=0.0, help="relevance gate")
    p.add_argument("--gen-spec", help="JSON generator spec file")
    p.add_argument("--n", type=int, help="ground-set size (when not implied)")


def _add_gen_flags(p: argparse.ArgumentParser, required: bool) -> None:
    """The generator flags of ``gen`` and ``sweep``; :func:`_gen_spec`
    reads them."""
    p.add_argument("--family", required=required,
                   choices=["gnm", "planted", "interference", "coverage"],
                   help="instance generator (sweep: generate instances inline)")
    p.add_argument("--m", type=int, help="edge count (gnm)")
    p.add_argument("--communities", type=int, default=20, help="block count (planted)")
    p.add_argument("--p-in", type=float, default=0.3, help="in-block edge probability")
    p.add_argument("--p-out", type=float, default=0.05,
                   help="cross-block edge probability")
    p.add_argument("--universe-m", type=int, default=30,
                   help="item universe size (interference, coverage)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="prunekit",
                                 description="containment pruning toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    _add_gen_flags(g, required=True)
    g.add_argument("--n", type=int)
    g.add_argument("--lam", type=float, default=None,
                   help="pin the interference penalty weight")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen)

    p = sub.add_parser("prune", help="prune a ground set")
    _add_objective_flags(p)
    p.add_argument("--algo", required=True, choices=list(PRUNER_NAMES) + ["sdg_density"])
    p.add_argument("--k", type=int)
    p.add_argument("--omega", type=int)
    p.add_argument("--ell", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--p", type=int, help="explicit pruning budget")
    p.add_argument("--costs", help="costs CSV (knapsack)")
    p.add_argument("--budget", type=float, help="master budget B (knapsack)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream-shuffle", action="store_true",
                   help="scan a seeded permutation instead of id order "
                        "(threshold_stream only)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_prune)

    e = sub.add_parser("eval", help="containment report for a pruned set")
    _add_objective_flags(e)
    e.add_argument("--pruned", help="pruned-set JSON from `prunekit prune`")
    e.add_argument("--full", action="store_true", help="evaluate P = N")
    e.add_argument("--k", type=int)
    e.add_argument("--reference", choices=["exact", "greedy"], default="exact")
    e.add_argument("--costs", help="costs CSV (knapsack eval)")
    e.add_argument("--budget", type=float, help="master budget B (knapsack eval)")
    e.add_argument("--budgets", type=_float_list,
                   help="explicit query budgets, comma separated")
    e.add_argument("--budgets-grid", type=int, default=8,
                   help="number of log-spaced query budgets in (0.1B, B]")
    e.add_argument("--out", required=True)
    e.set_defaults(fn=cmd_eval)

    s = sub.add_parser("sweep", help="run an (instance x algorithm x seed) grid")
    _add_objective_flags(s)
    _add_gen_flags(s, required=False)
    s.add_argument("--instance-seeds", type=_int_list, default=[0],
                   help="seeds for inline instance generation")
    s.add_argument("--algo", required=True, help="comma-separated pruner names")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--omegas", type=_int_list, help="comma-separated omega grid")
    s.add_argument("--epsilon", type=float)
    s.add_argument("--seeds", type=_int_list, default=[0])
    s.add_argument("--reference", choices=["exact", "greedy"], default="exact")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--csv", help="also write the wide mean-alpha table")
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("check", help="structural property report")
    _add_objective_flags(c)
    c.add_argument("--trials", type=int, default=2000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--exhaustive-limit", type=int, default=10,
                   help="run exhaustive checks when n is at most this; they "
                        "visit 3^n nested pairs, are practical to about n = 13 and "
                        "exit 3 when 3^n exceeds the enumeration guard")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_check)

    r = sub.add_parser("separation", help="greedy vs disjoint-run containment rates")
    r.add_argument("--n", type=int, default=20)
    r.add_argument("--k", type=int, default=3)
    r.add_argument("--omega", type=int, default=2)
    r.add_argument("--universe-m", type=int, default=30)
    r.add_argument("--trials", type=int, default=2000)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--csv", help="also write the one-row rates table")
    r.add_argument("--out", required=True)
    r.set_defaults(fn=cmd_separation)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on its first call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (instances.InputFormatError, UnicodeDecodeError) as exc:
        _emit_error("input_parse_error", exc)
        return EXIT_PARSE
    except exact.GuardExceeded as exc:
        _emit_error("guard_exceeded", exc)
        return EXIT_GUARD
    except (ConfigError, ValueError, OSError) as exc:  # OSError: a path that will not open
        _emit_error("config_error", exc)
        return EXIT_CONFIG


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"record": "error", "kind": kind, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
