"""Fuzzed command lines: whatever the argv and the input files hold,
``cli.main`` returns one of its documented exit codes and raises nothing.

Every subcommand is drawn with a random subset of its flags.  Input files
are valid files written by the CLI itself, the same files with one JSON
node replaced or deleted, token soup, or raw bytes.  Inputs stay small:
integers are at most 64 in magnitude, ``--jobs`` at most 1, and the
enumeration guard is 10^5.  ``--exhaustive-limit`` goes up to 24, where an
exhaustive check exits 3 under the guard, and the floats include a tiny
epsilon, which the accuracy pruners reject below their floor.
"""

import copy
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prunekit.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, EXIT_PARSE, main
from prunekit.harness import PRUNER_NAMES

INPUTS = {"--graph": "graph.txt", "--objective-file": "obj.json", "--coverage": "cov.txt",
          "--sim": "sim.csv", "--penalty": "penalty.csv", "--rel": "rel.csv",
          "--gen-spec": "spec.json", "--pruned": "pruned.json", "--costs": "costs.csv"}
SOURCE = ["--objective", "--objective-file", "--graph", "--coverage", "--sim", "--penalty",
          "--shift", "--rel", "--tau", "--gen-spec", "--n"]
GEN = ["--family", "--m", "--communities", "--p-in", "--p-out", "--universe-m"]
FLAGS = {
    "gen": [*GEN, "--n", "--lam", "--seed", "--out"],
    "prune": [*SOURCE, "--algo", "--k", "--omega", "--ell", "--epsilon", "--p", "--costs",
              "--budget", "--seed", "--stream-shuffle", "--out"],
    "eval": [*SOURCE, "--pruned", "--full", "--k", "--reference", "--costs", "--budget",
             "--budgets", "--budgets-grid", "--out"],
    "sweep": [*SOURCE, *GEN, "--instance-seeds", "--algo", "--k", "--omegas", "--epsilon",
              "--seeds", "--reference", "--jobs", "--csv", "--out"],
    "check": [*SOURCE, "--trials", "--seed", "--exhaustive-limit", "--out"],
    "separation": ["--n", "--k", "--omega", "--universe-m", "--trials", "--seed", "--csv",
                   "--out"],
}
SKELETON = {"gen": ["--family", "--n", "--m", "--out"],
            "prune": ["--algo", "--k", "--omega", "--out"],
            "eval": ["--k", "--out"],
            "sweep": ["--algo", "--k", "--out"],
            "check": ["--trials", "--out"],
            "separation": ["--n", "--k", "--trials", "--out"]}
OBJECTIVES = ["--objective-file", "--graph", "--coverage", "--sim", "--gen-spec"]
PICKS = {"prune": [OBJECTIVES], "eval": [OBJECTIVES, ["--pruned", "--full"]],
         "sweep": [OBJECTIVES + ["--family"]], "check": [OBJECTIVES]}
SWITCHES = {"--shift", "--stream-shuffle", "--full"}
PATHS = {*INPUTS, "--out", "--csv"}  # values name files in the example's directory
GOOD_FLOATS = ["0.05", "0.2", "0.5", "1", "3", "1e-9"]
BAD_FLOATS = ["-1", "0", "64", "nan", "inf", "-inf", "x"]


def lists(items):
    return st.lists(items, max_size=3).map(lambda v: ",".join(map(str, v)))


#: per flag, a value that is likely to work and one that is likely not to
VALUES = {
    **{flag: (st.just(name), st.sampled_from(["missing", "."]))
       for flag, name in INPUTS.items()},
    **{flag: (st.sampled_from(good), st.sampled_from(["bogus", ",".join(good[:2])]))
       for flag, good in (("--objective", ["auto", "cut", "coverage", "proxy", "restricted_fl"]),
                          ("--algo", [*PRUNER_NAMES, "sdg_density"]),
                          ("--reference", ["exact", "greedy"]),
                          ("--family", ["gnm", "planted", "interference", "coverage"]))},
    **{flag: (st.sampled_from(GOOD_FLOATS), st.sampled_from(BAD_FLOATS))
       for flag in ("--tau", "--p-in", "--p-out", "--lam", "--epsilon", "--budget")},
    **{flag: (lists(st.integers(0, 5)), lists(st.integers(-64, 64)))
       for flag in ("--instance-seeds", "--omegas", "--seeds")},
    "--budgets": (lists(st.sampled_from(GOOD_FLOATS)), lists(st.sampled_from(BAD_FLOATS))),
    "--jobs": (st.just("1"), st.integers(-64, 0).map(str)),
    "--exhaustive-limit": (st.integers(0, 24).map(str), st.integers(-64, -1).map(str)),
    "--out": (st.just("out.json"), st.sampled_from(["no_dir/out.json", "."])),
    "--csv": (st.just("out.csv"), st.sampled_from(["no_dir/out.csv", "."])),
}
INTS = (st.integers(1, 12).map(str), st.integers(-64, 64).map(str) | st.just("x"))

TOKENS = st.sampled_from(["0", "1", "2", "5", "-1", "0.5", "1e3", "nan", "inf", "x", "",
                          "#", ":"]) | st.integers(-64, 64).map(str)
SOUP = st.lists(st.lists(TOKENS, max_size=4).map(lambda t: " ".join(t)) |
                st.lists(TOKENS, max_size=4).map(lambda t: ",".join(t)),
                max_size=6).map("\n".join).map(str.encode)
JSON_LEAVES = (st.none() | st.booleans() | st.integers(-64, 64) | st.text("ab0-", max_size=3)
               | st.sampled_from([0.5, -1.5, 1e3, math.nan, math.inf]))
JSON = st.recursive(JSON_LEAVES, lambda kids: st.lists(kids, max_size=4)
                    | st.dictionaries(st.text("abkn", max_size=2), kids, max_size=3),
                    max_leaves=8)


def build_pool(root: Path) -> dict[str, list[bytes]]:
    """Valid contents for every input flag, written by the CLI itself."""

    def run(*argv):
        assert main([str(a) for a in argv]) == EXIT_OK

    def read(name):
        return (root / name).read_bytes()

    (root / "sim.csv").write_text("1.0,0.4,0.2\n0.3,0.9,0.1\n0.2,0.2,0.8\n")
    (root / "penalty.csv").write_text("0,0.0\n1,0.05\n2,0.15\n3,0.3\n")
    (root / "rel.csv").write_text("0,0.8\n1,0.2\n2,0.6\n")
    (root / "costs.csv").write_text("".join(f"{e},{0.1 + 0.05 * e}\n" for e in range(8)))
    (root / "cov.txt").write_text("0: 1 2\n1: 2 3\n2: 4\n3: 0 4\n")
    (root / "spec.json").write_text(json.dumps(
        {"family": "interference", "params": {"n": 8, "universe_m": 12}, "seed": 1}))
    run("gen", "--family", "gnm", "--n", 8, "--m", 12, "--out", root / "graph.txt")
    pool = {flag: [read(name)] for flag, name in INPUTS.items()
            if flag not in ("--objective-file", "--pruned")}
    pool["--objective-file"] = []
    for family in ("interference", "coverage"):
        run("gen", "--family", family, "--n", 8, "--universe-m", 12, "--out", root / "obj.json")
        pool["--objective-file"].append(read("obj.json"))
    pool["--pruned"] = []
    for algo in (*PRUNER_NAMES, "sdg_density"):
        run("prune", "--graph", root / "graph.txt", "--algo", algo, "--k", 3, "--omega", 2,
            "--epsilon", 0.2, "--costs", root / "costs.csv", "--budget", 1.0,
            "--ell", 2, "--out", root / "pruned.json")
        pool["--pruned"].append(read("pruned.json"))
    return pool


@pytest.fixture(scope="module")
def pool(tmp_path_factory):
    return build_pool(tmp_path_factory.mktemp("pool"))


def json_slots(node):
    """Every (container, key) in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from json_slots(child)


@st.composite
def contents(draw, valid: list[bytes]):
    """A file: valid, valid with one JSON node replaced or deleted, token
    soup, or raw bytes."""
    kind = draw(st.sampled_from(["valid", "valid", "mutated", "mutated", "soup", "bytes"]))
    if kind == "soup":
        return draw(SOUP)
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    text = draw(st.sampled_from(valid))
    try:
        doc = json.loads(text)
    except ValueError:  # a text format: mutate one line instead
        lines = text.decode().splitlines()
        if kind == "mutated" and lines:
            lines[draw(st.integers(0, len(lines) - 1))] = draw(SOUP).decode()
        return "\n".join(lines).encode()
    if kind == "mutated":
        doc = copy.deepcopy(doc)
        slots = list(json_slots(doc))
        if slots:
            node, key = draw(st.sampled_from(slots))
            if draw(st.booleans()):
                node[key] = draw(JSON)
            else:
                del node[key]
        else:
            doc = draw(JSON)
    return json.dumps(doc).encode()


@st.composite
def command_lines(draw, pool):
    """A subcommand with its skeleton flags (the budget, ``--out``, and
    ``--trials``, whose default runs for seconds), one flag of each of its
    picks (an objective source, a pruned set), and up to five more of its
    flags; then the input files."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = list(SKELETON[command])
    flags += [draw(st.sampled_from(choices)) for choices in PICKS.get(command, [])]
    flags += draw(st.lists(st.sampled_from(FLAGS[command]), unique=True, max_size=5))
    if draw(st.integers(0, 19)) == 0:
        flags.append("--no-such-flag")
    argv = [command]
    for flag in dict.fromkeys(flags):
        argv.append(flag)
        if flag not in SWITCHES:
            good, bad = VALUES.get(flag, INTS)
            argv.append(draw(bad if draw(st.integers(0, 9)) == 0 else good))
    files = {name: draw(contents(pool[flag])) for flag, name in INPUTS.items()}
    return argv, files


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_returns_a_documented_exit_code(pool, data):
    argv, files = data.draw(command_lines(pool))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"PRUNEKIT_GUARD": "100000"}):
        root = Path(tmp)
        for name, raw in files.items():
            (root / name).write_bytes(raw)
        argv = [str(root / a) if prev in PATHS else a for prev, a in zip(["", *argv], argv)]
        assert main(argv) in (EXIT_OK, EXIT_CONFIG, EXIT_GUARD, EXIT_PARSE)
