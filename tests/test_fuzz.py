"""Mutation fuzzing of the bundled scenarios through ``cli.run``.

Every node of every bundled scenario (each object member and list element,
containers included) is replaced by one of ``MUTATIONS`` or deleted.  Each
mutated scenario must leave ``cli.run`` with an exit status in {0, 1, 2, 3},
never with an exception; an exit 2 must come before anything is computed or
written: it leaves no output directory; and a report it writes must be
strict JSON, with no NaN or Infinity.

The tier-1 tests take one mutation per node, rotating through the list, plus
a seeded hypothesis draw of arbitrary JSON values.  The full sweep, every
mutation of every node, runs as a script and prints its counts::

    PYTHONPATH=src python tests/test_fuzz.py
"""

import contextlib
import copy
import io
import json
import math
import shutil
import sys
import tempfile
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from liephase import cli

from helpers import strict_json

DELETE = object()
MUTATIONS = ("x", math.nan, -1, 0, 1e308, [], {}, None, True, 2.5, DELETE)
EXIT_CODES = {0, 1, 2, 3}

SCENARIOS = {
    name: json.loads(resources.files("liephase").joinpath("scenarios", f"{name}.scn").read_text())
    for name in cli.BUILTIN_SCENARIOS
}


def node_paths(node, prefix=()):
    """Paths (tuples of keys and indices) of every node below ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


PATHS = {name: list(node_paths(doc)) for name, doc in SCENARIOS.items()}


def mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` set to ``value`` (or deleted)."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_mutant(doc, workdir: Path) -> tuple[int, bool, bool]:
    """Exit status of ``cli.run`` on ``doc``, whether it made the output
    directory, and whether the report it wrote, if any, is strict JSON."""
    scenario = workdir / "mutant.scn"
    scenario.write_text(json.dumps(doc))
    out = workdir / "out"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = cli.run(str(scenario), out_dir=str(out))
    wrote = out.exists()
    strict = True
    if (out / "report.json").exists():
        try:
            strict_json(out / "report.json")
        except ValueError:
            strict = False
    shutil.rmtree(out, ignore_errors=True)
    return status, wrote, strict


def assert_contract(doc, workdir: Path, label: str) -> None:
    status, wrote, strict = run_mutant(doc, workdir)
    assert status in EXIT_CODES, label
    if status == 2:
        assert not wrote, f"{label}: exit 2 after the output directory was made"
    assert strict, f"{label}: report.json holds NaN or Infinity"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_mutation_per_node(name, tmp_path):
    # the mutation rotates with the node's place in the whole sweep, so
    # neighbouring nodes, and the fields of one block, get different mutations
    offset = sum(len(PATHS[other]) for other in sorted(SCENARIOS) if other < name)
    for i, path in enumerate(PATHS[name]):
        value = MUTATIONS[(offset + i) % len(MUTATIONS)]
        label = f"{name} {list(path)} <- {'deleted' if value is DELETE else repr(value)}"
        assert_contract(mutated(SCENARIOS[name], path, value), tmp_path, label)


# numbers stay small: a huge sample count or time span is a valid but long
# run, and MUTATIONS already brings the extremes (1e308, NaN) to every node
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(-10, 10)
    | st.sampled_from([math.nan, math.inf, -math.inf]) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@seed(1811)
@settings(max_examples=10)
@given(name=st.sampled_from(sorted(SCENARIOS)), index=st.integers(min_value=0),
       value=json_values | st.just(DELETE))
def test_arbitrary_json_in_any_node(name, index, value):
    path = PATHS[name][index % len(PATHS[name])]
    with tempfile.TemporaryDirectory() as workdir:
        assert_contract(mutated(SCENARIOS[name], path, value), Path(workdir),
                        f"{name} {list(path)}")


def full_sweep() -> Counter:
    """Every mutation of every node: counts of exit statuses, exits 2 that made
    the output directory, reports that are not strict JSON, and exceptions
    that escaped ``cli.run``."""
    counts = Counter()
    with tempfile.TemporaryDirectory() as workdir:
        for name, doc in SCENARIOS.items():
            for path in PATHS[name]:
                for value in MUTATIONS:
                    counts["runs"] += 1
                    try:
                        status, wrote, strict = run_mutant(
                            mutated(doc, path, value), Path(workdir)
                        )
                    except Exception as exc:  # noqa: BLE001 - counted, the sweep goes on
                        counts["uncaught"] += 1
                        print(f"{name} {list(path)}: {type(exc).__name__}: {exc}",
                              file=sys.stderr)
                        continue
                    counts[f"exit {status}"] += 1
                    if status == 2 and wrote:
                        counts["exit 2 after writing"] += 1
                    if not strict:
                        counts["non-strict report"] += 1
    return counts


if __name__ == "__main__":
    for key, count in sorted(full_sweep().items()):
        print(f"{key}: {count}")
