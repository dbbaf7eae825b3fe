"""Mutation fuzzing of the bundled scenarios through ``cli.run``.

Every node of every bundled scenario (each object member and list element,
containers included) is replaced by one of ``MUTATIONS`` or deleted.  Each
mutated scenario must leave ``cli.run`` with an exit status in {0, 1, 2, 3},
never with an exception; an exit 2 must come before anything is computed or
written: it leaves no output directory; and a report it writes must be
strict JSON, with no NaN or Infinity.  Every object of every bundled
scenario, the scenario itself included, also gets an extra key,
``UNKNOWN_KEY``; that mutant must exit 2, a misspelt key being refused
rather than ignored.  Every float of every bundled scenario is also set to
``HUGE``, an integer beyond float range, which must exit 2 as well.  The
files of ``BYTE_MUTANTS``, which no JSON value gives, must exit 2 too.

The tier-1 tests take one mutation per node, rotating through the list, every
extra key, every huge float, every byte mutant, and a seeded hypothesis draw
of arbitrary JSON values.  The full sweep, every mutation of every node,
every extra key, every huge float and every byte mutant, runs as a script
that prints its counts and exits 1 when any run broke the contract::

    PYTHONPATH=src python tests/test_fuzz.py

As under pytest's filter, a ``RuntimeWarning`` in the sweep is an error, so
it counts as an exception that escaped ``cli.run``.
"""

import contextlib
import copy
import io
import json
import math
import shutil
import sys
import tempfile
import warnings
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
UNKNOWN_KEY = "zz_unknown"
# an integer no float holds; integer counts and axes keep their values, as a
# huge sample count is a valid but endless run
HUGE = 10**400
EXIT_CODES = {0, 1, 2, 3}

SCENARIOS = {
    name: json.loads(resources.files("liephase").joinpath("scenarios", f"{name}.scn").read_text())
    for name in cli.BUILTIN_SCENARIOS
}
WEP_TEXT = json.dumps(SCENARIOS["spacetime_wep"])
# scenario files as bytes: not UTF-8, valid JSON nested far past the
# recursion limit of any interpreter, a key given twice in one object, and
# an integer of more digits than Python converts
BYTE_MUTANTS = {
    "invalid UTF-8": b"\xff\xfe",
    "nested 100000 deep": b"[" * 100_000 + b"]" * 100_000,
    "repeated key in grid": WEP_TEXT.replace('"dt": ', '"dt": 0.5, "dt": ').encode(),
    "5000-digit integer": WEP_TEXT.replace('"t_end": 1.0', '"t_end": 1' + "0" * 4999).encode(),
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


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# the paths of the extra key in the scenario and in every object below it
INSERTIONS = {
    name: [path + (UNKNOWN_KEY,) for path in [(), *PATHS[name]]
           if isinstance(node_at(doc, path), dict)]
    for name, doc in SCENARIOS.items()
}


# the paths of every float
FLOATS = {name: [path for path in PATHS[name] if isinstance(node_at(doc, path), float)]
          for name, doc in SCENARIOS.items()}


def mutated(doc, path, value):
    """A copy of ``doc`` with the node at ``path`` set to ``value`` (or deleted)."""
    doc = copy.deepcopy(doc)
    parent = node_at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run_mutant(doc, workdir: Path) -> tuple[int, bool, bool]:
    """Exit status of ``cli.run`` on ``doc``, a JSON value or the bytes of a
    file, whether it made the output directory, and whether the report it
    wrote, if any, is strict JSON."""
    scenario = workdir / "mutant.scn"
    scenario.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    out = workdir / "out"
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.run(str(scenario), out_dir=str(out))
        wrote = out.exists()
        strict = True
        if (out / "report.json").exists():
            try:
                strict_json(out / "report.json")
            except ValueError:
                strict = False
    finally:
        # an escaped exception must not leave the directory to the next mutant
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_unknown_key_in_every_object_exits_2(name, tmp_path):
    for path in INSERTIONS[name]:
        status, wrote, _ = run_mutant(mutated(SCENARIOS[name], path, 1), tmp_path)
        assert (status, wrote) == (2, False), f"{name} {list(path)} <- 1"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_huge_integer_for_every_float_exits_2(name, tmp_path):
    for path in FLOATS[name]:
        status, wrote, _ = run_mutant(mutated(SCENARIOS[name], path, HUGE), tmp_path)
        assert (status, wrote) == (2, False), f"{name} {list(path)} <- 10**400"


@pytest.mark.parametrize("label", sorted(BYTE_MUTANTS))
def test_unreadable_bytes_exit_2(label, tmp_path):
    status, wrote, _ = run_mutant(BYTE_MUTANTS[label], tmp_path)
    assert (status, wrote) == (2, False), label


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


def sweep_mutants():
    """(label, mutant, whether it must exit 2) of every mutation of every
    node, every extra key, every huge float and every byte mutant."""
    for name, doc in SCENARIOS.items():
        for path in PATHS[name]:
            for value in MUTATIONS:
                yield f"{name} {list(path)}", mutated(doc, path, value), False
        for path in INSERTIONS[name]:
            yield f"{name} {list(path)}", mutated(doc, path, 1), True
        for path in FLOATS[name]:
            yield f"{name} {list(path)} <- 10**400", mutated(doc, path, HUGE), True
    for label, raw in BYTE_MUTANTS.items():
        yield label, raw, True


def full_sweep() -> Counter:
    """Counts over ``sweep_mutants`` of exit statuses, exits 2 that made the
    output directory, reports that are not strict JSON, mutants that must be
    refused but were not, and exceptions that escaped ``cli.run``."""
    counts = Counter()
    with tempfile.TemporaryDirectory() as workdir:
        for label, mutant, refuse in sweep_mutants():
            counts["runs"] += 1
            try:
                status, wrote, strict = run_mutant(mutant, Path(workdir))
            except Exception as exc:  # noqa: BLE001 - counted, the sweep goes on
                counts["uncaught"] += 1
                print(f"{label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            counts[f"exit {status}"] += 1
            if status == 2 and wrote:
                counts["exit 2 after writing"] += 1
            if not strict:
                counts["non-strict report"] += 1
            if refuse and status != 2:
                counts["not refused"] += 1
    return counts


def sweep_status(counts: Counter) -> int:
    """Exit status of the full sweep: 1 when ``counts`` holds an exception
    that escaped, an exit 2 after writing, a report that is not strict JSON
    or a mutant that was not refused, else 0."""
    broken = ("uncaught", "exit 2 after writing", "non-strict report", "not refused")
    return int(any(counts[key] for key in broken))


@pytest.mark.parametrize("broken", [None, "uncaught", "exit 2 after writing",
                                    "non-strict report", "not refused"])
def test_sweep_status(broken):
    counts = Counter({"runs": 4, "exit 0": 1, "exit 1": 1, "exit 2": 1, "exit 3": 1})
    if broken is not None:
        counts[broken] += 1
    assert sweep_status(counts) == (broken is not None)


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)
    counts = full_sweep()
    for key, count in sorted(counts.items()):
        print(f"{key}: {count}")
    sys.exit(sweep_status(counts))
