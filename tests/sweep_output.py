"""Time how liephase writes its output files against ``open(path, "w")``.

Writer rows: for each size a run writes (1.5, 15 and 27 KB, as the bundled
reports; 100 KB, as ``body_composition``'s trajectory CSVs; 600 KB, as the
benchmark's 64-particle trajectory CSV), writes one text to ``CALLS`` files
by ``open(path, "w")`` and by ``dynamics._rewrite``, the writer of
``report.json`` and the trajectory CSVs.  ``overwrite`` rewrites files that
already hold the same text, as a rerun into one ``--out`` does; ``fresh``
writes new files.  A row records one write's share of the minimum wall time
of the ``CALLS`` writes over ``--repeats`` rounds
(``sweep_record.best_times``), and whether both writers left the same bytes.
The files live in the system's temporary directory (``TMPDIR``): the cost
of truncating on open is the file system's.

With ``--against DIR``, one more row times a whole pass, the bundled
scenarios through ``cli.run`` each into its own output directory, of this
checkout against the checkout at ``DIR`` (``sweep_record.interleaved``),
after one untimed pass of each, so every timed pass reruns into outputs
already there.  ``identical`` records whether the two trees' outputs agree
byte for byte.  The rows, tagged with ``--label`` (the code measured), are
written to ``BENCH_output.json`` at the repository root, keeping the rows
of every other label::

    PYTHONPATH=src python tests/sweep_output.py --label <name> [--repeats 40] [--against DIR]

Not a test: pytest does not collect it.
"""

import contextlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

import sweep_record  # first: it pins the BLAS threads
from sweep_record import best_times, interleaved

from liephase import cli, dynamics

SIZES = {1_500: "report", 15_000: "report", 27_000: "report",
         100_000: "body_composition csv", 600_000: "nbody csv"}
CALLS = 30
LINE = ",".join(["0.12345678901234568"] * 5) + "\n"


def write_w(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def write_in_place(path, text):
    with dynamics._rewrite(path) as fh:
        fh.write(text)


def writer_rows(repeats: int, work: Path):
    for size, like in SIZES.items():
        text = (LINE * (size // len(LINE) + 1))[: size - 1] + "\n"
        for state in ("overwrite", "fresh"):
            makers, files = [], []
            for write in (write_w, write_in_place):
                folder = work / f"{size}-{state}-{write.__name__}"
                folder.mkdir()
                paths = [folder / f"{i}.txt" for i in range(CALLS)]
                for path in paths:  # what a rerun finds, or nothing
                    write(path, text)

                def make(write=write, paths=paths):
                    if state == "fresh":
                        for path in paths:
                            path.unlink()

                    def timed():
                        for path in paths:
                            write(path, text)
                    return timed
                makers.append(make)
                files.append(paths)
            (w_s, in_place_s), _ = best_times(makers, repeats)
            yield {
                "case": "writer", "state": state, "bytes": size, "like": like, "calls": CALLS,
                "open_w_us": round(1e6 * w_s / CALLS, 2),
                "in_place_us": round(1e6 * in_place_s / CALLS, 2),
                "speedup": round(w_s / in_place_s, 2),
                "identical": all(a.read_bytes() == b.read_bytes() == text.encode()
                                 for a, b in zip(*files)),
            }


def run_pass(run, names, out: Path) -> list[int]:
    with contextlib.redirect_stdout(io.StringIO()):
        return [run(name, out_dir=str(out / name)) for name in names]


def outputs(out: Path) -> dict:
    return {str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


def pass_row(repeats: int, work: Path, against):
    names = [name for name, _ in cli.list_builtin()]
    their_run = importlib.import_module(f"{against.__name__}.cli").run
    mine, theirs = work / "this", work / "against"
    statuses = run_pass(cli.run, names, mine), run_pass(their_run, names, theirs)
    timed = interleaved(lambda: run_pass(cli.run, names, mine),
                        lambda: run_pass(their_run, names, theirs), repeats)
    return {
        "case": "cli_bundled_pass", "scenarios": len(names), **timed,
        "exit_statuses_agree": statuses[0] == statuses[1],
        "identical": outputs(mine) == outputs(theirs),
    }


def rows(repeats: int, against=None):
    with tempfile.TemporaryDirectory(prefix="sweep_output-") as work:
        yield from writer_rows(repeats, Path(work))
        if against is not None:
            yield pass_row(repeats, Path(work), against)


def main(argv=None) -> int:
    return sweep_record.main(
        argv, rows,
        "Output files: liephase's in-place writer against open(path, 'w'), per write in "
        "us, and with --against a whole cli-bundled pass of two checkouts in s",
        "BENCH_output.json", repeats=40,
    )


if __name__ == "__main__":
    sys.exit(main())
