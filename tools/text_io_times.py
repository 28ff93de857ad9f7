"""Times of the number-text reader and writer on the benchmark's input files.

    python3 tools/text_io_times.py [--seeds 1] [--rounds 7]

Run from any directory; the program is imported from the ``src/`` of the
checkout that holds this script, so two checkouts can be compared by
running each one's copy.  For each seed and workload the script writes
the inputs with ``perfbench/inputs.py`` into a temporary directory (it
only reads ``perfbench/``), and for each table of numbers among them (a
heightmap's text, a headerless CSV scan) it times

* ``read``: ``_fmt.read_rows`` over the open file after its header, as
  ``load_heightmap`` calls it;
* ``write``: ``_fmt.write_rows`` of the values read, every block taken
  in memory, with the file's own separator.

The files, and reading and writing, take turns within each round, so
drift on a shared host falls on all of them alike; each time printed is
the least over the rounds, in ms and in ns per value.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("sweep-sampled", "stacks-analytic", "scan-heightmap")


def _tables(indir: str) -> list[tuple[str, int, bytes]]:
    # (name, header lines, separator) of each table of numbers in indir.
    tables = []
    for name in sorted(os.listdir(indir)):
        with open(os.path.join(indir, name)) as fh:
            first = fh.readline()
        if name.endswith(".txt") and first.startswith("# heightmap v1"):
            tables.append((name, 1, b" "))
        elif name.endswith(".csv") and not first.startswith("#"):
            tables.append((name, 0, b","))
    return tables


def _read(path: str, head: int):
    from proxint._fmt import read_rows

    with open(path) as fh:
        lines = [fh.readline() for _ in range(head)]
        return read_rows([], len(lines), fh=fh)


def _write(values, sep: bytes) -> None:
    from proxint._fmt import write_rows

    for _ in write_rows(values, sep):
        pass


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1],
                        help="perfbench seeds whose inputs to time (default: 1)")
    parser.add_argument("--rounds", type=int, default=7, help="timed rounds per file (default: 7)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import inputs

    print(f"{'file':<40} {'values':>9} {'read ms':>9} {'write ms':>9} {'read ns':>8} {'write ns':>8}")
    with tempfile.TemporaryDirectory(prefix="proxint-text-io-") as work:
        for seed in args.seeds:
            for workload in WORKLOADS:
                indir = os.path.join(work, f"{workload}-{seed}")
                inputs.generate(workload, seed, indir)
                tables = [(os.path.join(indir, name), head, sep, _read(os.path.join(indir, name), head))
                          for name, head, sep in _tables(indir)]
                best = [[float("inf"), float("inf")] for _ in tables]
                for _ in range(args.rounds):
                    for (path, head, sep, values), times in zip(tables, best):
                        times[0] = min(times[0], _time(lambda: _read(path, head)))
                        times[1] = min(times[1], _time(lambda: _write(values, sep)))
                for (path, _, _, values), (read_s, write_s) in zip(tables, best):
                    label = f"{workload} seed={seed} {os.path.basename(path)}"
                    print(f"{label:<40} {values.size:>9} {read_s * 1e3:>9.2f} {write_s * 1e3:>9.2f}"
                          f" {read_s * 1e9 / values.size:>8.1f} {write_s * 1e9 / values.size:>8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
