"""Digests of every file the figure recipes and the benchmark inputs give.

    python3 tools/output_manifest.py [--seeds 1 2 3]

Run from any directory; the program is imported from the ``src/`` of the
checkout that holds this script, so two checkouts can be compared by
running each one's copy.  In a temporary directory the script

1. runs the figure presets: ``shape fig1``, ``sweep fig2`` and
   ``fig2-inset``, ``asympt fig2``, ``fig2-inset`` and ``fig4``, and
   writes the ``distribution_to_text`` of every preset curve's stack;
2. for each seed, writes the inputs of all three benchmark workloads
   with ``perfbench/inputs.py`` (its scans and tiles through
   ``save_heightmap``), then runs ``sweep`` and ``asympt`` on every
   config and ``heightmap`` on every scan and tile, the headerless CSV
   scans with their spacings, and writes the ``distribution_to_text`` of
   two distributions of the first scan: its sampled f, and the analytic
   (*) sampled gradient density of a sphere composed with it.

It prints the sha256 of every input file, for every command its exit
code and the sha256 of each file it wrote, of its stdout and of its
stderr, and the sha256 of every distribution text, then one line
``manifest <sha256>`` over all the lines before.
Commands run in process with relative paths, so no line depends on the
temporary directory.  ``perfbench/`` is only read.

Every curve CSV (``sweep``), distribution text and heightmap
(``save_heightmap``) is also read back through the public readers,
``curve_from_csv``, ``text_to_distribution`` and ``load_heightmap``, and
written again: a ``readback`` line says whether that gives the same bytes.
Its rows, and those of each headerless CSV scan, are also read by
``_fmt.read_rows``, the block reader under those readers, and by the
reference line scanner ``_fmt._scan_lines``: a ``reference`` line says
whether the two give the same doubles.  Analytic distribution rows, whose
widths differ, are read by the scanner's own line rule and have none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRESETS = (
    ("shape", "fig1"), ("sweep", "fig2"), ("sweep", "fig2-inset"),
    ("asympt", "fig2"), ("asympt", "fig2-inset"), ("asympt", "fig4"),
)
WORKLOADS = ("sweep-sampled", "stacks-analytic", "scan-heightmap")
# Radius of the sphere composed with a scan's gradient density: its grid
# holds some 10^4 nodes at the benchmark scans' bins.
SPHERE_NM = 1000.0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(top, name), directory)
                  for top, _, names in os.walk(directory) for name in names)


class Manifest:
    """The lines printed so far; each command writes under out/<its number>/."""

    def __init__(self):
        self.lines: list[str] = []
        self.commands = 0

    def add(self, line: str) -> None:
        self.lines.append(line)
        print(line, flush=True)

    def digest_files(self, directory: str, label: str) -> None:
        for name in _files(directory):
            with open(os.path.join(directory, name), "rb") as fh:
                self.add(f"{label} {name} {_sha(fh.read())}")

    def readback(self, label: str, data: bytes, again: bytes) -> None:
        """Whether ``again``, data read and written again, is ``data``."""
        self.add(f"{label} readback {'identical' if again == data else 'differs'}")

    def reference(self, label: str, data: bytes, head: int) -> None:
        """Whether the rows after the ``head`` lines of ``data`` read as the
        same doubles through the block reader and the line scanner."""
        from proxint._fmt import _scan_lines, read_rows

        lines = data.decode().splitlines(keepends=True)[head:]
        same = read_rows(lines, head).tobytes() == _scan_lines(lines, head).tobytes()
        self.add(f"{label} reference {'identical' if same else 'differs'}")

    def run(self, argv: list[str], out_name: str) -> None:
        import proxint.cli as cli

        out_dir = os.path.join("out", str(self.commands))
        self.commands += 1
        os.makedirs(out_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*argv, "--out", os.path.join(out_dir, out_name)])
        label = " ".join(argv)
        self.add(f"{label} exit {code}")
        self.digest_files(out_dir, f"{label} wrote")
        if argv[0] == "sweep":
            for name in _files(out_dir):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    data = fh.read()
                self.readback(f"{label} wrote {name}", data, _curve_again(data))
                # The comment lines, then the line of column names.
                head = 1 + sum(line.startswith(b"#") for line in data.splitlines())
                self.reference(f"{label} wrote {name}", data, head)
        self.add(f"{label} stdout {_sha(stdout.getvalue().encode())}")
        self.add(f"{label} stderr {_sha(stderr.getvalue().encode())}")


def _curve_again(data: bytes) -> bytes:
    from proxint import curve_from_csv, curve_to_csv

    text = data.decode()
    head = text.partition("\n")[0]
    return curve_to_csv(curve_from_csv(text), head[2:] if head.startswith("# ") else None).encode()


def _distribution_again(data: bytes) -> bytes:
    from proxint.distributions import distribution_to_text, text_to_distribution

    return distribution_to_text(text_to_distribution(data.decode())).encode()


def _heightmap_again(path: str) -> bytes:
    from proxint import load_heightmap, save_heightmap

    save_heightmap(load_heightmap(path), "again.txt")
    with open("again.txt", "rb") as fh:
        return fh.read()


def _workload_commands(manifest: Manifest, workload: str, seed: int) -> None:
    import inputs

    indir = os.path.join("in", f"{workload}-{seed}")
    spec = inputs.generate(workload, seed, indir)
    manifest.digest_files(indir, f"input {workload} seed={seed}")
    for name in _files(indir):
        path = os.path.join(indir, name)
        if name.endswith(".ini"):
            for command in ("sweep", "asympt"):
                manifest.run([command, "--config", path], f"{name[:-4]}.csv")
        elif name.endswith(".txt"):
            with open(path, "rb") as fh:
                data = fh.read()
            manifest.readback(f"input {workload} seed={seed} {name}", data, _heightmap_again(path))
            manifest.reference(f"input {workload} seed={seed} {name}", data, 1)
            manifest.run(["heightmap", path], f"{name[:-4]}.csv")
    for scan in spec.get("scans", ()):
        path = os.path.join(indir, os.path.basename(scan["csv"]))
        with open(path, "rb") as fh:
            manifest.reference(f"input {workload} seed={seed} {os.path.basename(path)}", fh.read(), 0)
        manifest.run(["heightmap", path, "--dx", "%.17g" % scan["dx"], "--dy", "%.17g" % scan["dy"]],
                     f"{scan['name']}.csvin.csv")
    if spec.get("scans"):
        _scan_distributions(manifest, spec["scans"][0], f"{workload} seed={seed}")


def _preset_distributions(manifest: Manifest) -> None:
    import proxint.cli as cli
    from proxint.distributions import distribution_to_text

    for preset, sections in cli.PRESETS.items():
        for stack in cli.build_config({k: dict(v) for k, v in sections.items()}).curves:
            dist = stack.build()
            text = distribution_to_text(dist).encode()
            label = f"distribution {preset} {stack.label}"
            manifest.add(f"{label} {_sha(text)}")
            manifest.readback(label, text, _distribution_again(text))
            if dist.kind == "sampled":
                manifest.reference(label, text, 1)


def _scan_distributions(manifest: Manifest, scan: dict, label: str) -> None:
    # The bin width span / 512 is passed, so that the digest does not
    # follow the library's default.
    from proxint import (compose_gradient, distribution_from_histogram, empirical_distribution,
                         gradient_distribution, shift_to_contact, sphere_distribution)
    from proxint.distributions import distribution_to_text

    hm = shift_to_contact(scan["grid"])
    width = float(hm.values.max()) / 512
    sampled = distribution_from_histogram(empirical_distribution(hm, width), area=hm.area)
    composite = compose_gradient(sphere_distribution(SPHERE_NM), gradient_distribution(hm, width), hm.area)
    for name, dist in (("sampled", sampled), ("composite", composite)):
        text = distribution_to_text(dist).encode()
        manifest.add(f"distribution {label} {scan['name']} {name} {_sha(text)}")
        manifest.readback(f"distribution {label} {scan['name']} {name}", text, _distribution_again(text))
        if dist.kind == "sampled":
            manifest.reference(f"distribution {label} {scan['name']} {name}", text, 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[1, 2, 3],
                        help="perfbench seeds whose inputs to write and run (default: 1 2 3)")
    args = parser.parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    manifest = Manifest()
    start = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="proxint-manifest-") as work:
        os.chdir(work)
        try:
            for command, preset in PRESETS:
                manifest.run([command, "--preset", preset], f"{preset}.csv")
            _preset_distributions(manifest)
            for seed in args.seeds:
                for workload in WORKLOADS:
                    _workload_commands(manifest, workload, seed)
        finally:
            os.chdir(start)
    print(f"manifest {_sha(chr(10).join(manifest.lines).encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
