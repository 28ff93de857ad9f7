"""Command-line front end: shape tables, sweeps, heightmap analysis, scaling checks.

Scenarios are configured through an INI-style file (key-value sections) with
flag overrides; named presets expand to full configs for the standard figure
recipes.  All numeric output uses 17 significant digits and every CSV starts
with a provenance line carrying the tool version and the effective config,
so an identical config reproduces byte-identical files.

Exit codes: 0 success, 2 config error, 3 numeric error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import functools
import math
import os
import sys

import numpy as np

from . import __version__
from ._fmt import FMT, read_line, table
from .asymptotics import CSV_ROW_HEADER, fit_scaling, predict, smallest_decade, verify
from .distributions import (
    GAUSSIAN_SUPPORT_SIGMAS,
    HeightDistribution,
    case_number,
    convolve,
    dome_distribution,
    evaluate,
    projected_area,
    pyramid_distribution,
    sphere_distribution,
    truncated_gaussian_distribution,
)
from .errors import (
    ConfigError,
    FitError,
    InvalidParameterError,
    NumericError,
    ParseError,
    UnclassifiableError,
)
from .heightmap import (
    DEFAULT_BIN_FRACTION,
    _histograms,
    distribution_from_histogram,
    fit_gaussian,
    load_heightmap,
)
from .interaction import DEFAULT_D_REF, Kernel, curve_to_csv, heat_sio2_kernel, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

# Default kernel values per [kernel] preset; explicit alpha and nu override
# them.  Without a preset the kernel is heat-sio2, or custom once alpha is set.
KERNEL_PRESETS = {
    "heat-sio2": {"alpha": heat_sio2_kernel().alpha, "nu": heat_sio2_kernel().nu},
    "casimir-ideal": {"nu": 3.0},
    "custom": {},
}

# Figure-reproduction recipes.  fig1 uses the distribution-figure modulation
# amplitudes (h = R/10, sigma = R/40, s0 = 2 sigma); the
# sweep figure uses nm-scale amplitudes where the near-field ordering
# smooth > dome > rough > pyramid holds at d = 1 nm, and the inset divides
# the amplitudes by 4.  The triple-scale stack gives case 1+1+2 = 4.
PRESETS: dict[str, dict] = {
    "fig1": {
        "scenario": {"bins": "512"},
        "kernel": {"preset": "heat-sio2"},
        "curve.smooth": {"base": "sphere radius=50000"},
        "curve.dome": {"base": "sphere radius=50000", "layer.1": "dome height=5000"},
        "curve.pyramid": {"base": "sphere radius=50000", "layer.1": "pyramid height=5000"},
        "curve.rough": {"base": "sphere radius=50000", "layer.1": "rough sigma=1250 s0=2500"},
    },
    "fig2": {
        "scenario": {"dref": "300", "farfield": "4200"},
        "kernel": {"preset": "heat-sio2"},
        "separations": {"min": "1", "max": "300", "per_decade": "60"},
        "curve.smooth": {"base": "sphere radius=50000"},
        "curve.dome": {"base": "sphere radius=50000", "layer.1": "dome height=50"},
        "curve.rough": {"base": "sphere radius=50000", "layer.1": "rough sigma=10 s0=20"},
        "curve.pyramid": {"base": "sphere radius=50000", "layer.1": "pyramid height=100"},
    },
    "fig2-inset": {
        "scenario": {"dref": "300", "farfield": "4200"},
        "kernel": {"preset": "heat-sio2"},
        "separations": {"min": "1", "max": "300", "per_decade": "60"},
        "curve.smooth": {"base": "sphere radius=50000"},
        "curve.dome": {"base": "sphere radius=50000", "layer.1": "dome height=12.5"},
        "curve.rough": {"base": "sphere radius=50000", "layer.1": "rough sigma=2.5 s0=5"},
        "curve.pyramid": {"base": "sphere radius=50000", "layer.1": "pyramid height=25"},
    },
    "fig4": {
        "scenario": {},
        "kernel": {"preset": "casimir-ideal", "alpha": "1.0"},
        "separations": {"min": "0.01", "max": "300", "per_decade": "60"},
        "curve.stack": {
            "base": "sphere radius=100000",
            "layer.1": "dome height=1000",
            "layer.2": "pyramid height=100",
        },
    },
}


# The layer catalog: each type's fields in constructor order, its
# constructor, and its height scale for the coarse-to-fine check.
LayerType = collections.namedtuple("LayerType", "fields build scale")

LAYER_TYPES = {
    "sphere": LayerType(("radius",), sphere_distribution, lambda radius: radius),
    "dome": LayerType(("height",), dome_distribution, lambda height: height),
    # Tilings are per unit area, so the tile base length drops out.
    "pyramid": LayerType(("height",), functools.partial(pyramid_distribution, base=1.0, per_unit_area=True),
                         lambda height: height),
    "rough": LayerType(("sigma", "s0"), truncated_gaussian_distribution,
                       lambda sigma, s0: s0 + GAUSSIAN_SUPPORT_SIGMAS * sigma),
}


def _layer_args(layer: dict) -> list[float]:
    return [layer[k] for k in LAYER_TYPES[layer["type"]].fields]


def _describe_layer(layer: dict) -> str:
    items = " ".join(f"{k}={layer[k]:g}" for k in sorted(LAYER_TYPES[layer["type"]].fields))
    return f"{layer['type']} {items}"


class ShapeStack:
    """One curve: the base sphere (if any) first, then the modulation layers."""

    def __init__(self, label: str, layers: list[dict]):
        self.label = label
        self.layers = layers

    def build(self) -> HeightDistribution:
        if not self.layers:
            raise ConfigError(f"curve.{self.label}: empty shape stack")
        # Rough layers are convolved after the others, so that a stack gives
        # the same bytes wherever its rough layers stand in the config.
        layers = sorted(self.layers, key=lambda l: l["type"] == "rough")
        built = (LAYER_TYPES[l["type"]].build(*_layer_args(l)) for l in layers)
        return functools.reduce(convolve, built)

    def describe(self) -> str:
        return " + ".join(map(_describe_layer, self.layers))


def _parse_layer(text: str, path: str) -> dict:
    toks = text.split()
    if not toks:
        raise ConfigError(f"{path}: empty layer spec")
    spec = LAYER_TYPES.get(toks[0])
    if spec is None:
        raise ConfigError(f"{path}.type: unknown layer type {toks[0]!r}")
    raw = {}
    for tok in toks[1:]:
        if "=" not in tok:
            raise ConfigError(f"{path}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in spec.fields:
            raise ConfigError(f"{path}.{key}: unknown field for {toks[0]}")
        raw[key] = val
    layer: dict = {"type": toks[0]}
    for key in spec.fields:
        if key not in raw:
            raise ConfigError(f"{path}.{key}: missing required field")
        layer[key] = _get_float(raw, key, path)
        if layer[key] <= 0 and not (key == "s0" and layer[key] == 0.0):
            raise ConfigError(f"{path}.{key}: must be positive, got {layer[key]:g}")
    return layer


class ScenarioConfig:
    """Effective scenario: curves, kernel, separations, and output knobs."""

    def __init__(self):
        self.curves: list[ShapeStack] = []
        self.kernel: Kernel  # always set by build_config
        self.separations: np.ndarray  # always set by build_config
        self.d_ref = DEFAULT_D_REF
        self.far_field: float | None = None
        self.bins = DEFAULT_BIN_FRACTION
        self.tol = 0.05
        self.window: tuple[float, float] | None = None

    def describe(self) -> str:
        parts = [
            f"kernel={self.kernel.label} alpha={self.kernel.alpha:g} nu={self.kernel.nu:g}",
            f"dref={self.d_ref:g}",
            f"bins={self.bins}",
            f"d=[{self.separations[0]:g},{self.separations[-1]:g}]x{len(self.separations)}",
        ]
        if self.far_field is not None:
            parts.append(f"farfield={self.far_field:g}")
        return " ".join(parts)


def _get_float(sec, key, path):
    try:
        value = float(sec[key])
    except ValueError:
        raise ConfigError(f"{path}.{key}: not a number: {sec[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key}: not a finite number: {sec[key]!r}")
    return value


def _get_int(sec, key, path):
    try:
        return int(sec[key])
    except ValueError:
        raise ConfigError(f"{path}.{key}: not an integer: {sec[key]!r}") from None


# Keys each fixed section accepts; other keys, and sections that are
# neither these nor [curve.*], are config errors.
_SECTION_KEYS = {
    "scenario": {"dref", "farfield", "bins"},
    "kernel": {"preset", "alpha", "nu"},
    "separations": {"list", "min", "max", "per_decade"},
}


def build_config(sections: dict, args=None) -> ScenarioConfig:
    cfg = ScenarioConfig()
    for name, sec in sections.items():
        if name.startswith("curve."):
            continue  # curve keys are checked below, with the layers
        if name not in _SECTION_KEYS:
            raise ConfigError(f"{name}: unknown section")
        for key in sec:
            if key not in _SECTION_KEYS[name]:
                raise ConfigError(f"{name}.{key}: unknown key")

    scen = sections.get("scenario", {})
    if "dref" in scen:
        cfg.d_ref = _get_float(scen, "dref", "scenario")
    if "farfield" in scen:
        cfg.far_field = _get_float(scen, "farfield", "scenario")
    if "bins" in scen:
        cfg.bins = _get_int(scen, "bins", "scenario")

    sec = sections.get("kernel", {})
    label = sec.get("preset") or ("custom" if "alpha" in sec else "heat-sio2")
    if label not in KERNEL_PRESETS:
        raise ConfigError(f"kernel.preset: unknown preset {label!r} (have {', '.join(sorted(KERNEL_PRESETS))})")
    kern = dict(KERNEL_PRESETS[label])
    for key in ("alpha", "nu"):
        if key in sec:
            kern[key] = _get_float(sec, key, "kernel")
        elif key not in kern:
            raise ConfigError(f"kernel.{key}: missing, and kernel {label!r} has no default")
    try:
        cfg.kernel = Kernel(kern["alpha"], kern["nu"], label)
    except InvalidParameterError as exc:
        raise ConfigError(f"kernel: {exc}") from exc

    sep = sections.get("separations", {})
    if "list" in sep:
        try:
            d = np.array(read_line(sep["list"], None))
        except ParseError as exc:
            raise ConfigError(f"separations.list: {exc}") from None
        if not d.size:
            raise ConfigError("separations.list: no values")
    else:
        lo = _get_float(sep, "min", "separations") if "min" in sep else 1.0
        hi = _get_float(sep, "max", "separations") if "max" in sep else 300.0
        per_decade = _get_int(sep, "per_decade", "separations") if "per_decade" in sep else 60
        if lo <= 0 or hi <= lo:
            raise ConfigError("separations: need 0 < min < max")
        if per_decade < 1:
            raise ConfigError("separations.per_decade: must be positive")
        if not math.isfinite(hi / lo):
            raise ConfigError(f"separations: max/min = {hi:g}/{lo:g} overflows a float")
        try:
            npts = max(2, int(round(np.log10(hi / lo) * per_decade)) + 1)
            d = np.geomspace(lo, hi, npts)
        except (OverflowError, ValueError):
            # A per_decade past the float range, or a grid past numpy's size limit.
            raise ConfigError("separations.per_decade: too many points for one grid") from None
    if np.any(d <= 0) or np.any(np.diff(d) <= 0):
        raise ConfigError("separations: must be positive and increasing")
    cfg.separations = d

    for name, sec in sections.items():
        if not name.startswith("curve."):
            continue
        base = [_parse_layer(sec["base"], f"{name}.base")] if "base" in sec else []
        if base and base[0]["type"] != "sphere":
            raise ConfigError(f"{name}.base: base-curvature layer must be a sphere")
        mods = []
        while (key := f"layer.{len(mods) + 1}") in sec:
            mods.append(_parse_layer(sec[key], f"{name}.{key}"))
        for k in sec:
            if k != "base" and not (k.startswith("layer.") and k[6:].isdigit()):
                raise ConfigError(f"{name}.{k}: unknown key")
        scales = [LAYER_TYPES[l["type"]].scale(*_layer_args(l)) for l in mods]
        for i, (a, b) in enumerate(zip(scales[:-1], scales[1:]), start=2):
            if b > a * (1 + 1e-12):
                raise ConfigError(
                    f"{name}.layer.{i}: modulation layers must be ordered "
                    f"coarse to fine ({b:g} > {a:g})"
                )
        cfg.curves.append(ShapeStack(name.split(".", 1)[1], base + mods))

    if args is not None:
        for flag, attr in (("dref", "d_ref"), ("bins", "bins"), ("farfield", "far_field"), ("tol", "tol")):
            if getattr(args, flag, None) is not None:
                setattr(cfg, attr, getattr(args, flag))
        if getattr(args, "window", None) is not None:
            try:
                lo, hi = (float(t) for t in args.window.split(","))
            except ValueError:
                raise ConfigError("window: expected LO,HI") from None
            if not 0 < lo < hi < math.inf:
                raise ConfigError("window: need finite 0 < LO < HI")
            cfg.window = (lo, hi)
    if not 0 < cfg.tol < math.inf:
        raise ConfigError("tol: must be positive and finite")
    if not 0 < cfg.d_ref < math.inf:
        raise ConfigError("scenario.dref: must be positive and finite")
    if cfg.far_field is not None and not 0 < cfg.far_field < math.inf:
        raise ConfigError("scenario.farfield: must be positive and finite")
    if cfg.bins < 1:
        raise ConfigError("scenario.bins: must be positive")
    return cfg


def load_config(args) -> ScenarioConfig:
    sections: dict = {}
    if getattr(args, "preset", None):
        if args.preset not in PRESETS:
            raise ConfigError(
                f"preset: unknown preset {args.preset!r} (have {', '.join(sorted(PRESETS))})"
            )
        sections = {k: dict(v) for k, v in PRESETS[args.preset].items()}
    if getattr(args, "config", None):
        # Values are read as written, without "%" interpolation; no header
        # names the section "", so [DEFAULT] is an unknown section.
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            read = parser.read(args.config)
        except configparser.Error as exc:
            raise ConfigError(f"config: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config: cannot decode {args.config} as text ({exc.reason})") from None
        if not read:
            raise ConfigError(f"config: cannot read {args.config}")
        for name in parser.sections():
            sections.setdefault(name, {}).update(dict(parser[name]))
    return build_config(sections, args)


def _provenance(cfg: ScenarioConfig, command: str, extra: str = "") -> str:
    text = f"proxint {__version__} | {command} | {cfg.describe()}"
    return f"{text} | {extra}" if extra else text


def _check_out(out: str) -> None:
    """Reject an --out path whose directory cannot be written, before any work."""
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"{directory}: no such directory for --out")
    if not os.access(directory, os.W_OK):
        raise ConfigError(f"{directory}: --out directory is not writable")


def _require_curves(cfg: ScenarioConfig) -> None:
    if not cfg.curves:
        raise ConfigError("config defines no [curve.*] sections")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write_curves(args, command: str, render) -> int:
    """Write each curve's ``render(cfg, dist, provenance)`` = (text, summary)
    to --out, or, for several curves, to --out with the label before its
    extension."""
    cfg = load_config(args)
    _require_curves(cfg)
    _check_out(args.out)
    stem, ext = os.path.splitext(args.out)
    for stack in cfg.curves:
        provenance = _provenance(cfg, command, f"curve={stack.label}: {stack.describe()}")
        text, summary = render(cfg, stack.build(), provenance)
        path = f"{stem}.{stack.label}{ext or '.csv'}" if len(cfg.curves) > 1 else args.out
        with open(path, "w") as fh:
            fh.write(text)
        print(f"{stack.label}: {summary} -> {path}")
    return EXIT_OK


def cmd_shape(args) -> int:
    def render(cfg, dist, provenance):
        s = np.linspace(0.0, dist.support_max, cfg.bins)
        f = evaluate(dist, s)
        # Before the file is opened, so that an area that overflows leaves
        # no partial table.
        area = projected_area(dist)
        return table([f"# {provenance}", "s_nm,f"], (s, f)), f"support={dist.support_max:g} nm, area={area:.6g} nm^2"
    return _write_curves(args, "shape", render)


def cmd_sweep(args) -> int:
    def render(cfg, dist, provenance):
        curve = sweep(dist, cfg.kernel, cfg.separations, subtract_at=cfg.d_ref)
        if cfg.far_field is not None:
            curve = curve.with_ratio(cfg.far_field)
        summary = f"I({curve.separations[0]:g} nm) = {curve.values[0]:.6g} nW"
        if curve.ratios is not None:
            summary += f" (ratio {curve.ratios[0]:.4g})"
        return curve_to_csv(curve, provenance), summary
    return _write_curves(args, "sweep", render)


def cmd_heightmap(args) -> int:
    cfg = load_config(args)
    _check_out(args.out)
    hm = load_heightmap(args.path, dx=args.dx, dy=args.dy)
    emp, grad = _histograms(hm, cfg.bins)
    # Both histograms bin the same cells, so they have the same length.
    w = emp.bin_width
    with np.errstate(over="ignore"):
        columns = ((np.arange(len(emp.weights)) + 0.5) * w, emp.weights / w, grad.weights / w)
    if not np.isfinite(columns).all():
        raise NumericError(f"bin width {w!r}: a density f or g per nm is not a finite float")

    lines = [f"# {_provenance(cfg, 'heightmap', f'input={os.path.basename(args.path)}')}"]
    if np.count_nonzero(emp.weights) < 2:
        lines.append("# delta-like distribution (single occupied bin); fit and "
                     "classification skipped")
        print("delta-like distribution: all separations in a single bin")
    else:
        fit = fit_gaussian(emp)
        lines.append(f"# gaussian-fit sigma={FMT % fit.sigma} s0={FMT % fit.s0} residual={FMT % fit.residual}")
        print(f"gaussian fit: sigma={fit.sigma:.6g} s0={fit.s0:.6g} residual={fit.residual:.3g}")
        try:
            report = case_number(distribution_from_histogram(emp), tol=1e-2)
            lines.append(f"# case_n={report.case_number} "
                         f"leading={FMT % report.leading_coefficient}")
            print(f"case number: {report.case_number}")
        except UnclassifiableError as exc:
            lines.append(f"# case_n=unclassifiable ({exc})")
            print(f"classification: unclassifiable ({exc})")

    text = table(lines + ["s_nm,f_nm,g_nm"], columns)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"area={hm.area:.6g} nm^2, bins={len(emp.weights)} -> {args.out}")
    return EXIT_OK


def cmd_asympt(args) -> int:
    cfg = load_config(args)
    _require_curves(cfg)
    if args.out:
        _check_out(args.out)
    rows = [CSV_ROW_HEADER]
    all_passed = True
    for stack in cfg.curves:
        dist = stack.build()
        report = case_number(dist)
        predicted = predict(report, cfg.kernel)
        # The fit reads only the separations inside its window.
        lo, hi = cfg.window or smallest_decade(cfg.separations)
        d = cfg.separations
        curve = sweep(dist, cfg.kernel, d[(d >= lo) & (d <= hi)])
        fitted = fit_scaling(curve, (lo, hi))
        ver = verify(predicted, fitted, tol=cfg.tol)
        all_passed &= ver.passed
        print(f"[{stack.label}] {stack.describe()} (case {report.case_number})")
        print(ver.text())
        rows.append(ver.csv_row(stack.label))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(f"# {_provenance(cfg, 'asympt')}\n")
            fh.write("\n".join(rows) + "\n")
        print(f"-> {args.out}")
    return EXIT_OK if all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, out_required: bool = True):
    p.add_argument("--config", help="scenario config file (INI sections)")
    p.add_argument("--preset", help="named recipe: " + ", ".join(sorted(PRESETS)))
    p.add_argument("--out", required=out_required,
                   help="output CSV path" if out_required else "optional CSV report path")


def make_parser() -> argparse.ArgumentParser:
    """A fresh parser on every call; ``main`` reuses one from ``_parser``."""
    parser = argparse.ArgumentParser(
        prog="proxint",
        description="Proximity-approximation interactions between structured surfaces",
    )
    parser.add_argument("--version", action="version", version=f"proxint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shape", help="write f(s) tables for a shape stack")
    _add_common(p)
    p.add_argument("--bins", type=int, help="rows per f(s) table")
    p.set_defaults(fn=cmd_shape)

    p = sub.add_parser("sweep", help="far-field-subtracted interaction sweeps")
    _add_common(p)
    p.add_argument("--dref", type=float, help="far-field reference separation (nm)")
    p.add_argument("--farfield", type=float, help="far-field constant (nW) for the ratio column")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("heightmap", help="analyze a heightmap file")
    p.add_argument("path", help="heightmap file (v1 header or headerless CSV)")
    _add_common(p)
    p.add_argument("--bins", type=int, help="histogram bin count over the height range")
    p.add_argument("--dx", type=float, help="grid spacing x (headerless input)")
    p.add_argument("--dy", type=float, help="grid spacing y (headerless input)")
    p.set_defaults(fn=cmd_heightmap)

    p = sub.add_parser("asympt", help="predict + fit + verify the scaling law")
    _add_common(p, out_required=False)
    p.add_argument("--tol", type=float, help="verification tolerance (relative)")
    p.add_argument("--window", help="fit window LO,HI in nm (default: smallest decade)")
    p.set_defaults(fn=cmd_asympt)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process.

    argparse looks up sys.stdout, sys.stderr and the terminal width when it
    prints, not when it is built, so one parser serves every call."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, ParseError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FitError, UnclassifiableError, MemoryError) as exc:
        # MemoryError: a grid too large to allocate (bins, per_decade).
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        # A named input or --out path that cannot be opened is bad config;
        # an I/O failure with no path attached stays a crash.
        if exc.filename is None:
            raise
        print(f"config error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
