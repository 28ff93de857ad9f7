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
import configparser
import math
import os
import sys

import numpy as np

from . import __version__
from .asymptotics import CSV_ROW_HEADER, fit_scaling, predict, smallest_decade, verify
from .distributions import (
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
    distribution_from_histogram,
    empirical_distribution,
    fit_gaussian,
    gradient_distribution,
    load_heightmap,
    shift_to_contact,
)
from .interaction import Kernel, curve_to_csv, pa_interaction, sweep

FMT = "%.17g"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

KERNEL_PRESETS = {
    "heat-sio2": {"alpha": 0.2558, "nu": 2.0},
    "casimir-ideal": {"nu": 3.0},
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


class ShapeStack:
    """One curve: optional base-curvature layer plus ordered modulation layers."""

    def __init__(self, label: str, base: dict | None, layers: list[dict]):
        self.label = label
        self.base = base
        self.layers = layers

    def build(self) -> HeightDistribution:
        dist = None
        if self.base is not None:
            dist = _layer_distribution(self.base)
        for layer in self.layers:
            mod = _layer_distribution(layer)
            dist = mod if dist is None else convolve(dist, mod)
        if dist is None:
            raise ConfigError(f"curve.{self.label}: empty shape stack")
        return dist

    def describe(self) -> str:
        parts = []
        if self.base is not None:
            parts.append(_describe_layer(self.base))
        parts.extend(_describe_layer(l) for l in self.layers)
        return " + ".join(parts)


def _describe_layer(layer: dict) -> str:
    items = " ".join(f"{k}={layer[k]:g}" for k in sorted(layer) if k != "type")
    return f"{layer['type']} {items}".strip()


def _layer_distribution(layer: dict) -> HeightDistribution:
    kind = layer["type"]
    if kind == "sphere":
        return sphere_distribution(layer["radius"])
    if kind == "dome":
        return dome_distribution(layer["height"])
    if kind == "pyramid":
        # Tilings are per unit area, so the tile base length drops out.
        return pyramid_distribution(layer["height"], 1.0, per_unit_area=True)
    if kind == "rough":
        return truncated_gaussian_distribution(layer["sigma"], layer["s0"])
    raise ConfigError(f"unknown layer type {kind!r}")


def _layer_scale(layer: dict) -> float:
    if layer["type"] == "rough":
        return layer["s0"] + 8.0 * layer["sigma"]
    return layer.get("height", layer.get("radius", 0.0))


_LAYER_FIELDS = {
    "sphere": {"radius"},
    "dome": {"height"},
    "pyramid": {"height"},
    "rough": {"sigma", "s0"},
}


def _parse_layer(text: str, path: str) -> dict:
    toks = text.split()
    if not toks:
        raise ConfigError(f"{path}: empty layer spec")
    layer: dict = {"type": toks[0]}
    allowed = _LAYER_FIELDS.get(toks[0])
    if allowed is None:
        raise ConfigError(f"{path}.type: unknown layer type {toks[0]!r}")
    for tok in toks[1:]:
        if "=" not in tok:
            raise ConfigError(f"{path}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field for {toks[0]}")
        try:
            layer[key] = float(val)
        except ValueError:
            raise ConfigError(f"{path}.{key}: not a number: {val!r}") from None
        if not math.isfinite(layer[key]):
            raise ConfigError(f"{path}.{key}: not a finite number: {val!r}")
    for key in allowed - set(layer):
        raise ConfigError(f"{path}.{key}: missing required field")
    for key, val in layer.items():
        if key != "type" and val <= 0 and not (key == "s0" and val == 0.0):
            raise ConfigError(f"{path}.{key}: must be positive, got {val:g}")
    return layer


class ScenarioConfig:
    """Effective scenario: curves, kernel, separations, and output knobs."""

    def __init__(self):
        self.curves: list[ShapeStack] = []
        self.kernel = Kernel(0.2558, 2.0, "heat-sio2")
        self.separations = np.geomspace(1.0, 300.0, 149)
        self.d_ref = 300.0
        self.far_field: float | None = None
        self.bins = 512
        self.tol = 0.05
        self.window: tuple[float, float] | None = None

    def describe(self) -> str:
        parts = [
            f"kernel={self.kernel.label or 'custom'} alpha={self.kernel.alpha:g} nu={self.kernel.nu:g}",
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

    kern = dict(KERNEL_PRESETS.get(sections.get("kernel", {}).get("preset", ""), {}))
    label = sections.get("kernel", {}).get("preset", "")
    for key in ("alpha", "nu"):
        if key in sections.get("kernel", {}):
            kern[key] = _get_float(sections["kernel"], key, "kernel")
    if "alpha" not in kern:
        if label:
            raise ConfigError(f"kernel.alpha: preset {label!r} needs an explicit alpha")
        kern["alpha"] = 0.2558
        kern["nu"] = kern.get("nu", 2.0)
        label = "heat-sio2"
    try:
        cfg.kernel = Kernel(kern["alpha"], kern["nu"], label or "custom")
    except InvalidParameterError as exc:
        raise ConfigError(f"kernel: {exc}") from exc

    sep = sections.get("separations", {})
    if "list" in sep:
        try:
            d = np.array([float(t) for t in sep["list"].split(",")])
        except ValueError:
            raise ConfigError("separations.list: not a number list") from None
        if not np.all(np.isfinite(d)):
            raise ConfigError("separations.list: values must be finite")
    else:
        lo = _get_float(sep, "min", "separations") if "min" in sep else 1.0
        hi = _get_float(sep, "max", "separations") if "max" in sep else 300.0
        per_decade = _get_int(sep, "per_decade", "separations") if "per_decade" in sep else 60
        if lo <= 0 or hi <= lo:
            raise ConfigError("separations: need 0 < min < max")
        if per_decade < 1:
            raise ConfigError("separations.per_decade: must be positive")
        npts = max(2, int(round(np.log10(hi / lo) * per_decade)) + 1)
        d = np.geomspace(lo, hi, npts)
    if np.any(d <= 0) or np.any(np.diff(d) <= 0):
        raise ConfigError("separations: must be positive and increasing")
    cfg.separations = d

    for name, sec in sections.items():
        if not name.startswith("curve."):
            continue
        label = name.split(".", 1)[1]
        base = None
        layers = []
        if "base" in sec:
            base = _parse_layer(sec["base"], f"{name}.base")
            if base["type"] != "sphere":
                raise ConfigError(f"{name}.base: base-curvature layer must be a sphere")
        idx = 1
        while f"layer.{idx}" in sec:
            layers.append(_parse_layer(sec[f"layer.{idx}"], f"{name}.layer.{idx}"))
            idx += 1
        for k in sec:
            if k != "base" and not (k.startswith("layer.") and k[6:].isdigit()):
                raise ConfigError(f"{name}.{k}: unknown key")
        for a, b, i in zip(layers[:-1], layers[1:], range(1, len(layers))):
            if _layer_scale(b) > _layer_scale(a) * (1 + 1e-12):
                raise ConfigError(
                    f"{name}.layer.{i + 1}: modulation layers must be ordered "
                    f"coarse to fine ({_layer_scale(b):g} > {_layer_scale(a):g})"
                )
        cfg.curves.append(ShapeStack(label, base, layers))

    if args is not None:
        if getattr(args, "dref", None) is not None:
            cfg.d_ref = args.dref
        if getattr(args, "bins", None) is not None:
            cfg.bins = args.bins
        if getattr(args, "farfield", None) is not None:
            cfg.far_field = args.farfield
        if getattr(args, "tol", None) is not None:
            cfg.tol = args.tol
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
        parser = configparser.ConfigParser()
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


def _curve_path(out: str, label: str, many: bool) -> str:
    if not many:
        return out
    stem, ext = os.path.splitext(out)
    return f"{stem}.{label}{ext or '.csv'}"


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

def cmd_shape(args) -> int:
    cfg = load_config(args)
    _require_curves(cfg)
    _check_out(args.out)
    many = len(cfg.curves) > 1
    for stack in cfg.curves:
        dist = stack.build()
        s = np.linspace(0.0, dist.support_max, cfg.bins)
        f = evaluate(dist, s)
        path = _curve_path(args.out, stack.label, many)
        with open(path, "w") as fh:
            fh.write(f"# {_provenance(cfg, 'shape', f'curve={stack.label}: {stack.describe()}')}\n")
            fh.write("s_nm,f\n")
            for si, fi in zip(s, f):
                fh.write(f"{FMT % si},{FMT % fi}\n")
        print(
            f"{stack.label}: support={dist.support_max:g} nm, "
            f"area={projected_area(dist):.6g} nm^2 -> {path}"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    _require_curves(cfg)
    _check_out(args.out)
    many = len(cfg.curves) > 1
    for stack in cfg.curves:
        dist = stack.build()
        curve = sweep(dist, cfg.kernel, cfg.separations, subtract_at=cfg.d_ref)
        if cfg.far_field is not None:
            curve = curve.with_ratio(cfg.far_field)
        path = _curve_path(args.out, stack.label, many)
        with open(path, "w") as fh:
            fh.write(curve_to_csv(
                curve,
                provenance=_provenance(cfg, "sweep", f"curve={stack.label}: {stack.describe()}"),
            ))
        head = f"{stack.label}: I({curve.separations[0]:g} nm) = {curve.values[0]:.6g} nW"
        if curve.ratios is not None:
            head += f" (ratio {curve.ratios[0]:.4g})"
        print(head + f" -> {path}")
    return EXIT_OK


def cmd_heightmap(args) -> int:
    cfg = load_config(args)
    _check_out(args.out)
    hm = load_heightmap(args.path, dx=args.dx, dy=args.dy)
    hm = shift_to_contact(hm)
    span = float(hm.values.max())
    bin_width = span / cfg.bins if span > 0 else 1.0
    emp = empirical_distribution(hm, bin_width)
    grad = gradient_distribution(hm, bin_width)

    lines = [f"# {_provenance(cfg, 'heightmap', f'input={os.path.basename(args.path)}')}"]
    nonempty = int(np.count_nonzero(emp.weights))
    if nonempty < 2:
        lines.append("# delta-like distribution (single occupied bin); fit and "
                     "classification skipped")
        print("delta-like distribution: all separations in a single bin")
    else:
        fit = fit_gaussian(emp)
        lines.append(
            f"# gaussian-fit sigma={FMT % fit.sigma} s0={FMT % fit.s0} "
            f"residual={FMT % fit.residual}"
        )
        print(f"gaussian fit: sigma={fit.sigma:.6g} s0={fit.s0:.6g} residual={fit.residual:.3g}")
        try:
            report = case_number(distribution_from_histogram(emp), tol=1e-2)
            lines.append(f"# case_n={report.case_number} "
                         f"leading={FMT % report.leading_coefficient}")
            print(f"case number: {report.case_number}")
        except UnclassifiableError as exc:
            lines.append(f"# case_n=unclassifiable ({exc})")
            print(f"classification: unclassifiable ({exc})")

    lines.append("s_nm,f_nm,g_nm")
    n = max(len(emp.weights), len(grad.weights))
    fw = np.zeros(n)
    fw[: len(emp.weights)] = emp.weights / bin_width
    gw = np.zeros(n)
    gw[: len(grad.weights)] = grad.weights / bin_width
    centers = (np.arange(n) + 0.5) * bin_width
    for c, fi, gi in zip(centers, fw, gw):
        lines.append(f"{FMT % c},{FMT % fi},{FMT % gi}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"area={hm.area:.6g} nm^2, bins={n} -> {args.out}")
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
        tol_cls = 1e-6 if dist.kind == "analytic" else 1e-3
        report = case_number(dist, tol=tol_cls)
        predicted = predict(report, cfg.kernel)
        curve = sweep(dist, cfg.kernel, cfg.separations)
        window = cfg.window or smallest_decade(cfg.separations)
        fitted = fit_scaling(curve, window)
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
    if out_required:
        p.add_argument("--out", required=True, help="output CSV path")
    else:
        p.add_argument("--out", help="optional CSV report path")


def make_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (ConfigError, ParseError, InvalidParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, FitError, UnclassifiableError) as exc:
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
