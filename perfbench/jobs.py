"""Job lists of the benchmark workloads, with their output checks.

A job is one CLI command (run in-process through ``proxint.cli.main``) or
one library call.  ``Job.run`` is the timed part and returns
``(exit_code, payload)``; ``Job.check(payload)`` runs outside the timed
region, compares the outputs with the independent references of
``refs.py`` and returns the worst relative error (``None`` where the
check is categorical) or raises ``Mismatch``.  Every function of proxint
is looked up on its module at call time, so a traced pass sees the
tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import refs
from inputs import DIAG_R, DIAG_SEPARATIONS

# Pass/fail tolerances, fixed before any measurement of a change.
TOL_EXACT = 1e-9      # closed-form paths (analytic convolution, segment integrals)
TOL_SAMPLED = 1e-3    # sampled-grid paths; the seed's fig2 rough curve is at 2.0e-4
TOL_PLATEAU = 0.05    # pyramid correction/PA ratio vs 4 h^2/l^2 (the C8 identity tolerance)
TOL_L1 = 0.03         # empirical f vs analytic convolution (acceptance C8)

def log_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    """The documented [separations] grid: per_decade points per decade, ends included."""
    return np.geomspace(lo, hi, int(round(math.log10(hi / lo) * per_decade)) + 1)


FIG2_D = log_grid(1.0, 300.0, 60)
D_REF = 300.0
FAR_FIELD = 4200.0
HEAT = (0.2558, 2.0)

# Figure presets as documented in the README; the program's PRESETS are
# not read, so a change to them shows up as a mismatch.
FIG2 = {
    "fig2": {"dome": 50.0, "rough": (10.0, 20.0), "pyramid": 100.0},
    "fig2-inset": {"dome": 12.5, "rough": (2.5, 5.0), "pyramid": 25.0},
}
FIG_R = 50_000.0
FIG1 = {"dome": 5000.0, "pyramid": 5000.0, "rough": (1250.0, 2500.0)}
STACK_CHECK_INDICES = (0, 67, 134, 201, 268)


class Mismatch(Exception):
    pass


@dataclass
class Job:
    name: str
    run: Callable[[], tuple]
    check: Callable[[object], float | None]
    outputs: tuple[str, ...] = ()    # files the job writes; removed before each run
    cli: bool = False
    # Called with the exit code of a failed run: True when the failure is
    # the documented defect below, which counts in fail_frac but neither
    # in the result line's failed nor against correct.
    known_failure: Callable[[int], bool] | None = None
    verified: dict = field(default_factory=dict)


def _cli_job(name: str, argv: list[str], check, outputs, known_failure=None) -> Job:
    import proxint.cli as cli

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, (err.getvalue() or out.getvalue())

    return Job(name, run, check, tuple(outputs), cli=True, known_failure=known_failure)


def _read_table(path: str):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


def _rel(got, want, tol: float, what: str) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: {got.shape[0]} values, expected {want.shape[0]}")
    err = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    if not err <= tol:
        raise Mismatch(f"{what}: max rel err {err:.3g} > {tol:g}")
    return err


def _curve_check(path: str, ref: list[float], tol: float, ratio: bool) -> float:
    table = _read_table(path)
    _rel(table["d_nm"], FIG2_D, 1e-12, f"{path} d grid")
    err = _rel(table["I_nW"], ref, tol, path)
    if ratio:
        _rel(table["ratio"], table["I_nW"] / FAR_FIELD, 1e-12, f"{path} ratio column")
    return err


# ---------------------------------------------------------------------------
# sweep-sampled
# ---------------------------------------------------------------------------

def _subtracted(values: list[float]) -> list[float]:
    return [v - values[-1] for v in values[:-1]]


def _fig2_refs(preset: str) -> dict:
    alpha, nu = HEAT
    p = FIG2[preset]
    d_all = list(FIG2_D) + [D_REF]
    sigma, s0 = p["rough"]
    return {
        "smooth": _subtracted([float(refs.i_sphere(FIG_R, alpha, nu, d)) for d in d_all]),
        "dome": _subtracted([refs.stack_interaction(
            FIG_R, [{"type": "dome", "height": p["dome"]}], alpha, nu, d) for d in d_all]),
        "pyramid": _subtracted([refs.stack_interaction(
            FIG_R, [{"type": "pyramid", "height": p["pyramid"]}], alpha, nu, d) for d in d_all]),
        "rough": _subtracted([refs.rough_interaction(FIG_R, sigma, s0, alpha, nu, d)
                              for d in d_all]),
    }


def _rough_ref(sc: dict) -> list[float]:
    alpha, nu = HEAT
    return _subtracted([
        refs.rough_interaction(sc["radius"], sc["sigma"], sc["s0"], alpha, nu, d)
        for d in list(FIG2_D) + [D_REF]
    ])


def sweep_sampled(spec: dict, indir: str, outdir: str, cache) -> tuple[list[Job], Job]:
    import proxint.distributions as dist
    import proxint.heightmap as hmap
    import proxint.interaction as inter

    jobs = []
    for preset in FIG2:
        ref = cache({"fig2": preset, "d": FIG2_D.tolist()},
                    lambda preset=preset: _fig2_refs(preset))
        out = os.path.join(outdir, f"{preset}.csv")
        paths = {c: os.path.join(outdir, f"{preset}.{c}.csv") for c in ref}

        def check(payload, ref=ref, paths=paths):
            return max(
                _curve_check(paths[c], ref[c], TOL_SAMPLED if c == "rough" else TOL_EXACT, True)
                for c in ref
            )

        jobs.append(_cli_job(f"sweep {preset}", ["sweep", "--preset", preset, "--out", out],
                             check, paths.values()))

    for sc in spec["scenarios"]:
        ref = cache({"rough": sc, "d": FIG2_D.tolist()}, lambda sc=sc: _rough_ref(sc))
        out = os.path.join(outdir, f"{sc['name']}.csv")
        jobs.append(_cli_job(
            f"sweep {sc['name']}",
            ["sweep", "--config", os.path.join(indir, f"{sc['name']}.ini"), "--out", out],
            lambda payload, out=out, ref=ref: _curve_check(out, ref, TOL_SAMPLED, False),
            [out],
        ))

    d_list = np.geomspace(1.0, 300.0, DIAG_SEPARATIONS)
    for tile in spec["tiles"]:
        kind, h, l = tile["kind"], tile["height"], tile["tile"]

        def run(tile=tile, kind=kind, h=h, l=l):
            hm = hmap.shift_to_contact(hmap.load_heightmap(tile["path"]))
            g_r = hmap.gradient_distribution(hm, bin_width=h / 512)
            sphere = dist.sphere_distribution(DIAG_R)
            g = hmap.compose_gradient(sphere, g_r, hm.area)
            if kind == "dome":
                mod = dist.dome_distribution(h)
            else:
                mod = dist.pyramid_distribution(h, l, per_unit_area=True)
            f = dist.convolve(sphere, mod)
            return 0, inter.exactness_diagnostic(f, g, inter.heat_sio2_kernel(), d_list)

        def check(result, kind=kind, h=h, l=l):
            if kind == "dome":
                if not result.asymptotically_exact:
                    raise Mismatch("dome diagnostic not flagged asymptotically exact (C9)")
                return None
            if result.asymptotically_exact:
                raise Mismatch("pyramid diagnostic flagged asymptotically exact (C9)")
            plateau = 4.0 * h**2 / l**2
            return _rel(result.ratios, np.full(len(d_list), plateau), TOL_PLATEAU,
                        "pyramid ratio plateau")

        jobs.append(Job(f"diagnostic {kind}", run, check))

    warmup = next(j for j in jobs if j.name == f"sweep {spec['scenarios'][0]['name']}")
    return jobs, warmup


# ---------------------------------------------------------------------------
# stacks-analytic
# ---------------------------------------------------------------------------

LAYER_LEAD = {
    "dome": lambda h: (2.0 / h, 1),
    "pyramid": lambda h: (2.0 / h**2, 2),
}


def theory_law(stack: dict) -> tuple[str, float | None, float | None]:
    """Small-d law of sphere (*) layers against alpha / d^nu, from first principles.

    Near s = 0 each factor is A_i s^(n_i - 1); the convolution is
    c s^(n - 1) with c = prod A_i * prod Gamma(n_i) / Gamma(n), n = sum n_i,
    and int c s^(n-1) alpha / (s + d)^nu ds = alpha c Gamma(n) Gamma(nu - n)
    / Gamma(nu) * d^(n - nu) for nu > n, or -alpha c ln d + const for nu = n.
    """
    leads = [(2.0 * math.pi * stack["radius"], 1)]
    leads += [LAYER_LEAD[layer["type"]](layer["height"]) for layer in stack["layers"]]
    n = sum(k for _, k in leads)
    c = math.prod(a for a, _ in leads) * math.prod(math.gamma(k) for _, k in leads) / math.gamma(n)
    alpha, nu = stack["alpha"], stack["nu"]
    if nu > n:
        return "power-law", alpha * c * math.gamma(n) * math.gamma(nu - n) / math.gamma(nu), nu - n
    if nu == n:
        return "logarithmic", alpha * c, None
    return "constant", None, None


def _asympt_fields(path: str) -> dict:
    with open(path) as fh:
        rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    return dict(zip(rows[0].split(","), rows[1].split(",")))


def _asympt_check(path: str, stack: dict) -> float | None:
    fields = _asympt_fields(path)
    if int(fields["case_n"]) != stack["case"]:
        raise Mismatch(f"{path}: case_n {fields['case_n']} != {stack['case']}")
    form, prefactor, exponent = theory_law(stack)
    if fields["form_pred"] != form:
        raise Mismatch(f"{path}: form_pred {fields['form_pred']} != {form}")
    err = None
    if prefactor is not None:
        err = _rel([float(fields["prefactor_pred"])], [prefactor], TOL_EXACT,
                   f"{path} predicted prefactor")
    if exponent is not None:
        _rel([float(fields["exponent_pred"])], [exponent], TOL_EXACT, f"{path} exponent")
    return err


# Known defect of the program, counted in fail_frac and not filtered:
# ``asympt`` exits 4 on casimir-ideal (nu = 3) stacks of case number 2
# (sphere (*) one dome).  ``asymptotics.predict`` takes the power-law
# prefactor as alpha f^(n-1)(0) / ((n-1)! (nu-n)); the integral gives
# alpha f^(n-1)(0) Gamma(nu-n) / Gamma(nu), so at n = 2, nu = 3 the
# prediction is twice too large and the fit does not verify.  Only a
# failure with exactly that signature is exempt from ``correct`` and from
# the result line's ``failed``; the job is timed like a passing one.
DEFECT_EXIT = 4
DEFECT_FACTOR = 2.0


def _has_known_defect(stack: dict) -> bool:
    return stack["kernel"] == "casimir-ideal" and stack["case"] == 2


def _is_known_defect(code: int, path: str, stack: dict) -> bool:
    if code != DEFECT_EXIT or not _has_known_defect(stack):
        return False
    fields = _asympt_fields(path)
    form, prefactor, exponent = theory_law(stack)
    return (int(fields["case_n"]) == 2 and fields["form_pred"] == form
            and abs(float(fields["exponent_pred"]) - exponent) <= TOL_EXACT
            and abs(float(fields["prefactor_pred"]) / (DEFECT_FACTOR * prefactor) - 1.0)
            <= TOL_EXACT)


def _stack_ref(stack: dict, d_values: list[float]) -> list[float]:
    args = (stack["radius"], stack["layers"], stack["alpha"], stack["nu"])
    return _subtracted([refs.stack_interaction(*args, d) for d in d_values + [D_REF]])


def _shape_check(outdir: str, cache) -> float:
    worst = 0.0
    for label in ("smooth", "dome", "pyramid", "rough"):
        path = os.path.join(outdir, f"fig1.{label}.csv")
        table = _read_table(path)
        s, f = table["s_nm"], table["f"]
        if len(s) != 512:
            raise Mismatch(f"{path}: {len(s)} rows, expected 512")
        inside = s <= FIG_R
        if label == "smooth":
            want = 2 * math.pi * (FIG_R - s[inside])
        elif label == "rough":
            sigma, s0 = FIG1["rough"]
            points = s[inside].tolist()
            want = cache({"fig1": "rough", "s": points}, lambda: [
                refs.rough_density(FIG_R, sigma, s0, si) for si in points])
        else:
            want = refs.sphere_layer_density(FIG_R, label, FIG1[label], s[inside])
        tol = TOL_SAMPLED if label == "rough" else TOL_EXACT
        worst = max(worst, _rel(f[inside], want, tol, path))
    return worst


def _fig4_check(path: str) -> float | None:
    stack = {"radius": 1e5, "alpha": 1.0, "nu": 3.0, "case": 4,
             "layers": [{"type": "dome", "height": 1000.0},
                        {"type": "pyramid", "height": 100.0}]}
    return _asympt_check(path, stack)


def stacks_analytic(spec: dict, indir: str, outdir: str, cache) -> tuple[list[Job], Job]:
    fig4_out = os.path.join(outdir, "fig4.csv")
    jobs = [_cli_job("asympt fig4", ["asympt", "--preset", "fig4", "--out", fig4_out],
                     lambda payload: _fig4_check(fig4_out), [fig4_out])]
    jobs.append(_cli_job(
        "shape fig1", ["shape", "--preset", "fig1", "--out", os.path.join(outdir, "fig1.csv")],
        lambda payload: _shape_check(outdir, cache),
        [os.path.join(outdir, f"fig1.{c}.csv") for c in ("smooth", "dome", "pyramid", "rough")],
    ))
    d_grid = log_grid(0.01, 300.0, 60)
    d_check = [float(d_grid[i]) for i in STACK_CHECK_INDICES]
    for stack in spec["stacks"]:
        ini = os.path.join(indir, f"{stack['name']}.ini")
        a_out = os.path.join(outdir, f"{stack['name']}.asympt.csv")
        s_out = os.path.join(outdir, f"{stack['name']}.sweep.csv")
        ref = cache({"stack": stack, "d": d_check}, lambda s=stack: _stack_ref(s, d_check))

        def sweep_check(payload, s_out=s_out, ref=ref):
            table = _read_table(s_out)
            _rel(table["d_nm"], d_grid, 1e-12, f"{s_out} d grid")
            idx = list(STACK_CHECK_INDICES)
            return _rel(table["I_nW"][idx], ref, TOL_EXACT, s_out)

        known = (functools.partial(_is_known_defect, path=a_out, stack=stack)
                 if _has_known_defect(stack) else None)
        jobs.append(_cli_job(f"asympt {stack['name']}",
                             ["asympt", "--config", ini, "--out", a_out],
                             lambda payload, a=a_out, s=stack: _asympt_check(a, s), [a_out],
                             known))
        jobs.append(_cli_job(f"sweep {stack['name']}",
                             ["sweep", "--config", ini, "--out", s_out], sweep_check, [s_out]))
    return jobs, jobs[0]


# ---------------------------------------------------------------------------
# scan-heightmap
# ---------------------------------------------------------------------------

def _histogram(hm) -> tuple[np.ndarray, float]:
    """Bin areas and bin width of the 512-bin histogram the CLI documents,
    binned here from the generated grid."""
    shifted = hm.values - hm.values.min()
    width = float(shifted.max()) / 512
    counts = np.bincount(np.floor(shifted.ravel() / width).astype(np.int64))
    return counts * (hm.dx * hm.dy), width


def _scan_check(out: str, scan: dict, areas: np.ndarray, width: float) -> float:
    hm = scan["grid"]
    table = _read_table(out)
    f = table["f_nm"]
    _rel(table["s_nm"], (np.arange(len(f)) + 0.5) * width, 1e-12, f"{out} bin centres")
    total = hm.nx * hm.dx * hm.ny * hm.dy
    err = _rel([float(np.sum(f) * width)], [total], TOL_EXACT, f"{out} histogram mass")
    _rel(f, areas / width, 1e-12, f"{out} histogram")

    if scan["name"].startswith("cappyr"):
        cap, pyr = scan["layers"]
        radius, h, l = cap["radius"], pyr["height"], pyr["tile"]
        half = scan["extent"] / 2.0
        sag_in = half**2 / (radius + math.sqrt(radius**2 - half**2))
        merge = max(1, int(round(10.0 / width)))
        nbins = int(0.85 * sag_in / (merge * width))
        masses = f[: nbins * merge] * width
        emp = masses.reshape(nbins, merge).sum(axis=1)
        want = refs.cap_pyramid_masses(radius, h, h * hm.dx / l, merge * width, nbins)
        l1 = float(np.abs(emp - want).sum() / want.sum())
        if not l1 < TOL_L1:
            raise Mismatch(f"{out}: cap (*) pyramid relative L1 {l1:.3g} >= {TOL_L1}")
        err = max(err, l1)
    return err


def _write_check(job: Job, path: str, hm) -> float:
    """The written v1 file parses back to the grid exactly; row by row, so
    that the check adds little to the process's peak memory."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    if job.verified.get("digest") == digest.hexdigest():
        return 0.0
    want = ["#", "heightmap", "v1", f"nx={hm.nx}", f"ny={hm.ny}",
            f"dx={'%.17g' % hm.dx}", f"dy={'%.17g' % hm.dy}"]
    rows = 0
    with open(path) as fh:
        if fh.readline().split() != want:
            raise Mismatch(f"{path}: header is not {' '.join(want)!r}")
        for line in fh:
            if rows >= hm.ny or not np.array_equal(
                    np.array(line.split(), dtype=float), hm.values[rows]):
                raise Mismatch(f"{path}: row {rows + 1} does not round-trip")
            rows += 1
    if rows != hm.ny:
        raise Mismatch(f"{path}: {rows} rows, expected {hm.ny}")
    job.verified["digest"] = digest.hexdigest()
    return 0.0


def scan_heightmap(spec: dict, indir: str, outdir: str, cache) -> tuple[list[Job], Job]:
    import proxint.heightmap as hmap

    jobs = []
    for scan in spec["scans"]:
        areas, width = _histogram(scan["grid"])
        for fmt in ("text", "csv"):
            out = os.path.join(outdir, f"{scan['name']}.{fmt}.out.csv")
            argv = ["heightmap", scan[fmt], "--out", out]
            if fmt == "csv":
                argv += ["--dx", "%.17g" % scan["dx"], "--dy", "%.17g" % scan["dy"]]
            jobs.append(_cli_job(f"heightmap {scan['name']} {fmt}", argv,
                                 lambda payload, out=out, scan=scan, areas=areas, width=width:
                                 _scan_check(out, scan, areas, width), [out]))
        path = os.path.join(outdir, f"write-{scan['name']}.txt")

        def run(scan=scan, path=path):
            hmap.save_heightmap(scan["grid"], path)
            return 0, None

        job = Job(f"save {scan['name']}", run, None, (path,))
        job.check = lambda payload, job=job, path=path, scan=scan: _write_check(
            job, path, scan["grid"])
        jobs.append(job)
    return jobs, jobs[0]


BUILDERS = {
    "sweep-sampled": sweep_sampled,
    "stacks-analytic": stacks_analytic,
    "scan-heightmap": scan_heightmap,
}
