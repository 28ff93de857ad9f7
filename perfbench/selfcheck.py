"""Self-checks of the benchmark's own code.

    python3 perfbench/selfcheck.py        # all checks, from the checkout root

* the sphere reference matches acceptance C3's closed form at 1e-12, and
  the nu = 3 form and the nested layer identity match direct quadrature;
* the tracer's self time is exact on a synthetic nested call;
* the input generator writes byte-identical files for one seed, and
  different files for another.

``quick()`` runs the first two (a few milliseconds); ``run.py`` calls it
before every run.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import sys
import types

from scipy.integrate import quad

import refs
import spans


class SelfCheckError(Exception):
    pass


def _need(ok: bool, *info) -> None:
    if not ok:
        raise SelfCheckError(" ".join(str(i) for i in info))


def check_sphere_reference() -> None:
    radius, alpha = 50_000.0, 0.2558
    for d in (1.0, 10.0, 100.0, 300.0):
        c3 = 2 * math.pi * alpha * (radius / d - math.log1p(radius / d))
        got = float(refs.i_sphere(radius, alpha, 2.0, d))
        _need(abs(got - c3) <= 1e-12 * c3, "C3 sphere", d, got, c3)
    for nu in (2.0, 3.0):
        for d in (0.05, 3.0, 300.0):
            direct = quad(lambda s: 2 * math.pi * (radius - s) * alpha / (s + d) ** nu,
                          0.0, radius, points=[d, 10 * d, 100 * d], epsabs=0.0,
                          epsrel=1e-13, limit=400)[0]
            got = float(refs.i_sphere(radius, alpha, nu, d))
            _need(abs(got - direct) <= 1e-10 * direct, "sphere", nu, d, got, direct)
    # One dome layer by the nested identity vs the acceptance-C1 density.
    h = 500.0
    for d in (0.1, 10.0):
        layered = refs.stack_interaction(radius, [{"type": "dome", "height": h}], alpha, 2.0, d)

        def integrand(s):
            return float(refs.sphere_layer_density(radius, "dome", h, s)) * alpha / (s + d) ** 2

        direct = (quad(integrand, 0.0, h, points=[d], epsabs=0.0, epsrel=1e-13, limit=400)[0]
                  + quad(integrand, h, radius, epsabs=0.0, epsrel=1e-13, limit=400)[0]
                  + quad(lambda s: 2 * math.pi * (radius + h - s) ** 3 / (3 * h**2) * alpha
                         / (s + d) ** 2, radius, radius + h, epsabs=0.0, epsrel=1e-13)[0])
        _need(abs(layered - direct) <= 1e-10 * direct, "dome layer", d, layered, direct)


def check_tracer_self_time() -> None:
    """outer() spends 1 s itself and calls inner() twice, for 2 s and 5 s."""
    ticks = iter([0.0, 1.0, 3.0, 3.0, 8.0, 8.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    fake = types.ModuleType("fakepkg.cli")

    def inner():
        return None

    def outer():
        fake.inner()
        fake.inner()

    inner.__module__ = outer.__module__ = fake.__name__
    fake.inner, fake.outer = inner, outer
    package = types.ModuleType("fakepkg")
    sys.modules["fakepkg"], sys.modules["fakepkg.cli"] = package, fake
    try:
        tracer.install(package)
        tracer.job = 0
        fake.outer()
        tracer.uninstall()
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.cli"]
    _need(fake.outer is outer and fake.inner is inner, "tracer did not restore the module")
    table = tracer.by_job()[0]
    # Clock reads: outer in 0, inner 1..3, inner 3..8, outer out 8.
    _need(table["cli.outer"] == [1, 1.0], table)
    _need(table["cli.inner"] == [2, 7.0], table)


def quick() -> None:
    check_sphere_reference()
    check_tracer_self_time()


def _digests(directory: str) -> dict:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check_generator(root: str) -> None:
    import inputs

    base = os.path.join(root, ".perfbench", f"selfcheck-{os.getpid()}")
    try:
        for workload in inputs.WORKLOADS:
            runs = {}
            for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
                directory = os.path.join(base, workload, tag)
                inputs.generate(workload, seed, directory)
                runs[tag] = _digests(directory)
            _need(runs["a"] == runs["b"], f"{workload}: seed 7 generated different bytes")
            _need(runs["a"] != runs["c"], f"{workload}: seeds 7 and 8 generated the same bytes")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    quick()
    check_generator(root)
    print("perfbench self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
