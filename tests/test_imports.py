"""Every name a katolab or test module imports is used in that module, and the
cold paths load only the scipy modules they need."""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "katolab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_import_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import math, os.path\nfrom x import a, b as c\n"
              "def f():\n    import json\n    return math.pi + c + os.sep\n")
    assert unused_imports(source) == ["a (line 3)", "json (line 5)"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def raised_names(source: str) -> set[str]:
    """Names of the exceptions that `raise` statements in source raise."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_raised_names_scan_reads_calls_and_bare_names():
    source = ("def f(x):\n    if x:\n        raise A('no')\n    try:\n        g()\n"
              "    except B as e:\n        raise C from e\n    raise\n")
    assert raised_names(source) == {"A", "C"}


def test_every_katolab_error_is_raised_somewhere():
    # an exception class that no module raises is dead code
    errors = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)}
    raised = set().union(*(raised_names(p.read_text()) for p in MODULES))
    assert errors - {"KatolabError"} - raised == set()


def _loaded_modules(code: str, prefix: str) -> set[str]:
    """Modules named prefix... in sys.modules after running code in a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code += ("\nimport sys; print('\\nloaded:', "
             f"*(m for m in sys.modules if m.startswith({prefix!r})))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    # the last line, after whatever the code itself printed
    return set(out.splitlines()[-1].split()[1:])


def _loaded_scipy_modules(code: str) -> set[str]:
    """scipy modules in sys.modules after running code in a fresh interpreter."""
    return _loaded_modules(code, "scipy")


#: modules that no classify process needs: katolab's three not on its path,
#: numpy.polynomial, once imported only to rebuild two fixed Gauss rules, and
#: numpy.ma, once imported by np.union1d to join a custom kernel's panel edges
UNUSED_BY_CLASSIFY = {"katolab.kernelcheck", "katolab.montecarlo", "katolab.rearrangement",
                      "numpy.polynomial", "numpy.ma"}
CONFIGS = sorted(p.stem for p in (SRC.parents[1] / "configs").glob("*.cfg"))
#: a classify on a custom kernel's panels, which no shipped config's classify reaches
CUSTOM_LEBESGUE = ("kernel.family = custom\nkernel.dim = 3\nkernel.nu = 3\nkernel.beta = 2\n"
                   "kernel.profile = exp:2.0\nmeasure.kind = lebesgue\nsweep.p = 1.5\n"
                   "sweep.centers_explicit = 0,0,0\nsweep.centers_support = 0\n"
                   "sweep.centers_random = 0\n")


@pytest.mark.parametrize("name", CONFIGS + ["custom-lebesgue"])
def test_classify_loads_no_module_it_does_not_run(tmp_path, name):
    cfg = SRC.parents[1] / "configs" / f"{name}.cfg"
    if name == "custom-lebesgue":
        (cfg := tmp_path / "run.cfg").write_text(CUSTOM_LEBESGUE)
    loaded = _loaded_modules(
        "import katolab.cli\n"
        f"assert katolab.cli.main(['classify', '--config', {str(cfg)!r}, "
        f"'--seed', '7', '--out', {str(tmp_path)!r}]) in (0, 2)", "")
    assert (tmp_path / "classify.csv").exists()
    # scipy.special imports numpy.polynomial and numpy.ma itself (relativistic-d3's Psi)
    expected = {"numpy.polynomial", "numpy.ma"} if "scipy.special" in loaded else set()
    assert loaded & UNUSED_BY_CLASSIFY == expected


def test_import_katolab_loads_no_module_classify_does_not_run():
    assert not _loaded_modules("import katolab", "") & UNUSED_BY_CLASSIFY


def test_every_public_name_resolves_and_star_import_works():
    loaded = _loaded_modules(
        "import katolab\n"
        "inverse = katolab.rearrangement.right_continuous_inverse\n"
        "assert inverse is katolab.right_continuous_inverse\n"
        "values = {n: getattr(katolab, n) for n in katolab.__all__}\n"
        "assert set(katolab.__all__) <= set(dir(katolab))\n"
        "assert {'expected_additive_functional', 'DistributionFunction'} <= set(values)\n"
        "from katolab import *\n"
        "from katolab.montecarlo import expected_additive_functional as ea\n"
        "assert ea is expected_additive_functional is values['expected_additive_functional']\n"
        "assert katolab.rearrangement.DistributionFunction is DistributionFunction\n"
        "from katolab.kernelcheck import eval_heat_kernel as ek, kernel_invariant_suite as ks\n"
        "assert ek is eval_heat_kernel is values['eval_heat_kernel']\n"
        "assert ks is kernel_invariant_suite is katolab.kernel_invariant_suite",
        "katolab.")
    assert {"katolab.kernelcheck", "katolab.montecarlo", "katolab.rearrangement"} <= loaded


def test_every_function_perfbench_traces_exists():
    # Tracer.install calls getattr on each (module, name) of perfbench's
    # FUNCTIONS and on functionals.sup_over_centers: a deleted one breaks
    # every traced benchmark run
    tree = ast.parse((SRC.parents[1] / "perfbench" / "spans.py").read_text())
    listed = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["FUNCTIONS"])
    names = [tuple(ast.literal_eval(elt))[:2] for elt in listed.elts]
    assert ("cli", "main") in names
    for module, name in names + [("functionals", "sup_over_centers")]:
        assert callable(getattr(importlib.import_module(f"katolab.{module}"), name, None)), \
            f"katolab.{module}.{name}"


def test_every_method_perfbench_traces_is_defined():
    # Tracer.install wraps each (module, method) of perfbench's METHODS on
    # every class of that module that defines it: a renamed method is
    # silently no longer traced, and its spans read 0
    tree = ast.parse((SRC.parents[1] / "perfbench" / "spans.py").read_text())
    listed = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["METHODS"])
    names = [tuple(ast.literal_eval(elt))[:2] for elt in listed.elts]
    assert ("measures", "radial_mass_density") in names
    # no class has defined it since the one exact resolvent path; ROADMAP
    # item 20 drops it from METHODS
    names.remove(("kernels", "_build_resolvent_interp"))
    for module, meth in names:
        mod = importlib.import_module(f"katolab.{module}")
        assert any(inspect.isclass(cls) and cls.__module__ == mod.__name__
                   and meth in cls.__dict__ for cls in vars(mod).values()), \
            f"katolab.{module}: no class defines {meth}"


def test_a_density_builds_its_radial_mass_density_once_per_view(monkeypatch):
    # perfbench's density-offcenter counts f's points through the densities
    # Density.radial_mass_density returns: radial_view must build each
    # view's density there, and the engine read that density
    from katolab.functionals import kato_functional
    from katolab.measures import Density
    from katolab.profiles import GreenKernelSpec

    built, points, build = [], [], Density.radial_mass_density

    def counted(self, x):
        built.append(x)
        m = build(self, x)
        return lambda s: (points.append(np.size(s)), m(s))[1]

    monkeypatch.setattr(Density, "radial_mass_density", counted)
    mu = Density(lambda y: float(np.exp(-(y @ y))), dim=3)
    centers = [np.zeros(3), np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])]
    kato_functional(mu, GreenKernelSpec(3.0, 2.0), 1.5, 0.5, centers=centers)
    assert len(built) == len(centers) and sum(points) > 0


def test_unknown_katolab_attribute_is_an_attribute_error():
    import katolab
    with pytest.raises(AttributeError, match="no_such_name"):
        katolab.no_such_name


@pytest.mark.parametrize("module, n", [("quadrature", 32), ("kernels", 16), ("measures", 64)])
def test_literal_gauss_legendre_rules_equal_leggauss(module, n):
    mod = importlib.import_module(f"katolab.{module}")
    prefix = "_GL" if n == 32 else f"_GL{n}"
    nodes, weights = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(getattr(mod, f"{prefix}_NODES"), nodes)
    assert np.array_equal(getattr(mod, f"{prefix}_WEIGHTS"), weights)


def test_import_katolab_loads_no_scipy():
    assert _loaded_scipy_modules("import katolab") == set()


def test_point_mass_classify_loads_no_quad_or_interpolation(tmp_path):
    cfg = SRC.parents[1] / "configs" / "delta0-d1.cfg"
    loaded = _loaded_scipy_modules(
        "import katolab.cli\n"
        f"assert katolab.cli.main(['classify', '--config', {str(cfg)!r}, "
        f"'--seed', '7', '--out', {str(tmp_path)!r}]) == 0")
    assert (tmp_path / "classify.csv").exists()
    assert not loaded & {"scipy.integrate", "scipy.interpolate", "scipy.optimize"}


@pytest.mark.parametrize("name", ["brownian-d3-lebesgue", "stable-d2", "ahlfors-eta2"])
def test_kernel_check_loads_no_quad(tmp_path, name):
    # the scalar resolvent reads the r_1 panels: no scipy quad
    cfg = SRC.parents[1] / "configs" / f"{name}.cfg"
    loaded = _loaded_scipy_modules(
        "import katolab.cli\n"
        f"assert katolab.cli.main(['kernel-check', '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0")
    assert (tmp_path / "kernel_check.csv").exists()
    assert "scipy.integrate" not in loaded


def test_radial_density_ball_mass_and_eta_load_no_quad():
    # ball masses come from the dyadic sweep with g = 1
    loaded = _loaded_scipy_modules(
        "import numpy as np\n"
        "from katolab.classification import estimate_eta\n"
        "from katolab.measures import RadialDensity\n"
        "from katolab.profiles import power_profile\n"
        "mu = RadialDensity(power_profile(-1.0), dim=3)\n"
        "assert 0.0 < mu.ball_mass(np.zeros(3), 0.5) < np.inf\n"
        "eta = estimate_eta(mu, [np.zeros(3)], 2.0 ** -np.arange(7, 12))\n"
        "assert abs(eta - 2.0) < 1e-6, eta")
    assert "scipy.integrate" not in loaded


@pytest.mark.parametrize("name", ["delta0-d1", "brownian-d3-lebesgue", "sphere-d3"])
def test_odd_gaussian_classify_loads_no_scipy(tmp_path, name):
    # odd-d Gaussian kernels are closed forms in elementary functions and
    # math.erfc: no resolvent table and no scipy.special
    cfg = SRC.parents[1] / "configs" / f"{name}.cfg"
    loaded = _loaded_scipy_modules(
        "import katolab.cli\n"
        f"assert katolab.cli.main(['classify', '--config', {str(cfg)!r}, "
        f"'--seed', '7', '--out', {str(tmp_path)!r}]) == 0")
    assert (tmp_path / "classify.csv").exists()
    assert loaded == set()


def test_relativistic_classify_and_kernel_check_load_no_quad(tmp_path):
    # Psi is a Bessel K and r_alpha runs on log-space panels: no scipy quad
    cfg = SRC.parents[1] / "configs" / "relativistic-d3.cfg"
    loaded = _loaded_scipy_modules(
        "import katolab.cli\n"
        "for cmd in ['classify', 'kernel-check']:\n"
        f"    assert katolab.cli.main([cmd, '--config', {str(cfg)!r}, "
        f"'--out', {str(tmp_path)!r}]) == 0")
    assert (tmp_path / "classify.csv").exists()
    assert (tmp_path / "kernel_check.csv").exists()
    assert "scipy.special" in loaded and "scipy.integrate" not in loaded


@pytest.mark.parametrize("name", ["brownian-d3-lebesgue", "stable-d2"])
def test_classify_on_explicit_centers_does_not_import_numpy_random(tmp_path, name):
    # these configs draw no center, so CenterStrategy.build makes no generator
    cfg = SRC.parents[1] / "configs" / f"{name}.cfg"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p)
    code = ("import sys, katolab.cli\n"
            f"assert katolab.cli.main(['classify', '--config', {str(cfg)!r}, "
            f"'--seed', '7', '--out', {str(tmp_path)!r}]) == 0\n"
            "print('\\nrandom:', 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert (tmp_path / "classify.csv").exists()
    assert out.splitlines()[-1] == "random: False"
