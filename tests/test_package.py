"""The package's top-level names."""
import importlib
import importlib.util
import pathlib
import pkgutil
import runpy

import lieode
from lieode import determining, involutive, polys, ratfunc

TESTS = pathlib.Path(__file__).resolve().parent
TRACER = TESTS.parent / "bench" / "tracer.py"


def test_every_exported_name_resolves():
    for name in lieode.__all__:
        assert getattr(lieode, name) is not None, name


def test_submodules_and_names_read_by_the_benchmark_stay_bound():
    assert callable(lieode.pipeline.analyze)
    assert isinstance(lieode.pushforward.PointTransformation, type)
    assert lieode.CharPoly is lieode.recovery.CharPoly
    assert lieode.parse_ode is lieode.parsing.parse_ode


def test_every_benchmark_hook_point_resolves():
    # the traced benchmark rebinds each hook point; a deleted or renamed
    # one would only show in its output as "hook point absent:"
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod in pkgutil.iter_modules(lieode.__path__):
        importlib.import_module("lieode." + mod.name)
    t = tracer.Tracer(package="lieode")
    for hook, _ in tracer.HOOKS:
        found = t._resolve(hook)
        assert found is not None and callable(found[2]), hook


def test_test_modules_take_no_gcd_at_import(monkeypatch):
    # collection builds cases without engine arithmetic, so a gcd fault
    # fails single tests instead of stopping whole modules at import
    def refuse(a, b):
        raise AssertionError("gcd(%r, %r) at import" % (a, b))

    for module in (polys, ratfunc, involutive, determining):
        monkeypatch.setattr(module, "gcd", refuse)
    for path in sorted(TESTS.glob("test_*.py")):
        runpy.run_path(str(path))
