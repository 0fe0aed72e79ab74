"""The package's top-level names."""
import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import runpy
import sys

import lieode
from lieode import polys

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


def test_no_module_generates_record_classes():
    # the record types are plain classes: a fresh import compiles every
    # module and should compile nothing more, which dataclasses and
    # NamedTuple do for each class they make
    for path in sorted(pathlib.Path(lieode.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.ClassDef):
                names = [getattr(b, "id", getattr(b, "attr", ""))
                         for b in node.bases]
            else:
                continue
            assert not {"dataclasses", "dataclass",
                        "NamedTuple"} & set(names), (path.name, node.lineno)


def _bindings(*functions):
    """(module name, attribute) of every binding of the functions in the
    lieode modules, as the benchmark's tracer finds them."""
    for mod in pkgutil.iter_modules(lieode.__path__):
        importlib.import_module("lieode." + mod.name)
    return [(name, attr) for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "lieode" or name.startswith("lieode."))
            for attr, value in vars(module).items()
            if any(value is f for f in functions)]


def test_only_polys_and_ratfunc_bind_the_gcd_and_division():
    # contents and cofactors are taken by polys.content and polys.cofactors;
    # ratfunc's gcd is the RatFunc boundary the benchmark's tracer counts
    found = _bindings(polys.gcd, polys.divexact, polys.try_divexact)
    assert {name for name, _ in found} == {"lieode.polys", "lieode.ratfunc"}


def test_test_modules_take_no_gcd_at_import(monkeypatch):
    # collection builds cases without engine arithmetic, so a gcd fault
    # fails single tests instead of stopping whole modules at import
    def refuse(a, b):
        raise AssertionError("gcd(%r, %r) at import" % (a, b))

    for name, attr in _bindings(polys.gcd):
        monkeypatch.setattr(sys.modules[name], attr, refuse)
    for path in sorted(TESTS.glob("test_*.py")):
        runpy.run_path(str(path))
