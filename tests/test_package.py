"""The package's top-level names."""
import lieode


def test_every_exported_name_resolves():
    for name in lieode.__all__:
        assert getattr(lieode, name) is not None, name


def test_submodules_and_names_read_by_the_benchmark_stay_bound():
    assert callable(lieode.pipeline.analyze)
    assert isinstance(lieode.pushforward.PointTransformation, type)
    assert lieode.CharPoly is lieode.recovery.CharPoly
    assert lieode.parse_ode is lieode.parsing.parse_ode
