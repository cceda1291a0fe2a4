"""The benchmark's tracer patches package names; they must exist and be
restored. The tracer module is read from perfbench/ and executed in memory,
so nothing under perfbench/ is written."""

import types
from pathlib import Path

from g2coflow import profiles as pf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def patch_points(tracing):
    return ([(owner, attr) for owner, attr, *_ in tracing.SPANNED]
            + [(owner, attr) for owner, attr, _ in tracing.COUNTED]
            + list(tracing.EVALUATED))


def test_every_traced_name_exists_on_the_package():
    tracing = load_tracing()
    for owner, attr in patch_points(tracing):
        home = getattr(owner, "__module__", None) or owner.__name__
        assert home.startswith("g2coflow"), (owner, attr)
        assert callable(getattr(owner, attr, None)), (owner, attr)


def test_install_then_uninstall_restores_every_original():
    tracing = load_tracing()
    missing = object()
    points = patch_points(tracing)
    before = [vars(owner).get(attr, missing) for owner, attr in points]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in points:
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
        p = pf.sin(pf.coordinate())
        p(0.3), p.value(0.3), p.jet(0.3)
    finally:
        tracer.uninstall()
    assert [s[0] for s in tracer.spans].count("profiles.eval") == 3
    after = [vars(owner).get(attr, missing) for owner, attr in points]
    assert all(a is b for a, b in zip(before, after))
