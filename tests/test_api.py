"""The package's public names: the export list and the star import agree,
and every name the benchmark's span recorder wraps resolves."""

import importlib
import importlib.util
from pathlib import Path

import sobemb

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_exported_name_resolves():
    missing = [name for name in sobemb.__all__ if not hasattr(sobemb, name)]
    assert missing == []
    assert len(set(sobemb.__all__)) == len(sobemb.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from sobemb import *", namespace)
    assert set(sobemb.__all__) <= set(namespace)


def test_traced_names_resolve(ball_p3_n20):
    """Every (module, qualified name) the span recorder wraps is there, in
    the form it patches (a module attribute, or an attribute in a class's
    own namespace), and a certified ball carries the int split order it
    records."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, modname, qual in tracer.TARGETS:
        obj = importlib.import_module(modname)
        *owners, attr = qual.split(".")
        for name in owners:
            obj = getattr(obj, name, None)
        space = vars(obj) if obj is not None else {}
        if not callable(space.get(attr)):
            missing.append(f"{modname}.{qual}")
    assert missing == []
    assert type(ball_p3_n20.nprime) is int
