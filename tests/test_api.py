"""The package's public names: the export list and the star import agree,
every name the benchmark's span recorder wraps resolves, every error
class is raised somewhere, the test oracles stay out of the package, and
the read-only records refuse assignment."""

import importlib
import importlib.util
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import sobemb
from sobemb import errors
from sobemb.bounds import best_enclosure
from sobemb.intervals import Interval
from sobemb.series import DomainRect
from sobemb.solver import SolverConfig
from sobemb.symeig import SymMatrix

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
# names that only the tests read, kept in tests/_oracles.py
ORACLES = ("galerkin_jacobian", "galerkin_residual", "_system_at", "jacobian",
           "default_split_order", "iv_cos", "intersects", "from_point", "integral")


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


def test_every_error_class_has_a_raise_site():
    """Each SobembError subclass of errors.py is raised somewhere under
    src/sobemb (a source scan), so no report status names an error that can
    no longer occur."""
    classes = [name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.SobembError)
               and obj is not errors.SobembError and obj.__module__ == errors.__name__]
    source = "\n".join(path.read_text() for path in (ROOT / "src" / "sobemb").rglob("*.py"))
    assert len(classes) >= 10
    assert [name for name in classes if not re.search(rf"\braise\s+{name}\b", source)] == []


def test_test_oracles_are_not_in_the_package():
    """No oracle name is an attribute of sobemb, of a module of it or of a
    class defined there, and SymMatrix takes its negative directions only
    from its caller: leaving them out is a TypeError."""
    modules = [sobemb, *(importlib.import_module(f"sobemb.{m.name}")
                         for m in pkgutil.iter_modules(sobemb.__path__))]
    owners = modules + [obj for mod in modules for obj in vars(mod).values()
                        if inspect.isclass(obj) and obj.__module__ == mod.__name__]
    found = [f"{getattr(o, '__qualname__', o.__name__)}.{name}"
             for o in owners for name in ORACLES if hasattr(o, name)]
    assert found == []
    with pytest.raises(TypeError):
        SymMatrix(np.eye(2), 0.0)


def test_read_only_records(ball_p3_n20):
    """DomainRect, SolverConfig and the NamedTuple records (the certified
    ball, its inverse bound and positiveness audit, the final enclosure)
    refuse assignment to a field and to a new name; DomainRect and
    SolverConfig refuse deletion too.  DomainRect keys caches, so it is
    equal and hashed by its sides as floats, and its repr, which DomainError
    messages print, names them; its lambda1 is formed once."""
    rect, cfg = DomainRect(1, 2), SolverConfig(3, 8)
    final = best_enclosure([], [("plum", Interval(1.0))], 4)
    for record, name in ((rect, "L1"), (cfg, "N"), (ball_p3_n20, "r_h1"),
                         (ball_p3_n20.inverse, "K"), (ball_p3_n20.audit, "norm_margin"),
                         (final, "upper")):
        for attr in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, 0.0)
    for record, name in ((rect, "L1"), (cfg, "N")):
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert (rect.L1, rect.L2, cfg.p, cfg.N, final.upper) == (1.0, 2.0, 3, 8, 1.0)
    assert rect == DomainRect(1.0, 2.0) and hash(rect) == hash(DomainRect(1.0, 2.0))
    assert rect != DomainRect(2, 1) and DomainRect(1.0, 2.0) != DomainRect(2, 1)
    assert repr(rect) == "DomainRect(L1=1.0, L2=2.0)"
    assert rect.lambda1 is rect.lambda1
