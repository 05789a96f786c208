"""The benchmark's span tracer wraps scmech methods by name
(``perfbench/spans.py``, ``METHODS``).  A method renamed or moved out of
its class would fail only the traced benchmark pass; this guard fails the
test suite instead.  The tracer module is loaded by path and not edited."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_methods_are_functions_of_their_classes():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    hooks = [(short, cls_name, meth)
             for short, classes in spans.METHODS.items()
             for cls_name, meths in classes.items() for meth in meths]
    assert ("mechanism", "TailRule", "bundle") in hooks
    assert ("mechanism", "CountableMechanism", "evaluate") in hooks
    for short, cls_name, meth in hooks:
        cls = getattr(importlib.import_module(f"scmech.{short}"), cls_name)
        assert inspect.isfunction(vars(cls).get(meth)), (
            f"scmech.{short}.{cls_name}.{meth} is not a function of its class")
