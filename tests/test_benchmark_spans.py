"""The benchmark's span table names functions that exist in the package.

``perfbench/spans.py`` wraps the functions its ``TARGETS`` table names
while a traced run (``perfbench/run.py --trace 1``) is installed.  A
function renamed or moved in ``src/`` would make that run fail, so the
table is checked here, loaded by path from the benchmark's own file.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                     "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    for name, (module, attr) in targets.items():
        assert module.split(".")[0] == "cpelab", name
        owner = importlib.import_module(module)
        if "." in attr:
            # the tracer patches ``Class.method`` through the class dict
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(method)), name
        else:
            assert callable(getattr(owner, attr, None)), name
