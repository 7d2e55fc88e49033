"""Every boundary the benchmark tracer wraps must exist in the package.

``bench/tracer.py`` wraps functions and methods of ``hinstruct`` by name; a
renamed or deleted boundary would only show when ``bench/run.py --trace 1``
runs. The tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


@pytest.mark.parametrize(
    "module_name, name",
    [(m, n) for m, names in load_boundaries().items() for n in names],
)
def test_boundary_resolves(module_name, name):
    module = importlib.import_module(module_name)
    if "." in name:
        cls_name, method = name.split(".")
        # the tracer replaces the method in the class's own namespace
        assert callable(vars(getattr(module, cls_name))[method])
    else:
        assert callable(getattr(module, name))
