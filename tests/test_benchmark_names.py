"""The names the benchmark's tracer wraps resolve in the package.

``perfbench/tracer.py`` looks up the functions it wraps and counts by name,
so a renamed function breaks every traced benchmark run. The benchmark's own
smoke test is not part of this suite; this test is. It loads the tracer by
file path, as it stands, and imports nothing else of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_are_callables_of_their_modules():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, name) for table in (tracer.SPANNED, tracer.COUNTED)
             for module, names in table.items() for name in names]
    names += [("experiments", name) for name in tracer.CELL_FUNCTIONS]
    assert len(names) > len(tracer.CELL_FUNCTIONS)
    for module, name in names:
        value = getattr(importlib.import_module(f"rismf.{module}"), name, None)
        assert callable(value), f"rismf.{module}.{name}"
