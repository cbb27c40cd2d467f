"""The benchmark's span tracer (perfbench/spans.py) names real mms
functions: a rename in src/mms that it misses would break every traced run."""
import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "module, attr",
    [
        pytest.param(module, attr, id=f"{module}:{attr}")
        for module, attr in sorted(set(spans.SPANS.values()) | set(spans.COUNTED))
    ],
)
def test_traced_name_resolves(module, attr):
    importlib.import_module(module)
    _, fn = spans._resolve(module, attr)
    assert callable(fn)
