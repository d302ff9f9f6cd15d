"""The benchmark's tracer can still patch every layer it names.

perfbench/layers.py wraps library functions by (owner, attribute) and
refuses to trace when the owners of one entry no longer share a function.
This reads its target table without patching anything, so a trim of the
library that breaks the tracer fails here, in the main suite.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers._targets()


def test_every_trace_target_exists_once():
    targets = _targets()
    assert targets
    for name, _, owners in targets:
        for owner, attr in owners:
            assert callable(getattr(owner, attr, None)), \
                f"{name}: {owner.__name__} has no function {attr}"
        fn = getattr(*owners[0])
        assert all(getattr(o, a) is fn for o, a in owners), \
            f"{name}: owners {[o.__name__ for o, _ in owners]} hold different functions"
