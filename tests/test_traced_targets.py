"""The benchmark's traced names exist in the package.

perfbench/tracing.Tracer.install wraps every entry of TARGETS: a method
it reads from its class's own __dict__, a function from its module.  A
target renamed or moved up into a base class would pass every other
engine test and fail each traced benchmark run, so each one is looked up
here the way install looks it up.  Nothing under perfbench/ is changed
by it.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from tracing import TARGETS  # noqa: E402


@pytest.mark.parametrize("module, owner, attr", TARGETS,
                         ids=["%s.%s" % (owner or module, attr) for module, owner, attr in TARGETS])
def test_traced_target_is_where_the_tracer_looks(module, owner, attr):
    found = importlib.import_module(module)
    if owner is None:
        assert callable(getattr(found, attr, None))
    else:
        assert attr in vars(getattr(found, owner))
