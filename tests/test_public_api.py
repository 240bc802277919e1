import importlib
import inspect

import pytest

LAYER_MODULES = ("dyadic", "wavelets", "operators", "size_energy", "stopping",
                 "models", "multiplier", "harness")


@pytest.mark.parametrize("name", LAYER_MODULES)
def test_all_lists_exactly_the_public_definitions(name):
    """Every __all__ name exists, and every public function or class the
    module defines is listed."""
    module = importlib.import_module(f"dyadlab.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    unlisted = [n for n, v in vars(module).items()
                if not n.startswith("_")
                and (inspect.isfunction(v) or inspect.isclass(v))
                and v.__module__ == module.__name__
                and n not in module.__all__]
    assert missing == [] and unlisted == []
