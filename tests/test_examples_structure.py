"""Examples stay importable and follow the script contract.

The CI ``tests`` job runs every example end to end (step "Examples end
to end"), which is what catches a removed API the examples call at run
time.  These tests catch import-time breakage (renamed modules, typos)
in every example cheaply, inside tier-1.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_at_least_three_examples_ship(self):
        assert len(EXAMPLE_FILES) >= 3

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_importable_and_has_main(self, path):
        module = _load(path)
        assert callable(getattr(module, "main", None)), (
            f"{path.name} must expose a main() entry point"
        )

    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_has_usage_docstring(self, path):
        module = _load(path)
        assert module.__doc__ and "python examples/" in module.__doc__, (
            f"{path.name} docstring should show how to run it"
        )
