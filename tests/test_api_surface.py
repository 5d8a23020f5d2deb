"""Release-quality checks: public API surface, docstrings, examples.

These tests pin the package's public interface (so accidental removals
fail loudly), require documentation on everything exported, and keep the
example scripts at least syntactically sound.
"""

import importlib
import inspect
import pathlib
import py_compile

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.config",
    "repro.traces",
    "repro.hw",
    "repro.machine",
    "repro.runtime",
    "repro.frontend",
    "repro.analysis",
    "repro.experiments",
]


class TestPublicApi:
    def test_top_level_exports(self):
        import repro

        for name in (
            "NexusMachine",
            "run_trace",
            "grid_sweep",
            "SystemConfig",
            "LADDER",
            "workload",
            "h264_wavefront_trace",
            "gaussian_trace",
            "independent_trace",
        ):
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), f"{package} lacks __all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.{name} in __all__ but missing"

    def test_version(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_machine_exports_bottleneck_tools(self):
        from repro.machine import BottleneckReport, analyze_bottleneck  # noqa: F401

    def test_traces_export_all_workloads(self):
        import repro.traces as t

        for name in (
            "h264_wavefront_trace",
            "independent_trace",
            "horizontal_chains_trace",
            "vertical_chains_trace",
            "gaussian_trace",
            "cholesky_trace",
            "blocked_lu_trace",
            "jacobi_stencil_trace",
            "reduction_tree_trace",
            "pipeline_trace",
            "random_trace",
            "workload",
        ):
            assert callable(getattr(t, name))


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_documented(self, package):
        mod = importlib.import_module(package)
        assert (mod.__doc__ or "").strip(), f"{package} has no module docstring"
        undocumented = []
        for name in mod.__all__:
            obj = getattr(mod, name)
            if isinstance(obj, (int, float, str, dict, list, tuple)):
                continue  # constants are documented at the module level
            if not (getattr(obj, "__doc__", None) or "").strip():
                undocumented.append(name)
        assert not undocumented, f"{package}: undocumented exports {undocumented}"

    def test_public_methods_documented_on_core_classes(self):
        from repro.hw import DependenceTable, TaskPool
        from repro.machine import NexusMachine
        from repro.sim import Fifo, Simulator

        for cls in (Simulator, Fifo, TaskPool, DependenceTable, NexusMachine):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name}"


class TestExamples:
    def test_examples_compile(self):
        root = pathlib.Path(__file__).parent.parent / "examples"
        scripts = sorted(root.glob("*.py"))
        assert len(scripts) >= 5, "expected at least five example scripts"
        for script in scripts:
            py_compile.compile(str(script), doraise=True)

    def test_examples_have_main_and_doc(self):
        root = pathlib.Path(__file__).parent.parent / "examples"
        for script in sorted(root.glob("*.py")):
            text = script.read_text()
            assert '"""' in text.split("\n", 2)[-1] or text.startswith(
                '#!'
            ), f"{script.name} lacks a docstring"
            assert "def main(" in text, f"{script.name} lacks main()"
            assert '__name__ == "__main__"' in text
