"""The names and command lines that the benchmark under bench/ relies on
still exist in the package. Nothing is timed or run here: a rename or a
deletion in the package should fail this test rather than a benchmark run
or a traced round."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from nrtloops import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load_bench_module("tracer")
    wrapped = set()
    for module_name, attribute, *_ in tracer.LAYERS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        owner_name, _, method = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert callable(getattr(owner, method)), f"{module_name}.{attribute}"
        wrapped.add(method)
    assert set(tracer.ITERATORS) <= wrapped


def test_command_line_workloads_parse():
    workloads = load_bench_module("workloads")
    names = ("cli", "checks", "groups", "transversals")
    pkg = SimpleNamespace(**{m: importlib.import_module(f"nrtloops.{m}") for m in names})
    parser = cli._build_parser()
    commands = {}
    for name, workload in workloads.WORKLOADS.items():
        if isinstance(workload, (workloads.Classify, workloads.Verify)):
            args = parser.parse_args(workload.setup(pkg, seed=1).argv)
            commands[name] = args.command
    assert commands == {
        "classify-d11-mirror": "classify",
        "classify-d16-normal": "classify",
        "verify-all": "verify",
    }
