"""The benchmark's span tracer (perfbench/spans.py) wraps functions by name;
each name it lists must still exist, or `perfbench/run.py --trace 1` breaks."""
import ast
import importlib
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "spans.py")


def trace_targets():
    """TARGETS as written in spans.py, read without importing the benchmark."""
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TARGETS list")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    missing = []
    for layer, qual in targets:
        owner = importlib.import_module(f"flowcomm.{layer}")
        for attr in qual.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"flowcomm.{layer}.{qual}")
    assert not missing, missing
