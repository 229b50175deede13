"""The benchmark binds the program by name; hold those names in tier-1.

``perfbench/layers.py`` wraps the generator methods listed in its
``_BOUNDARIES`` table (looked up with ``inspect.getattr_static``) and
counts ``Network.packet`` calls through a ``(src, dst, nbytes, **kw)``
wrapper.  A rename, or a method that stops being a generator function,
breaks ``perfbench/run.py --trace 1`` -- which only the pipeline runs, and
which a non-benchmark PR may not edit to follow.  The same holds for each
workload's ``op_targets``, the application calls it wraps as ``op`` spans.
"""

import inspect

import pytest

from perfbench import workloads
from perfbench.layers import _BOUNDARIES, _resolve
from repro.machine.network import Network

OP_TARGETS = sorted({
    target for cls in vars(workloads).values()
    if isinstance(cls, type) and issubclass(cls, workloads.Workload)
    for target in cls.op_targets})


@pytest.mark.parametrize("path,attr", [
    (path, attr) for path, names, *_ in _BOUNDARIES for attr in names])
def test_traced_boundary_is_a_generator_method(path, attr):
    assert inspect.isgeneratorfunction(
        inspect.getattr_static(_resolve(path), attr))


@pytest.mark.parametrize("path,attr", OP_TARGETS)
def test_op_target_is_a_generator_function(path, attr):
    assert inspect.isgeneratorfunction(
        inspect.getattr_static(_resolve(path), attr))


def test_packet_takes_nodes_and_bytes_then_keywords():
    params = list(inspect.signature(Network.packet).parameters.values())
    assert [p.name for p in params[:4]] == [
        "self", "src_node", "dst_node", "nbytes"]
    assert all(p.kind is p.KEYWORD_ONLY for p in params[4:])
