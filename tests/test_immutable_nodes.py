"""Every frozen IR node stays immutable and keeps a frozen dataclass's
value semantics.

The node classes are found by introspection: every ``frozen=True``
dataclass defined in the compiler's IR modules (any other dataclass
there must be on ``MUTABLE``, so a node that loses ``frozen`` fails
here). Their instances are harvested from each kernel record's compile
(statement, CIN, analysis, Spatial program, formats), plus a split/fuse
schedule, a merge lattice and one lowering loop record for the classes
no record's compile keeps.
For each class this checks that assignment raises
``FrozenInstanceError``; that ``==`` and ``hash`` are a frozen
dataclass's (field-wise for ``eq=True``, identity for ``eq=False``);
and that :func:`dataclasses.replace` and a pickle round trip give an
equal node, facts fixed at construction included.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle

import pytest

from repro import api
from repro.formats import registered_formats
from repro.formats.levels import LevelKind
from repro.ir import Access, IndexExpr, IndexVar, build_lattice, index_vars
from repro.ir.iteration import iteration_algebra
from repro.kernels import KERNELS
from repro.tensor import Tensor

NODE_MODULES = (
    "repro.spatial.ir",
    "repro.ir.cin",
    "repro.ir.iteration",
    "repro.ir.index_notation",
    "repro.ir.lattice",
    "repro.schedule.stmt",
    "repro.formats.format",
    "repro.formats.levels",
    "repro.core.lowering",
)


#: The dataclasses of those modules that are mutable by design: a
#: program's layout records and lattice containers, never IR nodes.
MUTABLE = {"TensorLayout", "MergeLattice"}


def _dataclasses() -> list[type]:
    return [cls for name in NODE_MODULES
            for _, cls in inspect.getmembers(importlib.import_module(name),
                                             inspect.isclass)
            if dataclasses.is_dataclass(cls) and cls.__module__ == name]


FROZEN = [cls for cls in _dataclasses() if cls.__dataclass_params__.frozen]


def _collect(root, into: dict[type, list], seen: set[int]) -> None:
    """Every frozen node reachable from ``root`` through dataclass
    fields, containers, accesses and tensors."""
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (str, int, float)):
            continue
        seen.add(id(obj))
        if type(obj) in into:
            into[type(obj)].append(obj)
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, (tuple, list, frozenset, set)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, Tensor):
            stack.append(obj.format)
        elif hasattr(obj, "tensor") and hasattr(obj, "indices"):  # Access
            stack.append(obj.tensor)
        elif hasattr(obj, "children") and hasattr(obj, "equals"):
            stack.extend(obj.children())  # index-notation operators


def _extra_roots() -> list:
    from repro.core.lowering import _Loop
    from repro.spatial.ir import DenseCounter, SLit, SVar

    A = Tensor("A", (8, 8), registered_formats()["csr"].instantiate())
    x = Tensor("x", (8,))
    y = Tensor("y", (8,))
    i, j, io, ii, f = index_vars("i j io ii f")
    y[i] = A[i, j] * x[j]
    stmt = y.get_index_stmt()
    split = stmt.split_up(i, io, ii, 4).split_down(j, *index_vars("jo ji"), 2)
    fused = stmt.fuse(i, j, f)
    return [split, fused, build_lattice(A[i, j] + A[i, j] * x[j], j),
            list(registered_formats().values()),
            [kind._decl for kind in LevelKind],
            _Loop(DenseCounter(SLit(4)), ("i",), SVar("i"))]


@pytest.fixture(scope="module")
def nodes() -> dict[type, list]:
    roots = _extra_roots()  # held, so no visited id is reused
    for name in KERNELS:
        kernel = api.build_structure(
            api.CompileRequest(kernel=name, scale=0.02), use_cache=False)
        roots += [kernel.stmt, kernel.compiled,
                  [iteration_algebra(asg.rhs, info.ivar)
                   for info in kernel.analysis.foralls
                   for asg in kernel.analysis.assignments]]
    into: dict[type, list] = {cls: [] for cls in FROZEN}
    seen: set[int] = set()
    for root in roots:
        _collect(root, into, seen)
    return into


def test_no_node_class_loses_frozen():
    assert {cls.__qualname__ for cls in _dataclasses()
            if not cls.__dataclass_params__.frozen} == MUTABLE


def _field_values(node) -> tuple:
    return tuple(getattr(node, f.name) for f in dataclasses.fields(node))


def _same(a, b, memo=None) -> bool:
    """Structural equality: what ``==`` compares on value nodes, and the
    same walk through identity-compared objects (CIN nodes, index
    variables, tensors, expressions) and through the facts a node stores
    beside its fields."""
    memo = {} if memo is None else memo
    if (id(a), id(b)) in memo:
        return True
    memo[id(a), id(b)] = True
    if type(a) is not type(b):
        return False
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y, memo)
                                        for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k], memo)
                                            for k in a)
    if dataclasses.is_dataclass(a) or isinstance(a, Tensor):
        return _same(vars(a), vars(b), memo)
    if isinstance(a, IndexVar):
        return (a.name, a._uid) == (b.name, b._uid)
    if isinstance(a, Access):
        return _same((a.tensor, a.indices), (b.tensor, b.indices), memo)
    if isinstance(a, IndexExpr):  # a literal or an operator
        return (getattr(a, "value", None) == getattr(b, "value", None)
                and _same(a.children(), b.children(), memo))
    return a == b


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__qualname__)
def test_node_is_immutable_with_value_semantics(cls, nodes):
    found = nodes[cls]
    assert found, f"no {cls.__qualname__} instance was harvested"
    eq = cls.__dataclass_params__.eq
    for node in found[:50]:
        name = dataclasses.fields(node)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, getattr(node, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.not_a_field = 1
        copy = dataclasses.replace(node)
        assert copy is not node and _same(copy, node)
        assert vars(copy).keys() == vars(node).keys()
        try:
            pickled = pickle.dumps(node)
        except (AttributeError, pickle.PicklingError):
            # A field holds a local function (a registry constructor),
            # which no pickle can name.
            assert any(inspect.isfunction(getattr(v, "__wrapped__", v))
                       for v in _field_values(node))
            restored = node
        else:
            restored = pickle.loads(pickled)
        assert _same(restored, node)
        if eq:
            assert copy == node
            try:
                expected = hash(_field_values(node))
            except TypeError:  # an unhashable field: so is the node
                with pytest.raises(TypeError):
                    hash(node)
            else:
                assert hash(node) == hash(copy) == expected
        else:
            assert node == node and copy != node
            assert hash(node) == object.__hash__(node)
