"""The ArrayOL dataflow graph: instance order and cycle reports.

``schedule_instances`` orders a compound's instances by the
lexicographically smallest topological sort, and validation reports the
first cycle a depth-first search meets.  The orders of both apps'
flattened models and the text of three cycle reports are pinned; a
property checks the order against the definition on random DAGs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.convolution import convolution_allocation, convolution_model, gaussian3
from repro.apps.downscaler import CIF
from repro.apps.downscaler.arrayol_model import downscaler_allocation, downscaler_model
from repro.arrayol import CompoundTask, IOTask, Link, Port, TaskInstance, validate_task
from repro.arrayol.schedule import schedule_instances
from repro.arrayol.transform import GaspardContext, standard_chain
from repro.errors import SchedulingError


def _compound(names, edges) -> CompoundTask:
    """IO-task instances ``names``, in that order, and one link per edge
    ``(src, dst)`` into a fresh input port of ``dst``."""
    ports: dict[str, int] = {}
    links = []
    for src, dst in edges:
        k = ports[dst] = ports.get(dst, 0) + 1
        links.append(Link(src=(src, "o0"), dst=(dst, f"i{k - 1}")))
    return CompoundTask(
        name="top",
        inputs=(),
        outputs=(),
        instances=tuple(
            TaskInstance(n, IOTask(
                name=n,
                inputs=tuple(Port(f"i{k}", (8, 8), "in") for k in range(ports.get(n, 0))),
                outputs=(Port("o0", (8, 8), "out"),),
                ip=lambda env, ins, outs: None,
            ))
            for n in names
        ),
        links=tuple(links),
    )


#: the instance order of each app's flattened model
ORDERS = {
    "convolution": ["hp", "vp"],
    "downscaler": [
        "fg", "hf_bhf", "hf_ghf", "hf_rhf", "vf_bvf", "vf_gvf", "vf_rvf", "fc",
    ],
}


@pytest.mark.parametrize("app", sorted(ORDERS))
def test_flattened_instance_order_is_pinned(app):
    if app == "downscaler":
        model, allocation = downscaler_model(CIF), downscaler_allocation()
    else:
        model, allocation = convolution_model(gaussian3(96, 128)), convolution_allocation()
    ctx = standard_chain().run(GaspardContext(model=model, allocation=allocation))
    assert schedule_instances(ctx.model.top) == ORDERS[app]


#: (instance order, links, reported cycle)
CYCLES = {
    "entered-from-a-tail": (
        ["x", "c", "b", "a"], [("x", "a"), ("a", "b"), ("b", "c"), ("c", "a")],
        "a -> b -> c",
    ),
    "self-loop": (["loop"], [("loop", "loop")], "loop"),
    "after-a-finished-branch": (
        ["z", "y", "w"], [("z", "y"), ("z", "w"), ("w", "z")], "z -> w",
    ),
}


@pytest.mark.parametrize("case", sorted(CYCLES))
def test_cycle_report_is_pinned(case):
    names, edges, cycle = CYCLES[case]
    task = _compound(names, edges)
    with pytest.raises(SchedulingError) as err:
        validate_task(task)
    assert str(err.value) == f"top: dataflow cycle: {cycle}"
    with pytest.raises(SchedulingError, match="dataflow graph has a cycle"):
        schedule_instances(task)


@st.composite
def dags(draw):
    """Instance names in a drawn order, and links that follow a drawn
    topological order (some between the same two instances twice)."""
    names = draw(st.lists(
        st.text("abc", min_size=1, max_size=2), min_size=1, max_size=7, unique=True,
    ))
    topo = draw(st.permutations(names))
    edges = [
        (u, v)
        for i, u in enumerate(topo)
        for v in topo[i + 1:]
        for _ in range(draw(st.integers(0, 2)))
    ]
    return names, edges


@settings(max_examples=200, deadline=None)
@given(dag=dags())
def test_order_is_the_smallest_topological_order(dag):
    """Every instance comes out once, and each is the smallest of those
    whose producers all came out before it."""
    names, edges = dag
    order = schedule_instances(_compound(names, edges))
    assert sorted(order) == sorted(names)
    placed: set[str] = set()
    for node in order:
        ready = [
            n for n in names
            if n not in placed and all(u in placed for u, v in edges if v == n)
        ]
        assert node == min(ready)
        placed.add(node)
