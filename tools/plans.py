"""Record the Ray Data plans a piece of code executes.

``recorded_plans()`` wraps every streaming execution started inside it
and keeps each executed plan as its list of operator names, output
operator first (``plan_names``).  A plan that ends in ``limit=1`` is Ray
fetching a Dataset's schema by running its plan a second time; a plan
holding ``Sort`` paid a sort shuffle.
"""

from __future__ import annotations

from contextlib import contextmanager


def plan_names(op) -> list[str]:
    """The operator names of an executed plan, its output operator first,
    then its inputs depth first."""
    names, todo = [], [op]
    while todo:
        op = todo.pop()
        names.append(op.name)
        todo.extend(op.input_dependencies)
    return names


@contextmanager
def recorded_plans():
    """Yield a list that collects ``plan_names`` of every plan executed
    until the block exits."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    plans: list[list[str]] = []
    execute = StreamingExecutor.execute

    def recorded(self, dag, *args, **kwargs):
        plans.append(plan_names(dag))
        return execute(self, dag, *args, **kwargs)

    StreamingExecutor.execute = recorded
    try:
        yield plans
    finally:
        StreamingExecutor.execute = execute


def chain(names: list[str]) -> str:
    """A recorded plan as one line, input to output."""
    return " -> ".join(reversed(names))


def counts(plans: list[list[str]]) -> dict[str, int]:
    """How many recorded plans paid a sort shuffle, and how many re-ran a
    plan under ``limit=1`` for its schema."""
    return {"plans": len(plans),
            "sort": sum("Sort" in p for p in plans),
            "limit=1": sum(p[0] == "limit=1" for p in plans)}
