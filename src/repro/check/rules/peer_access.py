"""REP106 ``peer-mutation``: only comm.py moves data between GPUs.

The BSP contract (Section III-B) is that peer state changes *only* via
split/package/push messages combined at the superstep boundary.  An
iteration hook that writes through ``problem.data_slices[j]`` or
``problem.subgraphs[j]`` mutates another GPU's memory mid-superstep —
on real hardware that is a cross-device race the barrier cannot order.
Hooks must touch only their own ``ctx.slice``/``ctx.sub``; the dynamic
sanitizer enforces the same contract at runtime (SAN201/SAN202).

A local alias does not hide the write: a name bound in the hook to a
peer array (``peer = self.problem.data_slices[1]["state"]``), or to a
subscript/attribute of such a name, is peer state too.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..findings import Finding
from .base import ModuleContext, Rule

__all__ = ["PeerMutationRule"]

_PEER_ATTRS = ("data_slices", "subgraphs")
#: mutating methods whose receiver/first argument we inspect
_MUTATORS = {"fill", "at", "put", "copyto"}


def _mentions_peer_state(node: ast.AST) -> bool:
    """Whether the expression reaches through ``.data_slices[...]`` or
    ``.subgraphs[...]`` (indexed access to another GPU's state)."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Attribute)
            and sub.value.attr in _PEER_ATTRS
        ):
            return True
    return False


def _reaches_peer(node: ast.AST, aliases: Set[str]) -> bool:
    """Whether a subscript/attribute chain is rooted in peer state: some
    link indexes ``.data_slices``/``.subgraphs``, or the chain starts at
    a name in ``aliases``.  Calls end the chain (``.copy()`` is a
    private buffer)."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr in _PEER_ATTRS
        ):
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in aliases


def _peer_aliases(method: ast.AST) -> Set[str]:
    """Names the hook binds to peer state, followed through chains of
    aliases (``ds = ...data_slices[1]; peer = ds["state"]``)."""
    aliases: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not _reaches_peer(value, aliases):
                continue
            for t in targets:
                if isinstance(t, ast.Name) and t.id not in aliases:
                    aliases.add(t.id)
                    changed = True
    return aliases


def _touches_peer(node: ast.AST, aliases: Set[str]) -> bool:
    return _mentions_peer_state(node) or _reaches_peer(node, aliases)


class PeerMutationRule(Rule):
    """Flag stores and mutating calls that reach through
    ``data_slices[...]``/``subgraphs[...]`` inside iteration hooks."""

    rule_id = "REP106"
    name = "peer-mutation"
    description = (
        "iteration hooks must not mutate another GPU's slice or subgraph "
        "arrays; inter-GPU data moves only through comm.py messages"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for cls in ctx.iteration_classes:
            for method in ctx.methods(cls):
                aliases = _peer_aliases(method)
                for node in ast.walk(method):
                    targets = []
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                        targets = [node.target]
                    for t in targets:
                        # only subscript/attribute stores can mutate peer
                        # arrays; binding a plain name is a local read
                        if isinstance(
                            t, (ast.Subscript, ast.Attribute)
                        ) and _touches_peer(t, aliases):
                            yield self.finding(
                                ctx, node,
                                f"{cls.name}.{method.name} writes through "
                                "problem.data_slices/subgraphs — a "
                                "mid-superstep mutation of peer GPU "
                                "state; communicate via messages instead",
                                cls=cls.name, method=method.name,
                            )
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATORS
                        and (
                            _touches_peer(node.func.value, aliases)
                            or any(
                                _touches_peer(a, aliases)
                                for a in node.args[:1]
                            )
                        )
                    ):
                        yield self.finding(
                            ctx, node,
                            f"{cls.name}.{method.name} calls a mutating "
                            f"method ({node.func.attr}) on peer GPU state "
                            "reached through problem.data_slices/"
                            "subgraphs",
                            cls=cls.name, method=method.name,
                        )
