"""Tree-presented spaces: spread laws and bounded-horizon positivity.

Nodes are finite tuples of naturals (sequence spaces) or of bounded digits
(finitely branching spaces).  A spread law is a decidable admissibility
predicate under which every admitted node has an admitted immediate
successor; that is exactly a decidable positivity predicate on the tree.

Removing an open set of nodes (each removal deletes the whole subtree)
presents a closed subspace; positivity of a node in it is a search for a
surviving descendant chain.  With finite branching the search is complete
to any horizon; with unbounded branching only finitely many successors can
be inspected, so a negative sweep is honestly three-valued.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from overt.errors import PreconditionFailed
from overt.rationals import Cursor

Node = tuple[int, ...]


def format_node(node: Node) -> str:
    if not node:
        return "()"
    return ",".join(str(k) for k in node)


def _read_node(cur: Cursor) -> Node:
    if cur.match("("):
        cur.expect(")")
        return ()
    node = [cur.integer()]
    while cur.match(","):
        node.append(cur.integer())
    return tuple(node)


def parse_node(text: str) -> Node:
    """``()``, a blank text, or a comma list of integers; a bad part raises a
    ParseError at its first non-blank byte in text."""
    return Cursor(text).parse(lambda cur: () if cur.at_end() else _read_node(cur))


# ---------------------------------------------------------------------------
# Spread laws.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpreadLaw:
    """Decidable admissibility; arity None means unbounded branching.

    ``step(node, d)`` decides ``admits(node + (d,))`` for an admitted node.
    A law may judge there only the new digit; by default it asks
    ``admits`` of the whole child.
    """

    name: str
    admits: Callable[[Node], bool]
    arity: Optional[int] = None
    step: Optional[Callable[[Node, int], bool]] = field(default=None, compare=False)

    def __post_init__(self):
        if self.step is None:
            admits = self.admits
            object.__setattr__(self, "step", lambda node, d: admits(node + (d,)))


def _digit_law(name: str, digits: tuple, arity: int) -> SpreadLaw:
    """The nodes whose every digit is one of the given digits."""
    return SpreadLaw(
        name,
        lambda node: all(d in digits for d in node),
        arity=arity,
        step=lambda node, d: d in digits,
    )


def full_binary_law() -> SpreadLaw:
    return _digit_law("full2", (0, 1), 2)


def middle_thirds_law() -> SpreadLaw:
    """Ternary digit coding with the middle digit forbidden."""
    return _digit_law("cantor3", (0, 2), 3)


@dataclass
class SpreadViolation:
    node: Node
    reason: str


@dataclass
class SpreadReport:
    law: str
    depth: int
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


MAX_SPREAD_NODES = 1 << 20


def check_spread_mon(law: SpreadLaw, depth: int, branch_budget: int) -> SpreadReport:
    """Verify that every admitted node up to the depth has an admitted
    successor within the branch budget.

    Refused up front, with PreconditionFailed, when the full tree of the
    branch width to that depth has more than ``MAX_SPREAD_NODES`` nodes.

    For a declared arity not exceeding the budget the successor sweep is
    exhaustive and the check is complete; otherwise a missing successor
    within the budget is still reported (the law's obligation is witnessed
    boundedly).
    """
    budget = branch_budget if law.arity is None else min(branch_budget, law.arity)
    if budget <= 0:
        raise PreconditionFailed("branch budget must be positive")
    # The admitted nodes lie in the full tree of this width and depth; its
    # size is checked against the cap before any node is.
    size = level = 1
    for _ in range(depth):
        level *= budget
        size += level
        if size > MAX_SPREAD_NODES:
            raise PreconditionFailed(
                f"a spread check to depth {depth} with {budget} children per node "
                f"may check more than the cap of {MAX_SPREAD_NODES} nodes"
            )
    report = SpreadReport(law.name, depth, 0, [])
    if not law.admits(()):
        report.violations.append(SpreadViolation((), "root not admitted"))
        return report
    # Depth first: the stack holds the admitted children of each node on the
    # current path, at most depth * budget nodes.  Every node on it is
    # admitted, so ``step`` judges its children; at the last depth only
    # their digits are kept.
    step, digits = law.step, range(budget)
    stack, checked = [()], 0
    while stack:
        node = stack.pop()
        checked += 1
        if len(node) < depth:
            admitted = [node + (d,) for d in digits if step(node, d)]
            stack.extend(admitted)
        else:
            admitted = [d for d in digits if step(node, d)]
        if not admitted:
            report.violations.append(
                SpreadViolation(node, "no admitted successor within budget")
            )
    report.checked = checked
    report.violations.sort(key=lambda v: (len(v.node), v.node))
    return report


# ---------------------------------------------------------------------------
# Closed subspaces from removed opens.
# ---------------------------------------------------------------------------


class Positivity(enum.Enum):
    POSITIVE = "positive"
    NOT_POSITIVE = "not-positive"
    UNKNOWN_BEYOND_HORIZON = "unknown"


@dataclass(frozen=True)
class RemovalSet:
    """Decidable set of removed nodes; removing a node removes its subtree.

    ``arity`` bounds the branching of the ambient tree (None for sequence
    spaces).
    """

    name: str
    removed_at: Callable[[Node], bool]
    arity: Optional[int] = None

    def removed(self, node: Node) -> bool:
        return any(self.removed_at(node[:k]) for k in range(len(node) + 1))


def removal_from_nodes(nodes: Sequence[Node], arity: Optional[int] = None) -> RemovalSet:
    listed = frozenset(tuple(n) for n in nodes)
    return RemovalSet("nodes", lambda node: node in listed, arity=arity)


def zero_pair_removals(alpha: Sequence[int]) -> RemovalSet:
    """Removed nodes (0, n) for every n with alpha(n) = 0; pairs beyond the
    listed prefix of alpha are kept (treated as alpha(n) = 1)."""
    bits = tuple(int(b) for b in alpha)

    def removed_at(node: Node) -> bool:
        return (
            len(node) == 2
            and node[0] == 0
            and node[1] < len(bits)
            and bits[node[1]] == 0
        )

    return RemovalSet("alpha-pair", removed_at)


def zero_run_removals(alpha: Sequence[int]) -> RemovalSet:
    """Removed nodes: runs of n zeros for every n >= 1 with alpha(n) = 0."""
    bits = tuple(int(b) for b in alpha)

    def removed_at(node: Node) -> bool:
        n = len(node)
        return (
            1 <= n < len(bits)
            and bits[n] == 0
            and all(d == 0 for d in node)
        )

    return RemovalSet("alpha-run", removed_at)


def parse_removal_spec(text: str) -> RemovalSet:
    """Removal sets from text: ``nodes:0,0;1`` lists removed nodes,
    ``alpha:<bits>`` the pair-indexed generator, ``alpharun:<bits>`` the
    zero-run generator (the two documented readings of the same family)."""
    cur = Cursor(text)
    if cur.match("nodes:"):
        return removal_from_nodes(cur.finish(cur.separated(_read_node, ";")))
    for prefix, make in (("alpharun:", zero_run_removals), ("alpha:", zero_pair_removals)):
        if cur.match(prefix):
            return make(_read_bits(cur))
    raise PreconditionFailed(f"unknown removal spec {text!r}")


def _read_bits(cur: Cursor) -> list:
    """The digits up to the end of the text, one bit each.  They form one
    token, so a blank between two of them is a bad bit."""
    bits = [int(ch) for ch in cur.digits()]
    rest = cur.text[cur.pos:]
    if rest.strip():
        raise cur.error(f"bad bit {rest[0]!r}")
    return bits


def closed_from_open_pos(
    removed: RemovalSet,
    node: Node,
    horizon: int,
    branch_budget: int = 2,
) -> Positivity:
    """Positivity of a node in the closed subspace left after removal.

    POSITIVE: some descendant chain of the horizon's length survives.
    NOT_POSITIVE: every chain inside the explored branching dies.
    UNKNOWN_BEYOND_HORIZON: the negative sweep was truncated by the branch
    budget (unbounded branching only); definite answers never flip as the
    horizon grows for the builtin removal generators.
    """
    node = tuple(node)
    if removed.removed(node):
        return Positivity.NOT_POSITIVE
    arity = removed.arity
    width = arity if arity is not None else branch_budget
    if width <= 0:
        raise PreconditionFailed("branch budget must be positive")
    truncated = False

    memo: dict[tuple[Node, int], bool] = {}

    def survives(n: Node, steps: int) -> bool:
        nonlocal truncated
        if steps == 0:
            return True
        key = (n, steps)
        if key in memo:
            return memo[key]
        ok = False
        for d in range(width):
            child = n + (d,)
            if not removed.removed_at(child):
                if survives(child, steps - 1):
                    ok = True
                    break
        if not ok and arity is None:
            truncated = True
        memo[key] = ok
        return ok

    if survives(node, horizon):
        return Positivity.POSITIVE
    if truncated:
        return Positivity.UNKNOWN_BEYOND_HORIZON
    return Positivity.NOT_POSITIVE

