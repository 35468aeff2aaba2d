import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spread_check_bfs
from overt.errors import ParseError, PreconditionFailed
from overt.trees import (
    Positivity,
    SpreadLaw,
    check_spread_mon,
    closed_from_open_pos,
    format_node,
    full_binary_law,
    middle_thirds_law,
    parse_node,
    parse_removal_spec,
    removal_from_nodes,
    zero_pair_removals,
    zero_run_removals,
)


class TestSpreadLaws:
    def test_full_binary(self):
        assert check_spread_mon(full_binary_law(), 3, 2).ok

    def test_middle_thirds(self):
        report = check_spread_mon(middle_thirds_law(), 6, 3)
        assert report.ok
        # admitted nodes double per level: 1 + 2 + ... + 2^6
        assert report.checked == 2**7 - 1

    def test_dead_end_reported(self):
        law = SpreadLaw("stump", lambda n: len(n) <= 1, arity=2)
        report = check_spread_mon(law, 3, 2)
        assert not report.ok
        assert {v.node for v in report.violations} == {(0,), (1,)}

    def test_root_rejected(self):
        law = SpreadLaw("void", lambda n: False, arity=2)
        report = check_spread_mon(law, 2, 2)
        assert not report.ok
        assert report.violations[0].node == ()

    def test_hereditary_restriction(self):
        # passing at depth d means every admitted node's subtree passes at
        # d - 1 when the law is restricted to it
        law = middle_thirds_law()
        assert check_spread_mon(law, 4, 3).ok
        for prefix in [(0,), (2,), (0, 2)]:
            sub = SpreadLaw("sub", lambda n, p=prefix: law.admits(p + n), arity=3)
            assert check_spread_mon(sub, 3, 3).ok


def hashed_law(seed, mod, arity):
    """A law admitting the root and each other node unless a hash of its
    digits is divisible by mod: dead ends appear at every depth."""

    def admits(node):
        h = seed
        for d in node:
            h = (h * 1000003 + d + 1) % 2**31
        return not node or h % mod != 0

    return SpreadLaw("hashed", admits, arity=arity)


class TestSpreadDepthFirst:
    def test_two_and_two_has_dead_ends(self):
        # At most two 0s and two 1s: every node with both is a dead end.
        law = SpreadLaw("two-two", lambda n: n.count(0) <= 2 and n.count(1) <= 2, arity=2)
        report = check_spread_mon(law, 5, 2)
        checked, bad = spread_check_bfs(law.admits, 5, 2)
        assert len(bad) == 6
        assert (report.checked, [v.node for v in report.violations]) == (checked, bad)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**31), st.integers(2, 4), st.integers(1, 3),
           st.sampled_from([None, 1, 2, 3]), st.integers(0, 6))
    def test_matches_breadth_first(self, seed, mod, budget, arity, depth):
        law = hashed_law(seed, mod, arity)
        report = check_spread_mon(law, depth, budget)
        width = budget if arity is None else min(budget, arity)
        checked, bad = spread_check_bfs(law.admits, depth, width)
        assert report.checked == checked
        assert [v.node for v in report.violations] == bad


def admitted_nodes(law, depth, width):
    """Every node over the digits below width, of length at most depth, that
    the law admits together with all its prefixes."""
    out, level = [], [()] if law.admits(()) else []
    for _ in range(depth + 1):
        out.extend(level)
        level = [n + (d,) for n in level for d in range(width) if law.admits(n + (d,))]
    return out


BUILTIN_LAWS = [full_binary_law(), middle_thirds_law()]


class TestSpreadSteps:
    @pytest.mark.parametrize("law", BUILTIN_LAWS, ids=lambda law: law.name)
    def test_step_judges_the_child(self, law):
        # digits up to the arity, so a digit past the law's range is asked too
        width = law.arity + 1
        nodes = admitted_nodes(law, 6, width)
        assert len(nodes) == 2**7 - 1
        for node in nodes:
            for d in range(width):
                assert law.step(node, d) == law.admits(node + (d,))

    @pytest.mark.parametrize("law", BUILTIN_LAWS, ids=lambda law: law.name)
    @pytest.mark.parametrize("depth, budget", [(0, 1), (3, 1), (5, 2), (7, 3), (6, 8)])
    def test_builtin_laws_match_breadth_first(self, law, depth, budget):
        report = check_spread_mon(law, depth, budget)
        checked, bad = spread_check_bfs(law.admits, depth, min(budget, law.arity))
        assert (report.checked, [v.node for v in report.violations]) == (checked, bad)

    def test_default_step_asks_admits(self):
        # a user law without a step: at most two 0s and two 1s
        law = SpreadLaw("two-two", lambda n: n.count(0) <= 2 and n.count(1) <= 2, arity=3)
        for node in admitted_nodes(law, 6, 4):
            for d in range(4):
                assert law.step(node, d) == law.admits(node + (d,))
        report = check_spread_mon(law, 6, 2)
        checked, bad = spread_check_bfs(law.admits, 6, 2)
        assert bad and (report.checked, [v.node for v in report.violations]) == (checked, bad)


class TestClosedPositivity:
    def test_surviving_branch(self):
        rem = removal_from_nodes([(1,)], arity=2)
        assert closed_from_open_pos(rem, (), 4) is Positivity.POSITIVE

    def test_everything_cut(self):
        rem = removal_from_nodes([(0, 0), (0, 1), (1, 0), (1, 1)], arity=2)
        assert closed_from_open_pos(rem, (), 3) is Positivity.NOT_POSITIVE

    def test_node_inside_removed_subtree(self):
        rem = removal_from_nodes([(1,)], arity=2)
        assert closed_from_open_pos(rem, (1, 0, 1), 2) is Positivity.NOT_POSITIVE

    def test_pair_reading_example(self):
        # alpha = 0,0,1,0...: children (0,0) and (0,1) die, (0,2) survives.
        rem = zero_pair_removals([0, 0, 1, 0])
        assert closed_from_open_pos(rem, (0,), 3, branch_budget=4) is Positivity.POSITIVE

    def test_pair_reading_budget_truncation(self):
        # with only two successors inspected, the survivor at index 2 is
        # invisible: honestly unknown.
        rem = zero_pair_removals([0, 0, 1, 0])
        got = closed_from_open_pos(rem, (0,), 1, branch_budget=2)
        assert got is Positivity.UNKNOWN_BEYOND_HORIZON

    def test_run_reading(self):
        # alpha(1) = 0 removes the run (0,); deviating children survive.
        rem = zero_run_removals([1, 0, 1, 1])
        assert closed_from_open_pos(rem, (0,), 2, branch_budget=2) is Positivity.NOT_POSITIVE
        assert closed_from_open_pos(rem, (1,), 2, branch_budget=2) is Positivity.POSITIVE

    def test_cantor_definite_everywhere(self):
        rng = random.Random(3)
        removed = []
        for _ in range(12):
            depth = rng.randint(1, 8)
            removed.append(tuple(rng.randint(0, 1) for _ in range(depth)))
        rem = removal_from_nodes(removed, arity=2)
        frontier = [()]
        for _ in range(6):
            for node in frontier:
                got = closed_from_open_pos(rem, node, 12)
                assert got is not Positivity.UNKNOWN_BEYOND_HORIZON
            frontier = [n + (d,) for n in frontier for d in (0, 1)]

    def test_monotone_horizons(self):
        rng = random.Random(5)
        removed = [tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 5))) for _ in range(8)]
        rem = removal_from_nodes(removed, arity=2)
        nodes = [(), (0,), (1,), (0, 1), (1, 1, 0)]
        for node in nodes:
            answers = [closed_from_open_pos(rem, node, h) for h in range(1, 10)]
            definite = None
            for a in answers:
                if definite is not None:
                    assert a is definite
                elif a is not Positivity.UNKNOWN_BEYOND_HORIZON:
                    definite = a

    def test_monotone_horizons_baire_generators(self):
        for rem in (zero_pair_removals([0, 1, 0, 0, 1]), zero_run_removals([1, 0, 0, 1])):
            for node in ((), (0,), (0, 4), (1, 2)):
                definite = None
                for h in range(1, 8):
                    a = closed_from_open_pos(rem, node, h, branch_budget=6)
                    if definite is not None:
                        assert a is definite
                    elif a is not Positivity.UNKNOWN_BEYOND_HORIZON:
                        definite = a


class TestNodeSyntax:
    def test_round_trip(self):
        for node in ((), (0,), (0, 0, 1), (3, 1, 4)):
            assert parse_node(format_node(node)) == node

    def test_removal_specs(self):
        rem = parse_removal_spec("nodes:0,0;1")
        assert rem.removed((0, 0)) and rem.removed((1, 5)) and not rem.removed((0, 1))
        pair = parse_removal_spec("alpha:0010")
        assert pair.removed_at((0, 0)) and not pair.removed_at((0, 2))
        run = parse_removal_spec("alpharun:1011")
        assert run.removed_at((0,)) and not run.removed_at((0, 0))
        with pytest.raises(PreconditionFailed):
            parse_removal_spec("blob:1")

    @pytest.mark.parametrize(
        "text, offset",
        [("nodes:0,x", 8), (" nodes:0,0; 1,y", 14), ("nodes:0;;1,,2", 11),
         ("alpha:01x0", 8), ("alpharun:1 1", 10), ("  alpha:0-", 9)],
    )
    def test_removal_spec_offsets(self, text, offset):
        with pytest.raises(ParseError) as e:
            parse_removal_spec(text)
        assert e.value.offset == offset

    @pytest.mark.parametrize("text, offset", [("x", 0), ("0,1,y", 4), (" 3, z", 4), ("1,", 2)])
    def test_node_offsets(self, text, offset):
        with pytest.raises(ParseError) as e:
            parse_node(text)
        assert e.value.offset == offset
