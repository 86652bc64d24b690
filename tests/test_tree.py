import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from habitopt import (
    BadProbability,
    LevelMismatch,
    NonNested,
    RandomVariable,
    build_tree,
    condexp,
    expect,
    inner,
    lift,
)
from habitopt.tree import HabitOperator

BINARY2 = [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]]


def binary2(probs=(0.25, 0.25, 0.25, 0.25)):
    return build_tree(BINARY2, list(probs))


def test_binary_atom_counts():
    t = binary2()
    assert t.T == 2
    assert [t.n_atoms(k) for k in range(3)] == [1, 2, 4]


def test_single_branch_tree():
    t = build_tree([[[0]], [[0]], [[0]], [[0]]], [1.0])
    assert t.T == 3
    assert all(t.n_atoms(k) == 1 for k in range(4))


def test_parent_links():
    t = binary2()
    assert list(t.parent[1]) == [0, 0]
    assert list(t.parent[2]) == [0, 0, 1, 1]
    assert list(t.children(1, 1)) == [2, 3]


def test_probability_sum_rejected():
    with pytest.raises(BadProbability):
        build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.6])


def test_zero_probability_rejected():
    with pytest.raises(BadProbability):
        build_tree([[[0, 1]], [[0], [1]]], [1.0, 0.0])


def test_straddling_atom_rejected():
    levels = [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1, 2], [3]]]
    with pytest.raises(NonNested):
        build_tree(levels, [0.25] * 4)


def test_missing_leaf_rejected():
    levels = [[[0, 1, 2]], [[0], [1], [2], [3]]]
    with pytest.raises(NonNested):
        build_tree(levels, [0.25] * 4)


def test_level0_must_be_trivial():
    levels = [[[0, 1], [2, 3]], [[0], [1], [2], [3]]]
    with pytest.raises(NonNested):
        build_tree(levels, [0.25] * 4)


def test_json_round_trip_is_exact():
    t = build_tree(BINARY2, [0.1, 0.2, 0.3, 0.4])
    t2 = t.__class__.from_json(t.to_json())
    assert t2.levels == t.levels
    assert np.array_equal(t2.probs, t.probs)


def test_condexp_hand_value():
    # probs (0.25, 0.75), X = (4, 0) -> E[X] = 1
    t = build_tree([[[0, 1]], [[0], [1]]], [0.25, 0.75])
    x = RandomVariable(t, 1, [4.0, 0.0])
    assert condexp(x, 0).values[0] == pytest.approx(1.0, abs=1e-15)


def test_condexp_of_constant():
    t = binary2((0.1, 0.2, 0.3, 0.4))
    x = RandomVariable(t, 2, np.full(4, 3.7))
    for k in (0, 1, 2):
        assert np.allclose(condexp(x, k).values, 3.7, atol=1e-15)


def test_inner_hand_value():
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    x = RandomVariable(t, 1, [3.0, 1.0])
    y = RandomVariable(t, 1, [1.0, 2.0])
    assert inner(x, y) == pytest.approx(2.5, abs=1e-15)


def test_lift_constant_on_atoms():
    t = binary2((0.1, 0.2, 0.3, 0.4))
    x = RandomVariable(t, 1, [5.0, -2.0])
    lifted = lift(x, 2)
    assert list(lifted.values) == [5.0, 5.0, -2.0, -2.0]


def test_lift_downward_rejected():
    t = binary2()
    x = RandomVariable(t, 2, np.arange(4.0))
    with pytest.raises(LevelMismatch):
        lift(x, 1)


def test_condexp_upward_rejected():
    t = binary2()
    x = RandomVariable(t, 0, [1.0])
    with pytest.raises(LevelMismatch):
        condexp(x, 1)


def test_wrong_value_count_rejected():
    t = binary2()
    with pytest.raises(LevelMismatch):
        RandomVariable(t, 1, [1.0, 2.0, 3.0])


def test_arithmetic_lifts_to_common_level():
    t = binary2()
    x = RandomVariable(t, 1, [1.0, 2.0])
    y = RandomVariable(t, 2, [1.0, 2.0, 3.0, 4.0])
    z = x * y
    assert z.level == 2
    assert list(z.values) == [1.0, 2.0, 6.0, 8.0]


def test_rebuild_from_own_probs_is_bitwise():
    # normalization must be idempotent or file round trips drift
    rng = np.random.default_rng(3)
    p = rng.dirichlet(np.ones(4))
    t = binary2(p)
    t2 = binary2(t.probs)
    assert np.array_equal(t.probs, t2.probs)


leaf_probs = st.lists(
    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    min_size=4, max_size=4,
).map(lambda v: np.asarray(v) / np.sum(v))


@given(probs=leaf_probs, vals=st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_tower_property(probs, vals):
    t = binary2(probs)
    x = RandomVariable(t, 2, vals)
    direct = condexp(x, 0).values
    staged = condexp(condexp(x, 1), 0).values
    assert np.allclose(direct, staged, atol=1e-12)


@given(probs=leaf_probs, vals=st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_condexp_positivity(probs, vals):
    t = binary2(probs)
    x = RandomVariable(t, 2, vals)
    assert np.all(condexp(x, 1).values >= 0)


@given(probs=leaf_probs,
       xv=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                   min_size=4, max_size=4),
       yv=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False),
                   min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_condexp_self_adjoint(probs, xv, yv):
    """inner(X, E[Y|k]) == inner(E[X|k], Y) for leaf-level X, Y."""
    t = binary2(probs)
    x = RandomVariable(t, 2, xv)
    y = RandomVariable(t, 2, yv)
    lhs = inner(x, condexp(y, 1))
    rhs = inner(condexp(x, 1), y)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_expect_matches_inner_with_one():
    t = binary2((0.4, 0.1, 0.3, 0.2))
    x = RandomVariable(t, 2, [1.0, 2.0, 3.0, 4.0])
    one = RandomVariable(t, 0, [1.0])
    assert expect(x) == pytest.approx(inner(x, one), abs=1e-15)


# ---------------------------------------------------------------------------
# ancestor map and habit operator
# ---------------------------------------------------------------------------

def walk_up(t, k, a, l):
    for lev in range(k - 1, l - 1, -1):
        a = int(t.parent[lev + 1][a])
    return a


def plan_on(t, rng):
    return [rng.uniform(0.5, 2.0, t.n_atoms(k)) for k in range(t.T + 1)]


def pairing(t, y, x):
    return sum(float(np.dot(t.atom_probs[k], y[k] * x[k])) for k in range(t.T + 1))


def test_ancestor_matches_parent_walk(shuffled_prefs):
    t = shuffled_prefs.tree
    assert list(t.parent[2]) == [1, 0, 1, 0]
    for k in range(t.T + 1):
        for l in range(k + 1):
            assert list(t.ancestor(k, l)) == [walk_up(t, k, a, l) for a in range(t.n_atoms(k))]


def test_habit_solve_inverts_apply_on_the_whole_tree(shuffled_prefs):
    t, beta = shuffled_prefs.tree, shuffled_prefs.beta
    habit = HabitOperator(t, beta)
    assert habit.lags[3] == ((1, 0.15), (2, 0.4)) and habit.leads[1] == ((2, 0.4), (3, 0.15))
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = plan_on(t, rng)
        chat = habit.apply(c)
        by_walk = [c[k] - sum(beta[k, l] * c[l][[walk_up(t, k, a, l) for a in range(t.n_atoms(k))]]
                              for l in range(k)) for k in range(t.T + 1)]
        for k in range(t.T + 1):
            np.testing.assert_allclose(chat[k], by_walk[k], rtol=1e-14, atol=1e-14)
            np.testing.assert_allclose(habit.solve(chat)[k], c[k], rtol=1e-14, atol=0)


def test_habit_operator_on_subtrees_with_history(shuffled_prefs):
    from habitopt.solvers import _subtree_atoms

    t = shuffled_prefs.tree
    habit = HabitOperator(t, shuffled_prefs.beta)
    c = plan_on(t, np.random.default_rng(4))
    whole = habit.apply(c)
    for k0 in range(t.T + 1):
        for node in range(t.n_atoms(k0)):
            atoms = _subtree_atoms(t, k0, node)
            history = [float(c[l][walk_up(t, k0, node, l)]) for l in range(k0)]
            sub = [None] * k0 + [c[l][atoms[l]] for l in range(k0, t.T + 1)]
            chat = habit.apply(sub, atoms, history)
            assert chat[:k0] == [None] * k0
            for l in range(k0, t.T + 1):
                # the same terms as on the whole tree, so the same bits
                assert np.array_equal(chat[l], whole[l][atoms[l]])
                np.testing.assert_allclose(habit.solve(chat, atoms, history)[l], sub[l],
                                           rtol=1e-14, atol=0)


def test_habit_adjoint_is_the_transpose(shuffled_prefs):
    t = shuffled_prefs.tree
    habit = HabitOperator(t, shuffled_prefs.beta)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x, y = plan_on(t, rng), plan_on(t, rng)
        assert pairing(t, y, habit.apply(x)) == pytest.approx(
            pairing(t, habit.adjoint(y), x), rel=1e-14, abs=1e-14)


def test_habit_adjoint_solve_inverts_adjoint(shuffled_prefs):
    t = shuffled_prefs.tree
    habit = HabitOperator(t, shuffled_prefs.beta)
    y = plan_on(t, np.random.default_rng(6))
    z = habit.adjoint_solve(y)
    for k in range(t.T + 1):
        np.testing.assert_allclose(habit.adjoint(z)[k], y[k], rtol=1e-14, atol=0)
        np.testing.assert_allclose(habit.adjoint_solve(habit.adjoint(y))[k], y[k],
                                   rtol=1e-14, atol=0)


def test_habit_operator_without_habit_is_the_identity(shuffled_prefs):
    t = shuffled_prefs.tree
    habit = HabitOperator(t, np.zeros((4, 4)))
    c = plan_on(t, np.random.default_rng(7))
    for op in (habit.apply, habit.solve, habit.adjoint, habit.adjoint_solve):
        out = op(c)
        assert all(np.array_equal(a, b) and a is not b for a, b in zip(out, c))


# ---------------------------------------------------------------------------
# adapted processes: one validated array per level
# ---------------------------------------------------------------------------

def test_adapted_process_rejects_malformed_levels():
    from habitopt import AdaptedProcess

    t = binary2()
    with pytest.raises(LevelMismatch, match="expected 3 levels of values, got 2"):
        AdaptedProcess(t, [np.ones(1), np.ones(2)])
    with pytest.raises(LevelMismatch, match="process entry 1 is attached to level 2"):
        AdaptedProcess(t, [np.ones(1), RandomVariable(t, 2, np.ones(4)), np.ones(4)])
    with pytest.raises(LevelMismatch, match="level 2 has 4 atoms, got 3 values"):
        AdaptedProcess(t, [np.ones(1), np.ones(2), np.ones(3)])


def test_adapted_process_rejects_random_variables_from_another_tree():
    from habitopt import AdaptedProcess

    t1 = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    t2 = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    with pytest.raises(LevelMismatch, match="process entry 0 lives on another tree"):
        AdaptedProcess(t2, [RandomVariable(t1, 0, [1.0]), np.ones(2)])
    with pytest.raises(LevelMismatch, match="process entry 1 lives on another tree"):
        AdaptedProcess(t2, [[1.0], RandomVariable(t1, 1, np.ones(2))])
    assert AdaptedProcess(t1, [RandomVariable(t1, 0, [1.0]), np.ones(2)])[0].tree is t1


def test_process_entries_are_random_variables_on_the_stored_arrays():
    from habitopt import AdaptedProcess

    t = binary2()
    X = AdaptedProcess(t, [[1.0], np.array([2.0, 3.0]), RandomVariable(t, 2, np.arange(4.0))])
    assert len(X) == 3
    for k in range(3):
        assert X.values(k).dtype == float
        for x in (X[k], X.vars[k]):
            assert isinstance(x, RandomVariable)
            assert x.tree is t and x.level == k
            assert x.values is X.values(k)
    assert X[-1].level == 2
    assert [x.level for x in X] == [0, 1, 2]
