"""Finite event trees, random variables on them, and conditional expectation.

The probabilistic backbone: a finite filtered space is encoded as a sequence of
nested partitions of a fixed set of terminal leaves.  All stochastic objects in
the package (prices, dividends, endowments, consumption plans) are arrays of
per-atom values attached to a level of such a tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import BadProbability, LevelMismatch, NonNested

__all__ = [
    "EventTree",
    "RandomVariable",
    "AdaptedProcess",
    "build_tree",
    "condexp",
    "lift",
    "inner",
    "expect",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class EventTree:
    """Nested partitions of a finite leaf set with leaf probabilities.

    Parameters
    ----------
    levels : tuple of tuple of tuple of int
        ``levels[k]`` lists the atoms of the level-``k`` partition, each atom a
        sorted tuple of leaf indices.  Level 0 is the single full atom and
        level ``T`` consists of singletons, one per leaf, in leaf order.
    probs : numpy.ndarray
        Strictly positive leaf probabilities summing to one (normalized on
        construction when the raw sum is within 1e-12 of one).

    Notes
    -----
    Instances are immutable; derived lookup tables (atom probabilities,
    leaf-to-atom maps, parent links, first leaf per atom, per-node child
    blocks) are computed once in ``build_tree``.

    ``child_blocks[k]`` groups the level-``k`` atoms by their number of
    children: one ``(parents, children)`` pair per child count, in increasing
    count order, where ``parents`` lists the group's atoms in index order and
    row ``j`` of ``children`` the children of ``parents[j]`` in index order.
    Construct trees through :func:`build_tree`, which validates nesting.
    """

    levels: tuple[tuple[tuple[int, ...], ...], ...]
    probs: np.ndarray
    leaf_to_atom: tuple[np.ndarray, ...] = field(repr=False)
    atom_probs: tuple[np.ndarray, ...] = field(repr=False)
    parent: tuple[np.ndarray, ...] = field(repr=False)
    first_leaf: tuple[np.ndarray, ...] = field(repr=False)
    child_blocks: tuple[tuple[tuple[np.ndarray, np.ndarray], ...], ...] = field(repr=False)

    @property
    def T(self) -> int:
        return len(self.levels) - 1

    @property
    def n_leaves(self) -> int:
        return self.probs.shape[0]

    def n_atoms(self, k: int) -> int:
        return len(self.levels[k])

    def children(self, k: int, a: int) -> np.ndarray:
        """Indices of the level-``k+1`` atoms contained in atom ``a`` of level ``k``."""
        if k >= self.T:
            raise LevelMismatch(f"level {k} has no children on a depth-{self.T} tree")
        return np.flatnonzero(self.parent[k + 1] == a)

    def ancestor(self, k: int, l: int) -> np.ndarray:
        """The level-``l`` atom containing each level-``k`` atom (``l <= k``)."""
        return self.leaf_to_atom[l][self.first_leaf[k]]

    def to_json(self) -> dict:
        return {
            "T": self.T,
            "levels": [[list(atom) for atom in lvl] for lvl in self.levels],
            "probs": [float(p) for p in self.probs],
        }

    @staticmethod
    def from_json(obj: dict) -> "EventTree":
        return build_tree(obj["levels"], obj["probs"])


def build_tree(levels, probs) -> EventTree:
    """Validate nested partitions and leaf probabilities and assemble an EventTree.

    Raises
    ------
    NonNested
        If any level is not a partition of the leaf set, level 0 is not the
        full atom, level T is not the leaf singletons, or some atom fails to
        sit inside a single parent atom.
    BadProbability
        If probabilities are non-finite, not strictly positive, or their sum
        is farther than 1e-12 from one.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise BadProbability("probs must be a non-empty 1-d array")
    if not np.all(np.isfinite(p)):
        raise BadProbability("probs contains non-finite entries")
    if np.any(p <= 0):
        bad = int(np.argmin(p))
        raise BadProbability(f"leaf {bad} has non-positive probability {p[bad]:g}")
    total = float(p.sum())
    if abs(total - 1.0) > _PROB_TOL:
        raise BadProbability(f"probs sum to {total!r}, not 1 within {_PROB_TOL:g}")
    if abs(total - 1.0) > 4.0 * np.finfo(float).eps:
        # skip at ulp level so that rebuilding a tree from its own
        # probabilities reproduces them bit for bit
        p = p / total

    n = p.size
    lvls = tuple(tuple(tuple(sorted(map(int, atom))) for atom in lvl) for lvl in levels)
    if len(lvls) < 1:
        raise NonNested("a tree needs at least the trivial level 0")

    # per level: the leaves atom by atom, and the atom each entry belongs to
    try:
        flat = [np.fromiter(chain.from_iterable(lvl), dtype=int) for lvl in lvls]
    except OverflowError:                    # a leaf index that no int64 holds
        k, a, i = next((k, a, i) for k, lvl in enumerate(lvls) for a, atom in enumerate(lvl)
                       for i in atom if not -2 ** 63 <= i < 2 ** 63)
        raise NonNested(f"level {k} atom {a} references leaf {i} outside 0..{n - 1}") from None
    sizes = [np.fromiter(map(len, lvl), dtype=int, count=len(lvl)) for lvl in lvls]
    owner = [np.repeat(np.arange(len(lvl)), size) for lvl, size in zip(lvls, sizes)]
    leaf_to_atom = []
    for k, (leaves, own) in enumerate(zip(flat, owner)):
        outside = (leaves < 0) | (leaves >= n)
        if outside.any() or np.bincount(leaves, minlength=n).max() > 1:
            repeated = np.ones(leaves.size, dtype=bool)
            repeated[np.unique(leaves, return_index=True)[1]] = False
            j = np.flatnonzero(outside | repeated)[0]     # the first misplaced entry
            if outside[j]:
                raise NonNested(f"level {k} atom {own[j]} references leaf {leaves[j]} "
                                f"outside 0..{n - 1}")
            raise NonNested(f"leaf {leaves[j]} appears in two atoms at level {k}")
        seen = np.full(n, -1, dtype=int)
        seen[leaves] = own
        if np.any(seen == -1):
            missing = int(np.flatnonzero(seen == -1)[0])
            raise NonNested(f"leaf {missing} is missing from level {k}")
        leaf_to_atom.append(seen)

    if len(lvls[0]) != 1:
        raise NonNested("level 0 must consist of a single atom")
    if len(lvls[-1]) != n or np.any(sizes[-1] != 1):
        raise NonNested("the terminal level must list each leaf as its own atom")
    if np.any(flat[-1] != np.arange(n)):
        raise NonNested("terminal atoms must appear in leaf order")

    parent = [np.zeros(1, dtype=int)]
    for k in range(1, len(lvls)):
        up, own = leaf_to_atom[k - 1][flat[k]], owner[k]
        par = np.full(len(lvls[k]), -1)
        par[own] = up
        straddles = par < 0                  # an empty atom sits in no parent
        straddles[own[up != par[own]]] = True
        if straddles.any():
            a = int(np.argmax(straddles))
            raise NonNested(f"atom {a} at level {k} straddles "
                            f"{np.unique(up[own == a]).size} atoms of level {k - 1}")
        parent.append(par)

    # atoms are sorted, so their first entry is the smallest leaf
    starts = [np.cumsum(size) - size for size in sizes]
    first_leaf = tuple(leaves[start] for leaves, start in zip(flat, starts))
    atom_probs = tuple(_atom_sums(p, leaves, size, start)
                       for leaves, size, start in zip(flat, sizes, starts))
    child_blocks = tuple(_child_blocks(parent[k + 1], len(lvls[k]))
                         for k in range(len(lvls) - 1))
    p.setflags(write=False)
    for arr in atom_probs + first_leaf:
        arr.setflags(write=False)
    for groups in child_blocks:
        for arr in (a for group in groups for a in group):
            arr.setflags(write=False)
    return EventTree(
        levels=lvls,
        probs=p,
        leaf_to_atom=tuple(leaf_to_atom),
        atom_probs=atom_probs,
        parent=tuple(parent),
        first_leaf=first_leaf,
        child_blocks=child_blocks,
    )


def _atom_sums(p: np.ndarray, leaves: np.ndarray, sizes: np.ndarray,
               starts: np.ndarray) -> np.ndarray:
    """``p`` summed over each atom, bit for bit ``p[list(atom)].sum()``: the
    atoms of one size are rows of one array, and numpy sums each row as it
    would sum the atom alone."""
    out = np.empty(sizes.size)
    for size in np.unique(sizes):
        atoms = np.flatnonzero(sizes == size)
        out[atoms] = p[leaves[starts[atoms, None] + np.arange(size)]].sum(axis=1)
    return out


def _child_blocks(parent: np.ndarray, n_parents: int) -> tuple:
    """``(parents, children)`` per child count, from the children's parent links."""
    counts = np.bincount(parent, minlength=n_parents)
    by_parent = np.argsort(parent, kind="stable")
    starts = np.cumsum(counts) - counts
    groups = []
    for nc in np.unique(counts):
        atoms = np.flatnonzero(counts == nc)
        groups.append((atoms, by_parent[starts[atoms, None] + np.arange(nc)]))
    return tuple(groups)


def _level_values(tree: EventTree, level: int, values) -> np.ndarray:
    """``values`` as a float array with one entry per level-``level`` atom."""
    v = np.asarray(values, dtype=float)
    if not (0 <= level <= tree.T):
        raise LevelMismatch(f"level {level} outside 0..{tree.T}")
    if v.shape != (tree.n_atoms(level),):
        raise LevelMismatch(
            f"level {level} has {tree.n_atoms(level)} atoms, "
            f"got {v.shape[0] if v.ndim == 1 else v.shape} values"
        )
    return v


@dataclass(frozen=True)
class RandomVariable:
    """A level-``k`` measurable quantity: one value per atom of the level-``k`` partition."""

    tree: EventTree
    level: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _level_values(self.tree, self.level, self.values))

    def leaf_values(self) -> np.ndarray:
        return self.values[self.tree.leaf_to_atom[self.level]]

    def _coerce(self, other):
        if isinstance(other, RandomVariable):
            if other.tree is not self.tree:
                raise LevelMismatch("random variables live on different trees")
            k = max(self.level, other.level)
            return lift(self, k).values, lift(other, k).values, k
        return self.values, float(other), self.level

    def __add__(self, other):
        a, b, k = self._coerce(other)
        return RandomVariable(self.tree, k, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, k = self._coerce(other)
        return RandomVariable(self.tree, k, a - b)

    def __rsub__(self, other):
        a, b, k = self._coerce(other)
        return RandomVariable(self.tree, k, b - a)

    def __mul__(self, other):
        a, b, k = self._coerce(other)
        return RandomVariable(self.tree, k, a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, k = self._coerce(other)
        return RandomVariable(self.tree, k, a / b)

    def __neg__(self):
        return RandomVariable(self.tree, self.level, -self.values)


class AdaptedProcess:
    """A time-indexed family ``X_0, ..., X_T`` with ``X_k`` measurable at level ``k``.

    Stores one validated array per level: ``values(k)`` returns it, and
    ``X[k]`` and ``vars`` wrap it in a :class:`RandomVariable` on demand.
    """

    def __init__(self, tree: EventTree, per_level_values):
        if len(per_level_values) != tree.T + 1:
            raise LevelMismatch(
                f"expected {tree.T + 1} levels of values, got {len(per_level_values)}"
            )
        self.tree = tree
        self._values = tuple(
            x.values if isinstance(x, RandomVariable) else _level_values(tree, k, x)
            for k, x in enumerate(per_level_values)
        )
        for k, x in enumerate(per_level_values):
            if isinstance(x, RandomVariable) and x.tree is not tree:
                raise LevelMismatch(f"process entry {k} lives on another tree")
            if isinstance(x, RandomVariable) and x.level != k:
                raise LevelMismatch(f"process entry {k} is attached to level {x.level}")

    def __getitem__(self, k: int) -> RandomVariable:
        k = range(len(self._values))[k]
        return RandomVariable(self.tree, k, self._values[k])

    def __len__(self) -> int:
        return len(self._values)

    @property
    def vars(self) -> tuple:
        return tuple(self)

    def values(self, k: int) -> np.ndarray:
        return self._values[k]


def lift(x: RandomVariable, k: int) -> RandomVariable:
    """Re-express a coarse random variable on the finer level-``k`` partition."""
    if k < x.level:
        raise LevelMismatch(f"cannot lift from level {x.level} down to level {k}")
    if k == x.level:
        return x
    return RandomVariable(x.tree, k, x.values[x.tree.ancestor(k, x.level)])


def condexp(x: RandomVariable, k: int) -> RandomVariable:
    """Conditional expectation of ``x`` given the level-``k`` partition.

    Coarsening only: ``k`` must not exceed the level of ``x`` (use :func:`lift`
    for the measurable-inclusion direction).
    """
    if k > x.level:
        raise LevelMismatch(
            f"conditional expectation onto level {k} needs level <= {x.level}"
        )
    return RandomVariable(x.tree, k, _condexp(x.tree, x.values, x.level, k))


def _condexp(tree: EventTree, values: np.ndarray, level: int, k: int) -> np.ndarray:
    """Array core of :func:`condexp` for level-``level`` ``values`` (``k <= level``)."""
    weights = tree.probs * values[tree.leaf_to_atom[level]]
    num = np.bincount(tree.leaf_to_atom[k], weights=weights, minlength=tree.n_atoms(k))
    return num / tree.atom_probs[k]


def expect(x: RandomVariable) -> float:
    """Unconditional expectation."""
    return float(np.dot(x.tree.probs, x.leaf_values()))


def inner(x: RandomVariable, y: RandomVariable) -> float:
    """The pairing ``E[X Y]`` used throughout the pricing algebra."""
    if x.tree is not y.tree:
        raise LevelMismatch("random variables live on different trees")
    return float(np.dot(x.tree.probs, x.leaf_values() * y.leaf_values()))


class HabitOperator:
    """The habit map ``c -> c_k - sum over l < k of beta[k, l] c_l`` and its adjoint.

    ``apply`` reads ``c_l`` at the level-``l`` ancestor of each level-``k``
    atom, on the whole tree or on the subtree with per-level sorted ``atoms``
    and the plan's ``history`` above its root; ``solve`` inverts it.  Both
    read the ancestors at the positions ``where`` (``lag_positions``) when
    given.
    ``adjoint`` is the transpose under ``sum over k of E[y_k x_k]``,
    ``y_k - sum over m > k of beta[m, k] E[y_m | level k]``; ``adjoint_solve``
    inverts it.  Terms are added in place in increasing lag order, and
    ``x - b y`` as ``x + (-b) y``, which rounds the same.
    """

    def __init__(self, tree: EventTree, beta):
        self.tree = tree
        n = tree.T + 1
        # lags[k]: the nonzero (l, beta[k, l]); leads[l]: the nonzero (k, beta[k, l])
        self.lags = tuple(tuple((l, float(beta[k][l])) for l in range(k) if beta[k][l] != 0.0)
                          for k in range(n))
        self.leads = tuple(tuple((k, b) for k in range(l + 1, n) for j, b in self.lags[k]
                                 if j == l) for l in range(n))

    def positions(self, atoms, k: int, l: int) -> np.ndarray:
        """Index in ``atoms[l]`` of the level-``l`` ancestor of each of ``atoms[k]``
        (the ancestor itself when ``atoms`` is ``None``, the whole tree)."""
        anc = self.tree.ancestor(k, l)
        return anc if atoms is None else np.searchsorted(atoms[l], anc[atoms[k]])

    def lag_positions(self, atoms=None, top: int = 0) -> dict:
        """``positions(atoms, k, l)`` keyed by ``(k, l)`` for every lag with
        ``top <= l < k``: what ``apply`` and ``solve`` read on a subtree whose
        root is at level ``top``, for callers that unroll it many times."""
        return {(k, l): self.positions(atoms, k, l)
                for k in range(top, self.tree.T + 1) for l, _ in self.lags[k] if l >= top}

    def _unroll(self, x, atoms, history, sign: float, where) -> list:
        if where is None:
            where = self.lag_positions(atoms, len(history))
        out = [None] * (self.tree.T + 1)
        past = x if sign < 0 else out        # apply lags the plan, solve its result
        for k in range(len(history), self.tree.T + 1):
            out[k] = np.array(x[k], dtype=float)
            for l, b in self.lags[k]:
                out[k] += sign * b * (history[l] if l < len(history) else past[l][where[k, l]])
        return out

    def _condition(self, y, sign: float) -> list:
        out = [None] * (self.tree.T + 1)
        future = y if sign < 0 else out      # adjoint leads y, adjoint_solve its result
        for l in range(self.tree.T, -1, -1):
            out[l] = np.array(y[l], dtype=float)
            for k, b in self.leads[l]:
                out[l] += sign * b * _condexp(self.tree, future[k], k, l)
        return out

    def apply(self, c, atoms=None, history=(), where=None) -> list:
        return self._unroll(c, atoms, history, -1.0, where)

    def solve(self, chat, atoms=None, history=(), where=None) -> list:
        return self._unroll(chat, atoms, history, 1.0, where)

    def adjoint(self, y) -> list:
        return self._condition(y, -1.0)

    def adjoint_solve(self, y) -> list:
        return self._condition(y, 1.0)
