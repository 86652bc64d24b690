"""Solvers for habit utility maximization over self-financing plans.

The general path parametrizes a plan by its portfolio holdings, which makes
consumption affine in the decision variables and the objective globally
concave; a damped Newton ascent then converges to machine precision and its
gradient doubles as a pricing-residual certificate.  Under an Inada condition
it starts from a plan that superhedges a common margin of adjusted
consumption node by node, with no linear program.  Specialized paths cover
complete markets (scalar root-find on time-0 consumption), power utilities
with no future endowments (homogeneity), and exponential utilities in
bond-only markets (explicit backward coefficient recursions).  The complete
market paths share one forward map from the adjusted consumption entered at a
node and one bracketed root-find of the budget, which also serves continuation
problems and, differentiated, their responses to wealth and past consumption.
A derivative-free oracle (Powell's method in budget-whitened portfolio
coordinates) provides an independent cross-check on small instances.
"""

from __future__ import annotations

import copy
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._scipy import brentq, cho_factor, cho_solve, minimize
from ._scipy import linprog  # noqa: F401 (perfbench/spans.py wraps it here)
from .errors import (
    BracketFailure,
    DomainViolation,
    Infeasible,
    InstanceTooLarge,
    NonConvergence,
    PreconditionViolated,
    WrongUtilityFamily,
)
from .market import (
    MarketModel,
    SPDBundle,
    _Vertices,
    _deflated_value,
    _state_price_vertices,
    classify_market,
    deterministic_interest,
    spd_bundle,
)
from .preferences import (
    ExponentialUtility,
    HabitPreferences,
    PowerUtility,
    _as_level_values,
    _chat_levels,
    _marginal_of,
    _per_level,
    _require_feasible,
    _utility_of,
    perturbed_consumption,
    theta_table,
)
from .tree import AdaptedProcess, RandomVariable, _condexp

__all__ = [
    "Solution",
    "SubSolution",
    "ExponentialCoefficients",
    "CompletePowerCoefficients",
    "solve_general",
    "solve_primal_oracle",
    "solve_subproblem",
    "solve_complete_general",
    "solve_complete_power",
    "solve_power_no_endowment",
    "solve_exponential_bonds",
    "solve_auto",
]


@dataclass
class Solution:
    """An optimal plan with the processes needed to audit it.

    ``c`` is consumption, ``chat`` its habit-adjusted counterpart, ``W`` the
    wealth brought into each period, ``I`` the amount invested, ``pi`` the
    portfolio holdings per level (bond in slot 0), ``R`` the habit-adjusted
    marginal deflator of the plan, and ``U`` the attained expected utility.
    """

    c: AdaptedProcess
    chat: AdaptedProcess
    W: AdaptedProcess
    I: AdaptedProcess
    pi: list
    R: AdaptedProcess
    U: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    # per instance (_instance_key): the root plan that solve_general solved or
    # the analysis built, its polish that Newton's node responses are read
    # from, and the node responses per method and level (analysis._responses)
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _optima: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _responses: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _instance_key(m: MarketModel, p: HabitPreferences, eps_vals) -> tuple:
    """The market and preferences (by identity) and the endowments (by value)."""
    return m, p, tuple(v.tobytes() for v in eps_vals)


@dataclass
class SubSolution:
    """Optimal continuation from one node with prescribed entering wealth."""

    level: int
    node: int
    w: float
    c: dict
    W: dict
    U: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# plan parametrization shared by the Newton solver and the oracle
# ---------------------------------------------------------------------------

def _row_dots(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    """``np.dot(P[i], G[i])`` for every row ``i``, bit for bit.

    A stack of ``(1, n) @ (n, 1)`` products runs numpy's vector dot per row,
    which ``einsum`` and ``(P * G).sum(1)`` do not round like.
    """
    return (P[:, None, :] @ G[:, :, None])[:, 0, 0]


def _subtree_atoms(t, k0: int, node: int) -> list:
    """Atoms of each level ``k0..T`` below ``node`` (``None`` above ``k0``)."""
    atoms = [None] * (t.T + 1)
    atoms[k0] = np.array([node], dtype=int)
    for l in range(k0 + 1, t.T + 1):
        atoms[l] = np.flatnonzero(t.ancestor(l, k0) == node)
    return atoms


class _SubtreePlan:
    """Affine map from portfolio variables to habit-adjusted consumption.

    Covers either the full problem (``k0 = 0``, where the entering wealth
    parameter plays the role of the time-0 endowment) or the continuation
    problem from ``node`` at level ``k0`` with past consumption ``history``
    along the node's ancestor path.  ``eps_vals`` are the endowments per
    level, already validated (``preferences._as_level_values``).

    Rows are ordered by level, then by atom, and the holdings of row ``q``
    (a row above level ``T``) are the columns ``nA q .. nA q + nA - 1``.  The
    plan keeps per-row blocks only, never a matrix over all rows and columns:
    each row's own ``prices`` and its gains ``w_gain`` on its parent's
    holdings ``w_index`` give consumption, ``c = b0 - S x_own + g x_parent``;
    the preferences' habit operator, applied to the rows split by level
    (``levels``) at the subtree's lag positions ``where``, gives ``chat =
    habit_map(c, history) - floors``; and the entries ``(row, column,
    value)`` of ``J = dchat/dx`` come from their known row pattern
    (``_jacobian_blocks``), which also gives the Newton Hessian's per-row
    blocks by scattering each row's outer product (``band``).  Both read the
    ancestor row of each row at each depth ``0..D`` from one table ``anc``,
    as does Newton's elimination order (``_Sweep``).  ``chat``, ``J^T g``
    and ``consumption`` are gathers and ``bincount``s over these blocks.
    The wealth and the history enter only through ``b0`` and ``Lb``, the
    adjusted consumption at zero holdings.

    A node's continuation is its own plan, built by this constructor; its
    responses need none, since the root plan's Hessian holds every
    continuation's as a principal block (``_Optimum``).  ``u_rows`` and
    ``du_d2u_rows`` are the family's whole-plan evaluation over the rows
    (``family.on_rows``), built once per plan, so each evaluation point
    costs one vectorized ``u`` or one ``(u', u'')`` pair; ``utility`` still
    sums one level at a time.
    """

    def __init__(self, m: MarketModel, p: HabitPreferences, eps_vals, k0: int = 0,
                 node: int = 0, history=(), w: float | None = None):
        t = m.tree
        T = t.T
        if len(history) != k0:
            raise PreconditionViolated(
                f"history must list consumption for levels 0..{k0 - 1}"
            )
        if w is None:
            if k0 != 0:
                raise PreconditionViolated("continuation problems need entering wealth")
            w = eps_vals[0][0]
        atoms = _subtree_atoms(t, k0, node)
        nA = m.n_risky + 1
        levels = range(k0, T + 1)
        sizes = [len(atoms[l]) for l in levels]
        c_off = np.cumsum([0, *sizes])

        # per row: the parent's row, the gains on the parent's holdings (zero
        # at the plan's root) and the own prices (zero at the leaves)
        parent_row = np.concatenate([[0], *(c_off[l - 1 - k0] + p.habit.positions(atoms, l, l - 1)
                                            for l in levels[1:])])
        gains = np.concatenate([np.zeros((1, nA)), *(m.gain(l)[atoms[l]] for l in levels[1:])])
        prices = np.concatenate([np.zeros((0, nA)), *(m.S[l][atoms[l]] for l in levels[:-1])])
        depths = _depths(p.beta)
        anc = np.empty((c_off[-1], depths), dtype=int)     # the plan's root is its own parent
        anc[:, 0] = np.arange(c_off[-1])
        for d in range(1, depths):
            anc[:, d] = parent_row[anc[:, d - 1]]
        empty = np.zeros(0, dtype=int)
        jac = h_scatter = (empty, empty, np.zeros(0))
        row_level = np.repeat(np.arange(k0, T + 1), sizes)
        if len(prices):
            jcols, jvals, keep = _jacobian_blocks(
                p.beta, k0, row_level, anc,
                np.concatenate([prices, np.zeros((sizes[-1], nA))]), gains)
            r, i = np.nonzero(keep)
            jac = (r, jcols[r, i], jvals[r, i])
            # each pair (i, j) of a row's entries with i's row q at depth d
            # below j's row adds to band[q, d]
            depth = np.arange(jcols.shape[1]) // nA
            r, i, j = np.nonzero(keep[:, :, None] & keep[:, None, :]
                                 & (depth[:, None] <= depth[None, :]))
            q, a = np.divmod(jcols[r, i], nA)
            h_scatter = (r, ((q * depths + depth[j] - depth[i]) * nA + a) * nA + jcols[r, j] % nA,
                         jvals[r, i] * jvals[r, j])
        self.m, self.p, self.t = m, p, t
        self.k0, self.node, self.history, self.atoms = k0, int(node), tuple(history), atoms
        self.nA, self.anc = nA, anc
        self.where = p.habit.lag_positions(atoms, k0)
        self.level_rows = [slice(a, b) for a, b in zip(c_off[:-1].tolist(), c_off[1:].tolist())]
        self.c_off = c_off = dict(zip(levels, c_off.tolist()))
        self.x_off = {l: nA * c_off[l] for l in range(k0, T)}
        self.n_c, self.n_x = c_off[T] + sizes[-1], nA * c_off[T]
        self.prices, self.w_gain = prices, gains[1:]
        self.w_index = nA * parent_row[1:, None] + np.arange(nA)
        self._jac, self._h_scatter = jac, h_scatter
        self.band_shape = (len(prices), depths, nA, nA)
        # the entering wealth replaces the root's endowment at the root of the
        # tree and adds to it elsewhere
        self.b0 = b0 = np.concatenate([eps_vals[l][atoms[l]] for l in levels])
        b0[0] = b0[0] + float(w) if k0 else float(w)
        self.wts = wts = np.concatenate([t.atom_probs[l][atoms[l]] for l in levels])
        self.floors = np.concatenate([p.h[l][atoms[l]] for l in levels])
        self.level_wts = [(rows, wts[rows]) for rows in self.level_rows]
        self.row_level = row_level
        self.u_rows, self.du_d2u_rows = p.family.on_rows(row_level)
        self.inada = p.family.inada
        self.Lb = self.habit_map(b0, self.history) - self.floors

    def at_endowment(self, e0: float) -> "_SubtreePlan":
        """This root plan with time-0 endowment ``e0``: a shallow copy in which
        only ``b0[0]`` and ``Lb`` change, as in a plan built for ``e0``."""
        view = copy.copy(self)
        view.b0 = self.b0.copy()
        view.b0[0] = float(e0)
        view.Lb = view.habit_map(view.b0, ()) - self.floors
        return view

    # -- evaluation ---------------------------------------------------------

    def levels(self, v: np.ndarray) -> list:
        """Per-row values ``v`` (or holdings, one row of ``v`` per row of the
        plan above level ``T``) split by level: ``None`` above ``k0``, then
        one view per level ``k0..T`` (its rows, ``level_rows``)."""
        return [None] * self.k0 + [v[rows] for rows in self.level_rows]

    def habit_map(self, c: np.ndarray, history) -> np.ndarray:
        """The habit operator's ``apply`` on per-row values ``c`` after
        ``history``, back in row order."""
        return np.concatenate(self.p.habit.apply(self.levels(c), self.atoms, history,
                                                 self.where)[self.k0:])

    def jac(self, x: np.ndarray) -> np.ndarray:
        """``J x``, summed row by row over each row's stored columns."""
        row, col, val = self._jac
        return np.bincount(row, weights=val * x[col], minlength=self.n_c)

    def jac_t(self, g: np.ndarray) -> np.ndarray:
        """``J^T g``, summed column by column over the stored entries."""
        row, col, val = self._jac
        return np.bincount(col, weights=val * g[row], minlength=self.n_x)

    def consumption(self, x: np.ndarray) -> np.ndarray:
        c = self.b0.copy()
        c[1:] += self.entering_wealth(x)
        c[:len(self.prices)] -= _row_dots(x.reshape(-1, self.nA), self.prices)
        return c

    def entering_wealth(self, x: np.ndarray) -> np.ndarray:
        """Wealth brought into each row below level ``k0``: parent holdings times gains."""
        return _row_dots(x[self.w_index], self.w_gain)

    def chat(self, x: np.ndarray) -> np.ndarray:
        return self.jac(x) + self.Lb

    def feasible(self, ch: np.ndarray) -> bool:
        return (not self.inada) or bool((ch > 0).all())

    def utility(self, x: np.ndarray) -> float:
        ch = self.chat(x)
        if not self.feasible(ch):
            return -np.inf
        u = self.u_rows(ch)
        total = 0.0
        for sl, w in self.level_wts:
            total += float(np.dot(w, u[sl]))
        return total

    def band(self, hw: np.ndarray) -> np.ndarray:
        """``J^T diag(hw) J`` as blocks ``band[q, d]``: the ``nA x nA`` coupling
        of row ``q``'s holdings (rows of the block) with those of its
        depth-``d`` ancestor (columns), summed row by row over each row's
        nonzero columns.  No other block is nonzero: two holdings couple only
        through a row below both, so one row is an ancestor of the other,
        within the habit's lags.  ``band[q, 0]`` is the diagonal block; the
        entries above the diagonal of the full matrix are its transpose."""
        row, index, outer = self._h_scatter
        return np.bincount(index, weights=hw[row] * outer,
                           minlength=math.prod(self.band_shape)).reshape(self.band_shape)

    @functools.cached_property
    def sweep(self) -> "_Sweep":
        """The elimination order of Newton's ``_BandCholesky`` for this plan's band."""
        return _Sweep(self, _DENSE_TOP)

    def grad_hess_weights(self, x: np.ndarray):
        """Per-row first and (negated) second felicity weights at ``x``."""
        ch = self.chat(x)
        if not self.feasible(ch):
            raise DomainViolation("plan left the utility domain during differentiation")
        du, d2u = self.du_d2u_rows(ch)
        return self.wts * du, -self.wts * d2u


def _depths(beta: np.ndarray) -> int:
    """The ancestor depths ``0..D`` that a row's Jacobian blocks reach, ``D + 1``."""
    T = len(beta) - 1
    return max([1, *(l - j + 1 for l in range(T + 1) for j in range(l) if beta[l, j])]) + 1


def _jacobian_blocks(beta: np.ndarray, k0: int, row_level, anc, prices, gains):
    """The blocks of ``J = L A``, one per row and ancestor depth.

    The holdings of row ``q`` (a row above level ``T``) are the columns
    ``nA q .. nA q + nA - 1``.  Row ``r`` of ``A`` holds minus its prices
    ``S_r`` on its own holdings and its gains ``g_r`` on its parent's, and
    ``L`` subtracts ``beta[l, j]`` times the row of its level-``j`` ancestor.
    On the holdings of its level-``j`` ancestor ``q_j`` (``k0 <= j < T``), row
    ``r`` at level ``l`` therefore holds

        [j = l] (-S_r) + [j = l - 1] g_r + beta[l, j] S_{q_j} - beta[l, j + 1] g_{q_{j+1}},

    which vanishes unless ``j >= l - 1`` or one of the weights is nonzero.
    ``anc`` is the plan's ancestor row of each row at each depth ``0..D``
    (``_SubtreePlan.anc``, the plan's root its own parent); ``prices`` is
    zero on level ``T`` and ``gains`` on the root row.  Returns, per row and
    depth ``l - j`` in ``0..D``, the columns and values of the block,
    flattened to ``(nc, (D + 1) nA)``, and whether the block exists.
    """
    T = len(beta) - 1
    nc, nA = prices.shape
    width = anc.shape[1]
    # weights on the ancestor's prices and on its child's gains; a zero column
    # pads beta so that the levels above the plan index harmlessly
    j = row_level[:, None] - np.arange(width)
    padded = np.hstack([beta, np.zeros((T + 1, 1))])
    now, up = padded[row_level[:, None], j], padded[row_level[:, None], j + 1]
    now[:, 0], up[:, 0], up[:, 1] = -1.0, 0.0, -1.0
    child = np.hstack([anc[:, :1], anc[:, :-1]])
    vals = now[..., None] * prices[anc] - up[..., None] * gains[child]
    keep = (j >= k0) & (j < T) & ((now != 0.0) | (up != 0.0))
    return ((nA * anc[..., None] + np.arange(nA)).reshape(nc, -1), vals.reshape(nc, -1),
            np.repeat(keep, nA, axis=1))


class _Superhedge:
    """The cheapest plan that keeps habit-adjusted consumption at a margin ``s``.

    On the subtree with per-level ``atoms`` under its root at level
    ``k0 = len(history)``, ``c(s) = habit.solve(s + floors, atoms, history)``
    has ``chat = s`` at every node and is affine in ``s``: ``c0 + s c1``, with
    ``c1 >= 1`` as the habit weights are non-negative.  A plan with
    ``chat >= s`` everywhere exists if and only if the subtree's wealth
    ``b0`` (per level, aligned with ``atoms``) superhedges ``c(s)``: consuming
    ``c(s)`` above the leaves only raises later ``chat``, and the bond carries
    what is left to the leaves.  The wealth missing for it,
    ``V = c(s) - b0 + max over vertices q of q . V_children`` from the leaves
    up (``market._state_price_vertices``), is convex, increasing and
    piecewise linear in ``s``; each pass over the subtree is O(nodes).
    """

    def __init__(self, m: MarketModel, p: HabitPreferences, atoms, b0, history=()):
        T = m.T
        self.m, self.atoms, self.b0 = m, atoms, b0
        self.k0 = k0 = len(history)
        where = p.habit.lag_positions(atoms, k0)
        above = [None] * k0
        self.c0 = p.habit.solve(above + [p.h[l][atoms[l]] for l in range(k0, T + 1)],
                                atoms, history, where)
        self.c1 = p.habit.solve(above + [np.ones(len(atoms[l])) for l in range(k0, T + 1)],
                                atoms, (0.0,) * k0, where)
        # per level below T: the vertex groups of the subtree's nodes, with the
        # nodes' positions in atoms[l] and their children's in atoms[l + 1]
        self.groups = [None] * T
        for l in range(k0, T):
            self.groups[l] = []
            for v in _state_price_vertices(m, l + 1):
                pos = np.searchsorted(atoms[l], v.parents)
                inside = atoms[l][np.minimum(pos, len(atoms[l]) - 1)] == v.parents
                if not inside.all():
                    v, pos = _Vertices(*(a[inside] for a in v)), pos[inside]
                if pos.size:
                    self.groups[l].append((pos, np.searchsorted(atoms[l + 1], v.children), v))

    @classmethod
    def of(cls, plan: _SubtreePlan) -> "_Superhedge":
        """The superhedge of ``plan``'s subtree, wealth and history."""
        return cls(plan.m, plan.p, plan.atoms, plan.levels(plan.b0), plan.history)

    def value(self, s: float) -> tuple:
        """``V`` and ``dV/ds`` per level at margin ``s`` (``None`` above ``k0``),
        and per level each group's active vertex."""
        k0, T = self.k0, self.m.T
        V, dV, active = [None] * (T + 1), [None] * (T + 1), [None] * T
        for l in range(T, k0 - 1, -1):
            V[l] = self.c0[l] + s * self.c1[l] - self.b0[l]
            dV[l] = self.c1[l].copy()
            if l == T:
                continue
            active[l] = []
            for pos, cpos, v in self.groups[l]:
                vals = (v.q @ V[l + 1][cpos][..., None])[..., 0]
                j = np.argmax(vals, axis=1)
                at = np.arange(j.size)
                V[l][pos] += vals[at, j]
                dV[l][pos] += _row_dots(v.q[at, j], dV[l + 1][cpos])
                active[l].append(j)
        return V, dV, active

    def margin(self) -> float:
        """The largest ``s`` that the subtree's wealth superhedges, ``V(s*) = 0``.

        Newton on the root's ``V``, started at the root of its tangent at 0,
        approaches ``s*`` from the right, since ``V`` is convex and
        increasing, and lands on it once it reaches ``s*``'s linear piece.
        Raises Infeasible where ``V(0) >= 0``: no plan keeps ``chat > 0``.
        """
        k0 = self.k0
        V, dV, _ = self.value(0.0)
        if not V[k0][0] < 0:
            raise Infeasible(
                "no strictly admissible plan exists for these endowments and habits"
            )
        s = -V[k0][0] / dV[k0][0]
        for _ in range(_MAX_ITER):
            V, dV, _ = self.value(s)
            nxt = s - V[k0][0] / dV[k0][0]
            if not nxt < s:
                break
            s = nxt
        return float(s)

    def holdings(self, s: float) -> list:
        """Holdings per level ``k0..T-1``, rows aligned with ``atoms``, of a plan
        with ``chat = s`` above the leaves and ``chat >= s`` at them.

        Each node superhedges its children's ``V`` with the minimum-norm
        holdings that pay it on the support of its active vertex (a
        pseudo-inverse, as in ``_replicate_portfolio``, so that redundant
        assets take the minimum-norm split); the bond covers any shortfall in
        the other children.  A
        forward pass then puts each node's excess wealth into the bond.
        """
        m, atoms, k0, T = self.m, self.atoms, self.k0, self.m.T
        V, _, active = self.value(s)
        gains = [None] * k0 + [m.gain(l + 1) for l in range(k0, T)]
        theta = []
        for l in range(k0, T):
            th = np.zeros((len(atoms[l]), m.n_risky + 1))
            for (pos, cpos, v), j in zip(self.groups[l], active[l]):
                at = np.arange(j.size)
                claim = V[l + 1][cpos]
                support = v.support[at, j]
                G = gains[l][v.children]
                paid = np.take_along_axis(claim, support, axis=1)
                hedge = np.linalg.pinv(G[at[:, None], support])
                h = (hedge @ paid[..., None])[..., 0]
                short = (claim - (G @ h[..., None])[..., 0]) / G[..., 0]
                h[:, 0] += np.maximum(short.max(axis=1), 0.0)
                th[pos] = h
            theta.append(th)
        wealth = self.b0[k0]
        for l in range(k0, T):
            th = theta[l - k0]
            th[:, 0] += wealth - _row_dots(th, m.S[l][atoms[l]]) - (self.c0[l] + s * self.c1[l])
            up = np.searchsorted(atoms[l], m.tree.parent[l + 1][atoms[l + 1]])
            wealth = self.b0[l + 1] + _row_dots(th[up], gains[l][atoms[l + 1]])
        return theta


def _admissible(m: MarketModel, p: HabitPreferences, eps_vals) -> bool:
    """Whether the full problem has a strictly admissible plan: always without
    an Inada condition, else where the endowments superhedge ``chat = 0``."""
    if not p.family.inada:
        return True
    V, _, _ = _Superhedge(m, p, _subtree_atoms(m.tree, 0, 0), eps_vals).value(0.0)
    return bool(V[0][0] < 0)


def _interior_start(plan: _SubtreePlan) -> np.ndarray:
    """Strictly admissible holdings: zero without an Inada condition, else the
    superhedging plan at the largest margin (``_Superhedge``)."""
    if not plan.p.family.inada:
        return np.zeros(plan.n_x)
    if plan.n_x == 0:
        ch = plan.Lb
        if np.any(ch <= 0):
            raise Infeasible("no admissible plan: adjusted consumption is forced non-positive")
        return np.zeros(0)
    hedge = _Superhedge.of(plan)
    return np.concatenate([th.ravel() for th in hedge.holdings(hedge.margin())])


def _start(plan: _SubtreePlan, x0) -> tuple:
    """``(x, utility at x)``: ``x0`` when strictly admissible, else ``_interior_start``."""
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (plan.n_x,):
            raise PreconditionViolated(
                f"warm start has shape {x0.shape}, expected n_x = {plan.n_x} holdings"
            )
        f0 = plan.utility(x0)
        if np.isfinite(f0):
            return x0, f0
    x = _interior_start(plan)
    return x, plan.utility(x)


def _derivatives(plan: _SubtreePlan, x: np.ndarray):
    """Gradient of the plan utility at ``x`` and the per-row curvature weights."""
    gw, hw = plan.grad_hess_weights(x)
    return plan.jac_t(gw), hw


_DENSE_TOP = 256     # holdings columns left to the dense factor


class _Sweep:
    """The order in which ``_BandCholesky`` eliminates a plan's holdings.

    Levels are swept from the deepest up while more than ``dense_top``
    holdings columns lie at or above them, never the plan's root level:
    Newton's factor leaves ``_DENSE_TOP`` columns to LAPACK, and
    ``dense_top = 0`` sweeps every level below the root.  Per swept level it
    keeps the level's rows, their ancestors ``up`` at depths ``1..D`` within
    the plan, the pairs ``i <= j`` of those depths and, per pair, the flat
    ``band`` index of ``band[up[:, i], j - i]``, which the pair's Schur update
    lands on.  ``top`` is the highest swept level.  The rows above it make the
    dense top, ``n_top`` columns: ``put`` places every ``band`` entry of its
    rows in the transposed top, so that they fill the lower triangle of the
    top itself.  Ancestors above the plan's root repeat the root, so the
    blocks of those depths land on entries of blocks at other depths; they
    are zero, and adding them leaves those entries as they are.
    """

    def __init__(self, plan: _SubtreePlan, dense_top: int):
        k0, T, nA = plan.k0, plan.t.T, plan.nA
        self.n_q, depths = plan.band_shape[:2]
        self.nA = nA
        off, anc = plan.c_off, plan.anc
        top = T
        while top > k0 + 1 and nA * off[top] > dense_top:
            top -= 1
        self.top = top
        block = np.arange(nA * nA)
        self.levels = []
        for l in range(T - 1, top - 1, -1):
            rows = slice(off[l], off[l + 1])
            up = anc[rows, 1:min(depths - 1, l - k0) + 1]
            i, j = np.triu_indices(up.shape[1])
            target = ((up[:, i] * depths + j - i)[..., None] * (nA * nA) + block).ravel()
            self.levels.append((rows, up, i, j, target))
        self.n_top = nA * off[top]
        cols = nA * anc[:off[top], :, None] + np.arange(nA)      # each block's columns
        self.put = (cols[:, :, None] * self.n_top + cols[:, :1, :, None]).ravel()


class _BandCholesky:
    """Cholesky factor of the Newton Hessian from its blocks (``_SubtreePlan.band``).

    Holdings are eliminated leaves to root (Steinbach, "Tree-sparse convex
    programs", *Math. Methods Oper. Res.* 2002), in the order of
    ``plan.sweep``.  Eliminating a row's holdings fills nothing: its Schur
    update couples only its ancestors within the band, which are pairwise
    ancestors of one another.  A swept level is one batched Cholesky
    ``L L^T`` of its diagonal blocks, its blocks ``W_d = L^-1 band[q, d]`` on
    its ancestors and one ``bincount`` of the updates ``W_i^T W_j`` onto
    ``band[q_i, j - i]``.  The columns above the swept levels are factored
    dense by LAPACK, in place.  Raises ``np.linalg.LinAlgError`` where a
    diagonal block or the top is not positive definite.
    """

    def __init__(self, sweep: _Sweep, band: np.ndarray):
        self.sweep = sweep
        self.levels = []
        for rows, up, i, j, target in sweep.levels:
            Linv = np.linalg.inv(np.linalg.cholesky(band[rows, 0]))
            W = Linv[:, None] @ band[rows, 1:up.shape[1] + 1]
            update = np.swapaxes(W[:, i], -1, -2) @ W[:, j]
            band = band - np.bincount(target, weights=update.ravel(),
                                      minlength=band.size).reshape(band.shape)
            self.levels.append((rows, up, Linv, W))
        top = np.bincount(sweep.put, weights=band[:sweep.n_top // sweep.nA].ravel(),
                          minlength=sweep.n_top ** 2).reshape(sweep.n_top, sweep.n_top)
        # top holds the transpose, so top.T is Fortran-ordered and LAPACK factors it in place
        self.top = cho_factor(top.T, lower=True, overwrite_a=True, check_finite=False)

    def solve(self, b: np.ndarray, below: int | None = None) -> np.ndarray:
        """``H^-1 b`` for one right-hand side or one per column: forward over
        the swept levels, through the dense top, and back down.

        With ``below`` a swept level ``k``, it solves instead with the
        principal block of ``H`` on the holdings at levels ``>= k``, and the
        holdings above come out zero.  Those holdings are eliminated first,
        so the factor's levels down to ``k`` factor that block: the forward
        pass stops after level ``k``, and the back pass starts there with
        zero above.
        """
        if not self.levels:
            return cho_solve(self.top, b, check_finite=False)
        sweep, levels = self.sweep, self.levels
        if below is not None:
            levels = levels[:len(levels) - (below - sweep.top)]
        x = np.array(b, dtype=float)
        xr = x.reshape(sweep.n_q, sweep.nA, -1)
        for rows, up, Linv, W in levels:
            y = xr[rows] = Linv @ xr[rows]
            flow = np.swapaxes(W, -1, -2) @ y[:, None]
            flat = np.arange(xr[0].size)
            xr -= np.bincount((up[..., None] * flat.size + flat).ravel(), weights=flow.ravel(),
                              minlength=xr.size).reshape(xr.shape)
        if below is None:
            x[:sweep.n_top] = cho_solve(self.top, x[:sweep.n_top], check_finite=False)
        else:
            x[:sweep.nA * levels[-1][0].start] = 0.0
        for rows, up, Linv, W in reversed(levels):
            xr[rows] = np.swapaxes(Linv, -1, -2) @ (xr[rows] - (W @ xr[up]).sum(axis=1))
        return x


def _ridged_factor(plan: _SubtreePlan, band: np.ndarray, sweep: _Sweep | None = None):
    """``_BandCholesky`` of ``band`` plus ``ridge`` on the diagonal, with the
    first ridge that factors, and the ridge.  The factor follows ``sweep``,
    by default the plan's own (``plan.sweep``).

    The ridges tried are 0, then ``1e-12 max(1, max|band|)`` growing tenfold;
    the factor is None once the ridge passes ``1e40``.
    """
    ridge, work, sweep = 0.0, band, sweep or plan.sweep
    while True:
        try:
            return _BandCholesky(sweep, work), ridge
        except np.linalg.LinAlgError:
            ridge = max(ridge * 10.0, 1e-12 * max(1.0, float(np.max(np.abs(band)))))
            if ridge > 1e40:
                return None, ridge
            work = band.copy()
            work[:, 0] += ridge * np.eye(plan.nA)


_MAX_ITER = 300
_DECREMENT_TOL = 4.0 * np.finfo(float).eps   # of max(1, |U|)


def _newton_maximize(plan: _SubtreePlan, x0, gtol: float):
    """Damped Newton ascent of the concave plan utility from ``_start(plan, x0)``.

    Returns the maximizer, the utility there and the iteration diagnostics.
    Each point is evaluated once and differentiated at most once.  The ascent
    stops at ``max|g| <= gtol`` or, where the full step no longer halves the
    gradient, once half the squared Newton decrement ``g.step`` (the
    predicted gain ``U* - U``) is at most ``_DECREMENT_TOL max(1, |U|)``:
    below the rounding of ``U`` no line search can measure progress, so the
    full step is taken where it is admissible and the ascent ends there
    (Boyd & Vandenberghe, *Convex Optimization*, 9.5.1).  That exit records
    ``stop = "decrement"`` in the diagnostics; its ``grad_norm`` may exceed
    ``gtol``.
    """
    x, fx = _start(plan, x0)
    x = x.copy()
    if plan.n_x == 0:
        if not np.isfinite(fx):
            raise Infeasible("degenerate plan is outside the utility domain")
        return x, fx, {"iterations": 0, "grad_norm": 0.0, "ridge": 0.0}
    if not np.isfinite(fx):
        raise DomainViolation("starting point is not strictly admissible")
    info = {"iterations": 0, "grad_norm": np.inf, "ridge": 0.0}
    g, hw = _derivatives(plan, x)
    for it in range(1, _MAX_ITER + 1):
        gn = float(np.abs(g).max())
        info["iterations"] = it
        info["grad_norm"] = gn
        if gn <= gtol:
            return x, fx, info
        if not np.isfinite(hw).all():
            raise NonConvergence("curvature weights are not finite",
                                 best=x, diagnostics=dict(info))
        cf, ridge = _ridged_factor(plan, plan.band(hw))
        if cf is None:
            raise NonConvergence("curvature matrix is irreparably singular",
                                 diagnostics=dict(info))
        step = cf.solve(g)
        info["ridge"] = max(info["ridge"], ridge)
        gs = lam2 = float(np.dot(g, step))      # lam2: the squared Newton decrement
        if gs <= 0:
            step = g
            gs = float(np.dot(g, g))
        # near the optimum utility differences sink below float resolution;
        # accept the full step whenever it halves the gradient norm instead
        x_full = x + step
        f_full = plan.utility(x_full)
        full = None
        if np.isfinite(f_full):
            full = _derivatives(plan, x_full)
            if float(np.abs(full[0]).max()) <= 0.5 * gn:
                x, fx, (g, hw) = x_full, f_full, full
                continue
        if 0.0 < 0.5 * lam2 <= _DECREMENT_TOL * max(1.0, abs(fx)):
            if full is not None:
                x, fx = x_full, f_full
                info.update(iterations=it + 1, grad_norm=float(np.abs(full[0]).max()))
            info["stop"] = "decrement"
            return x, fx, info
        tstep, cand = 1.0, f_full
        while not cand >= fx + 1e-4 * tstep * gs:
            tstep *= 0.5
            if tstep < 1e-15:
                raise NonConvergence(
                    f"line search stalled with gradient norm {gn:.3e}",
                    best=x, diagnostics=dict(info),
                )
            cand = plan.utility(x + tstep * step)
        x, fx = x + tstep * step, cand
        g, hw = full if tstep == 1.0 else _derivatives(plan, x)
    gn = float(np.abs(g).max())
    raise NonConvergence(
        f"no convergence after {_MAX_ITER} iterations (gradient norm {gn:.3e})",
        best=x, diagnostics=dict(info),
    )


def _assemble_solution(plan: _SubtreePlan, x: np.ndarray, method: str,
                       info: dict) -> Solution:
    m, p, t = plan.m, plan.p, plan.t
    if plan.k0 != 0:
        raise PreconditionViolated("full solutions exist only for root plans")
    T = t.T
    c = plan.levels(plan.consumption(x))
    pi = plan.levels(x.reshape(-1, plan.nA))[:T]
    W = plan.levels(np.concatenate([np.zeros(1), plan.entering_wealth(x)]))
    I = [_row_dots(pi[l], m.S[l]) for l in range(T)] + [np.zeros(t.n_atoms(T))]
    return _solution(p, c, W, I, pi, method, info)


def _solution_utility(plan: _SubtreePlan, x: np.ndarray) -> float:
    """The utility that ``_solution`` reports for a root plan's holdings ``x``:
    ``_utility_of`` its habit-adjusted consumption, which sums and rounds
    unlike ``plan.utility``."""
    cp = AdaptedProcess(plan.t, plan.levels(plan.consumption(x)))
    return _utility_of(plan.p, _chat_levels(_require_feasible(perturbed_consumption(plan.p, cp))))


def _solution(p: HabitPreferences, c, W, I, pi, method: str, diag: dict) -> Solution:
    """A converged ``Solution`` from per-level consumption, wealth and investment."""
    t = p.tree
    cp = AdaptedProcess(t, c)
    pc = _require_feasible(perturbed_consumption(p, cp))
    chat = _chat_levels(pc)
    return Solution(
        c=cp, chat=pc.chat, W=AdaptedProcess(t, W),
        I=AdaptedProcess(t, I), pi=pi, R=AdaptedProcess(t, _marginal_of(p, chat)),
        U=_utility_of(p, chat), converged=True, diagnostics=dict(diag, method=method),
    )


def solve_general(m: MarketModel, p: HabitPreferences, eps, x0=None,
                  gtol: float = 1e-11) -> Solution:
    """Maximize total habit utility over self-financing plans.

    Works on any no-arbitrage market and any concave family.  When Newton
    stops on ``gtol``, the returned gradient norm bounds the
    probability-weighted pricing residuals of the habit-adjusted marginal
    deflator.  When it stops on its decrement (``diagnostics["stop"] ==
    "decrement"``, see ``_newton_maximize``), the gradient norm is only what
    the rounding of the utility allowed and certifies nothing.  ``x0``
    warm-starts Newton as in ``solve_subproblem``.  The solution keeps its
    plan per instance, for the analysis to reuse.
    """
    eps_vals = _as_level_values(m.tree, eps)
    plan = _SubtreePlan(m, p, eps_vals)
    x, _, info = _newton_maximize(plan, x0, gtol)
    sol = _assemble_solution(plan, x, "newton", info)
    sol._plans[_instance_key(m, p, eps_vals)] = plan
    return sol


def solve_subproblem(m: MarketModel, p: HabitPreferences, eps, k: int, node: int,
                     history, w: float, gtol: float = 1e-11, x0=None) -> SubSolution:
    """Optimal continuation from ``node`` at level ``k`` with entering wealth ``w``.

    ``history`` prescribes consumption on the node's strict ancestors, which
    enters through the habit terms.  At ``k = 0`` the wealth parameter stands
    in for the time-0 endowment, so ``w`` equal to that endowment reproduces
    the full problem.

    ``x0`` warm-starts Newton from portfolio holdings in the plan's variable
    order: levels ``k..T-1``, the subtree's atoms in index order at each
    level, one row of bond and risky holdings per atom -- for instance a
    nearby optimum restricted to this subtree.  When ``x0`` is missing or not
    strictly admissible (its utility is not finite), Newton starts from the
    superhedging plan at the largest common margin of adjusted consumption
    (``_interior_start``) instead.  Stopping rules and errors are the same
    either way.
    """
    plan = _SubtreePlan(m, p, _as_level_values(m.tree, eps), k0=k, node=node,
                        history=history, w=w)
    x, fx, info = _newton_maximize(plan, x0, gtol)
    keys = [(l, int(a)) for l in range(k, m.tree.T + 1) for a in plan.atoms[l]]  # row order
    cmap = dict(zip(keys, plan.consumption(x).tolist()))
    wmap = dict(zip(keys[1:], plan.entering_wealth(x).tolist()))
    wmap[(k, node)] = float(w)
    return SubSolution(level=k, node=node, w=float(w), c=cmap, W=wmap,
                       U=fx, converged=True, diagnostics=dict(info))


class _Optimum:
    """A plan's Newton optimum from ``x0`` and one factor of its Hessian there,
    from which its responses are read level by level (``level_responses``).

    The factor sweeps every level below the plan's root (``_Sweep`` with no
    dense top), so the holdings at levels ``>= k`` come first in its
    elimination order and its levels down to ``k`` factor their principal
    block of the Hessian (``_BandCholesky.solve`` with ``below``).  That
    block is block-diagonal over the level-``k`` subtrees, as a subtree's
    holdings touch only the subtree's rows, and each block is the Hessian of
    that node's continuation at its optimum, which by Bellman consistency is
    the plan's holdings on the subtree (Steinbach, *Math. Methods Oper.
    Res.* 2002).  One solve therefore serves every node of a level.
    """

    def __init__(self, plan: _SubtreePlan, x0, gtol: float):
        x, _, info = _newton_maximize(plan, x0, gtol)
        _, hw = plan.grad_hess_weights(x)
        cf, ridge = _ridged_factor(plan, plan.band(hw), _Sweep(plan, dense_top=0))
        if cf is None:
            raise NonConvergence("curvature matrix is irreparably singular at the optimum",
                                 best=x, diagnostics=dict(info, ridge=ridge))
        self.plan, self.x, self.hw, self.cf = plan, x, hw, cf

    def level_responses(self, k: int) -> list:
        """``(c, dc/dw, dc/dhistory[-1], d2c/dw2)`` of every level-``k`` node
        of the plan (``k0 <= k < T``), in row order.

        Each node's optimality condition ``J^T (wts u'(J x + Lb)) = 0`` is
        differentiated (Fiacco, 1983): with ``hw`` the curvature weights,
        ``H dx = -J^T (hw * dLb)`` on the holdings at levels ``>= k``.
        ``Lb`` moves by the habit map of a unit of wealth at every level-``k``
        row, and by that of a unit of level-``k - 1`` consumption: at the
        rows of that level, or in the last history entry at the plan's root
        (nowhere at the root of the tree).  Once more in wealth, with
        ``s = J dx + dLb/dw``, ``H d2x = J^T (wts u''' s^2)``.  A level-``k``
        row's parent holds nothing within the block, so its ``c`` moves by
        ``1 - S . dx`` on its own holdings and curves by ``-S . d2x``.
        """
        plan, cf, nA = self.plan, self.cf, self.plan.nA
        rows = plan.level_rows[k - plan.k0]
        below = k if k > plan.k0 else None
        wealth, past, hist = np.zeros(plan.n_c), np.zeros(plan.n_c), np.zeros(plan.k0)
        wealth[rows] = 1.0
        if below is not None:
            past[plan.level_rows[k - 1 - plan.k0]] = 1.0
        elif k:
            hist[-1] = 1.0
        dlb_dw = plan.habit_map(wealth, np.zeros(plan.k0))
        S = plan.prices[rows][:, None]

        def moved(dx):      # -S . dx on each level-k row's holdings, per column
            return -(S @ dx[nA * rows.start:nA * rows.stop].reshape(len(S), nA, -1))[:, 0]

        dx = cf.solve(-np.column_stack([plan.jac_t(self.hw * d)
                                        for d in (dlb_dw, plan.habit_map(past, hist))]), below)
        dc = moved(dx)
        s = plan.jac(dx[:, 0]) + dlb_dw
        u3 = _per_level(plan.p.family.d3u, plan.row_level)(plan.chat(self.x))
        d2c = moved(cf.solve(plan.jac_t(plan.wts * u3 * s * s), below)[:, None])[:, 0]
        c = plan.consumption(self.x)[rows]
        return list(zip(c.tolist(), (dc[:, 0] + 1.0).tolist(), dc[:, 1].tolist(), d2c.tolist()))


_ORACLE_SEEDS = (0, 1, 2)
_ORACLE_MAX_DIM = 6
_ORACLE_MAX_RUNS = 20


def solve_primal_oracle(m: MarketModel, p: HabitPreferences, eps) -> Solution:
    """Derivative-free reference solver for small instances.

    Powell's conjugate-direction method (scipy) over the portfolio variables
    in budget-whitened coordinates ``x = x_start + V y``: the columns of ``V``
    are the right singular vectors of the probability-weighted budget map
    scaled by the inverse singular values, so unit steps in ``y`` move
    consumption by comparable amounts at every node, and directions that do
    not move consumption (redundant assets) are dropped.  Each of three
    jittered admissible starts is re-run from its result while the utility
    improves, and the best start wins.  Adjusted consumption is affine in
    ``y``, so each start evaluates ``chat = (J V) y + chat(x_start)``.
    Independent of the Newton path; refuses instances with more than six
    portfolio variables.
    """
    plan = _SubtreePlan(m, p, _as_level_values(m.tree, eps))
    if plan.n_x > _ORACLE_MAX_DIM:
        raise InstanceTooLarge(
            f"oracle handles at most {_ORACLE_MAX_DIM} portfolio variables, got {plan.n_x}"
        )
    base = _interior_start(plan)
    # the budget map dc/dx, scattered from the row blocks
    A = np.zeros((plan.n_c, plan.n_x))
    inner = np.arange(len(plan.prices))[:, None]
    A[inner, plan.nA * inner + np.arange(plan.nA)] = -plan.prices
    A[np.arange(1, plan.n_c)[:, None], plan.w_index] = plan.w_gain
    _, sv, vt = np.linalg.svd(np.sqrt(plan.wts)[:, None] * A, full_matrices=False)
    keep = sv > 1e-12 * sv[0]
    V = vt[keep].T / sv[keep]
    JV = np.column_stack([plan.jac(v) for v in V.T])

    best_x, best_f = base, -np.inf
    for seed in _ORACLE_SEEDS:
        x_start = base + 0.05 * np.random.default_rng(seed).standard_normal(plan.n_x)
        if not np.isfinite(plan.utility(x_start)):
            x_start = base
        c_start = plan.chat(x_start)

        def fneg(y, c_start=c_start):
            ch = JV @ y + c_start
            if not plan.feasible(ch):
                return 1e300
            val = float(plan.wts @ plan.u_rows(ch))
            return -val if np.isfinite(val) else 1e300

        y, fy = np.zeros(V.shape[1]), -fneg(np.zeros(V.shape[1]))
        for _ in range(_ORACLE_MAX_RUNS):
            res = minimize(fneg, y, method="Powell",
                           options={"xtol": 1e-12, "ftol": 1e-15})
            if not -res.fun > fy:
                break
            y, fy = res.x, -res.fun
        if fy > best_f:
            best_x, best_f = x_start + V @ y, fy
    return _assemble_solution(plan, best_x, "oracle", {"utility": best_f})


# ---------------------------------------------------------------------------
# complete markets
# ---------------------------------------------------------------------------

def _forward_consumption(p: HabitPreferences, spd: SPDBundle, atoms, history,
                         z: float, where: dict) -> list:
    """Consumption on a subtree from the adjusted consumption ``z`` at its root.

    The first-order conditions tie every later adjusted consumption to ``z``
    through perturbed-deflator ratios; the habits then unroll it into
    consumption, with ``history`` giving consumption above the subtree's root
    at level ``len(history)``.  Values per level are aligned with ``atoms``;
    ``where`` is the subtree's ``habit.lag_positions``.
    """
    t = p.tree
    fam = p.family
    k = len(history)
    lam = float(fam.du(k, z))
    mt_root = float(spd.Mtilde[k].values[atoms[k][0]])
    y = [None] * (t.T + 1)       # adjusted consumption plus floors
    y[k] = np.array([z]) + p.h[k][atoms[k]]
    for l in range(k + 1, t.T + 1):
        chat = fam.du_inv(l, lam * spd.Mtilde[l].values[atoms[l]] / mt_root)
        y[l] = np.asarray(chat, dtype=float) + p.h[l][atoms[l]]
    return p.habit.solve(y, atoms, history, where)


def _budget_gap(t, spd: SPDBundle, c, endow, atoms) -> float:
    """Deflated cost of a subtree plan net of the subtree's endowments."""
    gap = 0.0
    for l, al in enumerate(atoms):
        if al is not None:
            gap += float(np.dot(t.atom_probs[l][al], spd.M[l].values[al] * (c[l] - endow[l])))
    return gap


def _budget_root(gap, inada: bool, wealth: float) -> tuple:
    """Root of a strictly increasing budget gap, and the gap left there.

    Families with an Inada condition bracket from just above zero, shrinking
    the lower end ``lo`` from ``1e-12`` while the root lies below it; the
    others double a symmetric bracket of the size of ``wealth``.  Brent stops
    within ``1e-14`` of the root, or within ``1e-2 lo`` where that is less: where
    an exponent is below one, the gap's slope grows without bound towards
    zero.  Raises Infeasible
    when even vanishing consumption overspends, and NonConvergence when the
    gap at the root exceeds ``1e-12`` relative to ``wealth``.
    """
    hi, xtol = max(1.0, abs(wealth)), 1e-14
    if inada:
        lo = 1e-12
        while gap(lo) > 0:
            if lo < 1e-250:
                raise Infeasible("exogenous floors already exhaust the available wealth")
            lo *= 1e-4
        xtol = min(xtol, 1e-2 * lo)
    else:
        lo = -hi
        for _ in range(61):
            if gap(lo) <= 0:
                break
            lo *= 2.0
        else:
            raise BracketFailure("could not bracket the budget root from below")
    for _ in range(61):
        if gap(hi) >= 0:
            break
        hi *= 2.0
    else:
        raise BracketFailure("could not bracket the budget root from above")
    root = brentq(gap, lo, hi, xtol=xtol, rtol=8.9e-16, maxiter=200)
    resid = gap(root)
    if abs(resid) > 1e-12 * max(1.0, abs(wealth)):
        raise NonConvergence(
            f"budget gap {resid:.3e} above tolerance after root-find", best=root
        )
    return root, resid


class _CompleteContinuation:
    """The complete-market optimum below ``node`` at level ``k``, prepared for
    every entering wealth: the subtree's atoms and their habit lag positions,
    its endowments and their deflated values below level ``k``.

    ``history`` is consumption on the node's strict ancestors.  As in
    ``_SubtreePlan``, the entering wealth ``w`` of ``solve`` replaces the
    endowment at the root of the full tree and adds to it at any other node.
    """

    def __init__(self, p: HabitPreferences, spd: SPDBundle, eps_vals, k: int, node: int,
                 history):
        t = p.tree
        self.p, self.spd, self.k, self.history = p, spd, k, history
        self.atoms = atoms = _subtree_atoms(t, k, node)
        self.where = p.habit.lag_positions(atoms, k)
        self.endow = [None if al is None else eps_vals[l][al] for l, al in enumerate(atoms)]
        self.later = [float(np.dot(t.atom_probs[l][atoms[l]],
                                   spd.M[l].values[atoms[l]] * self.endow[l]))
                      for l in range(k + 1, t.T + 1)]

    def solve(self, w: float) -> tuple:
        """Consumption per level, aligned with the subtree's atoms (``None``
        above ``k``), the budget gap left by the root-find, and the root's
        adjusted consumption, for the entering wealth ``w``."""
        p, spd, k, atoms, history, where = (self.p, self.spd, self.k, self.atoms,
                                            self.history, self.where)
        t = p.tree
        endow = list(self.endow)
        endow[k] = endow[k] + w if k else np.array([float(w)])
        # level k's value first, then the later levels', as one sum over the levels
        wealth = sum(self.later, float(np.dot(t.atom_probs[k][atoms[k]],
                                              spd.M[k].values[atoms[k]] * endow[k])))

        def gap(z: float) -> float:
            return _budget_gap(t, spd, _forward_consumption(p, spd, atoms, history, z, where),
                               endow, atoms)

        z, resid = _budget_root(gap, p.family.inada, wealth)
        return _forward_consumption(p, spd, atoms, history, z, where), resid, z


def _complete_response(p: HabitPreferences, spd: SPDBundle, eps_vals, k: int, node: int,
                       history, w: float) -> tuple:
    """``(c, dc/dw, dc/dhistory[-1], d2c/dw2)`` of ``_CompleteContinuation`` at
    ``node``: one root-find for ``z``, then the budget gap ``g(z, w, h)`` is
    differentiated (Fiacco, 1983).  ``u'_l(chat_l) = u'_k(z) r_l`` (``r_l`` the
    perturbed-deflator ratios) gives ``dchat_l/dz = u''_k(z) r_l / u''_l(chat_l)``
    and ``d2chat_l/dz2 = (u'''_k(z) r_l - u'''_l(chat_l) (dchat_l/dz)^2) / u''_l(chat_l)``,
    which ``habit.solve`` (zero floors and history) carries into consumption
    and ``pi M`` prices into ``g'`` and ``g''``.  So ``dc/dw = dz/dw = pi M / g'``
    at the node and ``d2c/dw2 = -g'' (dz/dw)^2 / g'``; a unit last history
    entry moves consumption at fixed ``z`` (``habit.solve`` of zero inputs),
    and ``z`` by minus the price of that move over ``g'``.
    """
    t, fam = p.tree, p.family
    cont = _CompleteContinuation(p, spd, eps_vals, k, node, history)
    c, _, z = cont.solve(w)
    atoms, where = cont.atoms, cont.where
    zero = [None if al is None else np.zeros(len(al)) for al in atoms]
    r = [None if al is None else spd.Mtilde[l].values[al] / spd.Mtilde[k].values[node]
         for l, al in enumerate(atoms)]
    levels = range(k, t.T + 1)
    chat = [None] * k + [fam.du_inv(l, fam.du(k, z) * r[l]) for l in levels]
    u2 = [None] * k + [fam.d2u(l, chat[l]) for l in levels]
    d1 = [None] * k + [fam.d2u(k, z) * r[l] / u2[l] for l in levels]

    def price(dchat, hist=(0.0,) * k):
        dc = p.habit.solve(dchat, atoms, hist, where)
        return _budget_gap(t, spd, dc, zero, atoms), dc[k][0]

    g1, dh = price(d1)[0], 0.0
    dz = t.atom_probs[k][node] * spd.M[k].values[node] / g1
    if k:
        gh, ch = price(zero, (0.0,) * (k - 1) + (1.0,))
        dh = ch - gh / g1
    d2 = [None] * k + [(fam.d3u(k, z) * r[l] - fam.d3u(l, chat[l]) * d1[l] ** 2) / u2[l]
                       for l in levels]
    d2z = -price(d2)[0] * dz * dz / g1
    return float(c[k][0]), float(dz), float(dh), float(d2z)


def _replicate_portfolio(m: MarketModel, W):
    """Holdings supporting a wealth process; minimum-norm least squares per node.

    The nodes of a level are grouped by child count (``tree.child_blocks``),
    and each group's stacked gain blocks are solved with one batched
    pseudo-inverse.
    """
    t = m.tree
    pi = []
    for k in range(t.T):
        gain = m.gain(k + 1)
        rows = np.zeros((t.n_atoms(k), m.n_risky + 1))
        resid = np.zeros(t.n_atoms(k))
        scale = np.ones(t.n_atoms(k))
        for atoms, children in t.child_blocks[k]:
            G = gain[children]
            target = W[k + 1][children]
            sol = np.einsum("aij,aj->ai", np.linalg.pinv(G), target)
            rows[atoms] = sol
            resid[atoms] = np.max(np.abs(np.einsum("aij,aj->ai", G, sol) - target), axis=1)
            scale[atoms] = np.maximum(1.0, np.max(np.abs(target), axis=1))
        bad = np.flatnonzero(resid > 1e-7 * scale)
        if bad.size:
            a = int(bad[0])
            raise PreconditionViolated(
                f"wealth at level {k + 1} is not attainable from atom {a} "
                f"(replication residual {resid[a]:.3e})"
            )
        pi.append(rows)
    return pi


def _solution_from_consumption(m: MarketModel, p: HabitPreferences, eps_vals, c,
                               spd: SPDBundle, method: str, diag: dict) -> Solution:
    t = m.tree
    W = _deflated_value(t, spd.M, [c[k] - eps_vals[k] for k in range(t.T + 1)])
    Ivals = [eps_vals[k] + W[k] - c[k] for k in range(t.T)] + [np.zeros(t.n_atoms(t.T))]
    return _solution(p, c, W, Ivals, _replicate_portfolio(m, W), method, diag)


class _CompleteGeneral(_CompleteContinuation):
    """``solve_complete_general`` prepared for every time-0 endowment: the
    deflator bundle and the continuation at the root of the tree."""

    def __init__(self, m: MarketModel, p: HabitPreferences, eps):
        cls = classify_market(m)
        if cls.kind != "complete":
            raise PreconditionViolated(f"market classifies as {cls.kind}, not complete")
        spd = spd_bundle(m, p.beta)
        self.m, self.eps_vals = m, _as_level_values(m.tree, eps)
        super().__init__(p, spd, self.eps_vals, 0, 0, ())

    def solution(self) -> Solution:
        """The assembled optimum at the instance's own time-0 endowment."""
        c, resid, _ = self.solve(float(self.eps_vals[0][0]))
        return _solution_from_consumption(
            self.m, self.p, self.eps_vals, c, self.spd, "complete_general",
            {"c0": float(c[0][0]), "budget_gap": float(resid)},
        )


def solve_complete_general(m: MarketModel, p: HabitPreferences, eps) -> Solution:
    """Complete-market solver for any family with an invertible marginal.

    Given time-0 consumption, the first-order conditions pin down every later
    adjusted consumption through the perturbed deflator; the budget gap is
    then strictly increasing in time-0 consumption and a bracketed root-find
    closes the plan.
    """
    return _CompleteGeneral(m, p, eps).solution()


@dataclass
class CompletePowerCoefficients:
    """Closed-form structure of the complete-market power optimum.

    ``theta`` are the habit chain weights (unit diagonal implied); ``d[(i, k)]``
    carries the level-``k`` coefficient through which the time-``i`` adjusted
    consumption block enters ``c_k``; ``f[(i, k)]`` prices the block's tail at
    level ``k``; ``floor_wealth`` and ``endow_wealth`` are the deflated values
    of floors and endowments; ``mpc`` is the implied marginal propensity to
    consume out of wealth at each node.
    """

    c0: float
    exponents: np.ndarray
    theta: np.ndarray
    d: dict
    f: dict
    floor_wealth: list
    endow_wealth: list
    mpc: list
    linear: bool


class _CompletePower:
    """``solve_complete_power`` prepared for every time-0 endowment: the
    deflator bundle, the exponents ``q``, the chain weights ``theta``, the
    blocks ``d`` and their prices ``f``, the floors' wealth and the deflated
    value of the endowments after time 0."""

    def __init__(self, m: MarketModel, p: HabitPreferences, eps):
        t = m.tree
        T = t.T
        fam = p.family
        if not isinstance(fam, PowerUtility):
            raise PreconditionViolated("this path requires a power or log family")
        cls = classify_market(m)
        if cls.kind != "complete":
            raise PreconditionViolated(f"market classifies as {cls.kind}, not complete")
        self.m, self.p = m, p
        self.spd = spd = spd_bundle(m, p.beta)
        self.eps_vals = eps_vals = _as_level_values(t, eps)

        self.gam = gam = np.array([fam.gamma_at(k) for k in range(T + 1)])
        self.q = gam[0] / gam
        self.theta = theta = theta_table(p.beta)
        theta_ext = theta + np.eye(T + 1)
        Mt0 = float(spd.Mtilde[0].values[0])

        # e_i: level-i block values with chat_i = e_i * c0 ** q_i
        e = [np.exp(-fam.rho * i / gam[i]) * np.power(spd.Mtilde[i].values / Mt0, -1.0 / gam[i])
             for i in range(T + 1)]

        self.d = d = {(i, k): theta_ext[k, i] * e[i][t.ancestor(k, i)]
                      for k in range(T + 1) for i in range(k + 1) if theta_ext[k, i] != 0.0}

        # f[(i, k)] = sum over j >= max(i, k) of E[(M_j / M_k) d[(i, j)] | level k]
        zeros = [np.zeros(t.n_atoms(k)) for k in range(T + 1)]
        self.f = f = {}
        for i in range(T + 1):
            tail = _deflated_value(t, spd.M, [d.get((i, k), zeros[k]) for k in range(T + 1)])
            f.update(((i, k), v) for k, v in enumerate(tail))

        # per level, the floors that the habit chain carries into it
        self.floor_terms = [[theta_ext[k, i] * p.h[i][t.ancestor(k, i)]
                             for i in range(k + 1) if theta_ext[k, i] != 0.0]
                            for k in range(T + 1)]
        self.floor_wealth = _deflated_value(t, spd.M, [self._plus_floors(zeros[k].copy(), k)
                                                       for k in range(T + 1)])
        self.f0 = np.array([f[(i, 0)][0] for i in range(T + 1)])
        self.h0 = float(self.floor_wealth[0][0])
        # M_0 = 1, so the endowments' wealth at the root is e0 plus this, bit for bit
        self.later = float(_deflated_value(t, spd.M, [np.zeros(1), *eps_vals[1:]])[0][0])

    def _plus_floors(self, vals, k: int):
        """``vals`` plus the floors that the habit chain carries into level ``k``."""
        for term in self.floor_terms[k]:
            vals += term
        return vals

    def solve(self, e0: float) -> tuple:
        """Consumption per level, time-0 consumption before floors and the
        budget gap left by the root-find, for the time-0 endowment ``e0``."""
        t, d, q, f0, h0 = self.m.tree, self.d, self.q, self.f0, self.h0
        wealth = float(e0 + self.later)

        def gap(c0):
            return float(np.dot(f0, np.power(c0, q))) + h0 - wealth

        c0, resid = _budget_root(gap, self.p.family.inada, wealth)
        powers = [c0 ** qi for qi in q]
        c = []
        for k in range(t.T + 1):
            vals = np.zeros(t.n_atoms(k))
            for i in range(k + 1):
                if (i, k) in d:
                    vals += d[(i, k)] * powers[i]
            c.append(self._plus_floors(vals, k))
        return c, c0, resid

    def solution(self) -> Solution:
        """The assembled optimum at the instance's own time-0 endowment."""
        c, c0, resid = self.solve(self.eps_vals[0][0])
        return _solution_from_consumption(
            self.m, self.p, self.eps_vals, c, self.spd, "complete_power",
            {"c0": float(c0), "budget_gap": float(resid)},
        )


def solve_complete_power(m: MarketModel, p: HabitPreferences, eps):
    """Complete-market solver specialized to power families.

    Returns the solution together with the coefficient bundle expressing
    consumption and wealth as explicit power functions of time-0 consumption,
    from which nodewise marginal propensities to consume are read off.
    """
    form = _CompletePower(m, p, eps)
    sol = form.solution()
    t, q, d, f = m.tree, form.q, form.d, form.f
    T = t.T
    c0 = sol.diagnostics["c0"]
    mpc = []
    for k in range(T + 1):
        num = np.zeros(t.n_atoms(k))
        den = np.zeros(t.n_atoms(k))
        for i in range(T + 1):
            wgt = q[i] * c0 ** (q[i] - 1.0)
            if i <= k and (i, k) in d:
                num += d[(i, k)] * wgt
            den += f[(i, k)] * wgt
        mpc.append(num / den)

    coeffs = CompletePowerCoefficients(
        c0=c0, exponents=q, theta=form.theta, d=d, f=f, floor_wealth=form.floor_wealth,
        endow_wealth=_deflated_value(t, form.spd.M, form.eps_vals), mpc=mpc,
        linear=bool(np.all(form.gam == form.gam[0])),
    )
    return sol, coeffs


# ---------------------------------------------------------------------------
# scaling solver: power utility, no future endowments
# ---------------------------------------------------------------------------

def solve_power_no_endowment(m: MarketModel, p: HabitPreferences, eps0: float):
    """Power-utility solver exploiting degree-one homogeneity in ``eps0``.

    Requires a uniform power family, no exogenous floors, and no endowments
    after time 0.  Returns the solution and the nodewise consumed fraction of
    wealth, which is invariant to the size of the initial endowment.
    """
    t = m.tree
    fam = p.family
    if not isinstance(fam, PowerUtility):
        raise PreconditionViolated("scaling requires a power or log family")
    if fam.gamma.size > 1 and np.ptp(fam.gamma) > 0:
        raise PreconditionViolated("scaling requires one shared risk aversion")
    if any(np.any(hk != 0) for hk in p.h):
        raise PreconditionViolated("scaling requires zero exogenous floors")
    if eps0 <= 0:
        raise PreconditionViolated("initial endowment must be positive")
    eps = [np.zeros(t.n_atoms(k)) for k in range(t.T + 1)]
    eps[0][0] = eps0
    sol = solve_general(m, p, eps)
    A = [np.array([sol.c.values(0)[0] / eps0])]
    for k in range(1, t.T + 1):
        A.append(sol.c.values(k) / sol.W.values(k))
    sol.diagnostics["method"] = "power_no_endowment"
    return sol, AdaptedProcess(t, A)


# ---------------------------------------------------------------------------
# exponential utility, bond-only market
# ---------------------------------------------------------------------------

@dataclass
class ExponentialCoefficients:
    """Backward coefficients of the bond-only exponential optimum.

    ``x[k]`` links successive marginal utilities; consumption obeys
    ``c_k = l[k] W_k + mm[k] c_{k-1} + n_k`` with ``n`` adapted.
    """

    x: np.ndarray
    l: np.ndarray
    mm: np.ndarray
    n: list


class _ExponentialBonds:
    """``solve_exponential_bonds`` prepared for every time-0 endowment: the
    coefficients ``X``, ``l``, ``mm`` and ``n[1:]``, which do not depend on
    it.  Only ``n[0]`` and the forward recursion do (``solve``)."""

    def __init__(self, m: MarketModel, p: HabitPreferences, eps):
        t = m.tree
        T = t.T
        fam = p.family
        if not isinstance(fam, ExponentialUtility):
            raise PreconditionViolated("this path requires the exponential family")
        if m.n_risky != 0:
            raise PreconditionViolated("this path requires a bond-only market")
        if not deterministic_interest(m):
            raise PreconditionViolated("this path requires deterministic interest rates")
        if np.any(np.tril(p.beta, -2) != 0):
            raise PreconditionViolated("this path requires a one-lag habit")
        lags = np.diagonal(p.beta, -1)
        if np.ptp(lags) > 0:
            raise PreconditionViolated("this path requires one shared habit weight")
        b = float(lags[0])
        self.m, self.p = m, p
        self.rate = rate = np.array([float(m.r[k][0]) for k in range(1, T + 1)])

        self.X = X = np.zeros(T + 1)
        X[T] = b + 1.0 + rate[T - 1]
        for k in range(T - 1, 0, -1):
            X[k] = b + (1.0 + rate[k - 1]) * (1.0 - b / X[k + 1])
            if X[k] <= 0:
                raise PreconditionViolated(
                    f"habit weight too strong for these rates (X_{k} = {X[k]:g})"
                )

        self.eps_vals = eps_vals = _as_level_values(t, eps)
        self.l, self.mm, self.delta = l, mm, delta = np.zeros(T + 1), np.zeros(T + 1), np.zeros(T)
        self.n, self.log_mgf = n, log_mgf = [None] * (T + 1), [None] * T
        l[T], mm[T] = 1.0, 0.0
        n[T] = eps_vals[T].copy()
        for k in range(T - 1, -1, -1):
            gross = 1.0 + rate[k]
            delta[k] = 1.0 + b - mm[k + 1] + l[k + 1] * gross
            l[k] = l[k + 1] * gross / delta[k]
            mm[k] = b / delta[k]
            inner_arg = np.exp(-fam.gamma * (n[k + 1] - p.h[k + 1]))
            log_mgf[k] = np.log(_condexp(t, inner_arg, k + 1, k))
            if k:
                n[k] = self.n_at(k, eps_vals[k])
        if np.any(l[:T] >= 1.0):
            warnings.warn("a pre-horizon wealth slope reached 1", WrongUtilityFamily)

    def n_at(self, k: int, eps_k):
        """``n_k`` for the time-``k`` endowment ``eps_k`` (``k < T``)."""
        fam = self.p.family
        return (self.l[k + 1] * (1.0 + self.rate[k]) * eps_k + self.p.h[k]
                + (fam.rho - np.log(self.X[k + 1]) - self.log_mgf[k]) / fam.gamma) / self.delta[k]

    def solve(self, e0: float) -> tuple:
        """Consumption and wealth per level for the time-0 endowment ``e0``."""
        t, l, mm, n, rate = self.m.tree, self.l, self.mm, self.n, self.rate
        endow = [np.full(1, float(e0)), *self.eps_vals[1:]]
        c = [np.array([self.n_at(0, endow[0])[0]])]
        W = [np.zeros(1)]
        for k in range(1, t.T + 1):
            carry = (W[k - 1] + endow[k - 1] - c[k - 1]) * (1.0 + rate[k - 1])
            Wk = carry[t.parent[k]]
            ck = l[k] * Wk + mm[k] * c[k - 1][t.parent[k]] + n[k]
            W.append(Wk)
            c.append(ck)
        return c, W

    def solution(self) -> Solution:
        """The assembled optimum at the instance's own time-0 endowment."""
        t, eps_vals = self.m.tree, self.eps_vals
        T = t.T
        c, W = self.solve(eps_vals[0][0])
        Ivals = [eps_vals[k] + W[k] - c[k] for k in range(T + 1)]
        Ivals[T] = np.zeros(t.n_atoms(T))
        pi = [Ivals[k].reshape(-1, 1).copy() for k in range(T)]
        return _solution(self.p, c, W, Ivals, pi, "exponential_bonds", {})


def solve_exponential_bonds(m: MarketModel, p: HabitPreferences, eps):
    """Closed-form solver for exponential utility in a bond-only market.

    Requires deterministic rates and a one-lag habit.  Consumption is affine
    in wealth and lagged consumption with deterministic slopes; the slopes lie
    in (0, 1], hitting 1 only at the horizon.
    """
    form = _ExponentialBonds(m, p, eps)
    sol = form.solution()
    n = [form.n_at(0, form.eps_vals[0]), *form.n[1:]]
    return sol, ExponentialCoefficients(x=form.X, l=form.l, mm=form.mm,
                                        n=[RandomVariable(m.tree, k, v) for k, v in enumerate(n)])


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def has_inverse_marginal(family) -> bool:
    """Whether the family exposes a usable inverse of the marginal utility."""
    if getattr(family, "name", "") == "custom":
        return family._du_inv is not None
    return hasattr(family, "du_inv")


def _closed_form(m: MarketModel, p: HabitPreferences, eps, method: str):
    """The closed form that ``solve_auto`` takes under ``method`` (``auto`` or
    ``closed``), prepared for every time-0 endowment, or None where ``auto``
    falls back to Newton; under ``closed``, an instance that no form covers
    raises PreconditionViolated."""
    if classify_market(m).kind == "complete":
        if isinstance(p.family, PowerUtility):
            return _CompletePower(m, p, eps)
        if has_inverse_marginal(p.family):
            return _CompleteGeneral(m, p, eps)
    if (m.n_risky == 0 and isinstance(p.family, ExponentialUtility)
            and deterministic_interest(m)):
        try:
            return _ExponentialBonds(m, p, eps)
        except PreconditionViolated:
            if method == "closed":
                raise
    if method == "closed":
        raise PreconditionViolated("no closed-form path covers this instance")
    return None


def solve_auto(m: MarketModel, p: HabitPreferences, eps, method: str = "auto") -> Solution:
    """Route an instance to the most specialized applicable solver.

    ``method`` forces a path: ``newton``, ``oracle``, or ``closed`` (one of
    the structure-exploiting solvers; raises PreconditionViolated when none
    fits).  ``auto`` tries closed forms first and falls back to Newton.
    """
    if method == "newton":
        return solve_general(m, p, eps)
    if method == "oracle":
        return solve_primal_oracle(m, p, eps)
    if method in ("auto", "closed"):
        form = _closed_form(m, p, eps, method)
        return solve_general(m, p, eps) if form is None else form.solution()
    raise ValueError(f"unknown method {method!r}")
