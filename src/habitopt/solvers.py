"""Solvers for habit utility maximization over self-financing plans.

The general path parametrizes a plan by its portfolio holdings, which makes
consumption affine in the decision variables and the objective globally
concave; a damped Newton ascent then converges to machine precision and its
gradient doubles as a pricing-residual certificate.  Specialized paths cover
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
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import brentq, linprog, minimize
from scipy.sparse import coo_array

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
    _deflated_value,
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
    # node responses at this plan, per instance, method and level (analysis._responses)
    _responses: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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

    Rows are ordered by level, then by atom.  ``J = L A`` is built from its
    known row pattern (``_jacobian_blocks``), which also gives the Newton
    Hessian by scattering each row's outer product (``hessian``).
    ``u_rows`` and ``du_d2u_rows``
    are the family's whole-plan evaluation over those rows
    (``family.on_rows``), built once per plan and shared by ``at``, so each
    evaluation point costs one vectorized ``u`` or one ``(u', u'')`` pair;
    ``utility`` still sums one level at a time.
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
            w = float(eps_vals[0][0])

        self.m, self.p, self.t = m, p, t
        self.k0, self.node, self.w = k0, node, float(w)
        self.history = tuple(float(v) for v in history)
        self.eps_vals = eps_vals

        atoms = _subtree_atoms(t, k0, node)
        self.atoms = atoms

        nA = m.n_risky + 1
        self.nA = nA
        sizes = [len(atoms[l]) for l in range(k0, T + 1)]
        c_off = dict(zip(range(k0, T + 1), np.cumsum([0, *sizes]).tolist()))
        x_off = {l: nA * c_off[l] for l in range(k0, T)}
        nc, nx = sum(sizes), nA * c_off[T]
        self.n_x, self.n_c = nx, nc
        self.x_off, self.c_off = x_off, c_off

        # A holds, per row, the gains on the parent's holdings and minus the
        # prices of the row's own holdings; the habit operator's lags give L
        # (chat = L c - hconst) with pre-k0 history folded in through
        # hconst = floors + hist_coef @ history
        habit = p.habit
        A, L, hist_coef = np.zeros((nc, nx)), np.eye(nc), np.zeros((nc, k0))
        b0, wts, floors = np.zeros(nc), np.zeros(nc), np.zeros(nc)
        cols = np.arange(nA)
        w_start, w_gain = [np.zeros(0, dtype=int)], [np.zeros((1, nA))]
        prices = []
        for l in range(k0, T + 1):
            al = atoms[l]
            rows = c_off[l] + np.arange(len(al))
            wts[rows] = t.atom_probs[l][al]
            floors[rows] = p.h[l][al]
            if l == k0:
                b0[rows] = self.w if k0 == 0 else eps_vals[l][al] + self.w
            else:
                b0[rows] = eps_vals[l][al]
                start = x_off[l - 1] + nA * habit.positions(atoms, l, l - 1)
                w_start.append(start)
                w_gain.append(m.gain(l)[al])
                A[rows[:, None], start[:, None] + cols] = w_gain[-1]
            if l < T:
                prices.append(m.S[l][al])
                A[rows[:, None], (x_off[l] + nA * np.arange(len(al)))[:, None] + cols] = \
                    -prices[-1]
            for lev, b in habit.lags[l]:
                if lev >= k0:
                    L[rows, c_off[lev] + habit.positions(atoms, l, lev)] = -b
                else:
                    hist_coef[rows, lev] = b
        self.A, self.b0, self.wts = A, b0, wts
        self.w_index = np.concatenate(w_start)[:, None] + cols
        gains = np.concatenate(w_gain)          # row 0, the plan's root, has no parent
        self.w_gain = gains[1:]
        self.level_wts = [(slice(c_off[l], c_off[l] + len(atoms[l])),
                           wts[c_off[l]:c_off[l] + len(atoms[l])]) for l in range(k0, T + 1)]
        self.row_level = row_level = np.repeat(np.arange(k0, T + 1), sizes)
        self.u_rows, self.du_d2u_rows = p.family.on_rows(row_level)
        self.inada = p.family.inada
        self.L, self.floors, self.hist_coef = L, floors, hist_coef

        # J from its row pattern, and per row the outer product J_r J_r^T on
        # its stored columns, with each entry's row and flat index into H; a
        # plan at a terminal node holds nothing
        self.J = np.zeros((nc, nx))
        self._h_scatter = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0))
        if nx:
            jcols, jvals, keep = _jacobian_blocks(
                p.beta, k0, row_level, np.concatenate([[0], self.w_index[:, 0] // nA]),
                np.concatenate([*prices, np.zeros((sizes[-1], nA))]), gains)
            r, i = np.nonzero(keep)
            self.J[r, jcols[r, i]] = jvals[r, i]
            r, i, j = np.nonzero(keep[:, :, None] & keep[:, None, :])
            self._h_scatter = (r, jcols[r, i] * nx + jcols[r, j], jvals[r, i] * jvals[r, j])
        self._shift()

    def _shift(self) -> None:
        """Set the wealth- and history-dependent terms ``hconst`` and ``Lb``."""
        self.hconst = self.floors + self.hist_coef @ np.asarray(self.history)
        self.Lb = self.L @ self.b0 - self.hconst

    def at(self, w: float, history) -> "_SubtreePlan":
        """The same subtree entered with wealth ``w`` after ``history``.

        Shares ``A``, ``L``, ``J``, the atoms and the weights with ``self``;
        only ``b0``, ``hconst`` and ``Lb`` are recomputed.
        """
        if len(history) != self.k0:
            raise PreconditionViolated(
                f"history must list consumption for levels 0..{self.k0 - 1}"
            )
        plan = copy.copy(self)
        plan.w = float(w)
        plan.history = tuple(float(v) for v in history)
        plan.b0 = self.b0.copy()
        plan.b0[0] = plan.w if self.k0 == 0 else self.eps_vals[self.k0][self.node] + plan.w
        plan._shift()
        return plan

    # -- evaluation ---------------------------------------------------------

    def consumption(self, x: np.ndarray) -> np.ndarray:
        return self.A @ x + self.b0

    def entering_wealth(self, x: np.ndarray) -> np.ndarray:
        """Wealth brought into each row below level ``k0``: parent holdings times gains."""
        return _row_dots(x[self.w_index], self.w_gain)

    def chat(self, x: np.ndarray) -> np.ndarray:
        return self.J @ x + self.Lb

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

    def hessian(self, hw: np.ndarray) -> np.ndarray:
        """``J^T diag(hw) J``, summed row by row over each row's nonzero columns."""
        row, index, outer = self._h_scatter
        return np.bincount(index, weights=hw[row] * outer,
                           minlength=self.n_x * self.n_x).reshape(self.n_x, self.n_x)

    def grad_hess_weights(self, x: np.ndarray):
        """Per-row first and (negated) second felicity weights at ``x``."""
        ch = self.chat(x)
        if not self.feasible(ch):
            raise DomainViolation("plan left the utility domain during differentiation")
        du, d2u = self.du_d2u_rows(ch)
        return self.wts * du, -self.wts * d2u


def _jacobian_blocks(beta: np.ndarray, k0: int, row_level, parent_row, prices, gains):
    """The blocks of ``J = L A``, one per row and ancestor depth.

    The holdings of row ``q`` (a row above level ``T``) are the columns
    ``nA q .. nA q + nA - 1``.  Row ``r`` of ``A`` holds minus its prices
    ``S_r`` on its own holdings and its gains ``g_r`` on its parent's, and
    ``L`` subtracts ``beta[l, j]`` times the row of its level-``j`` ancestor.
    On the holdings of its level-``j`` ancestor ``q_j`` (``k0 <= j < T``), row
    ``r`` at level ``l`` therefore holds

        [j = l] (-S_r) + [j = l - 1] g_r + beta[l, j] S_{q_j} - beta[l, j + 1] g_{q_{j+1}},

    which vanishes unless ``j >= l - 1`` or one of the weights is nonzero.
    ``parent_row`` maps the plan's root row to itself; ``prices`` is zero on
    level ``T`` and ``gains`` on the root row.  Returns, per row and depth
    ``l - j`` in ``0..D``, the columns and values of the block, flattened to
    ``(nc, (D + 1) nA)``, and whether the block exists.
    """
    T = len(beta) - 1
    nc, nA = prices.shape
    width = max([1, *(l - j + 1 for l in range(T + 1) for j in range(l) if beta[l, j])]) + 1
    anc = np.empty((nc, width), dtype=int)          # ancestor row at each depth
    anc[:, 0] = np.arange(nc)
    for d in range(1, width):
        anc[:, d] = parent_row[anc[:, d - 1]]
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


def _interior_start(plan: _SubtreePlan) -> np.ndarray:
    """Strictly admissible starting point via a max-margin linear program."""
    if not plan.p.family.inada:
        return np.zeros(plan.n_x)
    if plan.n_x == 0:
        ch = plan.Lb
        if np.any(ch <= 0):
            raise Infeasible("no admissible plan: adjusted consumption is forced non-positive")
        return np.zeros(0)
    nx, nc = plan.n_x, plan.n_c
    rows, cols = np.nonzero(plan.J)
    A_ub = coo_array((np.concatenate([-plan.J[rows, cols], np.ones(nc)]),
                      (np.concatenate([rows, np.arange(nc)]),
                       np.concatenate([cols, np.full(nc, nx)]))), shape=(nc, nx + 1))
    b_ub = plan.Lb
    cvec = np.zeros(nx + 1)
    cvec[-1] = -1.0
    bounds = [(-1e7, 1e7)] * nx + [(None, 1e6)]
    res = linprog(cvec, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success or res.x[-1] <= 0:
        raise Infeasible(
            "no strictly admissible plan exists for these endowments and habits"
        )
    return res.x[:-1]


def _start(plan: _SubtreePlan, x0) -> tuple:
    """``(x, utility at x)``: ``x0`` when strictly admissible, else the LP start."""
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
    return plan.J.T @ gw, hw


def _ridged_cholesky(H: np.ndarray):
    """Cholesky factor of ``H + ridge I`` with the first ridge that factors, and the ridge.

    The ridges tried are 0, then ``1e-12 max(1, max|H|)`` growing tenfold; the
    factor is None once the ridge passes ``1e40``.
    """
    ridge = 0.0
    while True:
        try:
            return cho_factor(H + (ridge * np.eye(len(H)) if ridge else 0.0), lower=True,
                              check_finite=False), ridge
        except LinAlgError:
            ridge = max(ridge * 10.0, 1e-12 * max(1.0, float(np.max(np.abs(H)))))
            if ridge > 1e40:
                return None, ridge


_MAX_ITER = 300


def _newton_maximize(plan: _SubtreePlan, x0, gtol: float):
    """Damped Newton ascent of the concave plan utility from ``_start(plan, x0)``.

    Returns the maximizer, the utility there and the iteration diagnostics.
    Each point is evaluated once and differentiated at most once.
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
        cf, ridge = _ridged_cholesky(plan.hessian(hw))
        if cf is None:
            raise NonConvergence("curvature matrix is irreparably singular",
                                 diagnostics=dict(info))
        step = cho_solve(cf, g, check_finite=False)
        info["ridge"] = max(info["ridge"], ridge)
        gs = float(np.dot(g, step))
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
        tstep, cand = 1.0, f_full
        while not cand >= fx + 1e-4 * tstep * gs:
            tstep *= 0.5
            if tstep < 1e-15:
                if gn <= 100 * gtol:
                    return x, fx, info
                raise NonConvergence(
                    f"line search stalled with gradient norm {gn:.3e}",
                    best=x, diagnostics=dict(info),
                )
            cand = plan.utility(x + tstep * step)
        x, fx = x + tstep * step, cand
        g, hw = full if tstep == 1.0 else _derivatives(plan, x)
    gn = float(np.abs(g).max())
    if gn <= 100 * gtol:
        info["grad_norm"] = gn
        return x, fx, info
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
    c = np.split(plan.consumption(x), [plan.c_off[l] for l in range(1, T + 1)])
    pi = [xl.reshape(-1, plan.nA) for xl in np.split(x, [plan.x_off[l] for l in range(1, T)])]
    W = [np.zeros(1), *np.split(plan.entering_wealth(x),
                                [plan.c_off[l] - 1 for l in range(2, T + 1)])]
    I = [_row_dots(pi[l], m.S[l]) for l in range(T)] + [np.zeros(t.n_atoms(T))]
    return _solution(p, c, W, I, pi, method, info)


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

    Works on any no-arbitrage market and any concave family.  The returned
    gradient norm bounds the probability-weighted pricing residuals of the
    habit-adjusted marginal deflator, which is the optimality certificate.
    ``x0`` warm-starts Newton as in ``solve_subproblem``.
    """
    plan = _SubtreePlan(m, p, _as_level_values(m.tree, eps))
    x, _, info = _newton_maximize(plan, x0, gtol)
    return _assemble_solution(plan, x, "newton", info)


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
    strictly admissible (its utility is not finite), the max-margin LP start
    is used instead.  Stopping rules and errors are the same either way.
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


def _plan_response(plan: _SubtreePlan, x0, gtol: float) -> tuple:
    """``(x, dx/dw, (c, dc/dw, dc/dhistory[-1], d2c/dw2))`` at the optimum of ``plan``.

    Newton solves from ``x0``; then the optimality condition
    ``J^T (wts u'(J x + Lb)) = 0`` is differentiated (Fiacco, 1983).  With
    ``hw`` the curvature weights, ``H dx = -J^T (hw * dLb)``, where ``Lb``
    moves by ``L[:, 0]`` per unit of entering wealth and by
    ``-hist_coef[:, -1]`` per unit of the last history entry (not at all at
    the root).  Once more in wealth, with ``s = J dx + L[:, 0]``,
    ``H d2x = J^T (wts u''' s^2)``.  The solves share one factor of ``H``;
    ``c`` moves by ``A[0] @ dx`` plus one and curves by ``A[0] @ d2x`` (None
    for a family without ``d3u``).  The plan must hold something (``k0 < T``).
    """
    x, _, info = _newton_maximize(plan, x0, gtol)
    c = float(plan.consumption(x)[0])
    _, hw = plan.grad_hess_weights(x)
    cf, ridge = _ridged_cholesky(plan.hessian(hw))
    if cf is None:
        raise NonConvergence("curvature matrix is irreparably singular at the optimum",
                             best=x, diagnostics=dict(info, ridge=ridge))
    dhist = -plan.hist_coef[:, -1] if plan.k0 else np.zeros(plan.n_c)
    dlb = np.column_stack([plan.L[:, 0], dhist])
    dx = cho_solve(cf, -(plan.J.T @ (hw[:, None] * dlb)), check_finite=False)
    dc, d2c, fam = plan.A[0] @ dx, None, plan.p.family
    if hasattr(fam, "d3u"):
        s = plan.J @ dx[:, 0] + plan.L[:, 0]
        u3 = _per_level(fam.d3u, plan.row_level)(plan.chat(x))
        d2c = float(plan.A[0] @ cho_solve(cf, plan.J.T @ (plan.wts * u3 * s * s),
                                          check_finite=False))
    return x, dx[:, 0], (c, float(dc[0]) + 1.0, float(dc[1]), d2c)


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
    improves, and the best start wins.  Independent of the Newton path;
    refuses instances with more than six portfolio variables.
    """
    plan = _SubtreePlan(m, p, _as_level_values(m.tree, eps))
    if plan.n_x > _ORACLE_MAX_DIM:
        raise InstanceTooLarge(
            f"oracle handles at most {_ORACLE_MAX_DIM} portfolio variables, got {plan.n_x}"
        )
    base = _interior_start(plan)
    _, sv, vt = np.linalg.svd(np.sqrt(plan.wts)[:, None] * plan.A, full_matrices=False)
    keep = sv > 1e-12 * sv[0]
    V = vt[keep].T / sv[keep]

    best_x, best_f = base, -np.inf
    for seed in _ORACLE_SEEDS:
        x_start = base + 0.05 * np.random.default_rng(seed).standard_normal(plan.n_x)
        if not np.isfinite(plan.utility(x_start)):
            x_start = base

        def fneg(y, x_start=x_start):
            val = plan.utility(x_start + V @ y)
            return -val if np.isfinite(val) else 1e300

        y, fy = np.zeros(V.shape[1]), plan.utility(x_start)
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
                         z: float) -> list:
    """Consumption on a subtree from the adjusted consumption ``z`` at its root.

    The first-order conditions tie every later adjusted consumption to ``z``
    through perturbed-deflator ratios; the habits then unroll it into
    consumption, with ``history`` giving consumption above the subtree's root
    at level ``len(history)``.  Values per level are aligned with ``atoms``.
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
    return p.habit.solve(y, atoms, history)


def _budget_gap(t, spd: SPDBundle, c, endow, atoms) -> float:
    """Deflated cost of a subtree plan net of the subtree's endowments."""
    gap = 0.0
    for l, al in enumerate(atoms):
        if al is not None:
            gap += float(np.dot(t.atom_probs[l][al], spd.M[l].values[al] * (c[l] - endow[l])))
    return gap


def _budget_root(gap, inada: bool, wealth: float) -> tuple:
    """Root of a strictly increasing budget gap, and the gap left there.

    Families with an Inada condition bracket from just above zero; the others
    double a symmetric bracket of the size of ``wealth``.  Raises Infeasible
    when even vanishing consumption overspends, and NonConvergence when the
    gap at the root exceeds ``1e-12`` relative to ``wealth``.
    """
    hi = max(1.0, abs(wealth))
    if inada:
        lo = 1e-12
        while gap(lo) > 0:
            if lo < 1e-250:
                raise Infeasible("exogenous floors already exhaust the available wealth")
            lo *= 1e-4
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
    root = brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    resid = gap(root)
    if abs(resid) > 1e-12 * max(1.0, abs(wealth)):
        raise NonConvergence(
            f"budget gap {resid:.3e} above tolerance after root-find", best=root
        )
    return root, resid


def _complete_continuation(p: HabitPreferences, spd: SPDBundle, eps_vals, k: int,
                           node: int, history, w: float):
    """Optimal complete-market consumption below ``node`` at level ``k``.

    ``history`` is consumption on the node's strict ancestors.  As in
    ``_SubtreePlan``, the entering wealth ``w`` replaces the endowment at the
    root of the full tree and adds to it at any other node.  Returns the
    consumption per level, aligned with the subtree's atoms (``None`` above
    ``k``), the budget gap left by the root-find, and the root's adjusted
    consumption.
    """
    t = p.tree
    atoms = _subtree_atoms(t, k, node)
    endow = [None if al is None else eps_vals[l][al] for l, al in enumerate(atoms)]
    endow[k] = endow[k] + w if k else np.array([float(w)])
    wealth = sum(float(np.dot(t.atom_probs[l][al], spd.M[l].values[al] * endow[l]))
                 for l, al in enumerate(atoms) if al is not None)

    def gap(z: float) -> float:
        return _budget_gap(t, spd, _forward_consumption(p, spd, atoms, history, z),
                           endow, atoms)

    z, resid = _budget_root(gap, p.family.inada, wealth)
    return _forward_consumption(p, spd, atoms, history, z), resid, z


def _complete_response(p: HabitPreferences, spd: SPDBundle, eps_vals, k: int, node: int,
                       history, w: float) -> tuple:
    """``(c, dc/dw, dc/dhistory[-1], d2c/dw2)`` of ``_complete_continuation`` at
    ``node``: one root-find for ``z``, then the budget gap ``g(z, w, h)`` is
    differentiated (Fiacco, 1983).  ``u'_l(chat_l) = u'_k(z) r_l`` (``r_l`` the
    perturbed-deflator ratios) gives ``dchat_l/dz = u''_k(z) r_l / u''_l(chat_l)``
    and ``d2chat_l/dz2 = (u'''_k(z) r_l - u'''_l(chat_l) (dchat_l/dz)^2) / u''_l(chat_l)``,
    which ``habit.solve`` (zero floors and history) carries into consumption
    and ``pi M`` prices into ``g'`` and ``g''``.  So ``dc/dw = dz/dw = pi M / g'``
    at the node and ``d2c/dw2 = -g'' (dz/dw)^2 / g'`` (None without ``d3u``);
    a unit last history entry moves consumption at fixed ``z`` (``habit.solve``
    of zero inputs), and ``z`` by minus the price of that move over ``g'``.
    """
    t, fam = p.tree, p.family
    c, _, z = _complete_continuation(p, spd, eps_vals, k, node, history, w)
    atoms = _subtree_atoms(t, k, node)
    zero = [None if al is None else np.zeros(len(al)) for al in atoms]
    r = [None if al is None else spd.Mtilde[l].values[al] / spd.Mtilde[k].values[node]
         for l, al in enumerate(atoms)]
    levels = range(k, t.T + 1)
    chat = [None] * k + [fam.du_inv(l, fam.du(k, z) * r[l]) for l in levels]
    u2 = [None] * k + [fam.d2u(l, chat[l]) for l in levels]
    d1 = [None] * k + [fam.d2u(k, z) * r[l] / u2[l] for l in levels]

    def price(dchat, hist=(0.0,) * k):
        dc = p.habit.solve(dchat, atoms, hist)
        return _budget_gap(t, spd, dc, zero, atoms), dc[k][0]

    g1, dh, d2z = price(d1)[0], 0.0, None
    dz = t.atom_probs[k][node] * spd.M[k].values[node] / g1
    if k:
        gh, ch = price(zero, (0.0,) * (k - 1) + (1.0,))
        dh = ch - gh / g1
    if hasattr(fam, "d3u"):
        d2 = [None] * k + [(fam.d3u(k, z) * r[l] - fam.d3u(l, chat[l]) * d1[l] ** 2) / u2[l]
                           for l in levels]
        d2z = float(-price(d2)[0] * dz * dz / g1)
    return float(c[k][0]), float(dz), float(dh), d2z


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


def solve_complete_general(m: MarketModel, p: HabitPreferences, eps,
                           spd: SPDBundle | None = None) -> Solution:
    """Complete-market solver for any family with an invertible marginal.

    Given time-0 consumption, the first-order conditions pin down every later
    adjusted consumption through the perturbed deflator; the budget gap is
    then strictly increasing in time-0 consumption and a bracketed root-find
    closes the plan.
    """
    t = m.tree
    cls = classify_market(m)
    if cls.kind != "complete":
        raise PreconditionViolated(f"market classifies as {cls.kind}, not complete")
    if spd is None:
        spd = spd_bundle(m, p.beta)
    eps_vals = _as_level_values(t, eps)
    c, resid, _ = _complete_continuation(p, spd, eps_vals, 0, 0, (), float(eps_vals[0][0]))
    return _solution_from_consumption(
        m, p, eps_vals, c, spd, "complete_general",
        {"c0": float(c[0][0]), "budget_gap": float(resid)},
    )


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


def solve_complete_power(m: MarketModel, p: HabitPreferences, eps):
    """Complete-market solver specialized to power families.

    Returns the solution together with the coefficient bundle expressing
    consumption and wealth as explicit power functions of time-0 consumption,
    from which nodewise marginal propensities to consume are read off.
    """
    t = m.tree
    T = t.T
    fam = p.family
    if not isinstance(fam, PowerUtility):
        raise PreconditionViolated("this path requires a power or log family")
    cls = classify_market(m)
    if cls.kind != "complete":
        raise PreconditionViolated(f"market classifies as {cls.kind}, not complete")
    spd = spd_bundle(m, p.beta)
    eps_vals = _as_level_values(t, eps)

    gam = np.array([fam.gamma_at(k) for k in range(T + 1)])
    q = gam[0] / gam
    theta = theta_table(p.beta)
    theta_ext = theta + np.eye(T + 1)
    Mt0 = float(spd.Mtilde[0].values[0])

    # e_i: level-i block values with chat_i = e_i * c0 ** q_i
    e = [np.exp(-fam.rho * i / gam[i]) * np.power(spd.Mtilde[i].values / Mt0, -1.0 / gam[i])
         for i in range(T + 1)]

    d = {(i, k): theta_ext[k, i] * e[i][t.ancestor(k, i)]
         for k in range(T + 1) for i in range(k + 1) if theta_ext[k, i] != 0.0}

    # f[(i, k)] = sum over j >= max(i, k) of E[(M_j / M_k) d[(i, j)] | level k]
    zeros = [np.zeros(t.n_atoms(k)) for k in range(T + 1)]
    f = {}
    for i in range(T + 1):
        tail = _deflated_value(t, spd.M, [d.get((i, k), zeros[k]) for k in range(T + 1)])
        f.update(((i, k), v) for k, v in enumerate(tail))

    def plus_floors(vals, k):
        """``vals`` plus the floors that the habit chain carries into level ``k``."""
        for i in range(k + 1):
            if theta_ext[k, i] != 0.0:
                vals += theta_ext[k, i] * p.h[i][t.ancestor(k, i)]
        return vals

    floor_wealth = _deflated_value(t, spd.M, [plus_floors(np.zeros(t.n_atoms(k)), k)
                                              for k in range(T + 1)])
    endow_wealth = _deflated_value(t, spd.M, eps_vals)

    f0 = np.array([f[(i, 0)][0] for i in range(T + 1)])
    h0 = float(floor_wealth[0][0])
    e0 = float(endow_wealth[0][0])

    def gap(c0):
        return float(np.dot(f0, np.power(c0, q))) + h0 - e0

    c0, resid = _budget_root(gap, fam.inada, e0)

    c = []
    for k in range(T + 1):
        vals = np.zeros(t.n_atoms(k))
        for i in range(k + 1):
            if (i, k) in d:
                vals += d[(i, k)] * c0 ** q[i]
        c.append(plus_floors(vals, k))

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
        c0=float(c0), exponents=q, theta=theta, d=d, f=f,
        floor_wealth=floor_wealth, endow_wealth=endow_wealth, mpc=mpc,
        linear=bool(np.all(gam == gam[0])),
    )
    sol = _solution_from_consumption(
        m, p, eps_vals, c, spd, "complete_power",
        {"c0": float(c0), "budget_gap": float(resid)},
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


def solve_exponential_bonds(m: MarketModel, p: HabitPreferences, eps):
    """Closed-form solver for exponential utility in a bond-only market.

    Requires deterministic rates and a one-lag habit.  Consumption is affine
    in wealth and lagged consumption with deterministic slopes; the slopes lie
    in (0, 1], hitting 1 only at the horizon.
    """
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
    gamma, rho = fam.gamma, fam.rho
    rate = np.array([float(m.r[k][0]) for k in range(1, T + 1)])

    X = np.zeros(T + 1)
    X[T] = b + 1.0 + rate[T - 1]
    for k in range(T - 1, 0, -1):
        X[k] = b + (1.0 + rate[k - 1]) * (1.0 - b / X[k + 1])
        if X[k] <= 0:
            raise PreconditionViolated(
                f"habit weight too strong for these rates (X_{k} = {X[k]:g})"
            )

    eps_vals = _as_level_values(t, eps)
    l = np.zeros(T + 1)
    mm = np.zeros(T + 1)
    n = [None] * (T + 1)
    l[T], mm[T] = 1.0, 0.0
    n[T] = eps_vals[T].copy()
    for k in range(T - 1, -1, -1):
        gross = 1.0 + rate[k]
        delta = 1.0 + b - mm[k + 1] + l[k + 1] * gross
        l[k] = l[k + 1] * gross / delta
        mm[k] = b / delta
        inner_arg = np.exp(-gamma * (n[k + 1] - p.h[k + 1]))
        log_mgf = np.log(_condexp(t, inner_arg, k + 1, k))
        n[k] = (l[k + 1] * gross * eps_vals[k] + p.h[k]
                + (rho - np.log(X[k + 1]) - log_mgf) / gamma) / delta
    if np.any(l[:T] >= 1.0):
        warnings.warn("a pre-horizon wealth slope reached 1", WrongUtilityFamily)

    c = [np.array([n[0][0]])]
    W = [np.zeros(1)]
    for k in range(1, T + 1):
        carry = (W[k - 1] + eps_vals[k - 1] - c[k - 1]) * (1.0 + rate[k - 1])
        Wk = carry[t.parent[k]]
        ck = l[k] * Wk + mm[k] * c[k - 1][t.parent[k]] + n[k]
        W.append(Wk)
        c.append(ck)

    Ivals = [eps_vals[k] + W[k] - c[k] for k in range(T + 1)]
    Ivals[T] = np.zeros(t.n_atoms(T))
    pi = [Ivals[k].reshape(-1, 1).copy() for k in range(T)]
    sol = _solution(p, c, W, Ivals, pi, "exponential_bonds", {})
    n = [RandomVariable(t, k, v) for k, v in enumerate(n)]
    return sol, ExponentialCoefficients(x=X, l=l, mm=mm, n=n)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def has_inverse_marginal(family) -> bool:
    """Whether the family exposes a usable inverse of the marginal utility."""
    if getattr(family, "name", "") == "custom":
        return family._du_inv is not None
    return hasattr(family, "du_inv")


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
        cls = classify_market(m)
        if cls.kind == "complete":
            if isinstance(p.family, PowerUtility):
                return solve_complete_power(m, p, eps)[0]
            if has_inverse_marginal(p.family):
                return solve_complete_general(m, p, eps)
        if (m.n_risky == 0 and isinstance(p.family, ExponentialUtility)
                and deterministic_interest(m)):
            try:
                return solve_exponential_bonds(m, p, eps)[0]
            except PreconditionViolated:
                if method == "closed":
                    raise
        if method == "closed":
            raise PreconditionViolated("no closed-form path covers this instance")
        return solve_general(m, p, eps)
    raise ValueError(f"unknown method {method!r}")
