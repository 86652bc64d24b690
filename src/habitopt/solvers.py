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
problems.  A derivative-free oracle (Powell's method in budget-whitened
portfolio coordinates) provides an independent cross-check on small instances.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.optimize import brentq, linprog, minimize

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
    classify_market,
    consumption_to_wealth,
    deterministic_interest,
    spd_bundle,
)
from .preferences import (
    ExponentialUtility,
    HabitPreferences,
    PowerUtility,
    _as_level_values,
    habit_adjusted_marginal,
    perturbed_consumption,
    theta_table,
    utility_value,
)
from .tree import AdaptedProcess, RandomVariable, condexp, lift

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

def _subtree_atoms(t, k0: int, node: int) -> list:
    """Atoms of each level ``k0..T`` below ``node`` (``None`` above ``k0``)."""
    atoms = [None] * (t.T + 1)
    atoms[k0] = np.array([node], dtype=int)
    for l in range(k0 + 1, t.T + 1):
        atoms[l] = np.flatnonzero(np.isin(t.parent[l], atoms[l - 1]))
    return atoms


class _SubtreePlan:
    """Affine map from portfolio variables to habit-adjusted consumption.

    Covers either the full problem (``k0 = 0``, where the entering wealth
    parameter plays the role of the time-0 endowment) or the continuation
    problem from ``node`` at level ``k0`` with past consumption ``history``
    along the node's ancestor path.
    """

    def __init__(self, m: MarketModel, p: HabitPreferences, eps, k0: int = 0,
                 node: int = 0, history=(), w: float | None = None):
        t = m.tree
        T = t.T
        if len(history) != k0:
            raise PreconditionViolated(
                f"history must list consumption for levels 0..{k0 - 1}"
            )
        eps_vals = _as_level_values(t, eps)
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
        pos = [None] * (T + 1)
        for l in range(k0, T + 1):
            pos[l] = {int(a): j for j, a in enumerate(atoms[l])}
        self.pos = pos

        x_off = {}
        nx = 0
        for l in range(k0, T):
            x_off[l] = nx
            nx += len(atoms[l]) * nA
        c_off = {}
        nc = 0
        for l in range(k0, T + 1):
            c_off[l] = nc
            nc += len(atoms[l])
        self.n_x, self.n_c = nx, nc
        self.x_off, self.c_off = x_off, c_off

        A = np.zeros((nc, nx))
        b0 = np.zeros(nc)
        wts = np.zeros(nc)
        for l in range(k0, T + 1):
            for j, a in enumerate(atoms[l]):
                r = c_off[l] + j
                wts[r] = t.atom_probs[l][a]
                if l == k0:
                    b0[r] = self.w if k0 == 0 else eps_vals[l][a] + self.w
                else:
                    b0[r] = eps_vals[l][a]
                    par = int(t.parent[l][a])
                    jj = pos[l - 1][par]
                    A[r, x_off[l - 1] + jj * nA:x_off[l - 1] + (jj + 1) * nA] = m.gain(l)[a]
                if l < T:
                    A[r, x_off[l] + j * nA:x_off[l] + (j + 1) * nA] = -m.S[l][a]
        self.A, self.b0, self.wts = A, b0, wts

        # habit unrolling: chat = L c - hconst, with pre-k0 history folded in
        # through hconst = floors + hist_coef @ history
        L = np.eye(nc)
        floors = np.zeros(nc)
        hist_coef = np.zeros((nc, k0))
        for l in range(k0, T + 1):
            for j, a in enumerate(atoms[l]):
                r = c_off[l] + j
                floors[r] = p.h[l][a]
                node_up = a
                for lev in range(l - 1, -1, -1):
                    node_up = int(t.parent[lev + 1][node_up])
                    bcoef = p.beta[l, lev]
                    if bcoef == 0.0:
                        continue
                    if lev >= k0:
                        L[r, c_off[lev] + pos[lev][node_up]] -= bcoef
                    else:
                        hist_coef[r, lev] = bcoef
        self.L, self.floors, self.hist_coef = L, floors, hist_coef
        self.J = L @ A
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

    def chat(self, x: np.ndarray) -> np.ndarray:
        return self.J @ x + self.Lb

    def feasible(self, ch: np.ndarray) -> bool:
        return (not self.p.family.inada) or bool(np.all(ch > 0))

    def utility(self, x: np.ndarray) -> float:
        ch = self.chat(x)
        if not self.feasible(ch):
            return -np.inf
        total = 0.0
        for l in range(self.k0, self.t.T + 1):
            sl = slice(self.c_off[l], self.c_off[l] + len(self.atoms[l]))
            total += float(np.dot(self.wts[sl], self.p.family.u(l, ch[sl])))
        return total

    def grad_hess_weights(self, x: np.ndarray):
        """Per-row first and (negated) second felicity weights at ``x``."""
        ch = self.chat(x)
        if not self.feasible(ch):
            raise DomainViolation("plan left the utility domain during differentiation")
        du = np.empty(self.n_c)
        d2u = np.empty(self.n_c)
        for l in range(self.k0, self.t.T + 1):
            sl = slice(self.c_off[l], self.c_off[l] + len(self.atoms[l]))
            du[sl] = self.p.family.du(l, ch[sl])
            d2u[sl] = self.p.family.d2u(l, ch[sl])
        return self.wts * du, -self.wts * d2u


def _interior_start(plan: _SubtreePlan) -> np.ndarray:
    """Strictly admissible starting point via a max-margin linear program."""
    if not plan.p.family.inada:
        return np.zeros(plan.n_x)
    if plan.n_x == 0:
        ch = plan.Lb
        if np.any(ch <= 0):
            raise Infeasible("no admissible plan: adjusted consumption is forced non-positive")
        return np.zeros(0)
    nx = plan.n_x
    A_ub = np.hstack([-plan.J, np.ones((plan.n_c, 1))])
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


def _start(plan: _SubtreePlan, x0) -> np.ndarray:
    """``x0`` when it is strictly admissible, else the max-margin LP start."""
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if np.isfinite(plan.utility(x0)):
            return x0
    return _interior_start(plan)


def _newton_maximize(plan: _SubtreePlan, x0: np.ndarray, gtol: float = 1e-10,
                     max_iter: int = 300):
    """Damped Newton ascent of the concave plan utility."""
    x = np.asarray(x0, dtype=float).copy()
    if plan.n_x == 0:
        val = plan.utility(x)
        if not np.isfinite(val):
            raise Infeasible("degenerate plan is outside the utility domain")
        return x, {"iterations": 0, "grad_norm": 0.0, "ridge": 0.0}
    fx = plan.utility(x)
    if not np.isfinite(fx):
        raise DomainViolation("starting point is not strictly admissible")
    info = {"iterations": 0, "grad_norm": np.inf, "ridge": 0.0}
    for it in range(1, max_iter + 1):
        gw, hw = plan.grad_hess_weights(x)
        g = plan.J.T @ gw
        gn = float(np.max(np.abs(g))) if g.size else 0.0
        info["iterations"] = it
        info["grad_norm"] = gn
        if gn <= gtol:
            return x, info
        H = (plan.J.T * hw) @ plan.J
        ridge = 0.0
        while True:
            try:
                cf = cho_factor(H + (ridge * np.eye(plan.n_x) if ridge else 0.0), lower=True)
                step = cho_solve(cf, g)
                break
            except LinAlgError:
                ridge = max(ridge * 10.0, 1e-12 * max(1.0, float(np.max(np.abs(H)))))
                if ridge > 1e40:
                    raise NonConvergence(
                        "curvature matrix is irreparably singular",
                        diagnostics=dict(info),
                    )
        info["ridge"] = max(info["ridge"], ridge)
        gs = float(np.dot(g, step))
        if gs <= 0:
            step = g
            gs = float(np.dot(g, g))
        # near the optimum utility differences sink below float resolution;
        # accept the full step whenever it halves the gradient norm instead
        x_full = x + step
        f_full = plan.utility(x_full)
        if np.isfinite(f_full):
            gw_full, _ = plan.grad_hess_weights(x_full)
            gn_full = float(np.max(np.abs(plan.J.T @ gw_full)))
            if gn_full <= 0.5 * gn:
                x, fx = x_full, f_full
                continue
        tstep = 1.0
        while True:
            cand = plan.utility(x + tstep * step)
            if cand >= fx + 1e-4 * tstep * gs:
                x = x + tstep * step
                fx = cand
                break
            tstep *= 0.5
            if tstep < 1e-15:
                if gn <= 100 * gtol:
                    return x, info
                raise NonConvergence(
                    f"line search stalled with gradient norm {gn:.3e}",
                    best=x, diagnostics=dict(info),
                )
    gw, _ = plan.grad_hess_weights(x)
    gn = float(np.max(np.abs(plan.J.T @ gw)))
    if gn <= 100 * gtol:
        info["grad_norm"] = gn
        return x, info
    raise NonConvergence(
        f"no convergence after {max_iter} iterations (gradient norm {gn:.3e})",
        best=x, diagnostics=dict(info),
    )


def _assemble_solution(plan: _SubtreePlan, x: np.ndarray, method: str,
                       info: dict) -> Solution:
    m, p, t = plan.m, plan.p, plan.t
    if plan.k0 != 0:
        raise PreconditionViolated("full solutions exist only for root plans")
    T = t.T
    nA = plan.nA
    cvals = plan.consumption(x)
    c = [cvals[plan.c_off[l]:plan.c_off[l] + len(plan.atoms[l])] for l in range(T + 1)]
    pi = []
    for l in range(T):
        pi.append(x[plan.x_off[l]:plan.x_off[l] + len(plan.atoms[l]) * nA]
                  .reshape(len(plan.atoms[l]), nA))
    W = [np.zeros(1)]
    for l in range(1, T + 1):
        W.append(np.array([
            float(np.dot(pi[l - 1][int(t.parent[l][a])], m.gain(l)[a]))
            for a in range(t.n_atoms(l))
        ]))
    I = []
    for l in range(T):
        I.append(np.array([float(np.dot(pi[l][a], m.S[l][a])) for a in range(t.n_atoms(l))]))
    I.append(np.zeros(t.n_atoms(T)))
    cp = AdaptedProcess(t, c)
    chat = perturbed_consumption(p, cp).chat
    R = habit_adjusted_marginal(p, cp)
    U = utility_value(p, cp)
    diag = dict(info)
    diag["method"] = method
    return Solution(c=cp, chat=chat, W=AdaptedProcess(t, W), I=AdaptedProcess(t, I),
                    pi=pi, R=R, U=U, converged=True, diagnostics=diag)


def solve_general(m: MarketModel, p: HabitPreferences, eps, x0=None,
                  gtol: float = 1e-11, max_iter: int = 300) -> Solution:
    """Maximize total habit utility over self-financing plans.

    Works on any no-arbitrage market and any concave family.  The returned
    gradient norm bounds the probability-weighted pricing residuals of the
    habit-adjusted marginal deflator, which is the optimality certificate.
    ``x0`` warm-starts Newton as in ``solve_subproblem``.
    """
    plan = _SubtreePlan(m, p, eps)
    x, info = _newton_maximize(plan, _start(plan, x0), gtol=gtol, max_iter=max_iter)
    return _assemble_solution(plan, x, "newton", info)


def solve_subproblem(m: MarketModel, p: HabitPreferences, eps, k: int, node: int,
                     history, w: float, gtol: float = 1e-11,
                     max_iter: int = 300, x0=None, plans: dict | None = None) -> SubSolution:
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

    ``plans`` is an optional dict, owned by the caller, of plans built by
    earlier calls with the same ``m``, ``p`` and ``eps``, keyed by
    ``(k, node)``: a plan found there is shifted to ``w`` and ``history``
    instead of built anew, and a new plan is added to it.
    """
    t = m.tree
    if plans is not None and (k, node) in plans:
        plan = plans[(k, node)].at(w, history)
    else:
        plan = _SubtreePlan(m, p, eps, k0=k, node=node, history=history, w=w)
        if plans is not None:
            plans[(k, node)] = plan
    x, info = _newton_maximize(plan, _start(plan, x0), gtol=gtol, max_iter=max_iter)
    cvals = plan.consumption(x)
    cmap, wmap = {}, {}
    for l in range(k, t.T + 1):
        for j, a in enumerate(plan.atoms[l]):
            cmap[(l, int(a))] = float(cvals[plan.c_off[l] + j])
    for l in range(k, t.T):
        sl = x[plan.x_off[l]:plan.x_off[l] + len(plan.atoms[l]) * plan.nA]
        piL = sl.reshape(len(plan.atoms[l]), plan.nA)
        for a in plan.atoms[l + 1]:
            par = int(t.parent[l + 1][a])
            wmap[(l + 1, int(a))] = float(np.dot(piL[plan.pos[l][par]], m.gain(l + 1)[a]))
    wmap[(k, node)] = float(w)
    return SubSolution(level=k, node=node, w=float(w), c=cmap, W=wmap,
                       U=plan.utility(x), converged=True, diagnostics=dict(info))


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
    plan = _SubtreePlan(m, p, eps)
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
    c = [None] * (t.T + 1)
    for l in range(k, t.T + 1):
        al = atoms[l]
        chat = np.array([z]) if l == k else np.asarray(
            fam.du_inv(l, lam * spd.Mtilde[l].values[al] / mt_root), dtype=float)
        vals = chat + p.h[l][al]
        anc = {}
        up = al
        for lev in range(l - 1, k - 1, -1):
            up = t.parent[lev + 1][up]
            anc[lev] = np.searchsorted(atoms[lev], up)
        for lev in range(l):
            b = p.beta[l, lev]
            if b != 0.0:
                vals = vals + b * (history[lev] if lev < k else c[lev][anc[lev]])
        c[l] = vals
    return c


def _budget_gap(t, spd: SPDBundle, c, endow, atoms) -> float:
    """Deflated cost of a subtree plan net of the subtree's endowments."""
    gap = 0.0
    for l, al in enumerate(atoms):
        if al is not None:
            gap += float(np.dot(t.atom_probs[l][al], spd.M[l].values[al] * (c[l] - endow[l])))
    return gap


def _budget_root(gap, inada: bool, wealth: float, tol: float = 1e-12) -> tuple:
    """Root of a strictly increasing budget gap, and the gap left there.

    Families with an Inada condition bracket from just above zero; the others
    double a symmetric bracket of the size of ``wealth``.  Raises Infeasible
    when even vanishing consumption overspends, and NonConvergence when the
    gap at the root exceeds ``tol`` relative to ``wealth``.
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
    if abs(resid) > tol * max(1.0, abs(wealth)):
        raise NonConvergence(
            f"budget gap {resid:.3e} above tolerance after root-find", best=root
        )
    return root, resid


def _complete_continuation(p: HabitPreferences, spd: SPDBundle, eps_vals, k: int,
                           node: int, history, w: float, budget_tol: float = 1e-12):
    """Optimal complete-market consumption below ``node`` at level ``k``.

    ``history`` is consumption on the node's strict ancestors.  As in
    ``_SubtreePlan``, the entering wealth ``w`` replaces the endowment at the
    root of the full tree and adds to it at any other node.  Returns the
    consumption per level, aligned with the subtree's atoms (``None`` above
    ``k``), and the budget gap left by the root-find.
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

    z, resid = _budget_root(gap, p.family.inada, wealth, budget_tol)
    return _forward_consumption(p, spd, atoms, history, z), resid


def _replicate_portfolio(m: MarketModel, W, tol: float = 1e-7):
    """Holdings supporting a wealth process; minimum-norm least squares per node.

    The nodes of a level are grouped by child count, and each group's stacked
    gain blocks are solved with one batched pseudo-inverse.
    """
    t = m.tree
    pi = []
    for k in range(t.T):
        parent = t.parent[k + 1]
        counts = np.bincount(parent, minlength=t.n_atoms(k))
        by_parent = np.argsort(parent, kind="stable")
        starts = np.cumsum(counts) - counts
        gain = m.gain(k + 1)
        rows = np.zeros((t.n_atoms(k), m.n_risky + 1))
        resid = np.zeros(t.n_atoms(k))
        scale = np.ones(t.n_atoms(k))
        for nc in np.unique(counts):
            atoms = np.flatnonzero(counts == nc)
            children = by_parent[starts[atoms, None] + np.arange(nc)]
            G = gain[children]
            target = W[k + 1][children]
            sol = np.einsum("aij,aj->ai", np.linalg.pinv(G), target)
            rows[atoms] = sol
            resid[atoms] = np.max(np.abs(np.einsum("aij,aj->ai", G, sol) - target), axis=1)
            scale[atoms] = np.maximum(1.0, np.max(np.abs(target), axis=1))
        bad = np.flatnonzero(resid > tol * scale)
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
    cp = AdaptedProcess(t, [np.asarray(ck, dtype=float) for ck in c])
    epsp = AdaptedProcess(t, eps_vals)
    W = consumption_to_wealth(m, spd.M, cp, epsp)
    Ivals = [eps_vals[k] + W.values(k) - cp.values(k) for k in range(t.T + 1)]
    Ivals[t.T] = np.zeros(t.n_atoms(t.T))
    pi = _replicate_portfolio(m, [W.values(k) for k in range(t.T + 1)])
    chat = perturbed_consumption(p, cp).chat
    return Solution(
        c=cp, chat=chat, W=W, I=AdaptedProcess(t, Ivals), pi=pi,
        R=habit_adjusted_marginal(p, cp), U=utility_value(p, cp),
        converged=True, diagnostics=dict(diag, method=method),
    )


def solve_complete_general(m: MarketModel, p: HabitPreferences, eps,
                           spd: SPDBundle | None = None,
                           budget_tol: float = 1e-12) -> Solution:
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
    c, resid = _complete_continuation(p, spd, eps_vals, 0, 0, (), float(eps_vals[0][0]),
                                      budget_tol)
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


def solve_complete_power(m: MarketModel, p: HabitPreferences, eps,
                         spd: SPDBundle | None = None):
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
    if spd is None:
        spd = spd_bundle(m, p.beta)
    eps_vals = _as_level_values(t, eps)

    gam = np.array([fam.gamma_at(k) for k in range(T + 1)])
    q = gam[0] / gam
    theta = theta_table(p.beta)
    theta_ext = theta + np.eye(T + 1)
    Mt0 = float(spd.Mtilde[0].values[0])

    # e_i: level-i block values with chat_i = e_i * c0 ** q_i
    e = []
    for i in range(T + 1):
        vals = np.exp(-fam.rho * i / gam[i]) * np.power(
            spd.Mtilde[i].values / Mt0, -1.0 / gam[i]
        )
        e.append(vals)

    d = {}
    for k in range(T + 1):
        for i in range(k + 1):
            if theta_ext[k, i] != 0.0:
                d[(i, k)] = theta_ext[k, i] * lift(RandomVariable(t, i, e[i]), k).values

    # f[(i, k)] = sum over j >= max(i, k) of E[(M_j / M_k) d[(i, j)] | level k]
    f = {}
    for i in range(T + 1):
        tail = RandomVariable(t, T, np.zeros(t.n_atoms(T)))
        for k in range(T, -1, -1):
            acc = condexp(tail, k).values if tail.level > k else tail.values
            if (i, k) in d:
                acc = acc + spd.M[k].values * d[(i, k)]
            tail = RandomVariable(t, k, acc)
            f[(i, k)] = acc / spd.M[k].values

    floor_wealth = []
    endow_wealth = []
    tail_h = RandomVariable(t, T, np.zeros(t.n_atoms(T)))
    tail_e = RandomVariable(t, T, np.zeros(t.n_atoms(T)))
    for k in range(T, -1, -1):
        hfull = np.zeros(t.n_atoms(k))
        for i in range(k + 1):
            coef = theta_ext[k, i]
            if coef != 0.0:
                hfull += coef * lift(RandomVariable(t, i, p.h[i]), k).values
        acc_h = (condexp(tail_h, k).values if tail_h.level > k else tail_h.values) \
            + spd.M[k].values * hfull
        acc_e = (condexp(tail_e, k).values if tail_e.level > k else tail_e.values) \
            + spd.M[k].values * eps_vals[k]
        tail_h = RandomVariable(t, k, acc_h)
        tail_e = RandomVariable(t, k, acc_e)
        floor_wealth.insert(0, acc_h / spd.M[k].values)
        endow_wealth.insert(0, acc_e / spd.M[k].values)

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
        for i in range(k + 1):
            coef = theta_ext[k, i]
            if coef != 0.0:
                vals += coef * lift(RandomVariable(t, i, p.h[i]), k).values
        c.append(vals)

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

def solve_power_no_endowment(m: MarketModel, p: HabitPreferences, eps0: float,
                             gtol: float = 1e-11):
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
    sol = solve_general(m, p, eps, gtol=gtol)
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
    for mm_ in range(1, T + 1):
        for l_ in range(mm_ - 1):
            if p.beta[mm_, l_] != 0:
                raise PreconditionViolated("this path requires a one-lag habit")
    lags = [p.beta[k, k - 1] for k in range(1, T + 1)]
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
    n[T] = RandomVariable(t, T, eps_vals[T].copy())
    for k in range(T - 1, -1, -1):
        gross = 1.0 + rate[k]
        delta = 1.0 + b - mm[k + 1] + l[k + 1] * gross
        l[k] = l[k + 1] * gross / delta
        mm[k] = b / delta
        inner_arg = np.exp(-gamma * (n[k + 1].values - p.h[k + 1]))
        log_mgf = np.log(condexp(RandomVariable(t, k + 1, inner_arg), k).values)
        nk = (l[k + 1] * gross * eps_vals[k] + p.h[k]
              + (rho - np.log(X[k + 1]) - log_mgf) / gamma) / delta
        n[k] = RandomVariable(t, k, nk)
    if np.any(l[:T] >= 1.0):
        warnings.warn("a pre-horizon wealth slope reached 1", WrongUtilityFamily)

    c = [np.array([n[0].values[0]])]
    W = [np.zeros(1)]
    for k in range(1, T + 1):
        carry = (W[k - 1] + eps_vals[k - 1] - c[k - 1]) * (1.0 + rate[k - 1])
        Wk = carry[t.parent[k]]
        ck = l[k] * Wk + mm[k] * c[k - 1][t.parent[k]] + n[k].values
        W.append(Wk)
        c.append(ck)

    cp = AdaptedProcess(t, c)
    Ivals = [eps_vals[k] + W[k] - c[k] for k in range(T + 1)]
    Ivals[T] = np.zeros(t.n_atoms(T))
    pi = [Ivals[k].reshape(-1, 1).copy() for k in range(T)]
    chat = perturbed_consumption(p, cp).chat
    sol = Solution(
        c=cp, chat=chat, W=AdaptedProcess(t, W), I=AdaptedProcess(t, Ivals),
        pi=pi, R=habit_adjusted_marginal(p, cp), U=utility_value(p, cp),
        converged=True,
        diagnostics={"method": "exponential_bonds"},
    )
    return sol, ExponentialCoefficients(x=X, l=l, mm=mm, n=n)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def has_inverse_marginal(family) -> bool:
    """Whether the family exposes a usable inverse of the marginal utility."""
    if getattr(family, "name", "") == "custom":
        return family._du_inv is not None
    return hasattr(family, "du_inv")


def solve_auto(m: MarketModel, p: HabitPreferences, eps, method: str = "auto",
               **kwargs) -> Solution:
    """Route an instance to the most specialized applicable solver.

    ``method`` forces a path: ``newton``, ``oracle``, or ``closed`` (one of
    the structure-exploiting solvers; raises PreconditionViolated when none
    fits).  ``auto`` tries closed forms first and falls back to Newton.
    """
    if method == "newton":
        return solve_general(m, p, eps, **kwargs)
    if method == "oracle":
        return solve_primal_oracle(m, p, eps, **kwargs)
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
        return solve_general(m, p, eps, **kwargs)
    raise ValueError(f"unknown method {method!r}")
