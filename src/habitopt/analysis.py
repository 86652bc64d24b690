"""Structural probes, law checks, and the seeded instance generator.

Everything here interrogates solved plans rather than producing them: slopes
and curvatures of consumption policies in wealth against their theoretical
bounds and the wealth response of continuation plans to past consumption
(implicit derivatives of every node's continuation optimum, read on every
market from one factor of the polished root plan and kept in one table per
base plan), envelope and scaling laws, the closed-form
counterexample showing optimal time-0 consumption is a strictly convex
function of the endowment, and a reproducible generator of test instances by
market family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ._scipy import brentq  # noqa: F401 (perfbench/spans.py wraps it here)
from .errors import (
    GenerationExhausted,
    HabitOptError,
    NonConvergence,
    PreconditionViolated,
    WrongMarketClass,
    WrongUtilityFamily,
)
from .market import (
    MarketModel,
    SPDBundle,
    classify_market,
    payoff_space_basis,
    spd_bundle,
)
from .preferences import (
    ExponentialUtility,
    HabitPreferences,
    LogUtility,
    PowerUtility,
    _as_level_values,
    _finite,
    _require_feasible,
    perturbed_consumption,
    theta_table,
)
from .solvers import (
    Solution,
    _admissible,
    _closed_form,
    _CompleteGeneral,
    _instance_key,
    _newton_maximize,
    _Optimum,
    _solution_utility,
    _SubtreePlan,
    solve_auto,
    solve_general,
)
from .tree import AdaptedProcess, EventTree, _condexp, build_tree

__all__ = [
    "PolicyProbe",
    "BoundReport",
    "EnvelopeReport",
    "LinearityReport",
    "CounterexampleReport",
    "Scenario",
    "policy_bound",
    "policy_bound_chain",
    "monotonicity_probe",
    "concavity_probe",
    "eta_bound_check",
    "envelope_check",
    "linearity_law_check",
    "counterexample_51",
    "wealth_sweep",
    "generate_scenario",
]

# Newton tolerance of the root plan's polish behind every probe and of the
# envelope check's re-solves
_GTOL = 1e-12


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def policy_bound(spd: SPDBundle) -> list[np.ndarray]:
    """Upper bounds on the consumption-out-of-wealth slopes, level by level.

    The bound at a node is the ratio of the aggregate deflator to its
    habit-perturbed counterpart.
    """
    return [spd.M[k].values / spd.Mtilde[k].values for k in range(len(spd.M))]


def policy_bound_chain(tree: EventTree, spd: SPDBundle, beta: np.ndarray) -> list[np.ndarray]:
    """Same bounds through the habit chain weights, kept as a cross-check.

    ``B_k = 1 / (1 + sum over j > k of theta[j, k] E[M_j / M_k | level k])``.
    """
    theta = theta_table(beta)
    return [1.0 / _chain_weights(tree, spd, theta, k, k, np.ones(tree.n_atoms(k)))
            for k in range(tree.T + 1)]


def _chain_weights(tree: EventTree, spd: SPDBundle, theta, k: int, level: int, acc):
    """``acc`` plus ``sum over j > k of theta[j, k] E[M_j | level] / M_level``."""
    for j in range(k + 1, tree.T + 1):
        coef = theta[j, k]
        if coef != 0.0:
            acc = acc + coef * _condexp(tree, spd.M[j].values, j, level) / spd.M[level].values
    return acc


# ---------------------------------------------------------------------------
# probe plumbing
# ---------------------------------------------------------------------------

def _scope_label(m: MarketModel, witness) -> tuple[str, str]:
    cls = classify_market(m, witness)
    if cls.bounds_in_scope:
        return "in_scope", cls.kind
    warnings.warn(
        f"policy bounds are not guaranteed on a {cls.kind} market "
        f"{'without deterministic rates ' if cls.kind == 'type_c' else ''}"
        "(probe runs anyway)",
        WrongMarketClass,
    )
    return "out_of_scope", cls.kind


def _base_holdings(base: Solution, atoms) -> np.ndarray:
    """``base.pi`` on a subtree, given by its atoms per level (``None`` above
    its root, as in ``solvers._subtree_atoms``), in the plan's row order and
    asset units (Newton maps them into its own variables)."""
    return np.concatenate([np.zeros(0)] + [base.pi[l][al].ravel()
                                           for l, al in enumerate(atoms[:-1]) if al is not None])


def _root_plan(m: MarketModel, p: HabitPreferences, eps_vals, base: Solution) -> _SubtreePlan:
    """The instance's root plan: the one kept on ``base`` by ``solve_general``
    or by an earlier call, else one built and kept there per instance
    (``solvers._instance_key``)."""
    instance = _instance_key(m, p, eps_vals)
    if instance not in base._plans:
        base._plans[instance] = _SubtreePlan(m, p, eps_vals)
    return base._plans[instance]


def _responses(m: MarketModel, p: HabitPreferences, eps_vals, base: Solution, k: int) -> list:
    """``(history, w, response)`` of every level-``k`` node, entered with its
    base wealth (the endowment at the root) after the base consumption of its
    ancestors.  Computed once per level and kept on ``base``, keyed by the
    instance (``_instance_key``), so a plan reused with another instance
    never reads a stale table.

    On every market, each non-leaf level is read from one polish of the
    instance's root plan (``_root_plan``), warm-started from ``base`` and
    kept on it per instance (``solvers._Optimum``); no node's continuation is
    solved.  A leaf consumes its endowment plus its wealth: ``(eps + w, 1, 0, 0)``.
    """
    instance = _instance_key(m, p, eps_vals)
    key = (*instance, k)
    if key not in base._responses:
        t, c = m.tree, base.c
        wealth = (eps_vals[0] if k == 0 else base.W.values(k)).tolist()
        hists = np.reshape([c.values(lev)[t.ancestor(k, lev)] for lev in range(k)],
                           (k, len(wealth))).T.tolist()
        if k == t.T:
            responses = [(e + w, 1.0, 0.0, 0.0) for e, w in zip(eps_vals[k].tolist(), wealth)]
        else:
            if instance not in base._optima:
                plan = _root_plan(m, p, eps_vals, base)
                base._optima[instance] = _Optimum(plan, _base_holdings(base, plan.atoms), _GTOL)
            responses = base._optima[instance].level_responses(k)
        base._responses[key] = list(zip(hists, wealth, responses))
    return base._responses[key]


def _policy_derivatives(m: MarketModel, p: HabitPreferences, eps, k: int, method: str,
                        base: Solution | None, curvature: bool):
    """Slope ``dc/dw`` or curvature ``d2c/dw2`` in wealth per level-``k`` node.

    Both are read from the base plan's table (``_responses``), for every
    family: a custom one differences its ``d2u`` for the ``d3u`` of the
    curvature.  ``method`` only chooses how a missing ``base`` is solved
    (``solve_auto``).  Returns the estimates and the base consumption at
    level ``k``.
    """
    eps_vals = _as_level_values(m.tree, eps)
    if base is None:
        base = solve_auto(m, p, eps_vals, method)
    table = _responses(m, p, eps_vals, base, k)
    return (np.array([response[3 if curvature else 1] for _, _, response in table]),
            base.c.values(k))


@dataclass
class PolicyProbe:
    """Slope or curvature of a consumption policy in wealth, per probed node.

    The estimates are implicit derivatives of each node's continuation
    optimum at its base wealth, read from one factor of the instance's root
    plan on every market.  ``details["method"]`` echoes the probe's
    ``method``, which chose how a missing base plan was solved.
    """

    kind: str
    level: int
    estimates: np.ndarray
    bounds: np.ndarray
    within: bool
    scope: str
    market_kind: str
    details: dict = field(default_factory=dict)


def monotonicity_probe(m: MarketModel, p: HabitPreferences, eps, k: int,
                       witness=None, method: str = "auto",
                       base: Solution | None = None) -> PolicyProbe:
    """Check that consumption responds to wealth with slope in ``(0, B_k]``.

    The slope ``dc/dw`` at each level-``k`` node (``_policy_derivatives``)
    is compared to the deflator-ratio bound plus ``1e-4``.
    """
    scope, kind = _scope_label(m, witness)
    estimates, cbase = _policy_derivatives(m, p, eps, k, method, base, curvature=False)
    bound = policy_bound(spd_bundle(m, p.beta))[k]
    within = bool(np.all(estimates > 0) and np.all(estimates <= bound + 1e-4))
    return PolicyProbe(
        kind="slope", level=k, estimates=estimates, bounds=bound.copy(),
        within=within, scope=scope, market_kind=kind,
        details={"method": method, "base_c": cbase.copy()},
    )


def concavity_probe(m: MarketModel, p: HabitPreferences, eps, k: int,
                    witness=None, method: str = "auto",
                    base: Solution | None = None,
                    tol: float = 1e-6) -> PolicyProbe:
    """Curvature ``d2c/dw2`` of the consumption policy in wealth (should be <= 0).

    Each level-``k`` node's estimate (``_policy_derivatives``) must be at
    most ``tol`` times ``max(1, |c|)``.
    """
    scope, kind = _scope_label(m, witness)
    fam = p.family
    uniform_power = fam.name == "log" or (
        fam.name == "power" and bool(np.all(fam.gamma == fam.gamma[0])))
    if not uniform_power:
        warnings.warn(
            "concavity in wealth is only guaranteed for power utilities with "
            "one shared exponent (probe runs anyway)",
            WrongUtilityFamily,
        )
        scope = "out_of_scope"
    estimates, cbase = _policy_derivatives(m, p, eps, k, method, base, curvature=True)
    scales = np.maximum(1.0, np.abs(cbase))
    within = bool(np.all(estimates <= tol * scales))
    return PolicyProbe(
        kind="curvature", level=k, estimates=estimates, bounds=np.zeros_like(estimates),
        within=within, scope=scope, market_kind=kind,
        details={"method": method, "scales": scales},
    )


# ---------------------------------------------------------------------------
# wealth response of continuation plans to consumed habit
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Sensitivity of continuation wealth to one prior consumption choice.

    ``estimates[(a, b)]`` is the response of the consistent entering wealth at
    child ``b`` to consumption at its level-``k`` parent atom ``a``, the
    derivative of the first-order link at the base plan;
    ``bounds[(a, b)]`` is the habit-chain lower bound it must dominate.
    ``base_residual`` is the largest projected link residual at the base
    plan, or the largest gap between the base wealths and their projection
    on the children's payoff space.  ``details["terminal_formula"]`` holds,
    at ``k = T - 1``, the closed form the estimates equal on in-scope markets.
    """

    level: int
    estimates: dict
    bounds: dict
    satisfied: bool
    scope: str
    market_kind: str
    base_residual: float
    details: dict = field(default_factory=dict)


def eta_bound_check(m: MarketModel, p: HabitPreferences, eps, k: int,
                    witness=None, base: Solution | None = None) -> BoundReport:
    """Check the lower bound on how continuation wealth tracks past consumption.

    For each level-``k`` atom, the consistent entering wealth of the next
    period's children is defined through the habit-free first-order link
    between periods ``k`` and ``k+1``; its sensitivity to the consumption
    chosen at the parent must dominate the accumulated habit chain weights
    priced by deflator ratios, less ``1e-5``.

    The sensitivity is the implicit derivative of that link at the base
    plan.  The children's responses to their wealth and to ``c_k`` come from
    level ``k+1`` of the base plan's table (``_responses``); the link,
    projected on the children's payoff space (``market.payoff_space_basis``),
    then gives one rank-by-rank linear system per atom, solved in one batch
    per group of atoms with equal child count and rank.  NonConvergence,
    with the system's condition number, is raised for the first atom whose
    system is singular or not finite.
    """
    t = m.tree
    T = t.T
    if not 0 <= k <= T - 1:
        raise PreconditionViolated(f"the wealth response is defined for levels 0..{T - 1}")
    eps_vals = _as_level_values(t, eps)
    scope, kind = _scope_label(m, witness)
    spd = spd_bundle(m, p.beta)
    theta = theta_table(p.beta)
    fam = p.family
    if base is None:
        base = solve_auto(m, p, eps_vals)
    table = _responses(m, p, eps_vals, base, k + 1)
    # per level-(k+1) node: the derivatives of its consumption in its wealth and in c_k
    dc_dw, dc_dc = np.array([response[1:3] for _, _, response in table]).T
    chat_here, chat_next = base.chat.values(k), base.chat.values(k + 1)
    wts, w_next = t.atom_probs[k + 1], base.W.values(k + 1)
    bound_lvl = _chain_weights(t, spd, theta, k, k + 1, np.zeros(t.n_atoms(k + 1)))

    # per level-(k+1) node: its estimate and terminal formula
    estimate, formula = np.empty(t.n_atoms(k + 1)), np.empty(t.n_atoms(k + 1))
    failed, residuals = [], [0.0]
    for (parents, _), blk in zip(t.child_blocks[k], payoff_space_basis(m, k + 1).blocks):
        rank = blk.keep.sum(axis=1)
        for r in np.unique(rank).tolist():
            j = np.flatnonzero(rank == r)
            atoms, ch = parents[j], blk.children[j]
            rows = blk.rows[j, :r]                  # (g, r, nc): each atom's basis
            bmat = np.swapaxes(rows, 1, 2)
            mt_ratio = spd.Mtilde[k + 1].values[ch] / spd.Mtilde[k].values[atoms][:, None]
            wch, w_base = wts[ch], w_next[ch]

            # the link gap_b = u'_{k+1}(chat_b) - mt_ratio_b u'_k(chat_k)
            du2_next = fam.d2u(k + 1, chat_next[ch])
            du2_here = fam.d2u(k, chat_here[atoms])[:, None]
            gap = fam.du(k + 1, chat_next[ch]) - mt_ratio * fam.du(k, chat_here[atoms])[:, None]

            y_base = rows @ (wch * w_base)[..., None]
            residuals += np.max(np.abs(rows @ (wch * gap)[..., None]), axis=(1, 2)).tolist()
            residuals += np.max(np.abs(bmat @ y_base - w_base[..., None]), axis=(1, 2)).tolist()

            # d(bmat^T diag(wch) gap)/dy dy + d(...)/dc_k = 0, with wealth bmat y
            jac = rows @ ((wch * du2_next * dc_dw[ch])[..., None] * bmat)
            rhs = rows @ (wch * (du2_next * (dc_dc[ch] - p.beta[k + 1, k])
                                 - mt_ratio * du2_here))[..., None]
            finite = np.isfinite(jac).all(axis=(1, 2))
            cond = np.where(finite, np.linalg.cond(np.where(finite[:, None, None], jac, 0.0)),
                            np.inf)
            bad = ~(np.isfinite(rhs).all(axis=(1, 2)) & (cond < 1.0 / np.finfo(float).eps))
            failed += [(int(atoms[i]), cond[i], jac[i], rhs[i, :, 0]) for i in np.flatnonzero(bad)]
            if failed:
                continue
            estimate[ch] = (bmat @ -np.linalg.solve(jac, rhs))[..., 0]
            if k == T - 1:
                proj_du2 = (bmat @ (rows @ (wch * du2_next)[..., None]))[..., 0]
                formula[ch] = p.beta[T, T - 1] + mt_ratio * du2_here / proj_du2
    if failed:
        a, cond, jac, rhs = min(failed, key=lambda f: f[0])
        raise NonConvergence(
            f"wealth-response system is singular at level {k}, atom {a} "
            f"(condition number {cond:.3e})",
            diagnostics={"level": k, "atom": a, "condition": float(cond),
                         "jacobian": jac, "rhs": rhs},
        )
    # keyed (atom, child) in atom order, each atom's children in index order
    children = np.argsort(t.parent[k + 1], kind="stable")
    keys = list(zip(t.parent[k + 1][children].tolist(), children.tolist()))
    estimates = dict(zip(keys, estimate[children].tolist()))
    bounds = dict(zip(keys, bound_lvl[children].tolist()))
    terminal_formula = dict(zip(keys, formula[children].tolist())) if k == T - 1 else {}
    base_residual = max(residuals)

    satisfied = all(estimates[key] >= bounds[key] - 1e-5 for key in estimates)
    return BoundReport(
        level=k, estimates=estimates, bounds=bounds, satisfied=satisfied,
        scope=scope, market_kind=kind, base_residual=base_residual,
        details={"terminal_formula": terminal_formula},
    )


# ---------------------------------------------------------------------------
# envelope, linearity, counterexample
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeReport:
    """Marginal value of the initial endowment versus the deflator at time 0."""

    estimate: float
    marginal: float
    gap: float
    scale: float
    step: float


def envelope_check(m: MarketModel, p: HabitPreferences, eps,
                   base: Solution | None = None) -> EnvelopeReport:
    """Differentiate the value function in the endowment and compare with
    the time-0 habit-adjusted marginal utility of the optimal plan.

    The value at ``e0 +- d`` is Newton's optimum of the instance's root plan
    (``_root_plan``) with that time-0 endowment (``at_endowment``),
    warm-started from the holdings of ``base``, and reads its utility as a
    ``Solution`` would (``solvers._solution_utility``).
    """
    eps_vals = _as_level_values(m.tree, eps)
    if base is None:
        base = solve_auto(m, p, eps_vals)
    plan = _root_plan(m, p, eps_vals, base)
    x0 = _base_holdings(base, plan.atoms)
    marginal = float(base.R.values(0)[0])
    e0 = float(eps_vals[0][0])
    d = max(1e-4, 1e-4 * abs(e0))

    def value_at(e0v: float) -> float:
        view = plan.at_endowment(e0v)
        return _solution_utility(view, _newton_maximize(view, x0, _GTOL)[0])

    est = (value_at(e0 + d) - value_at(e0 - d)) / (2 * d)
    scale = max(1.0, abs(marginal))
    return EnvelopeReport(estimate=est, marginal=marginal, gap=abs(est - marginal),
                          scale=scale, step=d)


@dataclass
class LinearityReport:
    """Consumed share of the endowment in the one-shot bond problem."""

    rows: list
    max_gap: float


def linearity_law_check(gammas=(0.5, 1.0, 2.0, 4.0),
                        gross_rates=(0.25, 1.0, 4.0)) -> LinearityReport:
    """Optimal time-0 consumption is proportional to the endowment when a
    single bond with gross return ``r`` carries savings for one period.

    The predicted share is ``r**(1 - 1/gamma) / (1 + r**(1 - 1/gamma))``,
    independent of the endowment (one here), and exactly one half for log
    utility.
    """
    t = build_tree([[[0]], [[0]]], [1.0])
    rows = []
    max_gap = 0.0
    for g in gammas:
        for r in gross_rates:
            m = MarketModel(t, [r - 1.0], strict=False)
            p = HabitPreferences(t, PowerUtility(g, 0.0))
            sol = solve_general(m, p, [np.array([1.0]), np.zeros(1)], gtol=_GTOL)
            share = float(sol.c.values(0)[0])
            x = r ** (1.0 - 1.0 / g)
            predicted = x / (1.0 + x)
            gap = abs(share - predicted)
            max_gap = max(max_gap, gap)
            rows.append({"gamma": float(g), "gross_rate": float(r),
                         "share": share, "predicted": predicted, "gap": gap})
    return LinearityReport(rows=rows, max_gap=max_gap)


@dataclass
class CounterexampleReport:
    """Solver versus closed forms on the one-period convexity example.

    The published closed form (``published_c0``) drops the habit correction
    from the time-0 optimality condition; ``corrected_c0`` restores it.  Grid
    diagnostics document that the optimal time-0 consumption is strictly
    increasing, with slope below one, and strictly convex in the endowment.
    """

    eps0: float
    solver_c0: float
    solver_c1: np.ndarray
    published_c0: float
    corrected_c0: float
    gap_published: float
    gap_corrected: float
    a_const: float
    b_published: float
    b_corrected: float
    endow_value: float
    grid: np.ndarray
    grid_c0: np.ndarray
    slopes: np.ndarray
    curvatures: np.ndarray
    increasing: bool
    slope_below_one: bool
    convex: bool


def counterexample_51(eps0: float = 3.0, eps1=0.0,
                      m1_values=None, probs=None,
                      grid=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)) -> CounterexampleReport:
    """One-period habit problem whose optimum is convex in the endowment.

    Defaults to the deterministic unit-deflator instance; supplying
    ``m1_values`` and ``probs`` runs the same comparison under a random
    deflator realized through a completed binary market.
    """
    if m1_values is None:
        t = build_tree([[[0]], [[0]]], [1.0])
        m = MarketModel(t, [0.0])
    else:
        m1_values = np.asarray(m1_values, dtype=float)
        probs = np.asarray(probs, dtype=float)
        n = m1_values.size
        t = build_tree([[list(range(n))], [[i] for i in range(n)]], probs)
        em1 = float(np.dot(probs, m1_values))
        rate = 1.0 / em1 - 1.0
        # a Vandermonde dividend family spans the n branches together with
        # the bond; price every asset off the prescribed deflator
        payoffs = np.column_stack([np.linspace(1.0, 2.0, n) ** j
                                   for j in range(1, n)])
        prices = np.dot(probs * m1_values, payoffs).reshape(1, -1)
        m = MarketModel(t, [rate], [prices], [payoffs], strict=False)
    # log felicity today, negative-reciprocal felicity tomorrow
    p = HabitPreferences.one_lag(t, PowerUtility(np.array([1.0, 2.0])), 1.0)
    eps1_vals = np.broadcast_to(np.asarray(eps1, dtype=float), (t.n_atoms(1),))
    # the closed form's complete-general path, prepared once for every endowment
    form = _CompleteGeneral(m, p, [np.zeros(1), eps1_vals])
    m1 = form.spd.M[1].values
    w1 = t.atom_probs[1]

    a = 1.0 + float(np.dot(w1, m1))
    b_published = float(np.dot(w1, m1 * np.sqrt(m1)))
    b_corrected = float(np.sqrt(a) * np.dot(w1, np.sqrt(m1)))
    cval = float(np.dot(w1, m1 * eps1_vals))

    def closed_c0(e0: float, b: float) -> float:
        disc = np.sqrt(b * b + 4.0 * a * (e0 + cval))
        return float(((disc - b) / (2.0 * a)) ** 2)

    def solver_c0_at(e0: float):
        c = form.solve(e0)[0]
        return float(c[0][0]), c[1].copy()

    c0, c1 = solver_c0_at(eps0)
    pub = closed_c0(eps0, b_published)
    cor = closed_c0(eps0, b_corrected)

    grid = np.asarray(grid, dtype=float)
    grid_c0 = np.array([solver_c0_at(g)[0] for g in grid])
    slopes = np.diff(grid_c0) / np.diff(grid)
    curvatures = np.diff(slopes)
    return CounterexampleReport(
        eps0=eps0, solver_c0=c0, solver_c1=c1,
        published_c0=pub, corrected_c0=cor,
        gap_published=abs(c0 - pub), gap_corrected=abs(c0 - cor),
        a_const=a, b_published=b_published, b_corrected=b_corrected,
        endow_value=cval, grid=grid, grid_c0=grid_c0,
        slopes=slopes, curvatures=curvatures,
        increasing=bool(np.all(slopes > 0)),
        slope_below_one=bool(np.all(slopes < 1)),
        convex=bool(np.all(curvatures > 0)),
    )


def wealth_sweep(m: MarketModel, p: HabitPreferences, eps, start: float,
                 stop: float, n: int, method: str = "auto") -> list[dict]:
    """Resolve over a grid of initial endowments for plotting.

    Each row carries the endowment, time-0 consumption, its central first and
    second grid differences (``None`` at endpoints or next to failed solves),
    total utility, and the per-period expected felicities.  Failed solves are
    kept with a status message rather than dropped.

    Under ``auto`` and ``closed``, the closed form that ``solve_auto`` would
    take is prepared once per sweep: the market's deflator and
    classification, and every coefficient that does not depend on the time-0
    endowment.  Each grid point then runs only that form's root-find or
    forward recursion for its consumption, and evaluates the habit-adjusted
    consumption and the utilities; it assembles no holdings, wealth or
    deflator.  Where no closed form applies, and under ``newton`` and
    ``oracle``, each grid point calls ``solve_auto``.
    """
    t = m.tree
    eps_vals = _as_level_values(t, eps)
    rest = [eps_vals[l] for l in range(1, t.T + 1)]
    grid = _finite("endowment at level 0", np.linspace(float(start), float(stop), int(n)))

    form, failed = None, None
    if method in ("auto", "closed"):
        try:
            form = _closed_form(m, p, eps_vals, method)
        except HabitOptError as exc:
            failed = f"failed: {type(exc).__name__}"

    def solve_one(e0: float) -> dict:
        row: dict = {"eps0": float(e0), "c0": None, "status": "ok",
                     "U": None, "per_period_U": None}
        if failed is not None:
            row["status"] = failed
            return row
        try:
            if form is None:
                sol = solve_auto(m, p, [np.full(1, e0)] + rest, method=method)
                c0, chat = sol.c.values(0), sol.chat
            else:
                c = form.solve(e0)[0]
                c0, chat = c[0], _require_feasible(
                    perturbed_consumption(p, AdaptedProcess(t, c))).chat
            per_period = [float(np.dot(t.atom_probs[k], p.family.u(k, chat.values(k))))
                          for k in range(t.T + 1)]
            total = 0.0           # the plan's utility, summed as preferences._utility_of does
            for u in per_period:
                total += u
            row["c0"], row["U"], row["per_period_U"] = float(c0[0]), total, per_period
        except HabitOptError as exc:
            row["status"] = f"failed: {type(exc).__name__}"
        return row

    rows = [solve_one(e0) for e0 in grid]

    h = grid[1] - grid[0] if len(grid) > 1 else 1.0
    for i, row in enumerate(rows):
        row["dc0"] = None
        row["d2c0"] = None
        if 0 < i < len(rows) - 1:
            prev_c, next_c = rows[i - 1]["c0"], rows[i + 1]["c0"]
            if row["c0"] is not None and prev_c is not None and next_c is not None:
                row["dc0"] = float((next_c - prev_c) / (2.0 * h))
                row["d2c0"] = float((next_c - 2.0 * row["c0"] + prev_c) / (h * h))
    return rows


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

@dataclass
class Scenario:
    """A generated test instance: tree, market, preferences, endowments."""

    tree: EventTree
    market: MarketModel
    prefs: HabitPreferences
    eps: list
    witness: tuple | None
    meta: dict

    def to_json(self) -> dict:
        return {
            "meta": self.meta,
            "tree": self.tree.to_json(),
            "market": self.market.to_json(),
            "preferences": self.prefs.to_json(),
            "endowments": [[float(v) for v in e] for e in self.eps],
            "witness": None if self.witness is None
            else [[list(b) for b in lvl] for lvl in self.witness],
        }

    @staticmethod
    def from_json(obj: dict) -> "Scenario":
        tree = EventTree.from_json(obj["tree"])
        market = MarketModel.from_json(tree, obj["market"])
        prefs = HabitPreferences.from_json(tree, obj["preferences"])
        eps = [np.asarray(e, dtype=float) for e in obj["endowments"]]
        wit = obj.get("witness")
        witness = None if wit is None else tuple(tuple(tuple(b) for b in lvl) for lvl in wit)
        return Scenario(tree, market, prefs, eps, witness, dict(obj.get("meta", {})))


def _uniform_tree(rng, T: int, branching: int) -> EventTree:
    n = branching ** T
    levels = []
    for k in range(T + 1):
        width = branching ** (T - k)
        levels.append([list(range(i * width, (i + 1) * width))
                       for i in range(branching ** k)])
    probs = rng.dirichlet(np.full(n, 8.0))
    return build_tree(levels, probs)


def _priced_market(rng, tree: EventTree, rates, n_risky: int) -> MarketModel:
    """Market built by pricing random dividends under a random positive deflator."""
    T = tree.T
    R = [None] * (T + 1)
    R[T] = rng.uniform(0.6, 1.5, tree.n_leaves)
    for k in range(T - 1, -1, -1):
        R[k] = (1.0 + np.broadcast_to(rates[k], (tree.n_atoms(k),))) \
            * _condexp(tree, R[k + 1], k + 1, k)
    scale = R[0][0]
    R = [vals / scale for vals in R]
    if n_risky == 0:
        return MarketModel(tree, rates)
    divs = [rng.uniform(0.5, 2.0, (tree.n_atoms(k), n_risky)) for k in range(1, T + 1)]
    prices = [None] * T
    nxt_price = np.zeros((tree.n_leaves, n_risky))
    for k in range(T - 1, -1, -1):
        cum = nxt_price + divs[k]
        vals = np.empty((tree.n_atoms(k), n_risky))
        for i in range(n_risky):
            num = _condexp(tree, R[k + 1] * cum[:, i], k + 1, k)
            vals[:, i] = num / R[k]
        prices[k] = vals
        nxt_price = vals
    return MarketModel(tree, rates, prices, divs)


def _product_scenario(rng, T: int, fam, beta, floors: bool):
    """Complete base market extended by independent payoff-irrelevant noise."""
    base_tree = _uniform_tree(rng, T, 2)
    rates = [float(rng.choice([0.0, 0.02, 0.05]))] * T
    base_market = _priced_market(rng, base_tree, rates, 1)
    if classify_market(base_market).kind != "complete":
        return None
    noise_probs = rng.dirichlet(np.full(2 ** T, 8.0))

    # leaf fi 2**T + ni pairs base leaf fi with noise leaf ni, and atom
    # fa 2**k + na at level k pairs base atom fa with noise atom na
    levels = []
    for k in range(T + 1):
        fw = 2 ** (T - k)
        levels.append([[fi * 2 ** T + ni for fi in range(fa * fw, (fa + 1) * fw)
                        for ni in range(na * fw, (na + 1) * fw)]
                       for fa in range(2 ** k) for na in range(2 ** k)])
    tree = build_tree(levels, np.outer(base_tree.probs, noise_probs).ravel())
    market = MarketModel(tree, rates,
                         [np.repeat(base_market.S[k][:, 1], 2 ** k)[:, None] for k in range(T)],
                         [np.repeat(base_market.d[k][:, 1], 2 ** k)[:, None]
                          for k in range(1, T + 1)])
    witness = tuple(tuple(tuple(range(fa * 2 ** k, (fa + 1) * 2 ** k)) for fa in range(2 ** k))
                    for k in range(T + 1))

    return (tree, market, *_draw_prefs_and_endowments(rng, tree, fam, beta, floors),
            witness)


def _draw_prefs_and_endowments(rng, tree: EventTree, fam, beta, floors: bool) -> tuple:
    """Preferences, with floors in ``[0, 0.04]`` if ``floors``, and endowments
    in ``[1, 2]`` at time 0 and ``[0.2, 0.8]`` later, drawn endowments first."""
    eps = [np.array([float(rng.uniform(1.0, 2.0))])]
    eps += [rng.uniform(0.2, 0.8, tree.n_atoms(k)) for k in range(1, tree.T + 1)]
    h = None
    if floors:
        h = [np.zeros(1)] + [rng.uniform(0.0, 0.04, tree.n_atoms(k))
                             for k in range(1, tree.T + 1)]
    return HabitPreferences(tree, fam, beta, h), eps


def _draw_family(rng, utility: str, T: int):
    if utility == "log":
        return LogUtility(rho=float(rng.choice([0.0, 0.05])))
    if utility == "power":
        return PowerUtility(float(rng.uniform(0.8, 3.0)),
                            rho=float(rng.choice([0.0, 0.05])), T=T)
    if utility == "power_hetero":
        return PowerUtility(rng.uniform(0.8, 3.0, T + 1),
                            rho=float(rng.choice([0.0, 0.05])))
    if utility == "exp":
        return ExponentialUtility(float(rng.uniform(0.5, 2.0)),
                                  rho=float(rng.choice([0.0, 0.05])))
    raise ValueError(f"unknown utility draw {utility!r}")


def _draw_beta(rng, T: int, habit: str) -> np.ndarray:
    beta = np.zeros((T + 1, T + 1))
    if habit == "none":
        return beta
    b = float(rng.choice([0.3, 0.5, 0.9]))
    for k in range(1, T + 1):
        beta[k, k - 1] = b
    if habit == "two_lag":
        b2 = 0.5 * b
        for k in range(2, T + 1):
            beta[k, k - 2] = b2
    return beta


# per generated family: the market class a draw must have, the default
# branching, and the risky assets (None: one fewer than the branching)
_FAMILIES = {"complete": ("complete", 2, None), "bond_only": ("type_c", 2, 0),
             "general": ("general", 3, 1)}


def generate_scenario(seed: int, family: str = "complete", T: int = 2,
                      branching: int | None = None, utility: str | None = None,
                      habit: str | None = None, floors: bool | None = None,
                      max_tries: int = 50) -> Scenario:
    """Reproducible instance generator keyed by market family.

    Families: ``complete`` (binary, spanning assets), ``bond_only``,
    ``general`` (wider branching than assets, sign-mixing projections), and
    ``idiosyncratic`` (complete base market extended by independent noise that
    only endowments see, with the accepting witness attached).  All draws come
    from ``numpy.random.default_rng(seed)``, so equal seeds give equal
    scenarios byte for byte.  ``branching`` sets the children per node of the
    complete, bond-only and general trees (``_FAMILIES``); the idiosyncratic
    family's trees are binary and take none.
    """
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    if family == "idiosyncratic":
        if branching is not None:
            raise ValueError("branching does not apply to the idiosyncratic family")
    elif family in _FAMILIES:
        kind, br, n_risky = _FAMILIES[family]
        br = br if branching is None else branching
        n_risky = br - 1 if n_risky is None else n_risky
        # a bond and n risky assets span n + 1 children: no fewer draw incomplete
        least = 1 if kind == "complete" else n_risky + 2
        if br < least:
            raise ValueError(f"branching must be at least {least} for the {family} family, "
                             f"got {branching}")
    else:
        raise ValueError(f"unknown market family {family!r}")
    rng = np.random.default_rng(seed)
    if utility is None:
        utility = str(rng.choice(["log", "power", "power_hetero", "exp"]))
    if habit is None:
        habit = str(rng.choice(["none", "one_lag", "two_lag"]))
    if floors is None:
        floors = bool(rng.choice([False, True])) and utility != "exp"

    for _ in range(max_tries):
        fam = _draw_family(rng, utility, T)
        beta = _draw_beta(rng, T, habit)
        if family == "idiosyncratic":
            built = _product_scenario(rng, T, fam, beta, floors)
            if built is None or classify_market(built[1], built[4]).kind != "idiosyncratic":
                continue
            tree, market, prefs, eps, witness = built
        else:
            tree = _uniform_tree(rng, T, br)
            rates = [float(rng.choice([0.0, 0.02, 0.05]))] * T
            market = _priced_market(rng, tree, rates, n_risky)
            if classify_market(market).kind != kind:
                continue
            witness = None
            prefs, eps = _draw_prefs_and_endowments(rng, tree, fam, beta, floors)
        if not _admissible(market, prefs, eps):
            continue
        meta = {"seed": int(seed), "family": family, "T": int(T),
                "utility": utility, "habit": habit, "floors": bool(floors)}
        return Scenario(tree, market, prefs, eps, witness, meta)
    raise GenerationExhausted(
        f"could not draw a valid {family} scenario in {max_tries} tries (seed {seed})"
    )
