"""Structural probes, law checks, and the seeded instance generator.

Everything here interrogates solved plans rather than producing them: finite
difference slopes and curvatures of consumption policies against their
theoretical bounds, the wealth response of continuation plans to past
consumption, envelope and scaling laws, the closed-form counterexample
showing optimal time-0 consumption is a strictly convex function of the
endowment, and a reproducible generator of test instances by market family.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq, root  # noqa: F401 (brentq: perfbench/spans.py wraps it here)

from .errors import (
    GenerationExhausted,
    HabitOptError,
    Infeasible,
    NonConvergence,
    PreconditionViolated,
    WrongMarketClass,
    WrongUtilityFamily,
)
from .market import (
    MarketModel,
    SPDBundle,
    classify_market,
    spd_bundle,
)
from .preferences import (
    CustomUtility,
    ExponentialUtility,
    HabitPreferences,
    LogUtility,
    PowerUtility,
    _as_level_values,
    theta_table,
)
from .solvers import (
    Solution,
    _complete_continuation,
    _subtree_atoms,
    has_inverse_marginal,
    solve_complete_general,
    solve_general,
    solve_subproblem,
)
from .tree import EventTree, RandomVariable, build_tree, condexp

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
    T = tree.T
    theta = theta_table(beta)
    out = []
    for k in range(T + 1):
        acc = np.ones(tree.n_atoms(k))
        for j in range(k + 1, T + 1):
            coef = theta[j, k]
            if coef != 0.0:
                acc = acc + coef * condexp(spd.M[j], k).values / spd.M[k].values
        out.append(1.0 / acc)
    return out


# ---------------------------------------------------------------------------
# probe plumbing
# ---------------------------------------------------------------------------

def _history(t: EventTree, c_levels, k: int, a: int) -> list[float]:
    """Consumption along the strict ancestors of atom ``a`` at level ``k``."""
    return [float(c_levels[lev][t.ancestor(k, lev)[a]]) for lev in range(k)]


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


def _base_holdings(base: Solution, k: int, node: int) -> np.ndarray:
    """``base.pi`` on the subtree under ``(k, node)``, in the plan's variable order."""
    atoms = _subtree_atoms(base.c.tree, k, node)
    T = len(atoms) - 1
    return np.concatenate([np.zeros(0)] + [base.pi[l][atoms[l]].ravel() for l in range(k, T)])


def _policy(m: MarketModel, p: HabitPreferences, eps_vals, method: str, gtol: float,
            spd: SPDBundle | None, base: Solution):
    """Consumption chosen at ``(k, node)`` given past consumption and entering wealth.

    Every Newton re-solve starts from ``base`` restricted to the node's subtree,
    which is the optimum at the base wealth and history; each node's plan is
    built once and then only shifted.  The plans live as long as the returned
    function, i.e. one probe call.
    """
    plans, starts = {}, {}

    def consumption(k: int, node: int, history, w: float) -> float:
        if method == "closed":
            return float(_complete_continuation(p, spd, eps_vals, k, node, history, w)[0][k][0])
        if (k, node) not in starts:
            starts[(k, node)] = _base_holdings(base, k, node)
        sub = solve_subproblem(m, p, eps_vals, k, node, history, w, gtol=gtol,
                               x0=starts[(k, node)], plans=plans)
        return sub.c[(k, node)]

    return consumption


def _probe_points(t: EventTree, eps_vals, base: Solution, cbase, k: int):
    """``(atom, history, base wealth)`` per level-``k`` atom; the endowment at the root."""
    for a in range(t.n_atoms(k)):
        w0 = eps_vals[0][0] if k == 0 else base.W.values(k)[a]
        yield a, _history(t, cbase, k, a), float(w0)


def _probe_method(m: MarketModel, p: HabitPreferences) -> str:
    if classify_market(m).kind == "complete" and has_inverse_marginal(p.family):
        return "closed"
    return "newton"


@dataclass
class PolicyProbe:
    """Finite-difference slope or curvature of a consumption policy.

    ``estimates`` and ``bounds`` are listed per probed node; ``richardson``
    holds the relative change of each estimate when the step is halved (a
    large value flags unreliable differencing).
    """

    kind: str
    level: int
    estimates: np.ndarray
    bounds: np.ndarray
    within: bool
    scope: str
    market_kind: str
    richardson: np.ndarray
    step: float
    details: dict = field(default_factory=dict)


def monotonicity_probe(m: MarketModel, p: HabitPreferences, eps, k: int,
                       delta: float | None = None, witness=None,
                       method: str = "auto", gtol: float = 1e-12,
                       base: Solution | None = None,
                       slack: float = 1e-4) -> PolicyProbe:
    """Check that consumption responds to wealth with slope in ``(0, B_k]``.

    Central differences of re-solved continuation problems around the optimal
    wealth at each level-``k`` node (around the endowment itself at ``k = 0``),
    compared to the deflator-ratio bound plus ``slack``.
    """
    t = m.tree
    eps_vals = _as_level_values(t, eps)
    scope, kind = _scope_label(m, witness)
    spd = spd_bundle(m, p.beta)
    bound = policy_bound(spd)[k]
    if method == "auto":
        method = _probe_method(m, p)
    if base is None:
        base = solve_general(m, p, eps_vals, gtol=gtol)
    cbase = [base.c.values(l) for l in range(t.T + 1)]
    policy = _policy(m, p, eps_vals, method, gtol, spd, base)

    ests, rich = [], []
    for a, hist, w0 in _probe_points(t, eps_vals, base, cbase, k):
        da = delta if delta is not None else max(1e-4, 1e-4 * abs(w0))
        pair = []
        for dd in (da, da / 2):
            cp = policy(k, a, hist, w0 + dd)
            cm = policy(k, a, hist, w0 - dd)
            pair.append((cp - cm) / (2 * dd))
        ests.append(pair[0])
        rich.append(abs(pair[0] - pair[1]) / max(abs(pair[1]), 1e-12))
    estimates = np.array(ests)
    richardson = np.array(rich)
    within = bool(np.all(estimates > 0) and np.all(estimates <= bound + slack))
    return PolicyProbe(
        kind="slope", level=k, estimates=estimates, bounds=bound.copy(),
        within=within, scope=scope, market_kind=kind, richardson=richardson,
        step=float(da if k == 0 else delta or 0.0),
        details={"method": method, "base_c": cbase[k].copy()},
    )


def concavity_probe(m: MarketModel, p: HabitPreferences, eps, k: int,
                    delta: float | None = None, witness=None,
                    method: str = "auto", gtol: float = 1e-12,
                    base: Solution | None = None,
                    tol: float = 1e-6) -> PolicyProbe:
    """Second differences of the consumption policy in wealth (should be <= 0).

    Uses a wider step than the slope probe: second differences amplify solver
    noise by the inverse squared step, so the step is chosen to keep that
    amplification below the comparison tolerances.
    """
    t = m.tree
    eps_vals = _as_level_values(t, eps)
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
    spd = spd_bundle(m, p.beta)
    if method == "auto":
        method = _probe_method(m, p)
    if base is None:
        base = solve_general(m, p, eps_vals, gtol=gtol)
    cbase = [base.c.values(l) for l in range(t.T + 1)]

    policy = _policy(m, p, eps_vals, method, gtol, spd, base)

    def second(fn, w0, dd):
        return (fn(w0 + dd) - 2.0 * fn(w0) + fn(w0 - dd)) / (dd * dd)

    ests, rich, scales = [], [], []
    for a, hist, w0 in _probe_points(t, eps_vals, base, cbase, k):
        da = delta if delta is not None else max(5e-3, 5e-3 * abs(w0))

        def fn(w):
            return policy(k, a, hist, w)

        pair = [second(fn, w0, da), second(fn, w0, da / 2)]
        ests.append(pair[0])
        rich.append(abs(pair[0] - pair[1]) / max(abs(pair[1]), 1e-9))
        scales.append(max(1.0, abs(cbase[k][a])))
    estimates = np.array(ests)
    scales = np.array(scales)
    within = bool(np.all(estimates <= tol * scales))
    return PolicyProbe(
        kind="curvature", level=k, estimates=estimates, bounds=np.zeros_like(estimates),
        within=within, scope=scope, market_kind=kind, richardson=np.array(rich),
        step=float(da if k == 0 else delta or 0.0),
        details={"method": method, "scales": scales},
    )


# ---------------------------------------------------------------------------
# wealth response of continuation plans to consumed habit
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Sensitivity of continuation wealth to one prior consumption choice.

    ``estimates[(a, b)]`` is the response of the consistent entering wealth at
    child ``b`` to consumption at its level-``k`` parent atom ``a``;
    ``bounds[(a, b)]`` is the habit-chain lower bound it must dominate.
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
                    delta: float | None = None, witness=None,
                    gtol: float = 1e-12, slack: float = 1e-5,
                    base: Solution | None = None) -> BoundReport:
    """Check the lower bound on how continuation wealth tracks past consumption.

    For each level-``k`` atom, the consistent entering wealth of the next
    period's children is defined through the habit-free first-order link
    between periods ``k`` and ``k+1``; its sensitivity to the consumption
    chosen at the parent must dominate the accumulated habit chain weights
    priced by deflator ratios.  A root of that link is accepted on its
    residual, at most ``1e-10`` of the size of the link's price term.
    """
    t = m.tree
    T = t.T
    if not 0 <= k <= T - 1:
        raise PreconditionViolated(f"the wealth response is defined for levels 0..{T - 1}")
    eps_vals = _as_level_values(t, eps)
    scope, kind = _scope_label(m, witness)
    spd = spd_bundle(m, p.beta)
    theta = theta_table(p.beta)
    if base is None:
        base = solve_general(m, p, eps_vals, gtol=gtol)
    policy = _policy(m, p, eps_vals, "newton", gtol, spd, base)
    cbase = [base.c.values(l) for l in range(t.T + 1)]
    wts = t.atom_probs[k + 1]
    gains = m.gain(k + 1)

    bound_lvl = np.zeros(t.n_atoms(k + 1))
    for j in range(k + 1, T + 1):
        coef = theta[j, k]
        if coef != 0.0:
            bound_lvl += coef * condexp(spd.M[j], k + 1).values / spd.M[k + 1].values

    estimates, bounds = {}, {}
    terminal_formula = {}
    base_residual = 0.0
    for a in range(t.n_atoms(k)):
        children = t.children(k, a)
        hist = _history(t, cbase, k, a)
        ck0 = float(cbase[k][a])
        mt_ratio = spd.Mtilde[k + 1].values[children] / spd.Mtilde[k].values[a]
        wch = wts[children]

        # attainable wealths over the children form the payoff-space block;
        # parametrize the response in a weighted-orthonormal basis of it
        sq = np.sqrt(wch)
        u_svd, s, _ = np.linalg.svd(sq[:, None] * gains[children], full_matrices=False)
        rank = int(np.sum(s > 1e-10 * max(s[0], 1e-300)))
        bmat = u_svd[:, :rank] / sq[:, None]

        def chat_k_of(ck):
            return ck - sum(p.beta[k, l] * hist[l] for l in range(k)) - p.h[k][a]

        def du_next_of(wvec, ck):
            vals = np.empty(children.size)
            for j, b in enumerate(children):
                adj = policy(k + 1, int(b), hist + [ck], float(wvec[j])) - p.h[k + 1][b]
                for lev in range(k + 1):
                    bcoef = p.beta[k + 1, lev]
                    if bcoef != 0.0:
                        adj -= bcoef * (ck if lev == k else hist[lev])
                vals[j] = p.family.du(k + 1, adj)
            return vals

        def resid(y, ck):
            wvec = bmat @ y
            gap = du_next_of(wvec, ck) - mt_ratio * p.family.du(k, chat_k_of(ck))
            return bmat.T @ (wch * gap)

        w_base = base.W.values(k + 1)[children]
        y_base = bmat.T @ (wch * w_base)
        base_residual = max(base_residual, float(np.max(np.abs(resid(y_base, ck0)))),
                            float(np.max(np.abs(bmat @ y_base - w_base))))

        d = delta if delta is not None else max(1e-4, 1e-4 * abs(ck0))
        price_scale = float(np.max(np.abs(bmat.T @ (wch * mt_ratio))))
        sols = {}
        for sign in (+1, -1):
            ck = ck0 + sign * d
            res = root(resid, y_base, args=(ck,), method="hybr", options={"xtol": 1e-12})
            # hybr may report no progress at a residual already at rounding level
            worst = float(np.max(np.abs(res.fun)))
            scale = abs(float(p.family.du(k, chat_k_of(ck)))) * price_scale
            if not worst <= 1e-10 * scale:
                raise NonConvergence(
                    f"wealth-response system did not converge at level {k}, atom {a} "
                    f"(residual {worst:.3e}, scale {scale:.3e})",
                    best=bmat @ res.x,
                    diagnostics={"message": res.message, "residual": worst, "scale": scale},
                )
            sols[sign] = bmat @ res.x
        for j, b in enumerate(children):
            est = (sols[+1][j] - sols[-1][j]) / (2 * d)
            estimates[(a, int(b))] = float(est)
            bounds[(a, int(b))] = float(bound_lvl[b])

        if k == T - 1:
            du2_next = p.family.d2u(T, np.array([
                cbase[T][int(b)] - p.h[T][int(b)]
                - sum(p.beta[T, lev] * (ck0 if lev == k else hist[lev])
                      for lev in range(k + 1))
                for b in children
            ]))
            proj_du2 = bmat @ (bmat.T @ (wch * du2_next))
            du2_here = p.family.d2u(k, chat_k_of(ck0))
            for j, b in enumerate(children):
                terminal_formula[(a, int(b))] = float(
                    p.beta[T, T - 1] + mt_ratio[j] * du2_here / proj_du2[j]
                )

    satisfied = all(estimates[key] >= bounds[key] - slack for key in estimates)
    return BoundReport(
        level=k, estimates=estimates, bounds=bounds, satisfied=satisfied,
        scope=scope, market_kind=kind, base_residual=base_residual,
        details={"delta": delta, "terminal_formula": terminal_formula},
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
                   delta: float | None = None, gtol: float = 1e-12,
                   base: Solution | None = None) -> EnvelopeReport:
    """Differentiate the value function in the endowment and compare with
    the time-0 habit-adjusted marginal utility of the optimal plan."""
    t = m.tree
    eps_vals = _as_level_values(t, eps)
    if base is None:
        base = solve_general(m, p, eps_vals, gtol=gtol)
    x0 = _base_holdings(base, 0, 0)
    marginal = float(base.R.values(0)[0])
    e0 = float(eps_vals[0][0])
    d = delta if delta is not None else max(1e-4, 1e-4 * abs(e0))

    def value_at(e0v: float) -> float:
        shifted = [np.full(1, e0v)] + [eps_vals[l] for l in range(1, t.T + 1)]
        return solve_general(m, p, shifted, gtol=gtol, x0=x0).U

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
                        gross_rates=(0.25, 1.0, 4.0),
                        eps0: float = 1.0, gtol: float = 1e-12) -> LinearityReport:
    """Optimal time-0 consumption is proportional to the endowment when a
    single bond with gross return ``r`` carries savings for one period.

    The predicted share is ``r**(1 - 1/gamma) / (1 + r**(1 - 1/gamma))``,
    independent of the endowment, and exactly one half for log utility.
    """
    t = build_tree([[[0]], [[0]]], [1.0])
    rows = []
    max_gap = 0.0
    for g in gammas:
        for r in gross_rates:
            m = MarketModel(t, [r - 1.0], strict=False)
            p = HabitPreferences(t, PowerUtility(g, 0.0))
            sol = solve_general(m, p, [np.array([eps0]), np.zeros(1)], gtol=gtol)
            share = float(sol.c.values(0)[0]) / eps0
            x = r ** (1.0 - 1.0 / g)
            predicted = x / (1.0 + x)
            gap = abs(share - predicted)
            max_gap = max(max_gap, gap)
            rows.append({"gamma": float(g), "gross_rate": float(r),
                         "share": share, "predicted": predicted, "gap": gap})
    return LinearityReport(rows=rows, max_gap=max_gap)


def _log_over_reciprocal_family() -> CustomUtility:
    """Log felicity today, negative-reciprocal felicity tomorrow."""

    def u(k, x):
        return np.log(x) if k == 0 else -1.0 / x

    def du(k, x):
        return 1.0 / x if k == 0 else np.power(x, -2.0)

    def d2u(k, x):
        return -np.power(x, -2.0) if k == 0 else -2.0 * np.power(x, -3.0)

    def du_inv(k, y):
        return 1.0 / y if k == 0 else np.power(y, -0.5)

    return CustomUtility(u, du, d2u, du_inv, inada=True)


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
    p = HabitPreferences.one_lag(t, _log_over_reciprocal_family(), 1.0)
    spd = spd_bundle(m, p.beta)
    m1 = spd.M[1].values
    w1 = t.atom_probs[1]
    eps1_vals = np.broadcast_to(np.asarray(eps1, dtype=float), (t.n_atoms(1),))

    a = 1.0 + float(np.dot(w1, m1))
    b_published = float(np.dot(w1, m1 * np.sqrt(m1)))
    b_corrected = float(np.sqrt(a) * np.dot(w1, np.sqrt(m1)))
    cval = float(np.dot(w1, m1 * eps1_vals))

    def closed_c0(e0: float, b: float) -> float:
        disc = np.sqrt(b * b + 4.0 * a * (e0 + cval))
        return float(((disc - b) / (2.0 * a)) ** 2)

    def solver_c0_at(e0: float):
        sol = solve_complete_general(m, p, [np.array([e0]), eps1_vals], spd=spd)
        return float(sol.c.values(0)[0]), sol.c.values(1).copy()

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
    kept with a status message rather than dropped.  The market's deflator
    and classification are computed once and shared by every grid point.
    """
    from .solvers import solve_auto

    t = m.tree
    eps_vals = _as_level_values(t, eps)
    rest = [eps_vals[l] for l in range(1, t.T + 1)]
    grid = np.linspace(float(start), float(stop), int(n))

    def solve_one(e0: float) -> dict:
        row: dict = {"eps0": float(e0), "c0": None, "status": "ok",
                     "U": None, "per_period_U": None}
        try:
            sol = solve_auto(m, p, [np.full(1, e0)] + rest, method=method)
            row["c0"] = float(sol.c.values(0)[0])
            row["U"] = float(sol.U)
            row["per_period_U"] = [
                float(np.dot(t.atom_probs[k], p.family.u(k, sol.chat.values(k))))
                for k in range(t.T + 1)
            ]
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
        nxt = RandomVariable(tree, k + 1, R[k + 1])
        R[k] = (1.0 + np.broadcast_to(rates[k], (tree.n_atoms(k),))) \
            * condexp(nxt, k).values
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
            num = condexp(RandomVariable(tree, k + 1, R[k + 1] * cum[:, i]), k).values
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
    nf = base_tree.n_leaves
    noise_probs = rng.dirichlet(np.full(2 ** T, 8.0))

    n = nf * (2 ** T)

    def leaf(fi, ni):
        return fi * (2 ** T) + ni

    levels = []
    for k in range(T + 1):
        atoms = []
        fw = 2 ** (T - k)
        for fa in range(2 ** k):
            f_leaves = range(fa * fw, (fa + 1) * fw)
            for na in range(2 ** k):
                n_leaves_rng = range(na * fw, (na + 1) * fw)
                atoms.append([leaf(fi, ni) for fi in f_leaves for ni in n_leaves_rng])
        levels.append(atoms)
    probs = np.empty(n)
    for fi in range(nf):
        for ni in range(2 ** T):
            probs[leaf(fi, ni)] = base_tree.probs[fi] * noise_probs[ni]
    tree = build_tree(levels, probs)

    # positions: atom index at level k is fa * 2**k + na
    def g_atom(k, fa, na):
        return fa * (2 ** k) + na

    rates_g = rates
    prices = []
    divs = []
    for k in range(T):
        vals = np.empty((tree.n_atoms(k), 1))
        for fa in range(2 ** k):
            for na in range(2 ** k):
                vals[g_atom(k, fa, na), 0] = base_market.S[k][fa, 1]
        prices.append(vals)
    for k in range(1, T + 1):
        vals = np.empty((tree.n_atoms(k), 1))
        for fa in range(2 ** k):
            for na in range(2 ** k):
                vals[g_atom(k, fa, na), 0] = base_market.d[k][fa, 1]
        divs.append(vals)
    market = MarketModel(tree, rates_g, prices, divs)

    witness = []
    for k in range(T + 1):
        witness.append(tuple(
            tuple(g_atom(k, fa, na) for na in range(2 ** k))
            for fa in range(2 ** k)
        ))
    witness = tuple(witness)

    eps = [np.array([float(rng.uniform(1.0, 2.0))])]
    for k in range(1, T + 1):
        eps.append(rng.uniform(0.2, 0.8, tree.n_atoms(k)))
    h = None
    if floors:
        h = [np.zeros(tree.n_atoms(0))] + \
            [rng.uniform(0.0, 0.04, tree.n_atoms(k)) for k in range(1, T + 1)]
    prefs = HabitPreferences(tree, fam, beta, h)
    return tree, market, prefs, eps, witness


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
    scenarios byte for byte.
    """
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
            if built is None:
                continue
            tree, market, prefs, eps, witness = built
            cls = classify_market(market, witness)
            if cls.kind != "idiosyncratic":
                continue
        else:
            if family == "complete":
                br = branching or 2
                n_risky = br - 1
            elif family == "bond_only":
                br = branching or 2
                n_risky = 0
            elif family == "general":
                br = branching or 3
                n_risky = 1
            else:
                raise ValueError(f"unknown market family {family!r}")
            tree = _uniform_tree(rng, T, br)
            rates = [float(rng.choice([0.0, 0.02, 0.05]))] * T
            market = _priced_market(rng, tree, rates, n_risky)
            kind = classify_market(market).kind
            if family == "complete" and kind != "complete":
                continue
            if family == "bond_only" and kind != "type_c":
                continue
            if family == "general" and kind != "general":
                continue
            witness = None
            eps = [np.array([float(rng.uniform(1.0, 2.0))])]
            for k in range(1, T + 1):
                eps.append(rng.uniform(0.2, 0.8, tree.n_atoms(k)))
            h = None
            if floors:
                h = [np.zeros(1)] + [rng.uniform(0.0, 0.04, tree.n_atoms(k))
                                     for k in range(1, T + 1)]
            prefs = HabitPreferences(tree, fam, beta, h)
        try:
            from .solvers import _SubtreePlan, _interior_start
            _interior_start(_SubtreePlan(market, prefs, eps))
        except Infeasible:
            continue
        meta = {"seed": int(seed), "family": family, "T": int(T),
                "utility": utility, "habit": habit, "floors": bool(floors)}
        return Scenario(tree, market, prefs, eps,
                        witness if family == "idiosyncratic" else None, meta)
    raise GenerationExhausted(
        f"could not draw a valid {family} scenario in {max_tries} tries (seed {seed})"
    )
