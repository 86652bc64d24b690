"""Time-additive utilities with linear internal habits and exogenous floors.

Consumption plans are judged through their habit-adjusted values

    chat_k = c_k - sum over l < k of beta[k, l] c_l - h_k,

so felicity at time ``k`` is ``u_k(chat_k)``.  The module holds the utility
families, the habit bookkeeping (including the chain coefficients that unroll
consumption in terms of adjusted consumption), the habit-adjusted marginal
deflator, and the residuals of the full and simplified first-order systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, LevelMismatch
from .market import MarketModel, SPDBundle, _project
from .tree import AdaptedProcess, EventTree, HabitOperator

__all__ = [
    "PowerUtility",
    "LogUtility",
    "ExponentialUtility",
    "CustomUtility",
    "HabitPreferences",
    "PerturbedConsumption",
    "theta_table",
    "perturbed_consumption",
    "utility_value",
    "habit_adjusted_marginal",
    "foc_residual",
    "simplified_foc_residual",
]


def _finite(name: str, x) -> np.ndarray:
    """``x`` as a float array; ValueError naming ``name`` where an entry is not finite."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def _runs(keys) -> list[tuple[int, int, object]]:
    """Maximal runs ``(start, stop, key)`` of equal consecutive ``keys``."""
    keys = np.asarray(keys)
    cut = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return [(a, b, keys[a].item()) for a, b in zip([0, *cut], [*cut, keys.size]) if b > a]


def _by_runs(x: np.ndarray, runs, f) -> np.ndarray:
    """``f(x[a:b], key)`` over each run, in one call when a single run covers ``x``."""
    if len(runs) == 1:
        return f(x, runs[0][2])
    out = np.empty_like(x)
    for a, b, key in runs:
        out[a:b] = f(x[a:b], key)
    return out


def _per_level(f, levels):
    """``x -> f(k, x)`` at each row's level ``k``, one call per run of rows at one level.

    This is the whole-plan evaluation of the families' ``d3u`` and of a
    ``CustomUtility``.
    """
    runs = _runs(levels)
    return lambda x: _by_runs(x, runs, lambda xs, k: f(k, xs))


class PowerUtility:
    """Constant relative risk aversion felicity, possibly time-varying.

    ``u_k(x) = exp(-rho k) x^(1-gamma_k) / (1-gamma_k)`` with the usual
    logarithmic limit at ``gamma_k = 1``.  Defined for ``x > 0``.

    Every family has the whole-plan evaluation ``on_rows(levels)``: given
    the level of each row of a plan, it returns functions ``u(x)`` and
    ``du_d2u(x)`` of the plan's adjusted consumption whose elements equal,
    bit for bit, the scalar-level ``u``, ``du`` and ``d2u`` at each row's
    level.  Here discounts and curvature factors are resolved once per row,
    and each run of rows that shares ``gamma_k`` takes one power (or log)
    call with a scalar exponent, as the scalar-level methods do: numpy's fast
    paths for exponents such as -1 round differently from its array path.
    """

    name = "power"
    inada = True

    def __init__(self, gamma, rho: float = 0.0, T: int | None = None):
        g = np.atleast_1d(_finite("relative risk aversion", gamma))
        if np.any(g <= 0):
            raise ValueError("relative risk aversion must be positive")
        if g.size == 1 and T is not None:
            g = np.full(T + 1, g[0])
        self.gamma = g
        self.rho = float(_finite("discount rate rho", rho))

    def gamma_at(self, k: int) -> float:
        return float(self.gamma[min(k, self.gamma.size - 1)])

    def u(self, k: int, x):
        g = self.gamma_at(k)
        x = np.asarray(x, dtype=float)
        disc = np.exp(-self.rho * k)
        if g == 1.0:
            return disc * np.log(x)
        return disc * np.power(x, 1.0 - g) / (1.0 - g)

    def du(self, k: int, x):
        g = self.gamma_at(k)
        return np.exp(-self.rho * k) * np.power(np.asarray(x, dtype=float), -g)

    def d2u(self, k: int, x):
        g = self.gamma_at(k)
        return -g * np.exp(-self.rho * k) * np.power(np.asarray(x, dtype=float), -g - 1.0)

    def d3u(self, k: int, x):
        g = self.gamma_at(k)
        return g * (g + 1.0) * np.exp(-self.rho * k) * np.power(np.asarray(x, float), -g - 2.0)

    def du_inv(self, k: int, y):
        """Inverse marginal felicity, used by the complete-market recursions."""
        g = self.gamma_at(k)
        return np.power(np.asarray(y, dtype=float) * np.exp(self.rho * k), -1.0 / g)

    def on_rows(self, levels):
        n = len(levels)
        disc, curv, denom, gam = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
        for a, b, k in _runs(levels):
            g = self.gamma_at(k)
            d = np.exp(-self.rho * k)
            gam[a:b], disc[a:b], curv[a:b] = g, d, -g * d
            denom[a:b] = 1.0 if g == 1.0 else 1.0 - g
        gruns = _runs(gam)

        def u(x):
            return disc * _by_runs(x, gruns, lambda xs, g: np.log(xs) if g == 1.0
                                   else np.power(xs, 1.0 - g)) / denom

        def du_d2u(x):
            return (disc * _by_runs(x, gruns, lambda xs, g: np.power(xs, -g)),
                    curv * _by_runs(x, gruns, lambda xs, g: np.power(xs, -g - 1.0)))

        return u, du_d2u


class LogUtility(PowerUtility):
    """Logarithmic felicity (unit relative risk aversion)."""

    name = "log"

    def __init__(self, rho: float = 0.0):
        super().__init__(1.0, rho)


class ExponentialUtility:
    """Constant absolute risk aversion felicity on the whole real line.

    ``u_k(x) = -exp(-rho k) exp(-gamma x) / gamma``.  ``on_rows(levels)``
    (see ``PowerUtility``) resolves per-row discounts once and shares one
    ``exp(-gamma x)`` between ``u'`` and ``u''``.
    """

    name = "exp"
    inada = False

    def __init__(self, gamma: float, rho: float = 0.0):
        if _finite("absolute risk aversion", gamma) <= 0:
            raise ValueError("absolute risk aversion must be positive")
        self.gamma = float(gamma)
        self.rho = float(_finite("discount rate rho", rho))

    def gamma_at(self, k: int) -> float:
        return self.gamma

    def u(self, k: int, x):
        return -np.exp(-self.rho * k) * np.exp(-self.gamma * np.asarray(x, float)) / self.gamma

    def du(self, k: int, x):
        return np.exp(-self.rho * k) * np.exp(-self.gamma * np.asarray(x, float))

    def d2u(self, k: int, x):
        return -self.gamma * np.exp(-self.rho * k) * np.exp(-self.gamma * np.asarray(x, float))

    def d3u(self, k: int, x):
        return self.gamma ** 2 * np.exp(-self.rho * k) * np.exp(-self.gamma * np.asarray(x, float))

    def du_inv(self, k: int, y):
        return -np.log(np.asarray(y, float) * np.exp(self.rho * k)) / self.gamma

    def on_rows(self, levels):
        disc = np.empty(len(levels))
        for a, b, k in _runs(levels):
            disc[a:b] = np.exp(-self.rho * k)
        neg, curv = -disc, -self.gamma * disc

        def u(x):
            return neg * np.exp(-self.gamma * x) / self.gamma

        def du_d2u(x):
            e = np.exp(-self.gamma * x)
            return disc * e, curv * e

        return u, du_d2u


class CustomUtility:
    """User-supplied felicity ``(u, du, d2u)``, shared across periods.

    Each callable takes ``(k, x)``: a scalar level ``k`` and an array ``x`` of
    adjusted consumption at that level.  ``on_rows(levels)`` (see
    ``PowerUtility``) therefore calls them once per run of rows at one level.
    ``d3u`` is the central difference of ``d2u`` over ``x +- h``, with ``h``
    about ``eps^(1/3)`` relative: ``6e-6 x`` under an Inada condition, so
    that ``x > 0`` stays in the domain, else ``6e-6 max(1, |x|)``.
    """

    name = "custom"

    def __init__(self, u, du, d2u, du_inv=None, inada: bool = True):
        self._u, self._du, self._d2u, self._du_inv = u, du, d2u, du_inv
        self.inada = bool(inada)

    def u(self, k: int, x):
        return self._u(k, np.asarray(x, float))

    def du(self, k: int, x):
        return self._du(k, np.asarray(x, float))

    def d2u(self, k: int, x):
        return self._d2u(k, np.asarray(x, float))

    def d3u(self, k: int, x):
        x = np.asarray(x, float)
        h = 6e-6 * (x if self.inada else np.maximum(1.0, np.abs(x)))
        up, down = x + h, x - h
        return (self._d2u(k, up) - self._d2u(k, down)) / (up - down)

    def du_inv(self, k: int, y):
        if self._du_inv is None:
            raise NotImplementedError("this custom utility has no inverse marginal")
        return self._du_inv(k, np.asarray(y, float))

    def on_rows(self, levels):
        u, du, d2u = (_per_level(f, levels) for f in (self.u, self.du, self.d2u))
        return u, lambda x: (du(x), d2u(x))


class HabitPreferences:
    """Habit weights, exogenous floors, and a utility family on a tree.

    Parameters
    ----------
    tree : EventTree
    family : PowerUtility | LogUtility | ExponentialUtility | CustomUtility
    beta : array_like, optional
        ``(T+1, T+1)`` matrix, ``beta[m, l]`` the non-negative weight of
        period-``l`` consumption in the period-``m`` habit (``l < m``); upper
        triangle and diagonal must be zero.  Defaults to no habit.
    h : sequence, optional
        Adapted non-negative floors, one array per level (level 0 must be 0).

    A per-level risk aversion (``family.gamma`` with more than one entry)
    and ``h`` must each list exactly ``T+1`` levels (LevelMismatch).
    ``habit`` is the :class:`~habitopt.tree.HabitOperator` of ``beta``.
    """

    def __init__(self, tree: EventTree, family, beta=None, h=None):
        T = tree.T
        if beta is None:
            beta = np.zeros((T + 1, T + 1))
        beta = _finite("habit weights beta", beta)
        if beta.shape != (T + 1, T + 1):
            raise LevelMismatch(f"beta must be {(T + 1, T + 1)}, got {beta.shape}")
        if np.any(beta < 0):
            raise ValueError("habit weights must be non-negative")
        if np.any(np.triu(beta) != 0):
            raise ValueError("beta must be strictly lower triangular")
        gamma = np.atleast_1d(getattr(family, "gamma", 0.0))
        if gamma.size > 1 and gamma.size != T + 1:
            raise LevelMismatch(f"expected {T + 1} levels of risk aversion, got {gamma.size}")
        if h is None:
            h = [np.zeros(tree.n_atoms(k)) for k in range(T + 1)]
        if len(h) != T + 1:
            raise LevelMismatch(f"expected {T + 1} levels of floors, got {len(h)}")
        h = [hk.copy() for hk in _as_level_values(tree, h, "floor")]
        if np.any(h[0] != 0):
            raise ValueError("the exogenous floor at time 0 must vanish")
        if any(np.any(hk < 0) for hk in h):
            raise ValueError("exogenous floors must be non-negative")

        self.tree = tree
        self.family = family
        self.beta = beta
        self.h = h
        self.habit = HabitOperator(tree, beta)

    @classmethod
    def one_lag(cls, tree: EventTree, family, b: float, h=None) -> "HabitPreferences":
        beta = np.zeros((tree.T + 1, tree.T + 1))
        for m in range(1, tree.T + 1):
            beta[m, m - 1] = b
        return cls(tree, family, beta, h)

    @property
    def T(self) -> int:
        return self.tree.T

    def to_json(self) -> dict:
        fam = self.family
        out: dict = {"family": fam.name, "beta": [[float(v) for v in row] for row in self.beta],
                     "h": [[float(v) for v in hk] for hk in self.h]}
        if fam.name in ("power", "log"):
            out["rho"] = fam.rho
            if fam.name == "power":
                out["gamma"] = [float(g) for g in np.broadcast_to(fam.gamma, (self.T + 1,))] \
                    if fam.gamma.size > 1 else float(fam.gamma[0])
        elif fam.name == "exp":
            out["rho"] = fam.rho
            out["gamma"] = fam.gamma
        else:
            raise ValueError("custom utilities cannot be serialized")
        return out

    @staticmethod
    def from_json(tree: EventTree, obj: dict) -> "HabitPreferences":
        name = obj["family"]
        rho = float(obj.get("rho", 0.0))
        if name == "log":
            fam = LogUtility(rho)
        elif name == "power":
            fam = PowerUtility(obj["gamma"], rho, T=tree.T)
        elif name == "exp":
            fam = ExponentialUtility(float(obj["gamma"]), rho)
        else:
            raise ValueError(f"unknown utility family {name!r}")
        return HabitPreferences(tree, fam, obj.get("beta"), obj.get("h"))


def theta_table(beta: np.ndarray) -> np.ndarray:
    """Accumulated habit chain weights.

    ``theta[l, k]`` sums, over all strictly decreasing index paths from ``l``
    to ``k``, the products of one-step habit weights along the path.  The
    table simultaneously provides the unrolling of consumption in terms of
    adjusted consumption (with an implicit unit diagonal) and the interaction
    coefficients entering the policy bounds.
    """
    n = beta.shape[0]
    theta = np.zeros_like(beta)
    for l in range(n):
        for k in range(l - 1, -1, -1):
            acc = beta[l, k]
            for s in range(k + 1, l):
                acc += beta[l, s] * theta[s, k]
            theta[l, k] = acc
    return theta


@dataclass(frozen=True)
class PerturbedConsumption:
    """Habit-adjusted consumption plus strict-positivity bookkeeping."""

    chat: AdaptedProcess
    feasible: bool
    violations: tuple


def _as_level_values(tree: EventTree, c, name: str = "endowment") -> list[np.ndarray]:
    """One array per level of a process given per level as a scalar or one
    finite value per atom; LevelMismatch or ValueError names ``name``."""
    if isinstance(c, AdaptedProcess):
        return [c.values(k) for k in range(tree.T + 1)]
    if len(c) != tree.T + 1:
        raise LevelMismatch(f"expected {tree.T + 1} levels, got {len(c)}")
    out = []
    for k, ck in enumerate(c):
        v = _finite(f"{name} at level {k}", ck)
        if v.ndim > 1 or v.size not in (1, tree.n_atoms(k)):
            raise LevelMismatch(f"{name} at level {k} has {v.size} values "
                                f"for {tree.n_atoms(k)} atoms")
        out.append(np.broadcast_to(v, (tree.n_atoms(k),)))
    return out


def perturbed_consumption(p: HabitPreferences, c) -> PerturbedConsumption:
    """Subtract habits and floors from a plan; flag domain violations.

    Violations are reported (not raised) so that search procedures can treat
    them as infinite penalties.
    """
    t = p.tree
    chat = p.habit.apply(_as_level_values(t, c, "consumption"))
    violations = []
    for k, vals in enumerate(chat):
        vals -= p.h[k]
        if p.family.inada and np.any(vals <= 0):
            for a in np.flatnonzero(vals <= 0):
                violations.append((k, int(a)))
    return PerturbedConsumption(
        chat=AdaptedProcess(t, chat),
        feasible=not violations,
        violations=tuple(violations),
    )


def _chat_levels(pc: PerturbedConsumption) -> list[np.ndarray]:
    """The arrays of ``pc.chat``, one per level."""
    return [pc.chat.values(k) for k in range(len(pc.chat))]


def _utility_of(p: HabitPreferences, chat) -> float:
    """Total expected utility from per-level habit-adjusted consumption."""
    t = p.tree
    total = 0.0
    for k in range(t.T + 1):
        total += float(np.dot(t.atom_probs[k], p.family.u(k, chat[k])))
    return total


def _marginal_of(p: HabitPreferences, chat) -> list[np.ndarray]:
    """Per-level habit-adjusted marginal from per-level habit-adjusted consumption."""
    return p.habit.adjoint([p.family.du(k, chat[k]) for k in range(p.tree.T + 1)])


def _require_feasible(pc: PerturbedConsumption) -> PerturbedConsumption:
    """Pass ``pc`` through, or raise DomainViolation at its first violation."""
    if not pc.feasible:
        k, a = pc.violations[0]
        raise DomainViolation(
            f"habit-adjusted consumption is not positive at level {k}, atom {a}",
            period=k, atom=a,
        )
    return pc


def utility_value(p: HabitPreferences, c, on_violation: str = "raise") -> float:
    """Total expected utility of a plan.

    ``on_violation`` selects between raising DomainViolation and returning
    ``-inf`` when the habit-adjusted plan leaves the utility domain.
    """
    pc = perturbed_consumption(p, c)
    if not pc.feasible and on_violation == "-inf":
        return -np.inf
    return _utility_of(p, _chat_levels(_require_feasible(pc)))


def habit_adjusted_marginal(p: HabitPreferences, c) -> AdaptedProcess:
    """Marginal utility of consumption net of its future habit drag.

    ``R_k = u'_k(chat_k) - sum over m > k of beta[m, k] E[u'_m(chat_m) | level k]``.
    At an optimum this process prices all traded payoffs.
    """
    pc = _require_feasible(perturbed_consumption(p, c))
    return AdaptedProcess(p.tree, _marginal_of(p, _chat_levels(pc)))


def foc_residual(m: MarketModel, p: HabitPreferences, c, spd: SPDBundle) -> list[np.ndarray]:
    """Residuals of the full first-order system, one array per level ``1..T``.

    Level-``k`` residual: ``proj_k(R_k(c) / R_{k-1}(c)) - M_k / M_{k-1}``.
    """
    t = m.tree
    R = habit_adjusted_marginal(p, c)
    out = []
    for k in range(1, t.T + 1):
        prev = R.values(k - 1)[t.parent[k]]
        if np.any(np.abs(prev) < 1e-14):
            raise DomainViolation(
                f"habit-adjusted marginal vanishes at level {k - 1}", period=k - 1
            )
        lhs = _project(m, k, R.values(k) / prev)
        rhs = spd.M[k].values / spd.M[k - 1].values[t.parent[k]]
        out.append(lhs - rhs)
    return out


def simplified_foc_residual(m: MarketModel, p: HabitPreferences, c,
                            spd: SPDBundle) -> list[np.ndarray]:
    """Residuals of the habit-free system under the perturbed deflator.

    Level-``k`` residual:
    ``proj_k(u'_k(chat_k)) - (Mtilde_k / Mtilde_{k-1}) u'_{k-1}(chat_{k-1})``.
    Equivalent to the full system on markets where projections are
    positivity-preserving conditional expectations or risk is idiosyncratic.
    """
    t = m.tree
    pc = _require_feasible(perturbed_consumption(p, c))
    out = []
    for k in range(1, t.T + 1):
        du_k = p.family.du(k, pc.chat.values(k))
        du_prev = p.family.du(k - 1, pc.chat.values(k - 1))
        lhs = _project(m, k, du_k)
        ratio = spd.Mtilde[k].values / spd.Mtilde[k - 1].values[t.parent[k]]
        rhs = ratio * du_prev[t.parent[k]]
        out.append(lhs - rhs)
    return out
