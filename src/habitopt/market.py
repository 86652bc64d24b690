"""Securities markets on event trees: no-arbitrage, payoff spaces, deflators.

A market couples an :class:`~habitopt.tree.EventTree` with a riskless bond
(price 1, predictable rate) and ``N`` risky assets given by non-negative
price and dividend processes.  The module provides the no-arbitrage check
(existence of a strictly positive state-price deflator), the one-period
attainable-payoff spaces with their orthogonal projections, the aggregate
deflator built from projected deflator ratios, its habit-perturbed variant,
the market classification used to scope the policy bounds, and the budget
maps between consumption and wealth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    ArbitrageDetected,
    DivisionByZeroSPD,
    InvalidWitness,
    LevelMismatch,
    NotInPayoffSpace,
    VanishingAggregateSPD,
)
from .tree import AdaptedProcess, EventTree, RandomVariable, build_tree, condexp, lift

__all__ = [
    "MarketModel",
    "PayoffSpaceBasis",
    "SPDBundle",
    "MarketClass",
    "check_no_arbitrage",
    "payoff_space_basis",
    "project",
    "aggregate_spd",
    "perturbed_aggregate_spd",
    "spd_bundle",
    "classify_market",
    "deterministic_interest",
    "consumption_to_wealth",
    "wealth_to_consumption",
]

_RANK_TOL = 1e-10
_SPD_FLOOR = 1e-8
_PRICING_TOL = 1e-9


class MarketModel:
    """Bond plus risky assets on an event tree.

    Parameters
    ----------
    tree : EventTree
    rates : sequence
        ``rates[k-1]`` is the riskless rate paid over period ``(k-1, k]``,
        measurable at level ``k-1`` (scalar or one value per level-``k-1``
        atom), for ``k = 1..T``.
    risky_prices : sequence, optional
        ``risky_prices[k]`` has shape ``(n_atoms(k), N)`` for ``k = 0..T-1``.
        Omit for a bond-only market.
    risky_dividends : sequence, optional
        ``risky_dividends[k-1]`` has shape ``(n_atoms(k), N)`` for ``k = 1..T``.
    strict : bool
        With the default ``True``, rates must be non-negative.  ``False``
        relaxes this to gross positivity ``1 + r > 0`` (used for scenarios
        stated in gross-return terms); arbitrage is still excluded separately.

    Notes
    -----
    Internally the bond occupies asset slot 0: prices carry a leading column
    of ones and dividends a leading column equal to the lifted rate (plus the
    unit redemption at the terminal date).  Assets pay nothing before level 1
    and prices vanish at the terminal level.
    """

    def __init__(self, tree: EventTree, rates, risky_prices=None, risky_dividends=None,
                 strict: bool = True):
        T = tree.T
        if T < 1:
            raise LevelMismatch("a market needs at least one trading period")
        if len(rates) != T:
            raise LevelMismatch(f"expected {T} rate entries, got {len(rates)}")

        r = [None]
        for k in range(1, T + 1):
            rk = np.broadcast_to(np.asarray(rates[k - 1], dtype=float),
                                 (tree.n_atoms(k - 1),)).copy()
            if not np.all(np.isfinite(rk)):
                raise ValueError(f"rate for period {k} has non-finite entries")
            if strict and np.any(rk < 0):
                raise ValueError(
                    f"rate for period {k} is negative; pass strict=False for gross-positive rates"
                )
            if np.any(1.0 + rk <= 0):
                raise ValueError(f"rate for period {k} violates gross positivity 1 + r > 0")
            r.append(rk)

        if (risky_prices is None) != (risky_dividends is None):
            raise ValueError("risky_prices and risky_dividends must be given together")
        if risky_prices is None:
            N = 0
            risky_prices, risky_dividends = [], []
        else:
            if len(risky_prices) != T or len(risky_dividends) != T:
                raise LevelMismatch(
                    f"expected {T} price and {T} dividend entries, "
                    f"got {len(risky_prices)} and {len(risky_dividends)}"
                )
            N = np.asarray(risky_prices[0], dtype=float).reshape(tree.n_atoms(0), -1).shape[1]

        S = []
        for k in range(T):
            na = tree.n_atoms(k)
            Sk = np.ones((na, N + 1))
            if N:
                block = np.asarray(risky_prices[k], dtype=float).reshape(na, N)
                if np.any(~np.isfinite(block)) or np.any(block < 0):
                    raise ValueError(f"risky prices at level {k} must be finite and non-negative")
                Sk[:, 1:] = block
            S.append(Sk)

        d = [None]
        for k in range(1, T + 1):
            na = tree.n_atoms(k)
            dk = np.empty((na, N + 1))
            bond = r[k][tree.parent[k]]
            dk[:, 0] = bond + (1.0 if k == T else 0.0)
            if N:
                block = np.asarray(risky_dividends[k - 1], dtype=float).reshape(na, N)
                if np.any(~np.isfinite(block)) or np.any(block < 0):
                    raise ValueError(f"dividends at level {k} must be finite and non-negative")
                dk[:, 1:] = block
            d.append(dk)

        self.tree = tree
        self.n_risky = N
        self.r = r
        self.S = S
        self.d = d
        self._bases: dict[int, PayoffSpaceBasis] = {}

    @property
    def T(self) -> int:
        return self.tree.T

    def gain(self, k: int) -> np.ndarray:
        """Cum-dividend payoff ``S_k + d_k`` per level-``k`` atom, ``k = 1..T``."""
        price = self.S[k] if k < self.T else 0.0
        return price + self.d[k]

    def to_json(self) -> dict:
        return {
            "N": self.n_risky,
            "r": [[float(v) for v in self.r[k]] for k in range(1, self.T + 1)],
            "S": [[[float(v) for v in row[1:]] for row in self.S[k]] for k in range(self.T)],
            "d": [[[float(v) for v in row[1:]] for row in self.d[k]]
                  for k in range(1, self.T + 1)],
        }

    @staticmethod
    def from_json(tree: EventTree, obj: dict, strict: bool = True) -> "MarketModel":
        N = int(obj.get("N", 0))
        if N == 0:
            return MarketModel(tree, obj["r"], strict=strict)
        return MarketModel(tree, obj["r"], obj["S"], obj["d"], strict=strict)


@dataclass(frozen=True)
class PayoffSpaceBasis:
    """Orthonormalized basis of the one-period attainable payoffs at a level.

    ``generators`` stacks the raw spanning payoffs (one per prior atom and
    asset slot); ``ortho`` holds ``rank`` rows orthonormal under the
    probability-weighted pairing.
    """

    level: int
    generators: np.ndarray
    ortho: np.ndarray
    rank: int


def payoff_space_basis(m: MarketModel, k: int) -> PayoffSpaceBasis:
    """Basis and rank of the level-``k`` attainable payoff space, ``k = 1..T``."""
    if not 1 <= k <= m.T:
        raise LevelMismatch(f"payoff spaces exist for levels 1..{m.T}, got {k}")
    if k in m._bases:
        return m._bases[k]
    t = m.tree
    gain = m.gain(k)
    na = t.n_atoms(k)
    gens = []
    for b in range(t.n_atoms(k - 1)):
        mask = t.parent[k] == b
        for i in range(m.n_risky + 1):
            row = np.zeros(na)
            row[mask] = gain[mask, i]
            gens.append(row)
    G = np.array(gens)
    w = t.atom_probs[k]
    sw = np.sqrt(w)
    _, sv, vt = np.linalg.svd(G * sw, full_matrices=False)
    rank = int(np.sum(sv > _RANK_TOL * (sv[0] if sv.size else 1.0)))
    Q = vt[:rank] / sw
    basis = PayoffSpaceBasis(level=k, generators=G, ortho=Q, rank=rank)
    m._bases[k] = basis
    return basis


def project(m: MarketModel, k: int, x: RandomVariable) -> RandomVariable:
    """Orthogonal projection of ``x`` onto the level-``k`` payoff space.

    ``x`` may live at any level: it is lifted if coarser than ``k`` and
    replaced by its level-``k`` conditional expectation if finer (legitimate
    because the payoff space consists of level-``k`` measurable claims).
    """
    t = m.tree
    if x.level < k:
        x = lift(x, k)
    elif x.level > k:
        x = condexp(x, k)
    basis = payoff_space_basis(m, k)
    w = t.atom_probs[k]
    coeffs = basis.ortho @ (w * x.values)
    return RandomVariable(t, k, coeffs @ basis.ortho)


def in_payoff_space(m: MarketModel, x: RandomVariable, tol: float = _PRICING_TOL) -> bool:
    px = project(m, x.level, x)
    scale = max(1.0, float(np.max(np.abs(x.values))))
    return float(np.max(np.abs(px.values - x.values))) <= tol * scale


# ---------------------------------------------------------------------------
# state-price deflators
# ---------------------------------------------------------------------------

def check_no_arbitrage(m: MarketModel, objective="uniform", seed: int | None = None):
    """Find a strictly positive state-price deflator, or prove there is none.

    Solves a linear program for atom values ``R_k(a) >= 1e-8`` (``R_0 = 1``)
    subject to the pricing identities

        p_a R_k(a) S^i_k(a) = sum over children b of p_b R_{k+1}(b) (S+d)^i_{k+1}(b)

    for every pre-terminal atom and asset slot.  Infeasibility of this system
    is equivalent to arbitrage on a finite tree.

    Parameters
    ----------
    m : MarketModel
    objective : {"uniform", "seeded"} or array
        Linear objective over the stacked deflator values.  ``"uniform"``
        minimizes their sum; ``"seeded"`` draws positive coefficients from
        ``numpy.random.default_rng(seed)`` so that distinct seeds generically
        select distinct deflators in incomplete markets.
    seed : int, optional
        Used only with ``objective="seeded"``.

    Returns
    -------
    AdaptedProcess
        Deflator with one value per atom, level by level, ``R_0 = 1``.

    Raises
    ------
    ArbitrageDetected
        If the pricing system admits no strictly positive solution.
    """
    t = m.tree
    T = t.T
    offsets = {}
    nvar = 0
    for k in range(1, T + 1):
        offsets[k] = nvar
        nvar += t.n_atoms(k)

    rows, rhs = [], []
    for k in range(T):
        gain = m.gain(k + 1)
        for a in range(t.n_atoms(k)):
            children = t.children(k, a)
            pa = t.atom_probs[k][a]
            for i in range(m.n_risky + 1):
                row = np.zeros(nvar)
                for b in children:
                    row[offsets[k + 1] + b] = t.atom_probs[k + 1][b] * gain[b, i]
                if k == 0:
                    # R_0 is pinned to 1, so it moves to the right-hand side
                    rows.append(row)
                    rhs.append(pa * m.S[k][a, i])
                else:
                    row[offsets[k] + a] = -pa * m.S[k][a, i]
                    rows.append(row)
                    rhs.append(0.0)

    if objective == "uniform":
        c = np.ones(nvar)
    elif objective == "seeded":
        c = np.random.default_rng(seed).uniform(0.5, 1.5, nvar)
    else:
        c = np.asarray(objective, dtype=float)
        if c.shape != (nvar,):
            raise ValueError(f"objective must have {nvar} entries")

    res = linprog(c, A_eq=np.array(rows), b_eq=np.array(rhs),
                  bounds=[(_SPD_FLOOR, None)] * nvar, method="highs")
    if not res.success:
        raise ArbitrageDetected(
            f"no strictly positive state-price deflator exists ({res.message})"
        )

    vals = [np.ones(1)]
    for k in range(1, T + 1):
        vals.append(res.x[offsets[k]:offsets[k] + t.n_atoms(k)].copy())

    # The LP meets the equalities only to solver tolerance (~1e-10 absolute),
    # which downstream ratio computations can amplify when deflator values are
    # small.  Repair level by level: least-norm correction of the children
    # values so each block prices exactly (skipped if it would cost positivity).
    for k in range(T):
        gain = m.gain(k + 1)
        for a in range(t.n_atoms(k)):
            children = t.children(k, a)
            pa = t.atom_probs[k][a]
            X = (t.atom_probs[k + 1][children][None, :] * gain[children].T)
            resid = pa * vals[k][a] * m.S[k][a] - X @ vals[k + 1][children]
            delta, *_ = np.linalg.lstsq(X, resid, rcond=None)
            fixed = vals[k + 1][children] + delta
            if np.all(fixed > 0):
                vals[k + 1][children] = fixed
    R = AdaptedProcess(t, vals)

    # certify the solution rather than trust LP status blindly
    for k in range(T):
        gain = m.gain(k + 1)
        Rk = R.values(k)
        Rn = R.values(k + 1)
        for a in range(t.n_atoms(k)):
            children = t.children(k, a)
            pa = t.atom_probs[k][a]
            for i in range(m.n_risky + 1):
                lhs = pa * Rk[a] * m.S[k][a, i]
                rv = sum(t.atom_probs[k + 1][b] * Rn[b] * gain[b, i] for b in children)
                if abs(lhs - rv) > _PRICING_TOL * max(1.0, abs(lhs)):
                    raise ArbitrageDetected(
                        f"deflator certificate failed at level {k}, atom {a}, asset {i}: "
                        f"residual {abs(lhs - rv):.3e}"
                    )
    return R


def aggregate_spd(m: MarketModel, R: AdaptedProcess):
    """Aggregate deflator ``M_k = M_{k-1} * proj_k(R_k / R_{k-1})``, ``M_0 = 1``.

    Each factor is the projection of the one-period deflator ratio onto the
    attainable payoff space; the product stays inside that space because the
    previous term is measurable at the prior level.  Raises
    VanishingAggregateSPD as soon as an atom value hits zero, since deflated
    budget constraints then lose meaning.
    """
    t = m.tree
    M = [RandomVariable(t, 0, np.ones(1))]
    for k in range(1, t.T + 1):
        ratio = RandomVariable(
            t, k, R.vars[k].values / lift(R.vars[k - 1], k).values
        )
        factor = project(m, k, ratio)
        vals = lift(M[k - 1], k).values * factor.values
        if np.any(np.abs(vals) < 1e-12):
            a = int(np.argmin(np.abs(vals)))
            raise VanishingAggregateSPD(
                f"aggregate deflator vanishes at level {k}, atom {a}"
            )
        M.append(RandomVariable(t, k, vals))
    return M


def perturbed_aggregate_spd(tree: EventTree, M, beta: np.ndarray):
    """Habit-perturbed deflator by backward recursion.

    ``Mt_T = M_T`` and ``Mt_k = M_k + sum over m > k of beta[m, k] E[Mt_m | level k]``.
    ``beta[m, k]`` is the weight with which period-``k`` consumption enters the
    period-``m`` habit level.
    """
    T = tree.T
    Mt = [None] * (T + 1)
    Mt[T] = M[T]
    for k in range(T - 1, -1, -1):
        vals = M[k].values.copy()
        for mm in range(k + 1, T + 1):
            b = float(beta[mm, k])
            if b != 0.0:
                vals = vals + b * condexp(Mt[mm], k).values
        Mt[k] = RandomVariable(tree, k, vals)
    return Mt


@dataclass(frozen=True)
class SPDBundle:
    """A deflator triple: raw ``R``, aggregate ``M``, habit-perturbed ``Mtilde``."""

    R: AdaptedProcess
    M: list
    Mtilde: list


def spd_bundle(m: MarketModel, beta: np.ndarray, objective="uniform",
               seed: int | None = None) -> SPDBundle:
    R = check_no_arbitrage(m, objective=objective, seed=seed)
    M = aggregate_spd(m, R)
    Mt = perturbed_aggregate_spd(m.tree, M, beta)
    return SPDBundle(R=R, M=M, Mtilde=Mt)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarketClass:
    """Structural label of a market with the evidence behind it.

    ``kind`` is one of ``"complete"``, ``"idiosyncratic"``, ``"type_c"``,
    ``"general"``.  ``payoff_ranks[k-1]`` is the rank of the level-``k``
    payoff space.  For type-C markets ``witness`` holds the intermediate
    partitions realizing each projection as a conditional expectation; for
    idiosyncratic markets it echoes the accepted sub-filtration.
    """

    kind: str
    payoff_ranks: tuple
    interest_deterministic: bool
    witness: tuple | None = None

    @property
    def bounds_in_scope(self) -> bool:
        if self.kind in ("complete", "idiosyncratic"):
            return True
        return self.kind == "type_c" and self.interest_deterministic


def deterministic_interest(m: MarketModel, tol: float = 1e-12) -> bool:
    return all(
        float(np.max(m.r[k]) - np.min(m.r[k])) <= tol for k in range(1, m.T + 1)
    )


def _check_idiosyncratic_witness(m: MarketModel, flt) -> None:
    """Validate a sub-filtration witness; raise InvalidWitness on any failing clause."""
    t = m.tree
    T = t.T
    if len(flt) != T + 1:
        raise InvalidWitness(f"witness must give {T + 1} partitions, got {len(flt)}")

    # each witness level must partition the same-level atoms into blocks
    atom_of = []
    for k, part in enumerate(flt):
        lab = np.full(t.n_atoms(k), -1, dtype=int)
        for j, block in enumerate(part):
            for a in block:
                if not 0 <= a < t.n_atoms(k) or lab[a] != -1:
                    raise InvalidWitness(f"witness level {k} is not a partition of the atoms")
                lab[a] = j
        if np.any(lab == -1):
            raise InvalidWitness(f"witness level {k} does not cover all atoms")
        atom_of.append(lab)
    if len(flt[0]) != 1:
        raise InvalidWitness("witness level 0 must be trivial")

    # leaf_lab[k][leaf] = witness block of the leaf at level k (terminal atoms
    # are singletons in leaf order, so level T indexes leaves directly)
    leaf_lab = [atom_of[k][t.leaf_to_atom[k]] for k in range(T + 1)]
    for k in range(T):
        for j in range(len(flt[k + 1])):
            owners = set(leaf_lab[k][leaf_lab[k + 1] == j])
            if len(owners) != 1:
                raise InvalidWitness(
                    f"witness block {j} at level {k + 1} straddles level-{k} blocks"
                )

    # prices, dividends, and rates must be witness-measurable
    for k in range(1, T + 1):
        rk = m.r[k]
        for j in range(len(flt[k - 1])):
            sel = atom_of[k - 1] == j
            if np.ptp(rk[sel]) > 1e-12:
                raise InvalidWitness(f"rate for period {k} varies inside witness block {j}")
        gain = m.gain(k)
        for i in range(m.n_risky + 1):
            for j in range(len(flt[k])):
                sel = atom_of[k] == j
                if np.ptp(gain[sel, i]) > 1e-10:
                    raise InvalidWitness(
                        f"asset {i} payoff at level {k} varies inside witness block {j}"
                    )
                if k < T and np.ptp(m.S[k][sel, i]) > 1e-10:
                    raise InvalidWitness(
                        f"asset {i} price at level {k} varies inside witness block {j}"
                    )

    # the quotient market on the witness filtration must be complete
    n_q = len(flt[T])
    rep_leaf = [int(np.flatnonzero(leaf_lab[T] == j)[0]) for j in range(n_q)]
    q_probs = np.array([t.probs[leaf_lab[T] == j].sum() for j in range(n_q)])
    q_lvls = []
    q_of_block = []
    for k in range(T + 1):
        groups: dict[int, list[int]] = {}
        for j in range(n_q):
            groups.setdefault(int(leaf_lab[k][rep_leaf[j]]), []).append(j)
        ordered = sorted(groups.items())
        q_lvls.append([tuple(v) for _, v in ordered])
        q_of_block.append({key: idx for idx, (key, _) in enumerate(ordered)})
    q_tree = build_tree(q_lvls, q_probs)

    def rep_atom(k, j):
        return int(np.flatnonzero(atom_of[k] == j)[0])

    q_rates = []
    for k in range(1, T + 1):
        vals = np.empty(q_tree.n_atoms(k - 1))
        for j in range(len(flt[k - 1])):
            vals[q_of_block[k - 1][j]] = m.r[k][rep_atom(k - 1, j)]
        q_rates.append(vals)
    if m.n_risky:
        q_prices, q_divs = [], []
        for k in range(T):
            vals = np.empty((q_tree.n_atoms(k), m.n_risky))
            for j in range(len(flt[k])):
                vals[q_of_block[k][j]] = m.S[k][rep_atom(k, j), 1:]
            q_prices.append(vals)
        for k in range(1, T + 1):
            vals = np.empty((q_tree.n_atoms(k), m.n_risky))
            for j in range(len(flt[k])):
                vals[q_of_block[k][j]] = m.d[k][rep_atom(k, j), 1:]
            q_divs.append(vals)
        q_market = MarketModel(q_tree, q_rates, q_prices, q_divs, strict=False)
    else:
        q_market = MarketModel(q_tree, q_rates, strict=False)
    for k in range(1, T + 1):
        if payoff_space_basis(q_market, k).rank != q_tree.n_atoms(k):
            raise InvalidWitness(
                f"market is not complete relative to the witness filtration at level {k}"
            )

    # conditioning on the full level must agree with conditioning on the
    # witness level for every witness-measurable next-period indicator
    for k in range(T):
        for j in range(len(flt[k + 1])):
            x = RandomVariable(t, T, (leaf_lab[k + 1] == j).astype(float))
            via_g = condexp(x, k).values
            via_f = np.empty_like(via_g)
            for jj in range(len(flt[k])):
                sel_leaves = leaf_lab[k] == jj
                mass = t.probs[sel_leaves].sum()
                val = float(np.dot(t.probs[sel_leaves], x.values[sel_leaves])) / mass
                via_f[atom_of[k] == jj] = val
            if np.max(np.abs(via_g - via_f)) > 1e-12:
                raise InvalidWitness(
                    f"conditioning on level {k} sees more than the witness level "
                    f"(indicator of witness block {j} at level {k + 1})"
                )


def classify_market(m: MarketModel, witness=None) -> MarketClass:
    """Classify a market as complete, idiosyncratic, type-C, or general.

    Completeness is a rank condition on every payoff space.  An idiosyncratic
    label requires a caller-supplied witness sub-filtration (partitions of the
    per-level atoms) and validates its three defining clauses, raising
    InvalidWitness otherwise.  The type-C test projects every atom indicator
    and accepts when all projections are non-negative, in which case the
    realizing intermediate partitions are constructed and verified.
    """
    t = m.tree
    T = t.T
    ranks = tuple(payoff_space_basis(m, k).rank for k in range(1, T + 1))
    det_r = deterministic_interest(m)

    if all(ranks[k - 1] == t.n_atoms(k) for k in range(1, T + 1)):
        return MarketClass("complete", ranks, det_r)

    if witness is not None:
        _check_idiosyncratic_witness(m, witness)
        return MarketClass("idiosyncratic", ranks, det_r,
                           witness=tuple(tuple(map(tuple, lvl)) for lvl in witness))

    positive = True
    supports = []
    for k in range(1, T + 1):
        na = t.n_atoms(k)
        sup_k = []
        for a in range(na):
            ind = np.zeros(na)
            ind[a] = 1.0
            pr = project(m, k, RandomVariable(t, k, ind)).values
            if np.any(pr < -1e-10):
                positive = False
                break
            sup_k.append(np.flatnonzero(pr > 1e-10))
        if not positive:
            break
        supports.append(sup_k)

    if positive:
        blocks_per_level = []
        ok = True
        for k in range(1, T + 1):
            na = t.n_atoms(k)
            lab = np.arange(na)

            def find(x):
                while lab[x] != x:
                    lab[x] = lab[lab[x]]
                    x = lab[x]
                return x

            for a in range(na):
                for b in supports[k - 1][a]:
                    ra, rb = find(a), find(int(b))
                    if ra != rb:
                        lab[ra] = rb
            roots = {}
            blocks = []
            for a in range(na):
                rt = find(a)
                if rt not in roots:
                    roots[rt] = len(blocks)
                    blocks.append([])
                blocks[roots[rt]].append(a)
            # the intermediate partition must coarsen the level yet refine the prior one
            for blk in blocks:
                parents = {int(t.parent[k][a]) for a in blk}
                if len(parents) != 1:
                    ok = False
            # verify the projection equals conditional expectation on the blocks
            if ok:
                w = t.atom_probs[k]
                for a in range(na):
                    ind = np.zeros(na)
                    ind[a] = 1.0
                    pr = project(m, k, RandomVariable(t, k, ind)).values
                    ce = np.zeros(na)
                    for blk in blocks:
                        sel = np.array(blk)
                        if a in blk:
                            ce[sel] = w[a] / w[sel].sum()
                    if np.max(np.abs(pr - ce)) > 1e-10:
                        ok = False
                        break
            if not ok:
                break
            blocks_per_level.append(tuple(tuple(b) for b in blocks))
        if ok:
            return MarketClass("type_c", ranks, det_r, witness=tuple(blocks_per_level))

    return MarketClass("general", ranks, det_r)


# ---------------------------------------------------------------------------
# budget maps
# ---------------------------------------------------------------------------

def consumption_to_wealth(m: MarketModel, M, c: AdaptedProcess, eps: AdaptedProcess):
    """Deflated wealth financing plan ``c`` from endowments ``eps``.

    ``W_k = (1 / M_k) * sum over l >= k of E[M_l (c_l - eps_l) | level k]``.
    """
    t = m.tree
    T = t.T
    W = [None] * (T + 1)
    tail = RandomVariable(t, T, np.zeros(t.n_atoms(T)))
    for k in range(T, -1, -1):
        net = RandomVariable(t, k, c.values(k) - eps.values(k))
        tail_k = condexp(tail, k) if tail.level > k else tail
        total = M[k].values * net.values + tail_k.values
        if np.any(np.abs(M[k].values) < 1e-14):
            raise DivisionByZeroSPD(f"aggregate deflator vanishes at level {k}")
        W[k] = RandomVariable(t, k, total / M[k].values)
        tail = RandomVariable(t, k, total)
    return AdaptedProcess(t, W)


def wealth_to_consumption(m: MarketModel, M, W: AdaptedProcess, eps: AdaptedProcess):
    """Inverse of :func:`consumption_to_wealth` on the same deflator.

    Raises NotInPayoffSpace when some ``W_k`` is not attainable, since no
    self-financing plan can then deliver it.
    """
    t = m.tree
    T = t.T
    for k in range(1, T + 1):
        wk = RandomVariable(t, k, W.values(k))
        resid = project(m, k, wk).values - wk.values
        if np.max(np.abs(resid)) > 1e-8 * max(1.0, float(np.max(np.abs(wk.values)))):
            raise NotInPayoffSpace(
                f"wealth at level {k} lies outside the attainable payoff space"
            )
    c = []
    for k in range(T + 1):
        if np.any(np.abs(M[k].values) < 1e-14):
            raise DivisionByZeroSPD(f"aggregate deflator vanishes at level {k}")
        val = eps.values(k) + W.values(k)
        if k < T:
            nxt = condexp(RandomVariable(t, k + 1, M[k + 1].values * W.values(k + 1)), k)
            val = val - nxt.values / M[k].values
        c.append(RandomVariable(t, k, val))
    return AdaptedProcess(t, c)
