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
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from .errors import (
    ArbitrageDetected,
    DivisionByZeroSPD,
    InvalidWitness,
    LevelMismatch,
    NotInPayoffSpace,
    VanishingAggregateSPD,
)
from .tree import (AdaptedProcess, EventTree, HabitOperator, RandomVariable, _condexp,
                   build_tree, condexp, lift)

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

    A model is treated as immutable once built: it caches its payoff-space
    bases, its aggregate deflator, its state-price deflators (one per LP
    objective) and its classification (one per witness), so repeated solves
    on one market run the no-arbitrage LP and the classification once.
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
        self._aggregate: tuple | None = None
        self._perturbed: dict[tuple, tuple] = {}
        self._deflators: dict[tuple, AdaptedProcess] = {}
        self._classes: dict[tuple | None, MarketClass] = {}

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


class _Block(NamedTuple):
    """One group of ``tree.child_blocks``: parents with equal child count.

    For the weighted gain block ``G sqrt(p) = U S V^T`` of each parent
    (``G`` its children's gains, assets by children, ``p`` the children's
    probabilities), ``rows = V^T / sqrt(p)`` is the block's basis, orthonormal
    under the probability-weighted pairing, and ``pinv = S^+ U^T``; ``keep``
    marks the singular values above the level's rank threshold.  Rows and
    ``pinv`` are zero where ``keep`` is false.
    """

    children: np.ndarray      # (g, nc)
    rows: np.ndarray          # (g, r, nc)
    pinv: np.ndarray          # (g, r, nA)
    keep: np.ndarray          # (g, r)


@dataclass(frozen=True)
class PayoffSpaceBasis:
    """Orthonormalized basis of the one-period attainable payoffs at a level.

    The level-``k`` payoffs split into one block per level-``k-1`` atom,
    spanned by its children's gains; ``blocks`` holds them grouped as
    ``tree.child_blocks[k-1]``.  ``ortho`` stacks the ``rank`` basis rows
    over the whole level, orthonormal under the probability-weighted
    pairing.
    """

    level: int
    rank: int
    blocks: tuple

    @property
    def ortho(self) -> np.ndarray:
        Q = np.zeros((self.rank, sum(b.children.size for b in self.blocks)))
        j = 0
        for b in self.blocks:
            g, r = np.nonzero(b.keep)
            Q[j + np.arange(g.size)[:, None], b.children[g]] = b.rows[g, r]
            j += g.size
        return Q


def payoff_space_basis(m: MarketModel, k: int) -> PayoffSpaceBasis:
    """Basis and rank of the level-``k`` attainable payoff space, ``k = 1..T``.

    One SVD per level-``k-1`` atom of its probability-weighted gain block,
    batched by child count.  A singular value counts towards the rank when it
    exceeds ``_RANK_TOL`` times the largest one of the level.
    """
    if not 1 <= k <= m.T:
        raise LevelMismatch(f"payoff spaces exist for levels 1..{m.T}, got {k}")
    if k in m._bases:
        return m._bases[k]
    t = m.tree
    gain = m.gain(k)
    sw = np.sqrt(t.atom_probs[k])
    svds = []
    for _, children in t.child_blocks[k - 1]:
        G = np.swapaxes(gain[children], 1, 2) * sw[children][:, None, :]
        svds.append((children, *np.linalg.svd(G, full_matrices=False)))
    tol = _RANK_TOL * max(float(sv.max()) for _, _, sv, _ in svds)
    blocks = []
    for children, u, sv, vt in svds:
        keep = sv > tol
        inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)
        blocks.append(_Block(children, vt * keep[..., None] / sw[children][:, None, :],
                             np.swapaxes(u, 1, 2) * inv_sv[..., None], keep))
    basis = PayoffSpaceBasis(level=k, rank=int(sum(b.keep.sum() for b in blocks)),
                             blocks=tuple(blocks))
    m._bases[k] = basis
    return basis


def project(m: MarketModel, k: int, x: RandomVariable) -> RandomVariable:
    """Orthogonal projection of ``x`` onto the level-``k`` payoff space.

    ``x`` may live at any level: it is lifted if coarser than ``k`` and
    replaced by its level-``k`` conditional expectation if finer (legitimate
    because the payoff space consists of level-``k`` measurable claims).
    The projection runs block by block (:func:`_project`).
    """
    if x.level < k:
        x = lift(x, k)
    elif x.level > k:
        x = condexp(x, k)
    return RandomVariable(m.tree, k, _project(m, k, x.values))


def _project(m: MarketModel, k: int, x: np.ndarray) -> np.ndarray:
    """Array core of :func:`project` for level-``k`` values ``x``."""
    xw = m.tree.atom_probs[k] * x
    out = np.empty(m.tree.n_atoms(k))
    for b in payoff_space_basis(m, k).blocks:
        coeffs = b.rows @ xw[b.children][..., None]
        out[b.children] = (np.swapaxes(coeffs, 1, 2) @ b.rows)[:, 0]
    return out


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
        Deflator with one value per atom, level by level, ``R_0 = 1``.  Its
        arrays are read-only: for a named objective the result is cached on
        ``m`` per ``(objective, seed)`` and shared by later calls.

    Raises
    ------
    ArbitrageDetected
        If the pricing system admits no strictly positive solution.
    """
    key = (objective, seed) if isinstance(objective, str) else None
    if key in m._deflators:
        return m._deflators[key]
    t = m.tree
    T = t.T
    # the level-l values R_l, l >= 1, are the columns offsets[l]..offsets[l+1]
    offsets = np.cumsum([0, 0] + [t.n_atoms(k) for k in range(1, T + 1)])
    nvar = int(offsets[T + 1])
    A_eq, b_eq = _pricing_system(m, offsets)

    if key is None:
        c = np.asarray(objective, dtype=float)
        if c.shape != (nvar,):
            raise ValueError(f"objective must have {nvar} entries")
    elif objective == "uniform":
        c = np.ones(nvar)
    elif objective == "seeded":
        c = np.random.default_rng(seed).uniform(0.5, 1.5, nvar)
    else:
        raise ValueError(f"unknown objective {objective!r}")

    res = linprog(c, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(_SPD_FLOOR, None)] * nvar, method="highs")
    if not res.success:
        raise ArbitrageDetected(
            f"no strictly positive state-price deflator exists ({res.message})"
        )

    vals = [np.ones(1)]
    for k in range(1, T + 1):
        vals.append(res.x[offsets[k]:offsets[k + 1]].copy())

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

    _certify(m, R)    # rather than trust LP status blindly
    for v in vals:
        v.setflags(write=False)
    if key is not None:
        m._deflators[key] = R
    return R


def _certify(m: MarketModel, R: AdaptedProcess) -> None:
    """Raise ArbitrageDetected where ``R`` misprices an asset at an atom by more
    than ``_PRICING_TOL``; each child sum runs in child order."""
    t = m.tree
    for k in range(t.T):
        lhs = (t.atom_probs[k] * R.values(k))[:, None] * m.S[k]
        value = (t.atom_probs[k + 1] * R.values(k + 1))[:, None] * m.gain(k + 1)
        rv = np.stack([np.bincount(t.parent[k + 1], weights=col, minlength=t.n_atoms(k))
                       for col in value.T], axis=1)
        bad = np.argwhere(np.abs(lhs - rv) > _PRICING_TOL * np.maximum(1.0, np.abs(lhs)))
        if bad.size:
            a, i = bad[0]
            raise ArbitrageDetected(
                f"deflator certificate failed at level {k}, atom {a}, asset {i}: "
                f"residual {abs(lhs[a, i] - rv[a, i]):.3e}"
            )


def _pricing_system(m: MarketModel, offsets: np.ndarray):
    """Sparse pricing identities of :func:`check_no_arbitrage` and their right side.

    One row per pre-terminal atom and asset slot, level by level, atom by
    atom; the level-``l`` values occupy columns ``offsets[l]..offsets[l+1]``
    (``R_0 = 1`` is moved to the right-hand side).
    """
    t = m.tree
    nA = m.n_risky + 1
    row_off = np.cumsum([0] + [nA * t.n_atoms(k) for k in range(t.T)])
    rows, cols, vals, rhs = [], [], [], []
    for k in range(t.T):
        parent = t.parent[k + 1]
        rows.append(row_off[k] + nA * parent[:, None] + np.arange(nA))
        cols.append(np.repeat(offsets[k + 1] + np.arange(t.n_atoms(k + 1))[:, None], nA, 1))
        vals.append(t.atom_probs[k + 1][:, None] * m.gain(k + 1))
        price = t.atom_probs[k][:, None] * m.S[k]
        if k == 0:
            rhs.append(price.ravel())
        else:
            rows.append(row_off[k] + np.arange(nA * t.n_atoms(k)).reshape(-1, nA))
            cols.append(np.repeat(offsets[k] + np.arange(t.n_atoms(k))[:, None], nA, 1))
            vals.append(-t.atom_probs[k][:, None] * m.S[k])
            rhs.append(np.zeros(price.size))
    vals, rows, cols = (np.concatenate([a.ravel() for a in part]) for part in (vals, rows, cols))
    nz = vals != 0.0                   # the zeros a dense matrix would not pass on
    A = coo_array((vals[nz], (rows[nz], cols[nz])),
                  shape=(int(row_off[-1]), int(offsets[t.T + 1])))
    return A, np.concatenate(rhs)


def aggregate_spd(m: MarketModel) -> list:
    """Aggregate deflator ``M_k = M_{k-1} * q_k``, ``M_0 = 1``.

    On the children of each level-``k-1`` atom ``a``, the factor ``q_k`` is
    the minimum-norm stochastic discount factor: the unique payoff in the
    span of the children's gains that prices every asset at ``a``,

        q = W^{-1/2} pinv(G W^{1/2}) S_{k-1}(a),   W = diag(p_b / p_a),

    with ``G`` the children's gains (assets by children), computed from the
    payoff-space SVD of the block.  It equals the projection of the
    one-period ratio ``R_k / R_{k-1}`` of every state-price deflator ``R``,
    so ``M`` does not depend on which deflator the no-arbitrage LP returns;
    the market is assumed free of arbitrage (see :func:`check_no_arbitrage`).
    Raises VanishingAggregateSPD as soon as an atom value hits zero, since
    deflated budget constraints then lose meaning.  The result is cached on
    ``m`` and its arrays are read-only.
    """
    if m._aggregate is None:
        t = m.tree
        M = [np.ones(1)]
        for k in range(1, t.T + 1):
            q = np.empty(t.n_atoms(k))
            for (parents, _), b in zip(t.child_blocks[k - 1], payoff_space_basis(m, k).blocks):
                y = b.pinv @ m.S[k - 1][parents][..., None]
                q[b.children] = (t.atom_probs[k - 1][parents][:, None]
                                 * (np.swapaxes(y, 1, 2) @ b.rows)[:, 0])
            vals = M[k - 1][t.parent[k]] * q
            if np.any(np.abs(vals) < 1e-12):
                a = int(np.argmin(np.abs(vals)))
                raise VanishingAggregateSPD(
                    f"aggregate deflator vanishes at level {k}, atom {a}"
                )
            M.append(vals)
        for v in M:
            v.setflags(write=False)
        m._aggregate = tuple(RandomVariable(t, k, v) for k, v in enumerate(M))
    return list(m._aggregate)


def perturbed_aggregate_spd(tree: EventTree, M, beta: np.ndarray):
    """Habit-perturbed deflator by backward recursion.

    ``Mt_T = M_T`` and ``Mt_k = M_k + sum over m > k of beta[m, k] E[Mt_m | level k]``.
    ``beta[m, k]`` is the weight with which period-``k`` consumption enters the
    period-``m`` habit level.  This is the habit operator's adjoint solved
    for ``M``.
    """
    Mt = HabitOperator(tree, beta).adjoint_solve([x.values for x in M])
    return [RandomVariable(tree, k, v) for k, v in enumerate(Mt)]


@dataclass(frozen=True)
class SPDBundle:
    """A deflator triple: raw ``R``, aggregate ``M``, habit-perturbed ``Mtilde``."""

    R: AdaptedProcess
    M: list
    Mtilde: list


def spd_bundle(m: MarketModel, beta: np.ndarray, objective="uniform",
               seed: int | None = None) -> SPDBundle:
    """``R`` from the no-arbitrage LP, and ``M`` and ``Mtilde`` from the caches on ``m``.

    ``Mtilde`` is computed once per market and habit matrix (keyed by
    ``beta``'s shape and bytes); like ``M``, its arrays are read-only.
    """
    R = check_no_arbitrage(m, objective=objective, seed=seed)
    M = aggregate_spd(m)
    beta = np.asarray(beta, dtype=float)
    key = (beta.shape, beta.tobytes())
    if key not in m._perturbed:
        Mt = perturbed_aggregate_spd(m.tree, M, beta)
        for x in Mt:
            x.values.setflags(write=False)
        m._perturbed[key] = tuple(Mt)
    return SPDBundle(R=R, M=M, Mtilde=list(m._perturbed[key]))


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


def deterministic_interest(m: MarketModel) -> bool:
    return all(
        float(np.max(m.r[k]) - np.min(m.r[k])) <= 1e-12 for k in range(1, m.T + 1)
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
            x = (leaf_lab[k + 1] == j).astype(float)
            via_g = _condexp(t, x, T, k)
            via_f = np.empty_like(via_g)
            for jj in range(len(flt[k])):
                sel_leaves = leaf_lab[k] == jj
                mass = t.probs[sel_leaves].sum()
                val = float(np.dot(t.probs[sel_leaves], x[sel_leaves])) / mass
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

    The result is cached on ``m`` per witness (a complete market ignores the
    witness); a witness that fails validation is not cached.
    """
    t = m.tree
    ranks = tuple(payoff_space_basis(m, k).rank for k in range(1, t.T + 1))
    complete = all(ranks[k - 1] == t.n_atoms(k) for k in range(1, t.T + 1))
    key = None if complete or witness is None else tuple(tuple(map(tuple, lvl))
                                                         for lvl in witness)
    if key not in m._classes:
        m._classes[key] = _classify(m, ranks, complete, key)
    return m._classes[key]


def _classify(m: MarketModel, ranks: tuple, complete: bool, witness) -> MarketClass:
    det_r = deterministic_interest(m)

    if complete:
        return MarketClass("complete", ranks, det_r)

    if witness is not None:
        _check_idiosyncratic_witness(m, witness)
        return MarketClass("idiosyncratic", ranks, det_r, witness=witness)

    blocks = _type_c_blocks(m)
    if blocks is not None:
        return MarketClass("type_c", ranks, det_r, witness=blocks)
    return MarketClass("general", ranks, det_r)


def _type_c_blocks(m: MarketModel):
    """Per level, the partition on whose blocks every projection is a
    conditional expectation, or ``None`` when there is none.

    The projection of an atom's indicator lives on the atom's siblings:
    column ``j`` of the block matrix ``P`` below.  Every projection must be
    non-negative; the atoms that one projection reaches (above ``1e-10``) are
    joined into one block, and each projection must then equal the
    conditional expectation of the indicator given its block.  Blocks are
    listed by their smallest atom, with the atoms in increasing order.
    """
    t = m.tree
    per_level = []
    for k in range(1, t.T + 1):
        w = t.atom_probs[k]
        label = np.empty(t.n_atoms(k), dtype=int)
        checks = []
        for b in payoff_space_basis(m, k).blocks:
            wc = w[b.children][:, None, :]
            P = (np.swapaxes(b.rows, 1, 2) @ b.rows) * wc
            if np.any(P < -1e-10):
                return None
            # atoms joined by a projection's support; where every projection
            # is a conditional expectation these are already the blocks, and
            # a relation that is not transitive fails the check below
            reach = (P > 1e-10) | np.swapaxes(P > 1e-10, 1, 2) | np.eye(P.shape[1], dtype=bool)
            label[b.children] = np.take_along_axis(b.children, np.argmax(reach, axis=1), axis=1)
            checks.append((P, reach * wc / np.sum(reach * wc, axis=2, keepdims=True)))
        if any(np.max(np.abs(P - ce)) > 1e-10 for P, ce in checks):
            return None
        order = np.argsort(label, kind="stable")
        cuts = np.flatnonzero(np.diff(label[order])) + 1
        per_level.append(tuple(tuple(int(a) for a in blk) for blk in np.split(order, cuts)))
    return tuple(per_level)


# ---------------------------------------------------------------------------
# budget maps
# ---------------------------------------------------------------------------

def consumption_to_wealth(m: MarketModel, M, c: AdaptedProcess, eps: AdaptedProcess):
    """Deflated wealth financing plan ``c`` from endowments ``eps``.

    ``W_k = (1 / M_k) * sum over l >= k of E[M_l (c_l - eps_l) | level k]``.
    """
    t = m.tree
    W = _deflated_value(t, M, [c.values(k) - eps.values(k) for k in range(t.T + 1)])
    return AdaptedProcess(t, W)


def _deflated_value(tree: EventTree, M, x) -> list:
    """``(1 / M_k) * sum over l >= k of E[M_l x_l | level k]``, one array per level.

    The backward recursion carries the undeflated tail; raises
    DivisionByZeroSPD where ``M_k`` vanishes.
    """
    T = tree.T
    out = [None] * (T + 1)
    tail = np.zeros(tree.n_atoms(T))
    for k in range(T, -1, -1):
        if k < T:
            tail = _condexp(tree, tail, k + 1, k)
        tail = M[k].values * x[k] + tail
        if np.any(np.abs(M[k].values) < 1e-14):
            raise DivisionByZeroSPD(f"aggregate deflator vanishes at level {k}")
        out[k] = tail / M[k].values
    return out


def wealth_to_consumption(m: MarketModel, M, W: AdaptedProcess, eps: AdaptedProcess):
    """Inverse of :func:`consumption_to_wealth` on the same deflator.

    Raises NotInPayoffSpace when some ``W_k`` is not attainable, since no
    self-financing plan can then deliver it.
    """
    t = m.tree
    T = t.T
    for k in range(1, T + 1):
        wk = W.values(k)
        resid = _project(m, k, wk) - wk
        if np.max(np.abs(resid)) > 1e-8 * max(1.0, float(np.max(np.abs(wk)))):
            raise NotInPayoffSpace(
                f"wealth at level {k} lies outside the attainable payoff space"
            )
    c = []
    for k in range(T + 1):
        if np.any(np.abs(M[k].values) < 1e-14):
            raise DivisionByZeroSPD(f"aggregate deflator vanishes at level {k}")
        val = eps.values(k) + W.values(k)
        if k < T:
            val = val - _condexp(t, M[k + 1].values * W.values(k + 1), k + 1, k) / M[k].values
        c.append(val)
    return AdaptedProcess(t, c)
