import numpy as np
import pytest

import habitopt.market
from habitopt import (
    AdaptedProcess,
    ArbitrageDetected,
    InvalidWitness,
    MarketModel,
    NotInPayoffSpace,
    RandomVariable,
    aggregate_spd,
    build_tree,
    check_no_arbitrage,
    classify_market,
    condexp,
    consumption_to_wealth,
    deterministic_interest,
    generate_scenario,
    inner,
    lift,
    payoff_space_basis,
    perturbed_aggregate_spd,
    project,
    spd_bundle,
    wealth_to_consumption,
)

BINARY2 = [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]]


@pytest.fixture
def tree2():
    return build_tree(BINARY2, [0.25] * 4)


@pytest.fixture
def bond_market(tree2):
    return MarketModel(tree2, [0.1, 0.1])


# priced from the deflator R1 = (0.9, 1.1), R2 = (0.8, 1.0, 1.0, 1.2) under
# uniform leaf probabilities and zero rates, so that deflator is the unique one
COMPLETE_R1 = np.array([0.9, 1.1])
COMPLETE_R2 = np.array([0.8, 1.0, 1.0, 1.2])


@pytest.fixture
def complete_market(tree2):
    prices = [np.array([[1.125]]), np.array([[44 / 45], [54 / 55]])]
    dividends = [np.array([[0.2], [0.1]]), np.array([[1.7], [0.4], [1.8], [0.3]])]
    return MarketModel(tree2, [0.0, 0.0], prices, dividends)


def seeded_markets(n=4):
    out = []
    for seed, family in zip(range(n), ("bond_only", "general", "complete", "idiosyncratic")):
        sc = generate_scenario(100 + seed, family)
        out.append((sc.market, sc.witness))
    return out


# ---------------------------------------------------------------------------
# no-arbitrage / deflators
# ---------------------------------------------------------------------------

def test_deterministic_bond_deflator():
    # on a deterministic tree r = 0.1 forces the unique values R_k = 1.1^(-k)
    t = build_tree([[[0]], [[0]], [[0]]], [1.0])
    R = check_no_arbitrage(MarketModel(t, [0.1, 0.1]))
    assert R.values(1)[0] == pytest.approx(1.1 ** -1, abs=1e-9)
    assert R.values(2)[0] == pytest.approx(1.1 ** -2, abs=1e-9)


def test_complete_market_unique_deflator(complete_market):
    R = check_no_arbitrage(complete_market)
    assert np.allclose(R.values(1), COMPLETE_R1, atol=1e-9)
    assert np.allclose(R.values(2), COMPLETE_R2, atol=1e-9)


def test_one_period_complete_deflator():
    # two equations pin the two values: E[R] = 1 (bond) and E[R * payoff] = 1
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    m = MarketModel(t, [0.0], [np.array([[1.0]])], [np.array([[2.0], [0.5]])])
    R = check_no_arbitrage(m)
    assert R.values(1) == pytest.approx([2 / 3, 4 / 3], abs=1e-9)


def test_dominating_asset_is_arbitrage():
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    m = MarketModel(t, [0.0], [np.array([[1.0]])], [np.array([[2.0], [1.5]])])
    with pytest.raises(ArbitrageDetected):
        check_no_arbitrage(m)


def test_deflator_prices_assets_exactly(complete_market):
    m = complete_market
    t = m.tree
    R = check_no_arbitrage(m)
    for k in range(m.T):
        gain = m.gain(k + 1)
        for a in range(t.n_atoms(k)):
            ch = t.children(k, a)
            pa = t.atom_probs[k][a]
            for i in range(m.n_risky + 1):
                lhs = pa * R.values(k)[a] * m.S[k][a, i]
                rhs = np.dot(t.atom_probs[k + 1][ch], R.values(k + 1)[ch] * gain[ch, i])
                assert abs(lhs - rhs) < 1e-12


def test_deflator_lp_runs_once_per_objective(complete_market, market_lps):
    beta = np.zeros((3, 3))
    first = spd_bundle(complete_market, beta)
    for _ in range(3):
        assert spd_bundle(complete_market, beta).R is first.R
    assert len(market_lps) == 1
    for _ in range(2):
        for seed in (1, 2):
            spd_bundle(complete_market, beta, objective="seeded", seed=seed)
    assert len(market_lps) == 3
    # an explicit objective vector is never cached
    c = np.ones(6)
    check_no_arbitrage(complete_market, objective=c)
    check_no_arbitrage(complete_market, objective=c)
    assert len(market_lps) == 5


def test_cached_deflator_is_read_only(complete_market):
    R = check_no_arbitrage(complete_market)
    with pytest.raises(ValueError):
        R.values(1)[0] = 0.0
    assert np.allclose(check_no_arbitrage(complete_market).values(1), COMPLETE_R1, atol=1e-9)


def test_seeded_objectives_give_distinct_deflators():
    # guards the aggregate-invariance tests against being vacuous
    sc = generate_scenario(103, "idiosyncratic")
    deflators = [check_no_arbitrage(sc.market, objective="seeded", seed=s)
                 for s in (11, 77, 301)]
    gaps = []
    for i in range(len(deflators)):
        for j in range(i + 1, len(deflators)):
            gaps.append(max(
                float(np.max(np.abs(deflators[i].values(k) - deflators[j].values(k))))
                for k in range(1, sc.tree.T + 1)
            ))
    assert max(gaps) > 1e-4, "incomplete market should admit distinct deflators"


# ---------------------------------------------------------------------------
# payoff spaces and projections
# ---------------------------------------------------------------------------

def test_bond_only_rank_and_projection(bond_market):
    t = bond_market.tree
    for k in (1, 2):
        assert payoff_space_basis(bond_market, k).rank == t.n_atoms(k - 1)
    x = RandomVariable(t, 2, [3.0, -1.0, 2.0, 5.0])
    px = project(bond_market, 2, x)
    expected = lift(condexp(x, 1), 2)
    assert np.allclose(px.values, expected.values, atol=1e-12)


def test_complete_rank_and_projection(complete_market):
    t = complete_market.tree
    for k in (1, 2):
        assert payoff_space_basis(complete_market, k).rank == t.n_atoms(k)
    x = RandomVariable(t, 2, [3.0, -1.0, 2.0, 5.0])
    assert np.allclose(project(complete_market, 2, x).values, x.values, atol=1e-12)


def test_duplicated_asset_same_rank(tree2):
    prices = [np.array([[1.0]]), np.array([[1.0], [1.0]])]
    dividends = [np.array([[1.6], [0.5]]), np.array([[1.7], [0.4], [1.8], [0.3]])]
    m1 = MarketModel(tree2, [0.0, 0.0], prices, dividends)
    dup_p = [np.hstack([p, p]) for p in prices]
    dup_d = [np.hstack([d, d]) for d in dividends]
    m2 = MarketModel(tree2, [0.0, 0.0], dup_p, dup_d)
    for k in (1, 2):
        assert payoff_space_basis(m2, k).rank == payoff_space_basis(m1, k).rank


def test_projection_idempotent(complete_market, bond_market):
    for m in (complete_market, bond_market):
        t = m.tree
        x = RandomVariable(t, 2, [1.0, 4.0, -2.0, 0.5])
        once = project(m, 2, x)
        twice = project(m, 2, once)
        assert np.allclose(once.values, twice.values, atol=1e-13)


def random_markets_for_identities():
    markets = [mkt for mkt, _ in seeded_markets()]
    t = build_tree(BINARY2, [0.25] * 4)
    markets.append(MarketModel(t, [0.1, 0.1]))
    return markets


@pytest.mark.parametrize("mi", range(5))
def test_projection_identity_suite(mi):
    """Self-adjointness, measurable-factor pullout, conditional self-adjointness,
    and strict positivity of projected positive multiples of payoff vectors."""
    m = random_markets_for_identities()[mi]
    t = m.tree
    rng = np.random.default_rng(mi)
    for _ in range(40):
        k = int(rng.integers(1, t.T + 1))
        nk = t.n_atoms(k)
        x = RandomVariable(t, k, rng.normal(size=nk))
        y = RandomVariable(t, k, rng.normal(size=nk))

        # (i) inner(P[x], y) == inner(x, P[y])
        assert inner(project(m, k, x), y) == pytest.approx(
            inner(x, project(m, k, y)), abs=1e-10)

        # (ii) P[z * y] == z * P[y] for a prior-level factor z
        z = RandomVariable(t, k - 1, rng.normal(size=t.n_atoms(k - 1)))
        lhs = project(m, k, z * y)
        rhs = z * project(m, k, y)
        assert np.allclose(lhs.values, lift(rhs, k).values, atol=1e-10)

        # (iii) conditional self-adjointness at any coarser level
        j = int(rng.integers(0, k))
        left = condexp(project(m, k, x) * y, j)
        right = condexp(x * project(m, k, y), j)
        assert np.allclose(left.values, right.values, atol=1e-10)

        # (iv) a positive multiple of a nonzero payoff never projects to zero
        basis = payoff_space_basis(m, k)
        coeff = rng.normal(size=basis.rank)
        if np.max(np.abs(coeff)) < 1e-3:
            coeff[0] = 1.0
        v = RandomVariable(t, k, coeff @ basis.ortho)
        pos = RandomVariable(t, k, rng.uniform(0.5, 2.0, size=nk))
        pv = project(m, k, pos * v)
        assert np.sqrt(inner(pv, pv)) > 1e-10 * np.sqrt(inner(v, v))


# ---------------------------------------------------------------------------
# aggregate deflator
# ---------------------------------------------------------------------------

def test_bond_only_aggregate(bond_market):
    R = check_no_arbitrage(bond_market)
    M = aggregate_spd(bond_market)
    assert M[0].values[0] == 1.0
    assert np.allclose(M[1].values, 1.1 ** -1, atol=1e-9)
    assert np.allclose(M[2].values, 1.1 ** -2, atol=1e-9)


def test_complete_aggregate_equals_deflator(complete_market):
    R = check_no_arbitrage(complete_market)
    M = aggregate_spd(complete_market)
    for k in range(3):
        assert np.allclose(M[k].values, R.values(k), atol=1e-9)


@pytest.mark.parametrize("seed", [100, 101, 103])
def test_aggregate_invariant_under_deflator_choice(seed):
    """Two deflators picked by different objectives must aggregate identically."""
    family = {100: "bond_only", 101: "general", 103: "idiosyncratic"}[seed]
    sc = generate_scenario(seed, family)
    m = sc.market
    r1 = check_no_arbitrage(m, objective="seeded", seed=11)
    r2 = check_no_arbitrage(m, objective="seeded", seed=77)
    m1 = aggregate_spd(m)
    m2 = aggregate_spd(m)
    for k in range(sc.tree.T + 1):
        assert np.allclose(m1[k].values, m2[k].values, atol=1e-10)


def test_aggregate_lives_in_payoff_space(complete_market, bond_market):
    for m in (complete_market, bond_market):
        M = aggregate_spd(m)
        for k in range(1, m.T + 1):
            pm = project(m, k, M[k])
            assert np.allclose(pm.values, M[k].values, atol=1e-9)


def test_perturbed_aggregate_hand_values():
    # T=1: Mt_0 = 1 + b E[M_1]; T=2 one-lag: Mt_0 = 1 + b E[M_1] + b^2 E[M_2]
    t1 = build_tree([[[0, 1]], [[0], [1]]], [0.4, 0.6])
    m1 = MarketModel(t1, [0.25])
    M = aggregate_spd(m1)
    b = 0.7
    beta = np.array([[0.0, 0.0], [b, 0.0]])
    Mt = perturbed_aggregate_spd(t1, M, beta)
    em1 = float(np.dot(t1.atom_probs[1], M[1].values))
    assert Mt[0].values[0] == pytest.approx(1 + b * em1, abs=1e-12)
    assert np.array_equal(Mt[1].values, M[1].values)

    t2 = build_tree(BINARY2, [0.25] * 4)
    m2 = MarketModel(t2, [0.05, 0.05])
    M = aggregate_spd(m2)
    beta = np.zeros((3, 3))
    beta[1, 0] = beta[2, 1] = b
    Mt = perturbed_aggregate_spd(t2, M, beta)
    em1 = 1.05 ** -1
    em2 = 1.05 ** -2
    assert Mt[0].values[0] == pytest.approx(1 + b * em1 + b * b * em2, abs=1e-9)


def test_no_habit_perturbation_is_identity(complete_market):
    M = aggregate_spd(complete_market)
    Mt = perturbed_aggregate_spd(complete_market.tree, M, np.zeros((3, 3)))
    for k in range(3):
        assert np.array_equal(Mt[k].values, M[k].values)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_complete(complete_market):
    cls = classify_market(complete_market)
    assert cls.kind == "complete"
    assert cls.bounds_in_scope


def test_classify_bond_only(bond_market):
    cls = classify_market(bond_market)
    assert cls.kind == "type_c"
    assert cls.interest_deterministic
    assert cls.bounds_in_scope
    # the recovered intermediate partition at level k is the level-(k-1) one:
    # witness[0] groups both level-1 atoms, witness[1] splits level 2 by parent
    assert cls.witness is not None
    assert len(cls.witness[0]) == bond_market.tree.n_atoms(0)
    assert len(cls.witness[1]) == bond_market.tree.n_atoms(1)


def test_classify_idiosyncratic_with_witness():
    sc = generate_scenario(103, "idiosyncratic")
    cls = classify_market(sc.market, sc.witness)
    assert cls.kind == "idiosyncratic"
    assert cls.bounds_in_scope


def test_classify_general():
    sc = generate_scenario(101, "general")
    cls = classify_market(sc.market, sc.witness)
    assert cls.kind == "general"
    assert not cls.bounds_in_scope


def test_bad_witness_rejected():
    sc = generate_scenario(103, "idiosyncratic")
    t = sc.tree
    # the full filtration (every atom its own block) fails the completeness
    # clause of the quotient market, since the instance is incomplete
    full = tuple(tuple((a,) for a in range(t.n_atoms(k))) for k in range(t.T + 1))
    with pytest.raises(InvalidWitness):
        classify_market(sc.market, full)
    # a rejected witness is not cached: it is rejected again
    with pytest.raises(InvalidWitness):
        classify_market(sc.market, full)


def test_classification_cached_per_witness():
    sc = generate_scenario(103, "idiosyncratic")
    with_witness = classify_market(sc.market, sc.witness)
    without = classify_market(sc.market)
    assert with_witness.kind == "idiosyncratic"
    assert without.kind != "idiosyncratic"
    # the same witness as lists hits the same cache entry
    as_lists = [[list(b) for b in lvl] for lvl in sc.witness]
    assert classify_market(sc.market, as_lists) is with_witness
    assert classify_market(sc.market) is without


def test_deterministic_interest_detection(tree2):
    assert deterministic_interest(MarketModel(tree2, [0.1, 0.2]))
    m = MarketModel(tree2, [0.1, np.array([0.1, 0.3])])
    assert not deterministic_interest(m)


# ---------------------------------------------------------------------------
# wealth <-> consumption
# ---------------------------------------------------------------------------

def test_autarky_wealth_is_zero(complete_market):
    t = complete_market.tree
    spd = spd_bundle(complete_market, np.zeros((3, 3)))
    eps = AdaptedProcess(t, [np.full(t.n_atoms(k), 1.0) for k in range(3)])
    W = consumption_to_wealth(complete_market, spd.M, eps, eps)
    for k in range(1, 3):
        assert np.allclose(W.values(k), 0.0, atol=1e-12)


def test_one_period_wealth_hand_value():
    t = build_tree([[[0, 1]], [[0], [1]]], [0.5, 0.5])
    m = MarketModel(t, [0.0])
    spd = spd_bundle(m, np.zeros((2, 2)))
    c = AdaptedProcess(t, [np.array([0.5]), np.array([0.5, 0.5])])
    eps = AdaptedProcess(t, [np.array([1.0]), np.zeros(2)])
    W = consumption_to_wealth(m, spd.M, c, eps)
    assert np.allclose(W.values(1), 0.5, atol=1e-12)


def test_deterministic_wealth_hand_values():
    t = build_tree([[[0]], [[0]], [[0]]], [1.0])
    m = MarketModel(t, [0.0, 0.0])
    spd = spd_bundle(m, np.zeros((3, 3)))
    eps = AdaptedProcess(t, [np.zeros(1)] * 3)
    c = AdaptedProcess(t, [np.zeros(1), np.ones(1), np.ones(1)])
    W = consumption_to_wealth(m, spd.M, c, eps)
    assert W.values(1)[0] == pytest.approx(2.0, abs=1e-12)
    assert W.values(2)[0] == pytest.approx(1.0, abs=1e-12)


def test_wealth_round_trip(complete_market):
    t = complete_market.tree
    spd = spd_bundle(complete_market, np.zeros((3, 3)))
    eps = AdaptedProcess(t, [np.full(t.n_atoms(k), 0.5) for k in range(3)])
    c_levels = [np.array([0.4]), np.array([0.7, 0.3]), np.array([0.9, 0.2, 0.8, 0.4])]
    c = AdaptedProcess(t, c_levels)
    W = consumption_to_wealth(complete_market, spd.M, c, eps)
    c_back = wealth_to_consumption(complete_market, spd.M, W, eps)
    for k in range(3):
        assert np.allclose(c_back.values(k), c_levels[k], atol=1e-10)


def test_unattainable_wealth_rejected(bond_market):
    t = bond_market.tree
    spd = spd_bundle(bond_market, np.zeros((3, 3)))
    eps = AdaptedProcess(t, [np.full(t.n_atoms(k), 0.5) for k in range(3)])
    # bond-only payoff spaces contain only prior-level-measurable claims
    W = AdaptedProcess(t, [np.zeros(1), np.array([1.0, 2.0]),
                           np.array([1.0, 1.0, 2.0, 2.0])])
    with pytest.raises(NotInPayoffSpace):
        wealth_to_consumption(bond_market, spd.M, W, eps)


def _backward_wealth(t, M, c, eps):
    """Reference: the deflated-value recursion written out with random variables."""
    W = [None] * (t.T + 1)
    tail = RandomVariable(t, t.T, np.zeros(t.n_atoms(t.T)))
    for k in range(t.T, -1, -1):
        net = RandomVariable(t, k, c.values(k) - eps.values(k))
        tail_k = condexp(tail, k) if tail.level > k else tail
        total = M[k].values * net.values + tail_k.values
        W[k] = total / M[k].values
        tail = RandomVariable(t, k, total)
    return W


def _backward_perturbed(t, M, beta):
    """Reference: the perturbed deflator with one conditional expectation per lag."""
    Mt = [None] * (t.T + 1)
    Mt[t.T] = M[t.T]
    for k in range(t.T - 1, -1, -1):
        vals = M[k].values.copy()
        for mm in range(k + 1, t.T + 1):
            b = float(beta[mm, k])
            if b != 0.0:
                vals = vals + b * condexp(Mt[mm], k).values
        Mt[k] = RandomVariable(t, k, vals)
    return Mt


@pytest.mark.parametrize("family", ["complete", "bond_only", "general", "idiosyncratic"])
def test_deflated_values_equal_the_written_out_recursions(family):
    sc = generate_scenario(61, family, T=3, utility="power", habit="two_lag")
    t = sc.tree
    spd = spd_bundle(sc.market, sc.prefs.beta)
    rng = np.random.default_rng(8)
    eps = AdaptedProcess(t, [np.broadcast_to(np.asarray(e, float), (t.n_atoms(k),))
                             for k, e in enumerate(sc.eps)])
    c = AdaptedProcess(t, [eps.values(k) + rng.normal(0, 0.3, t.n_atoms(k))
                           for k in range(t.T + 1)])
    W = consumption_to_wealth(sc.market, spd.M, c, eps)
    Mt = perturbed_aggregate_spd(t, spd.M, sc.prefs.beta)
    for k, (w_ref, mt_ref) in enumerate(zip(_backward_wealth(t, spd.M, c, eps),
                                            _backward_perturbed(t, spd.M, sc.prefs.beta))):
        assert np.array_equal(W.values(k), w_ref)
        assert np.array_equal(Mt[k].values, mt_ref.values)
        assert np.array_equal(spd.Mtilde[k].values, mt_ref.values)


# ---------------------------------------------------------------------------
# per-node blocks against the dense per-level references
# ---------------------------------------------------------------------------

_EPS = np.finfo(np.float64).eps


def _dense_basis(m, k):
    """Reference: one SVD of the level's zero-padded generators (one per parent
    atom and asset slot), ranked against the level's largest singular value."""
    t = m.tree
    gain = m.gain(k)
    gens = []
    for b in range(t.n_atoms(k - 1)):
        mask = t.parent[k] == b
        for i in range(m.n_risky + 1):
            row = np.zeros(t.n_atoms(k))
            row[mask] = gain[mask, i]
            gens.append(row)
    sw = np.sqrt(t.atom_probs[k])
    _, sv, vt = np.linalg.svd(np.array(gens) * sw, full_matrices=False)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    return rank, vt[:rank] / sw


def _basis_markets():
    t = build_tree(BINARY2, [0.25] * 4)
    prices = [np.array([[1.0]]), np.array([[1.0], [1.0]])]
    dividends = [np.array([[1.6], [0.5]]), np.array([[1.7], [0.4], [1.8], [0.3]])]
    duplicated = MarketModel(t, [0.0, 0.0], [np.hstack([p, p]) for p in prices],
                             [np.hstack([d, d]) for d in dividends])
    return random_markets_for_identities() + [
        duplicated,
        generate_scenario(104, "general", branching=4).market,
        generate_scenario(3, "general", T=4, utility="power", habit="one_lag").market,
    ]


@pytest.mark.parametrize("mi", range(8))
def test_block_basis_matches_the_dense_level_svd(mi):
    m = _basis_markets()[mi]
    t = m.tree
    for k in range(1, t.T + 1):
        w = t.atom_probs[k]
        tol = 64 * t.n_atoms(k) * _EPS
        rank, Q_ref = _dense_basis(m, k)
        basis = payoff_space_basis(m, k)
        Q = basis.ortho
        assert basis.rank == rank
        assert Q.shape == Q_ref.shape
        assert np.max(np.abs((Q * w) @ Q.T - np.eye(rank))) <= tol
        P, P_ref = Q.T @ (Q * w), Q_ref.T @ (Q_ref * w)
        assert np.max(np.abs(P - P_ref)) <= tol * max(1.0, float(np.max(np.abs(P_ref))))
        x = np.random.default_rng(k).normal(size=t.n_atoms(k))
        assert np.max(np.abs(project(m, k, RandomVariable(t, k, x)).values - P_ref @ x)) \
            <= tol * max(1.0, float(np.max(np.abs(P_ref)))) * np.max(np.abs(x))


def _projected_ratio_aggregate(m, R):
    """Reference: ``M_k = M_{k-1} proj_k(R_k / R_{k-1})`` with the dense projector."""
    t = m.tree
    M = [np.ones(1)]
    for k in range(1, t.T + 1):
        _, Q = _dense_basis(m, k)
        ratio = R.values(k) / R.values(k - 1)[t.parent[k]]
        M.append(M[k - 1][t.parent[k]] * (Q.T @ (Q @ (t.atom_probs[k] * ratio))))
    return M


@pytest.mark.parametrize("family", ["complete", "bond_only"])
@pytest.mark.parametrize("seed", [1, 2])
def test_aggregate_is_the_projected_deflator_ratio(family, seed):
    m = generate_scenario(seed, family, T=3).market
    M = aggregate_spd(m)
    for objective, lp_seed in (("uniform", None), ("seeded", 5)):
        ref = _projected_ratio_aggregate(m, check_no_arbitrage(m, objective, lp_seed))
        for k in range(m.T + 1):
            tol = 64 * m.tree.n_atoms(k) * _EPS
            assert np.max(np.abs(M[k].values - ref[k])) <= tol * np.max(np.abs(ref[k]))


def _fresh(market):
    """The same market as a new model, with nothing cached."""
    return MarketModel.from_json(market.tree, market.to_json(), strict=False)


@pytest.mark.parametrize("seed, family, T", [(103, "idiosyncratic", 2), (101, "general", 2),
                                             (3, "general", 4)])
def test_aggregate_does_not_depend_on_the_lp_objective(seed, family, T):
    sc = generate_scenario(seed, family, T=T, utility="power", habit="one_lag")
    bundles = [spd_bundle(_fresh(sc.market), sc.prefs.beta, objective=obj, seed=s)
               for obj, s in (("uniform", None), ("seeded", 11), ("seeded", 77))]
    for other in bundles[1:]:
        for k in range(sc.tree.T + 1):
            assert np.array_equal(other.M[k].values, bundles[0].M[k].values)
            assert np.array_equal(other.Mtilde[k].values, bundles[0].Mtilde[k].values)


def test_cached_aggregate_is_read_only(complete_market):
    M = aggregate_spd(complete_market)
    assert aggregate_spd(complete_market)[1] is M[1]
    with pytest.raises(ValueError):
        M[1].values[0] = 0.0


def test_cached_perturbed_aggregate_equals_the_recomputed_one(complete_market):
    m = complete_market
    one = np.zeros((3, 3))
    one[1, 0] = one[2, 1] = 0.5
    two = one.copy()
    two[2, 0] = 0.25
    first = spd_bundle(m, one)
    again = spd_bundle(m, one.copy())
    other = spd_bundle(m, two)
    for k in range(3):
        assert again.Mtilde[k] is first.Mtilde[k]
        for beta, bundle in ((one, first), (two, other)):
            fresh = perturbed_aggregate_spd(m.tree, aggregate_spd(m), beta)[k].values
            assert np.array_equal(bundle.Mtilde[k].values, fresh)
            with pytest.raises(ValueError):
                bundle.Mtilde[k].values[0] = 0.0
    assert not np.array_equal(first.Mtilde[0].values, other.Mtilde[0].values)
    assert len(m._perturbed) == 2


def _dense_pricing_system(m, offsets):
    """Reference: the pricing identities as dense rows, one per atom and asset."""
    t = m.tree
    nvar = int(offsets[t.T + 1])
    rows, rhs = [], []
    for k in range(t.T):
        gain = m.gain(k + 1)
        for a in range(t.n_atoms(k)):
            children = t.children(k, a)
            pa = t.atom_probs[k][a]
            for i in range(m.n_risky + 1):
                row = np.zeros(nvar)
                for b in children:
                    row[offsets[k + 1] + b] = t.atom_probs[k + 1][b] * gain[b, i]
                if k == 0:
                    rows.append(row)
                    rhs.append(pa * m.S[k][a, i])
                else:
                    row[offsets[k] + a] = -pa * m.S[k][a, i]
                    rows.append(row)
                    rhs.append(0.0)
    return np.array(rows), np.array(rhs)


@pytest.mark.parametrize("objective, seed", [("uniform", None), ("seeded", 11), ("seeded", 77)])
def test_sparse_pricing_rows_give_the_dense_row_deflator(monkeypatch, objective, seed):
    for market in [mkt for mkt, _ in seeded_markets()] + [
            generate_scenario(3, "general", T=4, utility="power", habit="one_lag").market]:
        t = market.tree
        offsets = np.cumsum([0, 0] + [t.n_atoms(k) for k in range(1, t.T + 1)])
        A, b = habitopt.market._pricing_system(market, offsets)
        A_ref, b_ref = _dense_pricing_system(market, offsets)
        assert np.array_equal(A.toarray(), A_ref) and np.array_equal(b, b_ref)
        R = check_no_arbitrage(_fresh(market), objective, seed)
        with monkeypatch.context() as patch:
            patch.setattr(habitopt.market, "_pricing_system", _dense_pricing_system)
            R_ref = check_no_arbitrage(_fresh(market), objective, seed)
        for k in range(t.T + 1):
            assert np.array_equal(R.values(k), R_ref.values(k))


def _dense_type_c_blocks(m):
    """Reference: the type-C partitions from one dense projection per atom
    indicator and a union-find over their supports (``None`` if not type C)."""
    t = m.tree
    projections = []
    for k in range(1, t.T + 1):
        _, Q = _dense_basis(m, k)
        w = t.atom_probs[k]
        cols = [Q.T @ (Q @ (w * np.eye(t.n_atoms(k))[a])) for a in range(t.n_atoms(k))]
        if any(np.any(pr < -1e-10) for pr in cols):
            return None
        projections.append(cols)
    out = []
    for k in range(1, t.T + 1):
        na, w = t.n_atoms(k), t.atom_probs[k]
        lab = np.arange(na)

        def find(x):
            while lab[x] != x:
                x = lab[x]
            return x

        for a in range(na):
            for b in np.flatnonzero(projections[k - 1][a] > 1e-10):
                ra, rb = find(a), find(int(b))
                if ra != rb:
                    lab[ra] = rb
        roots, blocks = {}, []
        for a in range(na):
            rt = find(a)
            if rt not in roots:
                roots[rt] = len(blocks)
                blocks.append([])
            blocks[roots[rt]].append(a)
        if any(len({int(t.parent[k][a]) for a in blk}) != 1 for blk in blocks):
            return None
        for blk in blocks:
            sel = np.array(blk)
            for a in blk:
                ce = np.zeros(na)
                ce[sel] = w[a] / w[sel].sum()
                if np.max(np.abs(projections[k - 1][a] - ce)) > 1e-10:
                    return None
        out.append(tuple(tuple(b) for b in blocks))
    return tuple(out)


def _classification_markets():
    markets = _basis_markets()
    for seed in range(6):
        for family, T in (("bond_only", 3), ("general", 2), ("general", 3), ("idiosyncratic", 2)):
            markets.append(generate_scenario(200 + seed, family, T=T).market)
    return markets


def test_block_type_c_test_matches_the_dense_projections():
    kinds = set()
    for m in _classification_markets():
        cls = classify_market(_fresh(m))
        kinds.add(cls.kind)
        if cls.kind == "complete":
            continue
        ref = _dense_type_c_blocks(m)
        assert cls.kind == ("general" if ref is None else "type_c")
        assert cls.witness == ref
    assert {"type_c", "general"} <= kinds


def _loop_certify(m, R):
    """Reference: the deflator certificate as one sum per atom and asset."""
    t = m.tree
    for k in range(t.T):
        gain = m.gain(k + 1)
        Rk, Rn = R.values(k), R.values(k + 1)
        for a in range(t.n_atoms(k)):
            children = t.children(k, a)
            pa = t.atom_probs[k][a]
            for i in range(m.n_risky + 1):
                lhs = pa * Rk[a] * m.S[k][a, i]
                rv = sum(t.atom_probs[k + 1][b] * Rn[b] * gain[b, i] for b in children)
                if abs(lhs - rv) > 1e-9 * max(1.0, abs(lhs)):
                    raise ArbitrageDetected(
                        f"deflator certificate failed at level {k}, atom {a}, asset {i}: "
                        f"residual {abs(lhs - rv):.3e}"
                    )


def _certificate_outcome(certify, m, R):
    try:
        certify(m, R)
    except ArbitrageDetected as exc:
        return str(exc)
    return None


def test_certificate_equals_the_per_atom_loop():
    rng = np.random.default_rng(4)
    outcomes = set()
    for market in [mkt for mkt, _ in seeded_markets()]:
        t = market.tree
        R = check_no_arbitrage(_fresh(market))
        for _ in range(20):
            vals = [R.values(k).copy() for k in range(t.T + 1)]
            k = int(rng.integers(1, t.T + 1))
            vals[k][rng.integers(t.n_atoms(k))] *= 1.0 + rng.choice([0.0, 1e-10, 1e-8, 1e-3])
            bumped = AdaptedProcess(t, vals)
            got = _certificate_outcome(habitopt.market._certify, market, bumped)
            assert got == _certificate_outcome(_loop_certify, market, bumped)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_array_cores_equal_the_wrapped_operations(shuffled_prefs):
    from habitopt.analysis import _priced_market
    from habitopt.market import _project
    from habitopt.tree import _condexp

    t = shuffled_prefs.tree
    m = _priced_market(np.random.default_rng(3), t, [0.01, 0.02, 0.0], 1)
    rng = np.random.default_rng(12)
    for level in range(t.T + 1):
        x = RandomVariable(t, level, rng.normal(size=t.n_atoms(level)))
        for k in range(level + 1):
            assert np.array_equal(_condexp(t, x.values, level, k), condexp(x, k).values)
        if level:
            assert np.array_equal(_project(m, level, x.values), project(m, level, x).values)
