"""The stacked rule table against per-piece rules (``quad_ref``).

``discretized_measure``, ``cauchy_node_matrices``, ``init_state`` and
``init_states`` all read one stacked set of absorbed rules, one per
piece; these tests compare each with the piece-by-piece reference,
computed in extended precision, to 1e-12 in the relative metric of
``verify`` (absolute floor 1); random configs to 1e-11 (see
``PROPERTY_TOL``). The reference integrates the measure with the plain
piece rules and each Cauchy transform with two more rules beside its node,
so it shares no rule with the table wherever an exponent is positive.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quad_ref
from jacobi_ref import real_arithmetic_rules
from gjflow import (
    DivergentTransform,
    EndpointTrajectory,
    NonFinite,
    NotConverged,
    discretized_measure,
    gauss_jacobi_rule,
    init_state,
    init_states,
    make_weight,
    quadrature,
)
from gjflow.quadrature import (
    _ASYMPTOTIC_BOUND,
    _END_NODES,
    _RuleCache,
    _build_rules,
    _monic_jacobi_recurrence,
    _rule_cached,
    _start_nodes,
    cauchy_node_matrices,
)

TOL = 1e-12
# Random configs reach the float64 noise floor of init_state in this metric:
# on m = 5, alpha (1, 1, 1, 2, 2), x (-2, 1, 1.25, 1.875, 2), n = 11 (a
# shrunk hypothesis example) 1-ulp noise on the rule weights alone spreads
# the deviation over 1.6e-13 .. 1.3e-12, and the code before the rule table
# reads 4.6e-13 there. Small exponents add to it (``test_small_exponents``).
# The property test allows ten times that noise.
PROPERTY_TOL = 1e-11

# m in {2, 3, 4, 6}; exponents below and above 1; inner endpoints moving
WEIGHTS = {
    "m2": ([0.3, 1.7], [1.3], ((-1.0, 0.2), (1.5,))),
    "m3": ([1.4, 0.25, 0.8], [0.6, 1.9], ((-2.0,), (0.1, -0.7, 0.4), (1.0,))),
    "m4": ([0.6, 1.9, 0.15, 1.1], [1.0, 0.5, 1.7],
           ((-1.5,), (-0.4, 0.5), (0.6, -0.3), (2.0, 0.1))),
    "m6": ([0.3, 1.2, 0.7, 0.45, 1.4, 0.9], [1.0, 0.7, 1.5, 1.1, 0.8],
           ((-2.0,), (-1.1, 0.4), (-0.3, -0.2, 0.1), (0.4, 0.3), (1.2, -0.5),
            (2.0,))),
}


def weight(name):
    alpha, pieces, traj = WEIGHTS[name]
    return make_weight(alpha, pieces, EndpointTrajectory(traj))


@pytest.fixture(params=sorted(WEIGHTS))
def w(request):
    return weight(request.param)


def lowered_measure(w, t, npts):
    """The table's measure built piece by piece in extended precision: the
    rule with each positive endpoint exponent lowered by one, its weights
    times the distance to each endpoint whose exponent it lowered."""
    x = quad_ref._positions(w, t)
    parts = []
    for p in range(w.m - 1):
        lower = w.alpha[p:p + 2] > 0.0
        xs, eff = quad_ref.piece_points(w, x, p, npts, *(w.alpha[p:p + 2] - lower))
        if lower[0]:
            eff = eff * (xs - x[p])
        if lower[1]:
            eff = eff * (x[p + 1] - xs)
        parts.append((xs, eff))
    return (np.concatenate([xs for xs, _ in parts]),
            np.concatenate([eff for _, eff in parts]))


def assert_measure_integrals(w, t, npts):
    """sum ws f(xs) against the plain piece rules of ``quad_ref.measure``,
    for f = 1, u^k up to the table's exactness 2 npts - 3, cos and a Cauchy
    kernel with its pole beyond the support."""
    xs, ws = discretized_measure(w, t, npts)
    rx, rw = quad_ref.measure(w, t, npts)
    pole = float(rx[-1]) + 1.0
    fs = [np.ones_like, np.cos, lambda u: 1.0 / (pole - u)]
    fs += [lambda u, k=k: u ** k for k in range(1, 2 * npts - 2)]
    for f in fs:
        assert quad_ref.relative(np.dot(ws, f(xs)), np.sum(rw * f(rx))) <= TOL


def assert_cauchy_transforms(w, t, npts):
    """Q @ f of ``cauchy_node_matrices`` at the nodes against
    ``quad_ref.cauchy_transform``."""
    points, ws, _, Q = cauchy_node_matrices(w, (t,), npts)
    for f in (np.cos, lambda u: u ** 5 - 2.0 * u, np.ones_like):
        got = Q[0] @ f(points[0])
        ref = [quad_ref.cauchy_transform(w, t, f, j, npts) for j in range(w.m)]
        assert quad_ref.relative(got, ref) <= TOL


class TestAgainstPerPieceRules:
    @pytest.mark.parametrize("npts", [7, 64])
    def test_discretized_measure(self, w, npts):
        xs, ws = discretized_measure(w, 0.13, npts)
        rx, rw = lowered_measure(w, 0.13, npts)
        assert quad_ref.relative(xs, rx) <= TOL
        np.testing.assert_allclose(ws, rw, rtol=TOL, atol=0.0)
        if npts == 64:  # where the plain rules and the table both converge
            assert_measure_integrals(w, 0.13, npts)

    def test_cauchy_node_matrix(self, w):
        t = 0.07
        points, ws, _, Q = cauchy_node_matrices(w, (t,), 64)
        points, ws, Q = points[0], ws[0], Q[0]
        assert Q.shape == (w.m, (w.m - 1) * 64)
        xs, mws = discretized_measure(w, t, 64)
        assert np.array_equal(points, xs) and np.array_equal(ws, mws)
        for f in (np.cos, lambda u: u ** 5 - 2.0 * u, np.ones_like):
            got = Q @ f(points)
            ref = [quad_ref.cauchy_transform(w, t, f, j, 64) for j in range(w.m)]
            assert quad_ref.relative(got, ref) <= TOL

    @pytest.mark.parametrize("n", [1, 2, 9, 30])
    def test_init_state(self, w, n):
        for t in (0.0, 0.11):
            got = init_state(w, n, t).pack()
            assert quad_ref.relative(got, quad_ref.init_state(w, n, t)) <= TOL


    @pytest.mark.parametrize("n", [1, 9, 30])
    def test_init_states(self, w, n):
        ts = [0.11, -0.04, 0.0, 0.11, 0.2]
        got = init_states(w, n, ts)
        assert got.shape == (len(ts), 3 + 3 * w.m)
        for t, row in zip(ts, got):
            assert quad_ref.relative(row, quad_ref.init_state(w, n, t)) <= TOL


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_init_state_is_init_states_at_one_time(name):
    w = weight(name)
    for n, t in ((1, 0.0), (7, 0.13), (30, -0.05)):
        assert np.array_equal(init_state(w, n, t).pack(), init_states(w, n, [t])[0])


@st.composite
def configs(draw, exponents=st.floats(0.05, 2.0), degrees=st.integers(1, 30)):
    """A random admissible weight, a time t and a degree n, with the
    exponents and the degree drawn from ``exponents`` and ``degrees``.

    At t the endpoints sit as the benchmark workloads place them: the outer
    two at -2 and 2, the inner ones uniform with gaps >= 0.05. The floor-1
    metric is not scale-free, and roundoff grows as the support narrows:
    on [-1, -0.8] (m = 2, alpha (2, 0.05), n = 30) ``init_state`` reads
    1.9e-12 against this reference, the same before the rule table.
    """
    m = draw(st.integers(2, 6))
    alpha = draw(st.lists(exponents, min_size=m, max_size=m))
    pieces = draw(st.lists(st.floats(0.5, 2.0), min_size=m - 1, max_size=m - 1))
    inner = draw(st.lists(st.floats(-1.95, 1.95), min_size=m - 2, max_size=m - 2))
    x = np.array([-2.0, *sorted(inner), 2.0])
    assume(np.all(np.diff(x) >= 0.05))
    v = draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m))
    t = draw(st.floats(-0.05, 0.05))
    traj = tuple((float(xk - vk * t), float(vk)) for xk, vk in zip(x, v))
    w = make_weight(alpha, pieces, EndpointTrajectory(traj), t_ref=t)
    return w, draw(degrees), t


@settings(max_examples=40, deadline=None, derandomize=True)
@given(configs())
def test_init_state_property(cfg):
    w, n, t = cfg
    got = init_state(w, n, t).pack()
    assert quad_ref.relative(got, quad_ref.init_state(w, n, t)) <= PROPERTY_TOL


@settings(max_examples=25, deadline=None, derandomize=True)
@given(configs(), st.lists(st.floats(-0.01, 0.01), min_size=1, max_size=12))
def test_init_states_property(cfg, offsets):
    # times near t, where every gap is still at least 0.03
    w, n, t = cfg
    ts = t + np.array(offsets)
    for ti, row in zip(ts, init_states(w, n, ts)):
        assert quad_ref.relative(row, quad_ref.init_state(w, n, ti)) <= PROPERTY_TOL


class TestEdges:
    def test_measure_with_nonpositive_exponents(self):
        # moment-flow weights may have alpha in (-1, 0]; the rules beside
        # those nodes keep their exponents unlowered
        w = make_weight([-0.5, 0.0, 0.7, -0.9], [1.0, 2.0, 0.5],
                        EndpointTrajectory(((-1.0,), (0.0, 0.3), (0.6,), (1.4,))))
        assert_measure_integrals(w, 0.2, 32)
        xs, ws = discretized_measure(w, 0.2, 32)
        rx, rw = lowered_measure(w, 0.2, 32)
        assert quad_ref.relative(xs, rx) <= TOL
        np.testing.assert_allclose(ws, rw, rtol=TOL, atol=0.0)

    @pytest.mark.parametrize("alpha", [
        [0.4, 1.3, 0.7],    # every rule lowered on both sides
        [0.6, -0.4, 1.1],   # one side: the left of piece 0, the right of 1
        [-0.5, 0.0, -0.3],  # neither side
    ])
    def test_lowering_patterns(self, alpha):
        w = make_weight(alpha, [1.5, 0.8],
                        EndpointTrajectory(((-1.0,), (0.1, 0.5), (1.2,))))
        assert_measure_integrals(w, 0.2, 32)
        if min(alpha) > 0.0:  # else the transform at some node diverges
            assert_cauchy_transforms(w, 0.2, 32)

    @pytest.mark.parametrize("alpha,x", [
        ([0.05, 0.05, 0.05], [-1.0, 0.2, 1.0]),
        ([2.0, 0.05], [-1.0, -0.8]),   # the 0.2-wide support of docs/formats.md
    ])
    def test_small_exponents(self, alpha, x):
        # a small alpha puts most of a lowered rule's mass on the node
        # next to its endpoint, whose distance 1 + s to it has only the
        # node's absolute accuracy: about 1e-12 in this metric at n = 30
        w = make_weight(alpha, [1.0] * (len(x) - 1), EndpointTrajectory.fixed(x))
        got = init_state(w, 30, 0.0).pack()
        assert quad_ref.relative(got, quad_ref.init_state(w, 30, 0.0)) <= PROPERTY_TOL

    @pytest.mark.xfail(strict=True, reason="the lowered rule's mass sits on "
                       "the node next to the endpoint, whose distance 1 - s "
                       "to it is only absolutely accurate: the measure is off "
                       "by about 2e-16 / alpha")
    def test_tiny_exponent_measure(self):
        w = make_weight([0.0, 1e-10], [1.0], EndpointTrajectory.fixed([-2.0, 2.0]))
        _, ws = discretized_measure(w, 0.0, 64)
        _, rw = quad_ref.measure(w, 0.0, 64)
        assert quad_ref.relative(np.sum(ws), np.sum(rw)) <= TOL

    @pytest.mark.parametrize("alpha", [0.0, -0.4])
    def test_divergent_transform_message(self, alpha):
        w = make_weight([0.5, alpha, 0.5], [1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
        msg = rf"^q\(x_2\) diverges: alpha_2 = {alpha} <= 0$"
        with pytest.raises(DivergentTransform, match=msg):
            cauchy_node_matrices(w, (0.0,), 64)

    def test_exponent_below_the_rounding_of_its_lowering(self):
        # alpha_2 - 1 rounds to -1: its rules keep alpha_2, the measure is
        # that of alpha_2 = 0 and the transform at x_2 is refused
        w, w0 = (make_weight([0.5, alpha, 0.5], [1.0, 1.0],
                             EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
                 for alpha in (1e-300, 0.0))
        xs, ws = discretized_measure(w, 0.0, 16)
        x0, ws0 = discretized_measure(w0, 0.0, 16)
        assert np.array_equal(xs, x0) and np.array_equal(ws, ws0)
        msg = r"^q\(x_2\) diverges: alpha_2 = 1e-300 and alpha - 1 rounds to -1$"
        with pytest.raises(DivergentTransform, match=msg):
            cauchy_node_matrices(w, (0.0,), 64)

    def test_measure_builds_the_whole_table(self, builds):
        # exponents and npts no other test uses, so every rule is a new build
        w = make_weight([0.31, 0.77, 1.23], [1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.2, 1.0]))
        before = _rule_cached.cache_info().misses
        discretized_measure(w, 0.0, 17)
        assert len(builds) == 1 and len(builds[0]) == w.m - 1
        assert _rule_cached.cache_info().misses - before == w.m - 1
        cauchy_node_matrices(w, (0.0,), 17)
        assert len(builds) == 1
        assert _rule_cached.cache_info().misses - before == w.m - 1


def _scalar_recurrence(n, a, b):
    """The per-rule recurrence formulas, one exponent pair at a time."""
    ab = a + b
    diag, beta = np.empty(n), np.empty(n)
    diag[0] = (b - a) / (ab + 2.0)
    beta[0] = 2.0 ** (ab + 1.0) * math.exp(
        math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(ab + 2.0))
    if n > 1:
        diag[1] = (b * b - a * a) / ((2.0 + ab) * (4.0 + ab))
        beta[1] = 4.0 * (a + 1.0) * (b + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
    for k in range(2, n):
        s = 2.0 * k + ab
        diag[k] = (b * b - a * a) / (s * (s + 2.0))
        beta[k] = 4.0 * k * (k + a) * (k + b) * (k + ab) / (s * s * (s + 1.0) * (s - 1.0))
    return diag, beta


@pytest.fixture
def builds(monkeypatch):
    """The exponent pairs of every ``_build_rules`` call, one list per call."""
    calls = []

    def counted(npts, pairs):
        calls.append(list(pairs))
        return _build_rules(npts, pairs)

    monkeypatch.setattr(quadrature, "_build_rules", counted)
    return calls


class TestRuleCache:
    @pytest.mark.parametrize("n", [1, 2, 3, 65])
    def test_batched_recurrence_is_the_per_rule_one(self, n):
        a = np.array([0.3, -0.9, 1.5, 0.0, -0.5])
        b = np.array([1.2, -0.9, -0.8, 0.0, 0.5])
        diag, beta = _monic_jacobi_recurrence(n, a, b)
        for j in range(len(a)):
            ref = _scalar_recurrence(n, float(a[j]), float(b[j]))
            assert np.array_equal(diag[:, j], ref[0])
            assert np.array_equal(beta[:, j], ref[1])

    def test_table_miss_builds_the_fresh_rules_in_one_pass(self, builds):
        # exponents no other test uses
        w = make_weight([0.37, 1.41, 0.83, 1.07], [1.0, 1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.1, 0.5, 1.0]))
        cauchy_node_matrices(w, (0.0,), 19)
        assert len(builds) == 1 and len(builds[0]) == w.m - 1
        # a new table whose rules, those of the first two pieces, are cached
        w3 = make_weight([0.37, 1.41, 0.83], [1.0, 1.0],
                         EndpointTrajectory.fixed([-1.0, 0.1, 0.5]))
        before = _rule_cached.cache_info()
        discretized_measure(w3, 0.0, 19)
        after = _rule_cached.cache_info()
        assert len(builds) == 1
        assert (after.hits - before.hits, after.misses - before.misses) == (w3.m - 1, 0)
        # a table with one fresh rule builds that one alone
        w2 = make_weight([0.37, 1.41, 0.83, 1.09], [1.0, 1.0, 1.0],
                         EndpointTrajectory.fixed([-1.0, 0.1, 0.5, 1.0]))
        discretized_measure(w2, 0.0, 19)
        assert builds[1:] == [[(0.83 - 1.0, 1.09 - 1.0)]]

    def test_duplicate_pairs_are_built_once(self, builds):
        w = make_weight([0.59, 0.59, 0.59, 0.59], [1.0, 2.0, 0.5],
                        EndpointTrajectory.fixed([-1.0, 0.1, 0.5, 1.0]))
        before = _rule_cached.cache_info()
        points = cauchy_node_matrices(w, (0.0,), 13)[0][0]
        after = _rule_cached.cache_info()
        # 3 rules, all (a - 1, a - 1)
        assert builds == [[(0.59 - 1.0, 0.59 - 1.0)]]
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 1)
        assert points.shape == (3 * 13,)

    def test_gauss_jacobi_rule_is_the_table_slice(self, builds, monkeypatch):
        # the rules the measure looked up, one per piece
        looked_up = []
        lookup = _rule_cached.rules

        def recorded(npts, pairs):
            looked_up.append(lookup(npts, pairs))
            return looked_up[-1]

        monkeypatch.setattr(_rule_cached, "rules", recorded)
        npts = 23
        # all rules from the asymptotic start; then one rule on each side
        # of its bound in one batch
        for alpha in [(0.43, 1.17, 0.61), (0.47, 1.19, _ASYMPTOTIC_BOUND + 1.63)]:
            builds.clear()
            looked_up.clear()
            w = make_weight(alpha, [1.0, 1.0],
                            EndpointTrajectory.fixed([-1.0, 0.2, 1.0]))
            discretized_measure(w, 0.0, npts)
            rules = [(alpha[0] - 1.0, alpha[1] - 1.0),
                     (alpha[1] - 1.0, alpha[2] - 1.0)]
            assert builds == [rules]
            [table] = looked_up
            for (bl, br), (nodes, weights) in zip(rules, table, strict=True):
                rule_nodes, rule_weights = gauss_jacobi_rule(npts, bl, br)
                assert np.array_equal(rule_nodes, nodes)
                assert np.array_equal(rule_weights, weights)
                # built alone, the rule is the same to the bit
                alone_nodes, alone_weights = _build_rules(npts, [(bl, br)])[0]
                assert np.array_equal(alone_nodes, nodes)
                assert np.array_equal(alone_weights, weights)
            assert len(builds) == 1  # gauss_jacobi_rule found every rule cached

    def test_least_recently_used_rules_are_dropped(self):
        cache = _RuleCache(maxsize=3)
        pairs = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8)]
        # more distinct rules than the cache holds, all returned
        got = cache.rules(5, pairs)
        assert [g[0].shape for g in got] == [(5,)] * 4
        assert cache.cache_info() == (0, 4, 3, 3)
        cache.rules(5, [(0.3, 0.4)])  # a hit, now the most recent
        cache.rules(5, [(0.1, 0.2)])  # dropped above: built again, drops (0.5, 0.6)
        assert cache.cache_info() == (1, 5, 3, 3)
        cache.rules(5, [(0.3, 0.4), (0.1, 0.2), (0.7, 0.8)])
        assert cache.cache_info() == (4, 5, 3, 3)

    def test_rule_cache_is_bounded(self):
        info = _rule_cached.cache_info()
        assert info.maxsize == 512
        assert info.currsize <= 512

    @pytest.mark.parametrize("failure", ["newton", "eigvalsh", "pass_cap", "outside",
                                         "not_increasing", "cell"])
    def test_unconverged_nodes_raise(self, failure, monkeypatch):
        npts, pair = 6, (0.25, 0.75)
        if failure == "newton":
            # far above its bound the asymptotic start is too poor: from
            # it the passes find one root twice
            monkeypatch.setattr(quadrature, "_ASYMPTOTIC_BOUND", math.inf)
            pair = (14.4, 6.3)
        elif failure == "eigvalsh":
            def unconverged(a, UPLO="L"):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigvalsh", unconverged)
            pair = (0.25, _ASYMPTOTIC_BOUND + 0.75)
        elif failure == "pass_cap":
            # an exponent in (1, 3] takes a second pass at npts 64
            monkeypatch.setattr(quadrature, "_MAX_PASSES", 1)
            npts, pair = 64, (0.25, 2.75)
        else:
            # an accepted pass whose stepped nodes break one of the checks
            halley_pass = quadrature._halley_pass

            def broken(x, *args):
                step, accepted, weights = halley_pass(x, *args)
                nodes = x - step
                if failure == "outside":
                    nodes[:, -1] = 1.5
                elif failure == "not_increasing":
                    nodes[:, 1] = nodes[:, 0]
                else:  # past the midpoint to the next start, still increasing
                    nodes[:, 2] = 0.25 * nodes[:, 2] + 0.75 * nodes[:, 3]
                return x - nodes, accepted, weights

            monkeypatch.setattr(quadrature, "_halley_pass", broken)
            if failure == "not_increasing":  # no start cells to leave
                pair = (0.25, _ASYMPTOTIC_BOUND + 0.75)
        cache = _RuleCache(maxsize=8)
        with pytest.raises(NotConverged, match="did not converge"):
            cache.rules(npts, [pair])
        assert cache.cache_info().currsize == 0

    @pytest.mark.parametrize("pair", [(np.nan, 0.5), (0.3, np.nan), (np.inf, 0.0)])
    def test_nonfinite_exponents_raise(self, pair):
        # dsterf returns wrong or NaN eigenvalues with info 0 for some
        # non-finite inputs; the builder refuses them before any start
        with np.errstate(all="ignore"), pytest.raises(NonFinite, match="not finite"):
            _RuleCache(maxsize=8).rules(5, [pair])


def _dsterf_nodes(npts, pairs):
    """The Gauss nodes of each rule of ``_build_rules(npts, pairs)`` by
    LAPACK's ``dsterf`` on its recurrence, one call per rule, laid out as
    ``np.linalg.eigvalsh`` returns them."""
    dsterf = pytest.importorskip("scipy.linalg.lapack").dsterf
    left, right = np.array(pairs, dtype=float).T
    diag, beta = _monic_jacobi_recurrence(npts + 1, right, left)
    root = np.sqrt(beta)
    out = np.empty((len(pairs), npts))
    for j in range(len(pairs)):
        # f2py wants a non-empty e; LAPACK reads npts - 1 entries of it
        out[j], info = dsterf(diag[:npts, j], root[1:max(npts, 2), j])
        assert info == 0
    return out


# an exponent pair with at least one of the two above the asymptotic
# start's bound, up to 100, so that its rule starts from the eigenvalues
_ABOVE = st.floats(_ASYMPTOTIC_BOUND, 100.0, exclude_min=True)
_ANY = st.floats(-0.99, 100.0, exclude_min=True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 130),
       st.lists(st.one_of(st.tuples(_ABOVE, _ANY), st.tuples(_ANY, _ABOVE)),
                min_size=1, max_size=6))
def test_rules_match_a_dsterf_reference_bit_for_bit(npts, pairs):
    got = _build_rules(npts, pairs)
    solves = []

    def reference(jac, UPLO):
        solves.append(jac.shape)
        return _dsterf_nodes(npts, pairs)

    with pytest.MonkeyPatch.context() as mp:
        # the same Newton step and weights from the reference nodes
        mp.setattr(np.linalg, "eigvalsh", reference)
        ref = _build_rules(npts, pairs)
    assert solves == [(len(pairs), npts, npts)]  # one batched solve
    for (nodes, weights), (ref_nodes, ref_weights) in zip(got, ref, strict=True):
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)


# The Halley pass from the polished start against the plain float pass of
# ``jacobi_ref``, one step from the eigenvalues. Each rounds the recurrence
# differently, and next to an endpoint whose exponent is close to -1 the
# rule is sensitive to that rounding. At exponents (-0.99, -0.99) the two
# read 2.2e-16 apart on the nodes (npts 14; 2.2e-16 and 1.1e-16 from the
# 40-digit rules) and 7.9e-13 on the weights (npts 130; 5.9e-13 and 2.1e-13
# from them). Over 3000 random rules with exponents up to the bound they
# stay within 3.3e-16 and 2.0e-13.
REF_NODE_TOL = 5e-16
REF_WEIGHT_TOL = 2e-12


_UP_TO_BOUND = st.floats(-0.99, _ASYMPTOTIC_BOUND, exclude_min=True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 130),
       st.lists(st.tuples(_UP_TO_BOUND, _UP_TO_BOUND), min_size=1, max_size=6))
def test_rules_match_the_real_arithmetic_pass(npts, pairs):
    # npts 1..130 ends the degree blocks anywhere, and covers a lone
    # short block below 16
    got = _build_rules(npts, pairs)
    ref = real_arithmetic_rules(npts, pairs)
    for (nodes, weights), (ref_nodes, ref_weights) in zip(got, ref, strict=True):
        assert np.max(np.abs(nodes - ref_nodes)) <= REF_NODE_TOL
        assert np.max(np.abs(weights / ref_weights - 1.0)) <= REF_WEIGHT_TOL


@pytest.mark.parametrize("npts", [1, 2, 64, 130])
def test_rules_at_or_below_the_bound_solve_no_eigenvalues(npts, monkeypatch):
    def refused(jac, UPLO):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    bound = _ASYMPTOTIC_BOUND
    _build_rules(npts, [(-0.99, -0.99), (bound, -0.99), (-0.99, bound),
                        (bound, bound), (0.37, 1.91)])


def _counted_passes(npts, pairs):
    """The number of rules in each recurrence pass of ``_build_rules``."""
    passes = []
    run = quadrature._recurrence_pass

    def counted(x, *args):
        passes.append(len(x))
        return run(x, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_recurrence_pass", counted)
        _build_rules(npts, pairs)
    return passes


# Lowered exponents in [-0.999, 1]. Nearer -1, the node next to that end
# can sit closer to it than the recurrence resolves once the other exponent
# is near -1 too, and a + b + 2 small (ROADMAP item 7): at
# (-0.98, -1 + 1e-10) and npts 130 its root moves by half its distance to
# the end, and the rule takes a second pass
_UP_TO_ONE = st.floats(-0.999, 1.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([37, 64, 100, 130]),
       st.lists(st.tuples(_UP_TO_ONE, _UP_TO_ONE), min_size=1, max_size=6))
def test_one_recurrence_pass_up_to_exponent_one(npts, pairs):
    assert _counted_passes(npts, pairs) == [len(pairs)]


def test_one_recurrence_pass_next_to_a_rounded_end():
    # the node next to the end with exponent -1 + 1e-13 rounds to -1.0 (to
    # 1.0 at the right end): its pass runs at the clipped start, strictly
    # inside, where 1 - s^2 >= 2^-52
    pairs = [(-1.0 + 1e-13, 0.5), (0.5, -1.0 + 1e-13)]
    assert _counted_passes(64, pairs) == [2]
    (left, _), (right, _) = _build_rules(64, pairs)
    assert left[0] == -1.0 and right[-1] == 1.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 130),
       st.lists(st.tuples(_UP_TO_BOUND, _UP_TO_BOUND), min_size=1, max_size=6))
def test_at_most_three_passes_up_to_the_bound(npts, pairs):
    # exponents in (1, 3] start up to 5e-4 of their spacing off and take a
    # second pass; a third is to spare
    passes = _counted_passes(npts, pairs)
    assert len(passes) <= 3 and passes[0] == len(pairs)


# the polished nodes next to the ends against the reference, in parts of the
# distance to the nearest other node: they read at most 3.6e-11, where the
# unpolished end node reads up to 1e-2 and the fifth node from an end 8.6e-6
END_NODE_TOL = 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 130),
       st.floats(-1.0, 1.0, exclude_min=True), st.floats(-0.99, 1.0), st.booleans())
def test_polished_end_nodes_match_a_dsterf_reference(npts, near, other, swap):
    # one exponent anywhere in (-1, 1]; both near -1 would make the
    # reference's recurrence lose its precision
    a, b = (other, near) if swap else (near, other)
    start = _start_nodes(npts, np.array([a]), np.array([b]))[0]
    ref = _dsterf_nodes(npts, [(b, a)])[0]  # (beta_left, beta_right)
    gap = np.diff(ref)
    spacing = np.minimum(np.append(gap, np.inf), np.insert(gap, 0, np.inf))
    e = min(_END_NODES, npts // 2)
    polished = np.r_[:e, npts - e:npts]
    assert np.all(np.abs(start - ref)[polished] <= END_NODE_TOL * spacing[polished])
