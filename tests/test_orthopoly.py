import numpy as np
import pytest

from hankel_ref import hankel_det
from jacobi_ref import jacobi_orthonormal_coeffs
from quad_ref import moments
from gjflow import (
    EndpointTrajectory,
    IndexOutOfRange,
    LostOrthogonality,
    discretized_measure,
    eval_polynomial,
    make_weight,
    stieltjes_procedure,
)
from gjflow.orthopoly import stieltjes_recurrence


class TestStieltjesProcedure:
    def test_chebyshev_coefficients(self, cheb):
        table = stieltjes_procedure(cheb, 0.0, 10)
        assert np.max(np.abs(table.a[1:] - 0.5)) < 1e-12
        assert np.max(np.abs(table.b)) < 1e-12
        assert table.gamma[0] == pytest.approx(np.sqrt(2.0 / np.pi), rel=1e-13)

    def test_general_jacobi_closed_form(self):
        # weight (1+x)^1.5 (1-x)^0.5 -> Jacobi parameters a=0.5, b=1.5
        w = make_weight([1.5, 0.5], [1.0], EndpointTrajectory.fixed([-1.0, 1.0]))
        table = stieltjes_procedure(w, 0.0, 10)
        a_ref, b_ref = jacobi_orthonormal_coeffs(0.5, 1.5, 10)
        assert np.max(np.abs(table.a[1:] - a_ref) / a_ref) < 1e-12
        assert np.max(np.abs(table.b - b_ref)) < 1e-12

    def test_symmetric_weight_centered(self):
        w = make_weight([0.5, 0.3, 0.5], [1.0, 1.0],
                        EndpointTrajectory.fixed([-1.0, 0.0, 1.0]))
        table = stieltjes_procedure(w, 0.0, 8)
        assert np.max(np.abs(table.b)) < 1e-10

    def test_gamma_ratio_identity(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 10)
        for n in range(1, 11):
            assert table.gamma[n - 1] == pytest.approx(
                table.a[n] * table.gamma[n], rel=1e-12)

    def test_orthonormality(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 10)
        xs, ws = discretized_measure(ref3, 0.0, 64)
        P = np.array([eval_polynomial(table, i, xs)[0] for i in range(11)])
        G = P @ (ws[:, None] * P.T)
        assert np.max(np.abs(G - np.eye(11))) < 1e-9

    @pytest.mark.parametrize("N", [80, 100])
    def test_default_npts_follows_the_degree(self, N):
        # 64 points per piece miss these degrees by 2e-3 (N = 80) and 0.8
        # (N = 100); the default takes max(64, N + 2)
        w = make_weight([0.5, 1.5, 0.7], [1.0, 1.0],
                        EndpointTrajectory.fixed([-2.0, 0.3, 2.0]))
        table = stieltjes_procedure(w, 0.0, N)
        ref = stieltjes_procedure(w, 0.0, N, 3 * N + 60)
        assert np.max(np.abs(table.a - ref.a)) < 1e-12
        assert np.max(np.abs(table.b - ref.b)) < 1e-12

    def test_breakdown_on_tiny_discretization(self, cheb):
        # stieltjes_procedure refuses npts = 2 as UnderResolved; the
        # recurrence on that 2-point measure breaks down
        xs, ws = discretized_measure(cheb, 0.0, 2)
        with pytest.raises(LostOrthogonality):
            stieltjes_recurrence(xs, ws, 10)

    def test_negative_degree(self, cheb):
        with pytest.raises(IndexOutOfRange, match="^N must be >= 0, got -1$"):
            stieltjes_procedure(cheb, 0.0, -1)


class TestBatchedRecurrence:
    """``stieltjes_recurrence`` with one measure per row."""

    @staticmethod
    def measures(ts):
        w = make_weight([0.4, 1.3, 0.8], [1.0, 2.0],
                        EndpointTrajectory(((-1.0,), (0.1, 0.9), (1.5, -0.2))))
        xs, ws = zip(*(discretized_measure(w, t, 24) for t in ts))
        extra = np.linspace(-1.0, 1.5, 5)           # carried points
        return np.array([np.concatenate((x, extra)) for x in xs]), np.array(ws)

    def test_rows_match_one_dimensional_calls(self):
        xs, ws = self.measures([0.0, 0.2, 0.35])
        # ten million times narrower: its norms fall below the other rows'
        # roundoff floors, and each row is held to its own
        xs[2] *= 1e-7
        table, p, p_prev = stieltjes_recurrence(xs, ws, 12)
        assert table.a.shape == (3, 13) and table.N == 12 and p.shape == xs.shape
        for i in range(3):
            row, p1, pm1 = stieltjes_recurrence(xs[i:i + 1], ws[i:i + 1], 12)
            row = row.row(0)
            for got, ref in ((table.a[i], row.a), (table.b[i], row.b),
                             (table.gamma[i], row.gamma), (p[i], p1[0]),
                             (p_prev[i], pm1[0])):
                assert np.array_equal(got, ref)

    def test_error_of_the_first_failing_row(self):
        xs, ws = self.measures([0.0, 0.1, 0.2])
        ws[2] = 0.0                                  # no mass
        ws[1, 2:] = 0.0                              # two points: p_2 vanishes
        with pytest.raises(LostOrthogonality, match="at degree 2 below") as info:
            stieltjes_recurrence(xs, ws, 6)
        assert info.value.row == 1
        ws[1] = 0.0
        with pytest.raises(LostOrthogonality, match="nonpositive total mass") as info:
            stieltjes_recurrence(xs, ws, 6)
        assert info.value.row == 1


@pytest.mark.parametrize("m", [2, 3, 6])
def test_carried_polynomials_equal_eval_polynomial(m):
    # the p, p_prev that stieltjes_recurrence carries to degree N are
    # eval_polynomial's p_{N-1}, p_{N-2} on its own table, bit for bit,
    # on the measure's points and on the points that only ride along
    rng = np.random.default_rng(m)
    x = np.cumsum(rng.uniform(0.1, 1.0, size=m))
    w = make_weight(rng.uniform(0.2, 1.8, size=m),
                    rng.uniform(0.5, 2.0, size=m - 1),
                    EndpointTrajectory.fixed(x))
    extra = np.concatenate((x, np.linspace(x[0] - 0.1, x[-1] + 0.1, 7)))
    for n in (0, 1, 8, 40):
        xs, ws = discretized_measure(w, 0.0, max(64, n + 2))
        xs = np.concatenate((xs, extra))
        table, p, p_prev = stieltjes_recurrence(xs[None], ws[None], n + 1)
        ref, _, ref_prev = eval_polynomial(table.row(0), n, xs)
        assert np.array_equal(p[0], ref) and np.array_equal(p_prev[0], ref_prev)


class TestEvalPolynomial:
    def test_degree_zero_constant(self, cheb):
        table = stieltjes_procedure(cheb, 0.0, 5)
        for x in (-0.3, 0.0, 0.9):
            p, dp, pm1 = eval_polynomial(table, 0, x)
            assert p == pytest.approx(table.gamma[0])
            assert dp == 0.0
            assert pm1 == 0.0

    def test_chebyshev_value_at_one(self, cheb):
        # U_n(1) = n + 1, orthonormal scaling sqrt(2/pi)
        table = stieltjes_procedure(cheb, 0.0, 10)
        for n in range(11):
            p, _, _ = eval_polynomial(table, n, 1.0)
            assert p == pytest.approx(np.sqrt(2.0 / np.pi) * (n + 1), rel=1e-11)

    def test_derivative_finite_difference(self, ref3):
        table = stieltjes_procedure(ref3, 0.0, 8)
        h = 1e-6
        for n in (1, 4, 8):
            for x in (-0.55, 0.31, 0.77):
                _, dp, _ = eval_polynomial(table, n, x)
                fd = (eval_polynomial(table, n, x + h)[0]
                      - eval_polynomial(table, n, x - h)[0]) / (2 * h)
                assert dp == pytest.approx(fd, rel=1e-7)

    def test_index_out_of_range(self, cheb):
        table = stieltjes_procedure(cheb, 0.0, 3)
        with pytest.raises(IndexOutOfRange):
            eval_polynomial(table, 4, 0.0)


class TestMoments:
    """The extended-precision moments of ``quad_ref`` that the Hankel tests
    take."""

    def test_chebyshev_mu0(self, cheb):
        mu = moments(cheb, 0.0, 0)
        assert mu[0] == pytest.approx(np.pi / 2, rel=1e-13)

    def test_chebyshev_mu1_centered(self, cheb):
        # int (1-u^2)^(1/2) (u+1) du = pi/2
        mu = moments(cheb, 0.0, 1)
        assert mu[1] == pytest.approx(np.pi / 2, rel=1e-13)

    def test_positivity(self, ref3):
        mu = moments(ref3, 0.0, 12)
        assert np.all(mu > 0)


class TestHankelDet:
    def test_one_by_one(self, cheb):
        mu = moments(cheb, 0.0, 4)
        assert hankel_det(mu, 1) == pytest.approx(mu[0])

    def test_positive_definite_measure(self, ref3):
        mu = moments(ref3, 0.0, 14)
        for n in range(1, 8):
            assert hankel_det(mu, n) > 0.0

    def test_coefficient_ratio(self, ref3):
        # a_n^2 = H_{n+1} H_{n-1} / H_n^2 with H_0 = 1
        table = stieltjes_procedure(ref3, 0.0, 7)
        mu = moments(ref3, 0.0, 14)
        H = [hankel_det(mu, n) for n in range(8)]
        for n in range(1, 7):
            ratio = H[n + 1] * H[n - 1] / H[n] ** 2
            assert ratio == pytest.approx(table.a[n] ** 2, rel=1e-6)

    def test_insufficient_moments(self, cheb):
        mu = moments(cheb, 0.0, 3)
        with pytest.raises(IndexOutOfRange):
            hankel_det(mu, 4)
