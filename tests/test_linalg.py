import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve

from nofob import linalg
from nofob.linalg import (
    ContractViolation,
    SpdMetric,
    largest_eig,
    matvec_rows,
    spectral_norm,
    weighted_row_norms,
)
from nofob.rng import Lcg64

# the smallest size that takes the Lanczos route
LANCZOS_N = linalg._LANCZOS_MIN_DIM


def test_metric_eigenvalue_bounds_diagonal():
    w = SpdMetric(np.diag([2.0, 5.0, 1.0]))
    assert w.lam_min == pytest.approx(1.0)
    assert w.lam_max == pytest.approx(5.0)


def test_spd_metric_rejects_asymmetric():
    with pytest.raises(ContractViolation, match="not symmetric"):
        SpdMetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n", [2, 10, 200, LANCZOS_N, 400])
def test_spectral_norm_matches_the_svd_norm(n):
    rng = Lcg64(100 + n)
    r = rng.matrix(n, n)
    wide = rng.matrix(n, n + 3)
    for m in (r, 0.5 * (r - r.T), wide, wide.T):
        ref = np.linalg.norm(m, 2)
        assert abs(spectral_norm(m) - ref) <= 1e-14 * ref


def test_spectral_norm_of_zero_and_empty_matrices_is_exactly_zero():
    assert spectral_norm(np.zeros((4, 4))) == 0.0
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    assert spectral_norm(np.zeros((0, 3))) == 0.0
    assert spectral_norm(np.zeros((LANCZOS_N, LANCZOS_N + 5))) == 0.0


def _counting(matvec):
    """matvec, counting its calls."""
    calls = []

    def counted(x):
        calls.append(1)
        return matvec(x)

    return counted, calls


def _counted(m):
    """x -> M^T M x, counting its calls."""
    return _counting(lambda x: m.T @ (m @ x))


def test_lanczos_stops_at_a_breakdown_with_the_exact_value():
    # the Krylov space of M^T M is invariant after one step for c I and
    # for the zero matrix (which must read exactly 0), and after two for a
    # rank-one u v^T
    n = LANCZOS_N + 20
    rng = Lcg64(3)
    u, v = rng.vector(n + 7), rng.vector(n)
    for m, steps in ((np.outer(u, v), 2), (3.0 * np.eye(n), 1), (np.zeros((n, n)), 1)):
        ref = np.linalg.norm(m, 2)
        assert abs(spectral_norm(m) - ref) <= 1e-14 * ref
        matvec, calls = _counted(m)
        lam = linalg._lanczos_max(matvec, n)
        assert len(calls) == steps
        assert abs(lam - ref ** 2) <= 1e-14 * ref ** 2


def test_spectral_norm_of_a_skew_matrix_with_zero_row_sums():
    # K x = x_{i+1} - x_{i-1} cyclically: K ones = 0, so a Lanczos run
    # started from ones / sqrt(n) would break down at once and read 0
    n = LANCZOS_N + 100
    k = np.roll(np.eye(n), 1, axis=1) - np.roll(np.eye(n), -1, axis=1)
    assert np.array_equal(k, -k.T) and not k.sum(axis=1).any()
    ref = np.linalg.norm(k, 2)
    assert abs(spectral_norm(k) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("n", [20, LANCZOS_N, 400])
def test_largest_eig_matches_the_dense_solve(n):
    r = Lcg64(n).matrix(n, n)
    w = r @ r.T / n + 0.5 * np.eye(n)
    ref = float(np.linalg.eigvalsh(w)[-1])
    if n < LANCZOS_N:
        assert largest_eig(w) == ref
    else:
        assert abs(largest_eig(w) - ref) <= 1e-14 * ref


@pytest.mark.parametrize("w, message", [
    (np.zeros((0, 0)), "matrix must not be empty"),
    (np.ones(3), "matrix must be square"),
    (np.ones((2, 3)), "matrix must be square"),
], ids=["empty", "vector", "wide"])
def test_largest_eig_rejects_what_is_not_a_nonempty_square_matrix(w, message):
    # these used to raise IndexError (empty) and numpy's LinAlgError
    with pytest.raises(ContractViolation, match=message):
        largest_eig(w)


def test_a_dense_metric_rejects_an_empty_matrix():
    # numpy's ValueError from the empty max before
    with pytest.raises(ContractViolation, match="metric must not be empty"):
        SpdMetric(np.zeros((0, 0)))


@pytest.mark.parametrize("build", [lambda: SpdMetric.scaled_identity(1.0, 0),
                                   lambda: SpdMetric.identity(-1)],
                         ids=["scaled-identity-0", "identity-minus-1"])
def test_a_scalar_metric_rejects_a_size_below_one(build):
    # these built metrics of dim 0 and -1 before
    with pytest.raises(ContractViolation, match="metric must not be empty"):
        build()


@pytest.mark.parametrize("build", [SpdMetric.identity,
                                   lambda n: SpdMetric.scaled_identity(2.0, n)],
                         ids=["identity", "scaled-identity"])
@pytest.mark.parametrize("n", [2.7, float("nan"), float("inf"), True, False, np.True_],
                         ids=["non-integral", "nan", "inf", "true", "false", "numpy-bool"])
def test_a_scalar_metric_rejects_a_size_that_is_not_an_integer(build, n):
    # dim 2 from 2.7, and dim 1 from True (a bool is an int) before
    with pytest.raises(ContractViolation, match="metric size must be an integer"):
        build(n)


def test_a_scalar_metric_takes_python_and_numpy_integers():
    for n in (4, np.int64(4), np.int32(4)):
        for metric in (SpdMetric.identity(n), SpdMetric.scaled_identity(2.0, n)):
            assert metric.dim == 4 and type(metric.dim) is int


@pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2))], ids=["vector", "3-d"])
def test_spectral_norm_rejects_what_is_not_a_matrix(m):
    # IndexError (vector) and TypeError (3-d) before
    with pytest.raises(ContractViolation, match="2-D matrix"):
        spectral_norm(m)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    kind=st.sampled_from(["tall", "wide", "skew"]),
    n=st.integers(LANCZOS_N - 10, LANCZOS_N + 10),
    extra=st.integers(0, 30),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_spectral_norm_matches_the_svd_norm_across_the_threshold(kind, n, extra, seed):
    rng = Lcg64(seed)
    if kind == "skew":
        r = rng.matrix(n, n)
        m = 0.5 * (r - r.T)
    else:
        m = rng.matrix(n + extra, n)
        m = m if kind == "tall" else m.T
    ref = np.linalg.norm(m, 2)
    assert abs(spectral_norm(m) - ref) <= 1e-14 * ref


def test_spd_metric_rejects_indefinite():
    with pytest.raises(ContractViolation):
        SpdMetric(np.diag([1.0, -1.0]))


def test_spd_metric_solve_inverts_the_matrix():
    rng = Lcg64(7)
    r = rng.matrix(6, 6)
    w = SpdMetric(r @ r.T + 2.0 * np.eye(6))
    x = rng.vector(6)
    assert np.allclose(w.solve(w.matrix @ x), x, atol=1e-12)


@pytest.mark.parametrize("n", [1, 6, 8, 14, 40])
def test_dense_metric_solve_is_cho_solve_bit_for_bit(n):
    # the direct dpotrs call against scipy's wrapper, on a vector and on the
    # n x n matrix afba_fixed_step_check solves with (C-ordered, and as a
    # strided view), so a scipy whose cho_solve stops calling dpotrs fails
    # here
    rng = Lcg64(30 + n)
    for _ in range(4):
        r = rng.matrix(n, n)
        m = SpdMetric(r @ r.T + 0.1 * np.eye(n))
        wide = rng.matrix(n, 2 * n)
        for v in (rng.vector(n), rng.matrix(n, n), wide[:, ::2]):
            assert np.array_equal(m.solve(v), cho_solve(m._chol, v, check_finite=False))


@pytest.mark.parametrize("metric", [SpdMetric.identity(3), SpdMetric.scaled_identity(2.0, 3),
                                    SpdMetric(np.diag([2.0, 3.0, 4.0]))],
                         ids=["identity", "scaled", "dense"])
@pytest.mark.parametrize("shape", [(2,), (4,), (2, 3), (4, 3)])
def test_metric_solve_rejects_another_length(metric, shape):
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        metric.solve(np.ones(shape))


@pytest.mark.parametrize("metric", [SpdMetric(np.diag([2.0, 3.0, 4.0])),
                                    SpdMetric.scaled_identity(2.0, 3)])
def test_metric_solve_passes_a_non_finite_vector_on(metric):
    # the loop's finiteness test reports it; a raise would lose the run
    with np.errstate(invalid="ignore"):
        out = metric.solve(np.array([np.inf, 1.0, np.nan]))
    assert not np.isfinite(out).all()


def test_metric_eigenvalues_are_those_of_its_symmetrized_matrix_bit_for_bit():
    # validated once: the bounds come from the one symmetric part, and equal
    # a second symmetrize-and-solve of it (0.5 w + 0.5 w is w off the subnormals)
    rng = Lcg64(11)
    r = rng.matrix(7, 7)
    m = r @ r.T + np.eye(7)
    m[0, 1] += 1e-14  # asymmetric within the tolerance
    w = SpdMetric(m)
    eigs = np.linalg.eigvalsh(w.matrix)
    assert (w.lam_min, w.lam_max) == (eigs[0], eigs[-1])


def test_identity_norm_is_euclidean():
    s = SpdMetric.identity(4)
    x = np.array([3.0, 0.0, 4.0, 0.0])
    assert s.norm(x) == pytest.approx(5.0)


def test_scaled_identity_matches_the_dense_metric():
    # same numbers as c * I held densely, bit for bit where the dense
    # route rounds once (the norm, and solve at c = 1)
    rng = Lcg64(5)
    x = rng.vector(6)
    for c in (1.0, 0.37, 4.0):
        scalar = SpdMetric.scaled_identity(c, 6)
        dense = SpdMetric(c * np.eye(6))
        assert scalar.dim == dense.dim == 6
        assert (scalar.lam_min, scalar.lam_max) == (dense.lam_min, dense.lam_max)
        assert scalar.norm(x) == dense.norm(x)
        assert np.allclose(scalar.solve(x), dense.solve(x), rtol=1e-15, atol=0.0)
        assert np.array_equal(scalar.matrix, dense.matrix)
    identity = SpdMetric.identity(6)
    assert np.array_equal(identity.solve(x), SpdMetric(np.eye(6)).solve(x))
    with pytest.raises(ContractViolation, match="not positive definite"):
        SpdMetric.scaled_identity(0.0, 3)


@pytest.mark.parametrize("c", [1.0, 4.0])
def test_scalar_metric_norm_and_solve_read_the_scalar(c):
    # bit for bit the numbers of c * I held densely (at c = 4 the Cholesky
    # factor is 2 I, so the dense solve rounds once too), with no dense
    # matrix formed for the scalar metric
    rng = Lcg64(6)
    x = rng.vector(7)
    dense = SpdMetric(c * np.eye(7))
    scalar = SpdMetric.scaled_identity(c, 7)
    assert scalar.norm(x) == dense.norm(x)
    assert np.array_equal(scalar.solve(x), dense.solve(x))
    assert scalar._matrix is None


# Sizes for the stacked products: below one row block (3, 17, 300), in
# full 128-row blocks (800), and with a ragged last block of one row joined
# to the block before it (769) or of 35 rows (803).  A multithreaded BLAS
# may split the full GEMV inside a row group at the odd sizes, so those run
# in a subprocess with one BLAS thread.
STACKED_SIZES = [3, 17, 300, 800, 769, 803]
ONE_THREAD_SIZES = (769, 803)


def _in_one_blas_thread(run_python, case, n):
    """case(n) here, or for a size in ONE_THREAD_SIZES in a fresh
    interpreter with one BLAS thread."""
    if n in ONE_THREAD_SIZES:
        run_python(f"import test_linalg; test_linalg.{case.__name__}({n})", 1)
    else:
        case(n)


def _weighted_row_norms_case(n):
    # scaled identities at c = 1 and c != 1 and a dense metric; the rows
    # span magnitudes and include a zero, a NaN and an inf row
    rng = Lcg64(n)
    rows = rng.matrix(40, n) * np.logspace(-8, 8, 40)[:, None]
    rows[3] = 0.0
    rows[5, 1] = np.nan
    rows[7, 0] = np.inf
    a = rng.matrix(n, n)
    for w in (SpdMetric.identity(n), SpdMetric.scaled_identity(0.37, n),
              SpdMetric(a @ a.T + n * np.eye(n))):
        with np.errstate(invalid="ignore"):
            got = weighted_row_norms(w, rows)
            expected = [w.norm(row) for row in rows]
        assert np.array_equal(got, expected, equal_nan=True)
    with pytest.raises(ContractViolation, match="dimension mismatch"):
        weighted_row_norms(SpdMetric.identity(n + 1), rows)


@pytest.mark.parametrize("n", STACKED_SIZES)
def test_weighted_row_norms_are_the_per_row_norms_bit_for_bit(n, python_with_blas_threads):
    _in_one_blas_thread(python_with_blas_threads, _weighted_row_norms_case, n)


def _matvec_rows_case(n):
    # the rows span magnitudes and include a zero and a negative-zero row;
    # the transpose is F-ordered, so it is taken in one stacked product
    rng = Lcg64(n + 1)
    rows = rng.matrix(40, n) * np.logspace(-8, 8, 40)[:, None]
    rows[3] = 0.0
    rows[4] = -0.0
    a = rng.matrix(n, n)
    for m in (a, a.T):
        expected = np.array([m @ row for row in rows])
        assert matvec_rows(m, rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", STACKED_SIZES)
def test_matvec_rows_are_the_per_row_products_bit_for_bit(n, python_with_blas_threads):
    _in_one_blas_thread(python_with_blas_threads, _matvec_rows_case, n)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_entries(bad):
    # a NaN compares False, so it used to pass the symmetry test and stop
    # the eigensolver with a LinAlgError
    w = np.eye(3)
    w[0, 1] = w[1, 0] = bad
    with pytest.raises(ContractViolation, match="metric entries must be finite"):
        SpdMetric(w)
    if bad > 0.0 or bad != bad:
        with pytest.raises(ContractViolation, match="metric entries must be finite"):
            SpdMetric.scaled_identity(bad, 3)


def test_a_metric_near_the_overflow_threshold_is_built():
    # w + w^T would overflow; the symmetric part 0.5 w + 0.5 w^T does not
    w = SpdMetric(np.diag([1.5e308, 1.0e308]))
    assert (w.lam_min, w.lam_max) == (1.0e308, 1.5e308)
    assert np.linalg.eigvalsh(w.matrix).tolist() == [1.0e308, 1.5e308]


def test_lcg64_is_deterministic_and_spread():
    a = Lcg64(123).vector(1000)
    b = Lcg64(123).vector(1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Lcg64(124).vector(1000))
    assert np.all(np.abs(a) <= 1.0)
    assert abs(a.mean()) < 0.1


@pytest.mark.parametrize("n", [3, LANCZOS_N])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norms_reject_non_finite_matrices(n, bad):
    # on the dense path (n = 3) and the Lanczos path (n = 300); these used
    # to stop the eigensolver with LinAlgError or scipy's ValueError
    m = np.eye(n)
    m[0, 1] = bad
    for norm in (spectral_norm, largest_eig):
        with pytest.raises(ContractViolation, match="matrix entries must be finite"):
            norm(m)


@pytest.mark.parametrize("n", [LANCZOS_N, 400, 800])
def test_lanczos_is_the_per_step_eigh_tridiagonal_run_bit_for_bit(n, lanczos_reference):
    # the Gram map of a general and of a skew matrix, as spectral_norm runs
    # it, and an SPD matrix, as largest_eig runs it: the same value to the
    # bit after the same number of steps
    r = Lcg64(n + 5).matrix(n, n)
    sk = 0.5 * (r - r.T)
    w = r @ r.T / n
    for matvec in (lambda x: r.T @ (r @ x), lambda x: sk.T @ (sk @ x), lambda x: w @ x):
        counted, calls = _counting(matvec)
        theta = linalg._lanczos_max(counted, n)
        assert (theta, len(calls)) == lanczos_reference(matvec, n)


def test_lanczos_breakdowns_are_the_per_step_eigh_tridiagonal_run(lanczos_reference):
    # the breakdown inputs of test_lanczos_stops_at_a_breakdown_with_the_exact_value
    n = LANCZOS_N + 20
    rng = Lcg64(3)
    u, v = rng.vector(n + 7), rng.vector(n)
    for m in (np.outer(u, v), 3.0 * np.eye(n), np.zeros((n, n))):
        counted, calls = _counted(m)
        theta = linalg._lanczos_max(counted, n)
        assert (theta, len(calls)) == lanczos_reference(lambda x: m.T @ (m @ x), n)
