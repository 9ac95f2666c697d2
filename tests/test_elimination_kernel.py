"""Differential test of the lock-step elimination kernels of `spatial`.

The oracle below is the one-matrix implementation they replaced, copied
verbatim: `row_reduce_basis` and `solve_with_pivoting` with their tolerance
check, and `explicit_from_implicit`, the library's former G from one
stacked K, which other tests use as the one-matrix definition of G.  Each
member of a lock-step batch, and each call of the B = 1 wrappers, must give
the oracle's bits (signed zeros included), or raise the oracle's error type
with its message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from urdfplus.constraints import RANK_TOL, ExplicitJacobian
from urdfplus.errors import (
    ConfigurationError,
    CountMismatchError,
    DimensionMismatchError,
    SingularDependentBlockError,
    UrdfPlusError,
)
from urdfplus.spatial import (
    _forward_pass,
    _row_reduce_batch,
    _solve_batch,
    numerical_rank,
    row_reduce_basis,
    solve_with_pivoting,
)

# -- oracle ----------------------------------------------------------------------


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tolerance must be a finite number > 0, got {tol!r}")


def oracle_row_reduce_basis(m, tol: float = 1e-10) -> np.ndarray:
    """Row-space basis via Gaussian elimination with partial pivoting.

    Returns the accepted pivot rows of the reduced matrix (full row rank,
    same row space as the input).  The pivot-acceptance threshold is
    relative to the largest absolute entry of the original matrix; tol must
    be finite and > 0 (ConfigurationError otherwise).
    """
    _check_tol(tol)
    a = np.array(m, dtype=float, ndmin=2)
    if a.size == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0)
    threshold = tol * np.abs(a).max()
    if threshold == 0.0:
        return np.zeros((0, a.shape[1]))
    rows, cols = a.shape
    row = 0
    for col in range(cols):
        if row == rows:
            break
        pivot = row + int(np.argmax(np.abs(a[row:, col])))
        if abs(a[pivot, col]) <= threshold:
            continue
        if pivot != row:
            a[[row, pivot]] = a[[pivot, row]]
        factors = a[row + 1 :, col] / a[row, col]
        a[row + 1 :] -= np.outer(factors, a[row])
        a[row + 1 :, col] = 0.0
        row += 1
    return a[:row]


def oracle_solve_with_pivoting(a, b, tol: float = 1e-10) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    Raises SingularDependentBlockError when any pivot falls below tol times
    the largest absolute entry of `a`; no least-squares fallback.  tol must
    be finite and > 0 (ConfigurationError otherwise).
    """
    _check_tol(tol)
    a = np.array(a, dtype=float, ndmin=2)
    b = np.array(b, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    n = a.shape[0]
    if b.ndim == 1:
        b = b.reshape(n, 1)
        squeeze = True
    else:
        squeeze = False
    if b.shape[0] != n:
        raise DimensionMismatchError("right-hand side row count mismatch")
    if n == 0:
        return b[:, 0] if squeeze else b
    threshold = tol * max(np.abs(a).max(), 1e-300)
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot, col]) <= threshold:
            raise SingularDependentBlockError(
                f"pivot {a[pivot, col]:.3e} below tolerance in column {col}"
            )
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :] -= np.outer(factors, a[col])
        b[col + 1 :] -= np.outer(factors, b[col])
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x[:, 0] if squeeze else x


def oracle_explicit_from_implicit(
    k_full: np.ndarray,
    independent: list[int] | tuple[int, ...],
    tol: float = RANK_TOL,
) -> ExplicitJacobian:
    """Derive the explicit constraint Jacobian G with K @ G = 0 from one
    stacked K, ranked at one threshold, tol times max|K|.

    `independent` selects coordinate columns of `k_full`; its size must equal
    the column count minus the numerical row rank (CountMismatchError
    otherwise).  The square dependent block is solved by Gaussian elimination
    with partial pivoting; a singular block means the independent choice is
    invalid (SingularDependentBlockError); there is no least-squares fallback.
    One threshold cannot serve loops of different scale: on two four-bars
    with bars 1 and 1e-11 long (`tests/helpers.twin_far_fourbars`) it lies
    above every entry of the small loop, and the G returned gives
    max|K_B @ G| / max|K_B| = 1.0.  `explicit_jacobian_for_model` ranks each
    loop group at its own threshold.
    """
    k_full = np.asarray(k_full, dtype=float)
    n_cols = k_full.shape[1]
    independent = tuple(sorted(independent))
    if any(c < 0 or c >= n_cols for c in independent):
        raise DimensionMismatchError("independent column index out of range")
    if len(set(independent)) != len(independent):
        raise DimensionMismatchError("independent columns must be distinct")
    basis = oracle_row_reduce_basis(k_full, tol)
    rank = basis.shape[0]
    if len(independent) != n_cols - rank:
        raise CountMismatchError(expected=n_cols - rank, declared=len(independent))
    chosen = set(independent)
    dependent = tuple(c for c in range(n_cols) if c not in chosen)
    n_i = len(independent)
    if rank == 0:
        dep_rows = np.zeros((0, n_i))
    else:
        dep_rows = -oracle_solve_with_pivoting(
            basis[:, dependent], basis[:, independent], tol
        )
    matrix = np.vstack([np.eye(n_i), dep_rows])
    return ExplicitJacobian(
        matrix=matrix,
        row_coordinates=independent + dependent,
        independent=independent,
    )


# -- end of the oracle -------------------------------------------------------------

# 1.0 refuses every pivot: none exceeds the largest absolute entry
TOLERANCES = (1e-10, 1e-3, 0.3, 1.0)


def outcome(fn):
    """("value", array) or ("error", (type, message))."""
    try:
        return "value", fn()
    except UrdfPlusError as exc:
        return "error", (type(exc), str(exc))


def assert_same_bits(got, want):
    """Same shape and the same bytes: equal values and signed zeros."""
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    got, want = got[1], want[1]
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def random_matrix(rng, rows, cols):
    """One of: a dense normal matrix, small integers (exact pivot ties), a
    low-rank product, the zero matrix, or a sparse matrix with signed zeros
    and whole zero rows and columns."""
    kind = int(rng.integers(5))
    if kind == 0:
        return rng.normal(size=(rows, cols))
    if kind == 1:
        return rng.integers(-2, 3, size=(rows, cols)).astype(float)
    if kind == 2:
        inner = int(rng.integers(0, 4))
        return rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
    if kind == 3:
        return np.zeros((rows, cols))
    m = rng.normal(size=(rows, cols))
    m[rng.random((rows, cols)) < 0.5] = 0.0
    m[rng.random((rows, cols)) < 0.3] = -0.0
    if rows:
        m[int(rng.integers(rows))] = 0.0
    if cols:
        m[:, int(rng.integers(cols))] = -0.0
    return m


def padded(matrices):
    """The zero-padded (members, rows, cols) batch of `matrices`."""
    rows = max(m.shape[0] for m in matrices)
    cols = max(m.shape[1] for m in matrices)
    batch = np.zeros((len(matrices), rows, cols))
    for k, m in enumerate(matrices):
        batch[k, : m.shape[0], : m.shape[1]] = m
    return batch


def check_row_reduce_batch(matrices, tol):
    batch = padded(matrices)
    ranks = _row_reduce_batch(batch, tol)
    for k, m in enumerate(matrices):
        want = outcome(lambda: oracle_row_reduce_basis(m.copy(), tol))
        assert_same_bits(("value", batch[k, : ranks[k], : m.shape[1]]), want)
        assert_same_bits(outcome(lambda: row_reduce_basis(m, tol)), want)
        assert numerical_rank(m, tol) == ranks[k]


def check_solve_batch(systems, tol):
    """Each system's matrix sits in the trailing block of its member."""
    size = max(a.shape[0] for a, _ in systems)
    width = systems[0][1].shape[1]
    a_batch = np.zeros((len(systems), size, size))
    b_batch = np.zeros((len(systems), size, width))
    start = np.array([size - a.shape[0] for a, _ in systems], dtype=np.intp)
    for k, (a, b) in enumerate(systems):
        a_batch[k, start[k] :, start[k] :] = a
        b_batch[k, start[k] :] = b
    got = outcome(lambda: _solve_batch(a_batch, b_batch, start, tol))
    wants = [outcome(lambda: oracle_solve_with_pivoting(a, b, tol)) for a, b in systems]
    for (a, b), want in zip(systems, wants):
        assert_same_bits(outcome(lambda: solve_with_pivoting(a, b, tol)), want)
        assert_same_bits(outcome(lambda: solve_with_pivoting(a, b[:, 0], tol)),
                         outcome(lambda: oracle_solve_with_pivoting(a, b[:, 0], tol)))
    failed = [k for k, want in enumerate(wants) if want[0] == "error"]
    if not failed:
        for k, want in enumerate(wants):
            assert_same_bits(("value", got[1][k, start[k] :]), want)
    else:
        # the batch names a failing member's own column, as its solve does
        assert got[0] == "error" and got[1] in [wants[k][1] for k in failed]


@pytest.mark.parametrize("seed", range(40))
def test_row_reduce_batch_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    for tol in TOLERANCES:
        count = int(rng.integers(1, 7))
        matrices = [random_matrix(rng, *rng.integers(0, 8, 2)) for _ in range(count)]
        check_row_reduce_batch(matrices, tol)


@pytest.mark.parametrize("seed", range(40))
def test_solve_batch_matches_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    for tol in TOLERANCES:
        width = int(rng.integers(1, 5))
        systems = []
        for _ in range(int(rng.integers(1, 7))):
            n = int(rng.integers(0, 7))
            systems.append((random_matrix(rng, n, n), rng.normal(size=(n, width))))
        # tol * max|A| > 1: held to that, its identity-lead pivots (1.0) would fail
        systems.append((1e12 * np.array([[2.0, 1.0], [1.0, 3.0]]), np.ones((2, width))))
        check_solve_batch(systems, tol)


def test_all_zero_and_empty_members():
    matrices = [np.zeros((3, 4)), np.zeros((0, 2)), np.zeros((2, 0)),
                np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(3)]
    check_row_reduce_batch(matrices, 1e-10)
    assert _row_reduce_batch(np.zeros((2, 0, 3)), 1e-10).tolist() == [0, 0]


class _Unread:
    """Thresholds a pass must not read."""

    def __iter__(self):
        raise AssertionError("the pass read its thresholds")


@pytest.mark.parametrize("shape", [(0, 0, 0), (0, 3, 4), (2, 0, 4), (2, 3, 0)])
def test_empty_batch_returns_zero_ranks_at_once(shape):
    """No member, row or column: zero ranks, before any column step."""
    ranks = _forward_pass(np.zeros(shape), _Unread())
    assert ranks.dtype == np.intp and ranks.tolist() == [0] * shape[0]
    assert _row_reduce_batch(np.zeros(shape), 1e-10).tolist() == [0] * shape[0]


def test_members_finish_at_different_columns():
    """The tallest member has a pivot in every row after two columns,
    another pivots only in the last column: the batch runs on until every
    member is done."""
    check_row_reduce_batch([np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0]]),
                            np.array([[0.0, 0.0, 0.0, -3.0]]),
                            np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])],
                           1e-10)


def test_exact_pivot_ties():
    """Equal magnitudes of both signs in a column: the first one pivots."""
    ties = np.array([[1.0, 2.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -2.0, 3.0]])
    check_row_reduce_batch([ties, -ties, ties[::-1].copy()], 1e-10)
    check_solve_batch([(ties, np.eye(3)), (np.ones((1, 1)), np.ones((1, 3)))], 1e-10)


def test_singular_member_names_its_own_column():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    check_solve_batch([(np.eye(3), np.ones((3, 1))), (singular, np.ones((2, 1)))], 1e-10)
    with pytest.raises(SingularDependentBlockError, match="in column 1$"):
        solve_with_pivoting(singular, np.ones(2))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_kernels_check_the_tolerance(tol):
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        _row_reduce_batch(np.eye(2)[None], tol)
    # the empty batch of a loop-free model, which skips the pass
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        _row_reduce_batch(np.zeros((0, 0, 0)), tol)
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        _solve_batch(np.eye(2)[None], np.ones((1, 2, 1)), np.zeros(1, np.intp), tol)


def test_wrapper_shape_errors_match_oracle():
    for a, b in [(np.ones((2, 3)), np.ones(2)), (np.eye(2), np.ones((3, 1))),
                 (np.zeros((0, 0)), np.zeros(0)), (np.zeros((0, 0)), np.zeros((0, 2)))]:
        assert_same_bits(outcome(lambda: solve_with_pivoting(a, b)),
                         outcome(lambda: oracle_solve_with_pivoting(a, b)))
    for m in ([], [[]], np.zeros((3, 0)), np.zeros((0, 4)), [[0.0, -0.0]]):
        assert_same_bits(outcome(lambda: row_reduce_basis(m)),
                         outcome(lambda: oracle_row_reduce_basis(m)))
