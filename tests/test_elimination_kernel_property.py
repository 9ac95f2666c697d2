"""Property version of the differential test in test_elimination_kernel.py:
lock-step batches of generated matrices against the verbatim oracle."""

import pytest

from test_elimination_kernel import TOLERANCES, check_row_reduce_batch, check_solve_batch

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
extra = pytest.importorskip("hypothesis.extra.numpy")

# small integers make exact ties and exact cancellation common; magnitudes
# stay within [1e-6, 1e3], so no elimination step overflows
ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
    st.just(-0.0),
)
MATRICES = extra.arrays(float, extra.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                  max_side=6), elements=ENTRIES)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.lists(MATRICES, min_size=1, max_size=5), st.sampled_from(TOLERANCES))
def test_row_reduce_batch_property(matrices, tol):
    check_row_reduce_batch(matrices, tol)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.data(), st.sampled_from(TOLERANCES))
def test_solve_batch_property(data, tol):
    width = data.draw(st.integers(1, 3))
    systems = []
    for n in data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=5)):
        a = data.draw(extra.arrays(float, (n, n), elements=ENTRIES))
        b = data.draw(extra.arrays(float, (n, width), elements=ENTRIES))
        systems.append((a, b))
    check_solve_batch(systems, tol)
