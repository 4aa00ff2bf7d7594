import math

import numpy as np
import pytest

from hierstream.scoring.losses import log_softmax, softmax
from oracles import numeric_gradient, relative_error, soft_cross_entropy


def test_uniform_logits_one_hot_target():
    loss, _ = soft_cross_entropy(np.zeros(3), np.array([1.0, 0.0, 0.0]))
    assert loss == pytest.approx(math.log(3.0))


def test_zero_gradient_at_match():
    logits = np.array([1.0, -0.5, 2.0, 0.0])
    _, grad = soft_cross_entropy(logits, softmax(logits))
    np.testing.assert_allclose(grad, 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        logits = rng.normal(0, 2, 10)
        target = rng.dirichlet(np.ones(10))
        _, grad = soft_cross_entropy(logits, target)
        numeric = numeric_gradient(lambda: soft_cross_entropy(logits, target)[0], logits)
        assert relative_error(grad, numeric) < 1e-4


def test_large_logits_stay_finite():
    loss, grad = soft_cross_entropy(np.array([1e4, -1e4, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.isfinite(loss) and np.all(np.isfinite(grad))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        soft_cross_entropy(np.zeros(3), np.zeros(4))


def test_log_softmax_normalizes():
    x = np.random.default_rng(0).normal(0, 3, (5, 7))
    probs = np.exp(log_softmax(x))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


# A one-row softmax takes a shorter path than a (T, K) block; it must give
# the bytes of that row inside the block, however the row is laid out.
ROW_SIZES = (1, 2, 3, 7, 8, 9, 10, 16, 127, 128, 129, 300)


def row_forms(block, i):
    """Row i of a (T, K) block as (K,), as (1, K), and as strided views."""
    wide = np.zeros((len(block), 2 * block.shape[1]))
    wide[:, ::2] = block
    return block[i], block[i:i + 1], wide[i, ::2], wide[i:i + 1, ::2]


def assert_rows_match_block(block, forms=4):
    want = {f: f(block) for f in (log_softmax, softmax)}
    for i in range(len(block)):
        for row in row_forms(block, i)[:forms]:
            for f, rows in want.items():
                got = f(row)
                assert got.shape == row.shape
                assert got.tobytes() == rows[i].tobytes(), (f.__name__, block[i])


@pytest.mark.parametrize("k", ROW_SIZES)
def test_one_row_equals_its_row_in_a_block_bit_for_bit(k):
    # 12 sizes x 4 scales x 210 rows: over 10^4 seeded rows in all.
    rng = np.random.default_rng(k)
    for scale in (0.1, 1.0, 5.0, 50.0):
        assert_rows_match_block(rng.normal(0, scale, (210, k)))


@pytest.mark.parametrize("k", (1, 2, 3, 4, 9, 17))
def test_one_row_with_signed_zeros_infs_and_nans_matches_block(k):
    rng = np.random.default_rng(k)
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 3.0, -800.0, -1000.0]
    with np.errstate(invalid="ignore"):
        assert_rows_match_block(rng.choice(values, (2000, k)))
        # numpy's own ufuncs give a strided row holding a negative NaN other
        # NaN signs than a contiguous one, so such rows are compared contiguous.
        assert_rows_match_block(rng.choice(values + [-np.nan], (2000, k)), forms=2)


@pytest.mark.parametrize("shape", [(0,), (1, 0), (3, 0)])
def test_empty_row_refused_in_both_paths(shape):
    for f in (log_softmax, softmax):
        with pytest.raises(ValueError):
            f(np.zeros(shape))
