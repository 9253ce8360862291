"""The packed monomial table the element spans are built on: evaluation,
differentiation and products with affine forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadseq.poly import DX, DY, MONOMIALS, affine_row, mul_affine, vandermonde

X = np.array([0.0, 1.0, 0.0])  # affine forms (c0, cx, cy)
Y = np.array([0.0, 0.0, 1.0])


def packed(coeffs):
    """Packed row of the polynomial sum c x^i y^j over {(i, j): c}."""
    row = np.zeros(len(MONOMIALS))
    for key, c in coeffs.items():
        row[MONOMIALS.index(key)] = c
    return row


def evaluate(row, x, y):
    pts = np.stack(np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float)), -1)
    return vandermonde(pts) @ row


def curl(row):
    """Rotated gradient (dp/dy, -dp/dx) of packed rows."""
    return row @ DY.T, -(row @ DX.T)


def test_monomial_product():
    np.testing.assert_array_equal(mul_affine(affine_row(X), Y), packed({(1, 1): 1.0}))


def test_product_past_the_table_raises():
    x6 = packed({(6, 0): 1.0})
    for line in (X, Y, np.array([1.0, 0.0, -2.0])):
        with pytest.raises(ValueError, match="degree 7"):
            mul_affine(x6, line)
    # A constant factor keeps the degree; one offending row fails a batch.
    np.testing.assert_array_equal(mul_affine(x6, np.array([2.0, 0.0, 0.0])), 2.0 * x6)
    rows = np.stack([packed({(5, 1): 1.0}), packed({(2, 2): 1.0})])
    lines = np.stack([np.array([1.0, 0.0, 0.0]), X])
    mul_affine(rows, lines)
    with pytest.raises(ValueError, match="degree 7"):
        mul_affine(rows, lines[::-1])


def test_product_past_the_table_raises_on_stacked_operands():
    # The span chains multiply (cells, products, 28) stacks: one entry of
    # degree 6 times a non-constant form fails the whole stack.
    rows = np.zeros((3, 4, len(MONOMIALS)))
    rows[..., 0] = 1.0
    rows[1, 2] = packed({(3, 3): 1.0})
    forms = np.broadcast_to(X, (3, 4, 3)).copy()
    forms[1, 2] = [2.0, 0.0, 0.0]
    np.testing.assert_array_equal(mul_affine(rows, forms)[1, 2], packed({(3, 3): 2.0}))
    forms[1, 2] = Y
    with pytest.raises(ValueError, match="degree 7"):
        mul_affine(rows, forms)
    with pytest.raises(ValueError, match="degree 7"):
        mul_affine(rows[:, 2:], forms[:, 2:])
    mul_affine(rows[:, :2], forms[:, :2])


def test_vandermonde_keeps_the_monomial_axis_outermost():
    """The table is a fancy-index gather, whose monomial axis has the
    largest stride. A C-contiguous gather (``np.take``) of the same values
    sends ``C @ V`` down another BLAS path, whose rounding moved a golden
    study error (``test_golden_batched``) by 1e-10 relative."""
    pts = np.random.default_rng(2).uniform(-1, 1, (7, 5, 2))
    V = vandermonde(pts)
    assert V.shape == (7, 5, len(MONOMIALS))
    assert V.strides[-1] == max(V.strides)
    assert not V.flags.c_contiguous


def test_affine_row():
    np.testing.assert_array_equal(affine_row([2.0, -3.0, 5.0]),
                                  packed({(0, 0): 2.0, (1, 0): -3.0, (0, 1): 5.0}))


def test_eval_simple():
    assert evaluate(packed({(2, 0): 1.0, (0, 1): 1.0}), [2.0], [3.0])[0] == 7.0


def test_eval_vectorized():
    p = packed({(2, 0): 1.0, (0, 1): 1.0})
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(evaluate(p, x, y), [1.0, 2.0, 5.0])


def test_unit_square_edge_line_product():
    # Normalized edge lines of the unit square: y, 1-x, 1-y, x.
    # Hand expansion: x(1-x) y(1-y) = xy - x y^2 - x^2 y + x^2 y^2.
    one = np.array([1.0, 0.0, 0.0])
    product = affine_row(Y)
    for line in (one - X, one - Y, X):
        product = mul_affine(product, line)
    expected = {(1, 1): 1.0, (1, 2): -1.0, (2, 1): -1.0, (2, 2): 1.0}
    np.testing.assert_array_equal(product, packed(expected))


def test_curl_convention():
    cx, cy = curl(packed({(1, 0): 1.0}))
    assert not cx.any()
    np.testing.assert_array_equal(cy, packed({(0, 0): -1.0}))


def test_div_curl_identity_specific():
    cx, cy = curl(packed({(3, 2): 1.0}))  # x^3 y^2
    assert not (cx @ DX.T + cy @ DY.T).any()


def test_hessian_example():
    p = packed({(2, 1): 1.0})  # x^2 y
    px, py = p @ DX.T, p @ DY.T
    np.testing.assert_array_equal(px @ DX.T, packed({(0, 1): 2.0}))
    np.testing.assert_array_equal(px @ DY.T, packed({(1, 0): 2.0}))
    np.testing.assert_array_equal(py @ DX.T, packed({(1, 0): 2.0}))
    assert not (py @ DY.T).any()


def test_hessian_symmetric_exactly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = packed({(i, j): rng.standard_normal()
                    for i in range(5) for j in range(5) if i + j <= 6})
        np.testing.assert_array_equal((p @ DX.T) @ DY.T, (p @ DY.T) @ DX.T)


coeff_ints = st.integers(min_value=-50, max_value=50)


def coeff_strategy(max_degree, values):
    keys = [(i, j) for i in range(max_degree + 1) for j in range(max_degree + 1)
            if i + j <= max_degree]
    return st.fixed_dictionaries({}, optional={k: values for k in keys})


affine_ints = st.lists(coeff_ints, min_size=3, max_size=3).map(np.array)


@given(coeff_strategy(2, coeff_ints), affine_ints, affine_ints)
@settings(max_examples=60, deadline=None)
def test_ring_axioms_exact(p, a, b):
    # Integer coefficients keep all intermediate arithmetic exact: products
    # of affine factors commute and distribute over sums of factors.
    P = packed(p)
    np.testing.assert_array_equal(mul_affine(mul_affine(P, a), b),
                                  mul_affine(mul_affine(P, b), a))
    np.testing.assert_array_equal(mul_affine(P, a + b),
                                  mul_affine(P, a) + mul_affine(P, b))


float_coeffs = st.floats(min_value=-1e6, max_value=1e6,
                         allow_nan=False, allow_infinity=False)


@given(coeff_strategy(6, float_coeffs))
@settings(max_examples=120, deadline=None)
def test_div_curl_empty_for_any_float_coefficients(p):
    # Up to degree 7, so on the whole degree-6 table, the two orders of
    # differentiation multiply each coefficient by integers whose odd parts
    # are 1 or equal, so the rounding is the same and div(curl p) vanishes
    # exactly.
    cx, cy = curl(packed(p))
    assert not (cx @ DX.T + cy @ DY.T).any()


@given(coeff_strategy(4, float_coeffs), st.lists(float_coeffs, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_eval_commutes_with_multiplication(p, line):
    line = np.array(line)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, (16, 2))
    x, y = pts[:, 0], pts[:, 1]
    lhs = evaluate(mul_affine(packed(p), line), x, y)
    rhs = evaluate(packed(p), x, y) * (line[0] + line[1] * x + line[2] * y)
    scale = np.abs(rhs).max() + 1.0
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13 * scale)


def test_pack_vandermonde_consistency():
    # vandermonde, DX and DY against direct evaluation of x^i y^j and its
    # partial derivatives, monomial by monomial.
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1, 1, (20, 2))
    x, y = pts[:, 0], pts[:, 1]
    V = vandermonde(pts)
    for k, (i, j) in enumerate(MONOMIALS):
        e = np.zeros(len(MONOMIALS))
        e[k] = 1.0
        np.testing.assert_allclose(V @ e, x**i * y**j, rtol=1e-13, atol=1e-15)
        dx = i * x ** max(i - 1, 0) * y**j
        dy = j * x**i * y ** max(j - 1, 0)
        np.testing.assert_allclose(V @ (DX @ e), dx, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(V @ (DY @ e), dy, rtol=1e-13, atol=1e-14)
