"""Property tests of the contour interpolation behind ScatteringData.eval_r1
and eval_r2: stored samples are returned at the nodes, and samples that are
cubic in the grid index are reproduced between them."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from boussinesq_ist import scattering as sc

UNIT = st.floats(-1.0, 1.0)
FRACTION = st.floats(0.001, 0.999)


def complex_arrays(n):
    return hnp.arrays(np.float64, (2, n), elements=UNIT).map(lambda a: a[0] + 1j * a[1])


@st.composite
def grids(draw, max_circle=1536):
    """Ray grid density up to the canonical 64 per decade, and circle size;
    at least four samples per piece."""
    return draw(st.integers(2, 64)), 6 * draw(st.integers(1, max_circle // 6))


def contour_data(per_decade, n, r1_ray, r2_ray, r1_circle, r2_circle):
    return sc.ScatteringData(
        gamma1=sc.gamma1_samples(per_decade), r1_ray=r1_ray,
        gamma4=sc.gamma4_samples(per_decade), r2_ray=r2_ray,
        circle=sc.circle_samples(n), r1_circle=r1_circle, r2_circle=r2_circle,
    )


# The circle position of a node is a float index, known to ~n ulp; up to
# about a hundred samples that keeps the returned node value within 1e-13
# (the canonical 1536-sample circle reaches ~1e-12 for O(1) jumps between
# neighbouring samples).
@settings(max_examples=60, deadline=None)
@given(grids(max_circle=96), st.data())
def test_eval_returns_the_stored_sample_at_every_node(grid, data):
    per_decade, n = grid
    sizes = (4 * per_decade, 4 * per_decade, n, n)
    sd = contour_data(per_decade, n, *(data.draw(complex_arrays(m)) for m in sizes))
    np.testing.assert_allclose(sd.eval_r1(sd.gamma1), sd.r1_ray, rtol=0, atol=1e-13)
    np.testing.assert_allclose(sd.eval_r2(sd.gamma4), sd.r2_ray, rtol=0, atol=1e-13)
    np.testing.assert_allclose(sd.eval_r1(sd.circle), sd.r1_circle, rtol=0, atol=1e-13)
    np.testing.assert_allclose(sd.eval_r2(sd.circle), sd.r2_circle, rtol=0, atol=1e-13)


def cubic(coefs, index, size):
    s = np.asarray(index, dtype=float) / (size - 1)
    return sum(c * s**j for j, c in enumerate(coefs))


@settings(max_examples=60, deadline=None)
@given(
    grids(),
    st.lists(complex_arrays(4), min_size=6, max_size=6),
    st.lists(FRACTION, min_size=8, max_size=8),
)
def test_eval_reproduces_samples_cubic_in_the_grid_index(grid, coefs, fractions):
    per_decade, n = grid
    half = 2 * per_decade  # samples on each side of the unit circle
    rays = [np.concatenate([cubic(coefs[2 * r], np.arange(half), half),
                            cubic(coefs[2 * r + 1], np.arange(half), half)])
            for r in range(2)]
    circles = [cubic(coefs[4 + r], np.arange(n), n) for r in range(2)]
    sd = contour_data(per_decade, n, *rays, *circles)

    # fractional ray indices anywhere on a half; circle indices away from the
    # wrap-around, where the periodic samples stop being one cubic
    s_in, s_out = (half - 1) * np.array(fractions[:2]), (half - 1) * np.array(fractions[2:4])
    m_in = 10.0 ** (sc.RAY_DECADES[0] + s_in / per_decade)
    m_out = 10.0 ** (sc.RAY_DECADES[0] + (half + 1 + s_out) / per_decade)
    s_circ = 1.0 + (n - 4) * np.array(fractions[4:])
    k_circ = np.exp(1j * (s_circ + 0.5) * (2 * np.pi / n))

    for r, (evaluate, up) in enumerate(((sd.eval_r1, 1j), (sd.eval_r2, -1j))):
        scale = max(np.max(np.abs(rays[r])), np.max(np.abs(circles[r])), 1e-300)
        got = evaluate(np.concatenate([up * m_in, -up * m_out, k_circ]))
        want = np.concatenate([cubic(coefs[2 * r], s_in, half),
                               cubic(coefs[2 * r + 1], s_out, half),
                               cubic(coefs[4 + r], s_circ, n)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)
