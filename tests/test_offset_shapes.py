"""Offset-center closed forms, their minima, and the inverse solver."""

import math
import random
from fractions import Fraction

import pytest

from conftest import OFFSET_CASES as CASES, OFFSET_MINIMUM as MINIMUM, offset_roots_by_bisection
from minkpi.errors import InvalidOffset, InvalidParameter, Unreachable
from minkpi.offset_shapes import (
    AxisConfig,
    OffsetShapeSpec,
    ShapeKind,
    _closed_form,
    _offset_interval,
    build_offset_ball,
    closed_form_pi,
    hexagon_minimum,
    isosceles_minimum,
    pi_hexagon,
    pi_isosceles,
    pi_square,
    solve_offset_for_pi,
    square_minimum,
)
from minkpi.perimeter import measure_perimeters, pi_ball

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)


def test_triangle_minimum_case():
    res = pi_isosceles(1.0, 2.0 / 3.0)
    assert res.pi == pytest.approx(4.5, abs=1e-12)
    assert all(g == pytest.approx(3.0, abs=1e-12) for g in res.side_gauges)


def test_triangle_worked_case():
    res = pi_isosceles(1.0, 0.8)
    assert res.pi == pytest.approx(5.0, abs=1e-12)
    assert sorted(res.side_gauges) == pytest.approx([2.5, 2.5, 5.0], abs=1e-12)
    assert res.pi == pytest.approx(sum(res.side_gauges) / 2.0, abs=1e-12)


def test_triangle_diverges_near_apex():
    assert pi_isosceles(1.0, 1e-9).pi > 1e8
    with pytest.raises(InvalidOffset):
        pi_isosceles(1.0, 0.0)
    with pytest.raises(InvalidOffset):
        pi_isosceles(1.0, 1.0)


def test_isosceles_minimum_and_derivative():
    ratio, value = isosceles_minimum()
    assert (ratio, value) == (2.0 / 3.0, 4.5)
    h = 1.0
    fprime = lambda d: h / (2.0 * (h - d) ** 2) - 2.0 * h / d**2
    assert abs(fprime(2.0 / 3.0)) < 1e-12
    assert fprime(2.0 / 3.0 - 1e-2) < 0.0 < fprime(2.0 / 3.0 + 1e-2)
    assert pi_isosceles(1.0, 2.0 / 3.0 - 1e-4).pi > 4.5
    assert pi_isosceles(1.0, 2.0 / 3.0 + 1e-4).pi > 4.5


def test_square_config_a():
    assert pi_square(1.0, 0.5, AxisConfig.A).pi == pytest.approx(4.0, abs=1e-12)
    res = pi_square(1.0, 0.25, AxisConfig.A)
    assert res.pi == pytest.approx(14.0 / 3.0, abs=1e-12)
    assert sorted(res.side_gauges) == pytest.approx([4.0 / 3.0, 2.0, 2.0, 4.0], abs=1e-12)
    with pytest.raises(InvalidOffset):
        pi_square(1.0, 1.0, AxisConfig.A)


def test_square_config_b():
    assert pi_square(1.0, 1.0 / S2, AxisConfig.B).pi == pytest.approx(4.0, abs=1e-12)
    assert square_minimum(1.0, AxisConfig.A) == (0.5, 4.0)
    assert square_minimum(1.0, AxisConfig.B) == (1.0 / S2, 4.0)
    with pytest.raises(InvalidOffset):
        pi_square(1.0, S2, AxisConfig.B)


def test_hexagon_minima():
    assert pi_hexagon(1.0, S3 / 2.0, AxisConfig.A).pi == pytest.approx(3.0, abs=1e-12)
    assert pi_hexagon(1.0, 1.0, AxisConfig.B).pi == pytest.approx(3.0, abs=1e-12)
    assert hexagon_minimum(1.0, AxisConfig.A) == (S3 / 2.0, 3.0)
    assert hexagon_minimum(1.0, AxisConfig.B) == (1.0, 3.0)
    with pytest.raises(InvalidOffset):
        pi_hexagon(1.0, S3 / 2.0 + 1e-9, AxisConfig.A)
    with pytest.raises(InvalidOffset):
        pi_hexagon(1.0, 1.0 + 1e-9, AxisConfig.B)


def test_hexagon_off_minimum_values_match_geometry():
    # frozen from the ray/edge geometric oracle (pi_ball of the literal hexagon)
    res = pi_hexagon(1.0, 0.5, AxisConfig.B)
    assert res.pi == pytest.approx(13.0 / 3.0, abs=1e-12)
    spec = OffsetShapeSpec(ShapeKind.HEXAGON, AxisConfig.B, 1.0, 0.5)
    assert pi_ball(build_offset_ball(spec)) == pytest.approx(13.0 / 3.0, abs=1e-12)
    res_a = pi_hexagon(1.0, S3 / 4.0, AxisConfig.A)
    assert res_a.pi == pytest.approx(62.0 / 15.0, abs=1e-12)
    spec_a = OffsetShapeSpec(ShapeKind.HEXAGON, AxisConfig.A, 1.0, S3 / 4.0)
    assert pi_ball(build_offset_ball(spec_a)) == pytest.approx(62.0 / 15.0, abs=1e-12)


def test_closed_forms_match_geometry_everywhere():
    import random

    rng = random.Random(47)
    for shape, config in [
        (ShapeKind.TRIANGLE, AxisConfig.A),
        (ShapeKind.SQUARE, AxisConfig.A),
        (ShapeKind.SQUARE, AxisConfig.B),
        (ShapeKind.HEXAGON, AxisConfig.A),
        (ShapeKind.HEXAGON, AxisConfig.B),
    ]:
        for _ in range(25):
            size = rng.uniform(0.5, 3.0)
            if shape is ShapeKind.TRIANGLE:
                base = rng.uniform(0.2, 1.9) * size
                height = math.sqrt(size**2 - base**2 / 4.0)
                spec = OffsetShapeSpec(shape, config, size, rng.uniform(0.05, 0.95) * height, base=base)
            else:
                hi = {
                    (ShapeKind.SQUARE, AxisConfig.A): size,
                    (ShapeKind.SQUARE, AxisConfig.B): size * S2,
                    (ShapeKind.HEXAGON, AxisConfig.A): size * S3 / 2.0,
                    (ShapeKind.HEXAGON, AxisConfig.B): size,
                }[(shape, config)]
                spec = OffsetShapeSpec(shape, config, size, rng.uniform(0.05, 0.95) * hi)
            assert closed_form_pi(spec).pi == pytest.approx(
                pi_ball(build_offset_ball(spec)), abs=1e-9
            )


def test_build_offset_ball_minima_geometrically():
    tri = OffsetShapeSpec(ShapeKind.TRIANGLE, AxisConfig.A, 1.0, (2.0 / 3.0) * math.sqrt(0.75), base=1.0)
    assert pi_ball(build_offset_ball(tri)) == pytest.approx(4.5, abs=1e-9)
    sq = OffsetShapeSpec(ShapeKind.SQUARE, AxisConfig.A, 1.0, 0.5)
    assert pi_ball(build_offset_ball(sq)) == pytest.approx(4.0, abs=1e-9)
    hexa = OffsetShapeSpec(ShapeKind.HEXAGON, AxisConfig.B, 1.0, 1.0)
    assert pi_ball(build_offset_ball(hexa)) == pytest.approx(3.0, abs=1e-9)


def test_min_max_split_off_minimum():
    at_min = build_offset_ball(
        OffsetShapeSpec(ShapeKind.TRIANGLE, AxisConfig.A, 1.0, (2.0 / 3.0) * math.sqrt(0.75), base=1.0)
    )
    rep = measure_perimeters(at_min, at_min.shape)
    assert rep.max_sum - rep.min_sum == pytest.approx(0.0, abs=1e-9)
    off_min = build_offset_ball(
        OffsetShapeSpec(ShapeKind.TRIANGLE, AxisConfig.A, 1.0, 0.5 * math.sqrt(0.75), base=1.0)
    )
    rep2 = measure_perimeters(off_min, off_min.shape)
    assert rep2.max_sum - rep2.min_sum > 1e-3


def test_solver_triangle():
    assert solve_offset_for_pi(ShapeKind.TRIANGLE, AxisConfig.A, 4.5, 1.0) == pytest.approx(
        [2.0 / 3.0], abs=1e-9
    )
    roots = solve_offset_for_pi(ShapeKind.TRIANGLE, AxisConfig.A, 5.0, 1.0)
    assert roots == pytest.approx([0.5, 0.8], abs=1e-9)  # algebraic roots of the quadratic
    with pytest.raises(Unreachable):
        solve_offset_for_pi(ShapeKind.TRIANGLE, AxisConfig.A, 4.4, 1.0)


def test_solver_square_and_hexagon():
    roots = solve_offset_for_pi(ShapeKind.SQUARE, AxisConfig.A, 4.5, 1.0)
    assert len(roots) == 2
    for r in roots:
        assert pi_square(1.0, r, AxisConfig.A).pi == pytest.approx(4.5, abs=1e-10)
    assert roots[0] + roots[1] == pytest.approx(1.0, abs=1e-9)  # symmetric about a/2
    single = solve_offset_for_pi(ShapeKind.HEXAGON, AxisConfig.B, 3.5, 1.0)
    assert len(single) == 1
    assert pi_hexagon(1.0, single[0], AxisConfig.B).pi == pytest.approx(3.5, abs=1e-10)
    assert solve_offset_for_pi(ShapeKind.HEXAGON, AxisConfig.A, 3.0, 1.0) == pytest.approx(
        [S3 / 2.0], abs=1e-12
    )


@pytest.mark.parametrize("case", range(len(CASES)))
def test_exact_roots_match_bisection_oracle(case):
    # targets from the minimum + 1e-6 to the minimum + 1e3, sizes 1e-3..1e3;
    # the roots are sorted, lie in the valid interval and reach the target
    shape, config = CASES[case]
    rng = random.Random(case)
    for _ in range(100):
        size = 10.0 ** rng.uniform(-3.0, 3.0)
        target = MINIMUM[shape] + 10.0 ** rng.uniform(-6.0, 3.0)
        roots = solve_offset_for_pi(shape, config, target, size)
        want = offset_roots_by_bisection(shape, config, target, size)
        assert len(roots) == len(want) == (1 if shape is ShapeKind.HEXAGON else 2)
        assert roots == sorted(roots)
        if shape is ShapeKind.TRIANGLE:
            hi, closed = size, False  # the triangle's size is its height
        else:
            _, hi, closed = _offset_interval(shape, config, size)
        f = _closed_form(shape, config, size)
        for r, w in zip(roots, want):
            assert abs(r - w) <= 1e-12 * max(1.0, size)
            assert 0.0 < r and (r <= hi if closed else r < hi)
            assert f(r) == pytest.approx(target, rel=1e-10)


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize(
    "size, target", [(0.0, 5.0), (-1.0, 5.0), (math.inf, 5.0), (1.0, math.nan), (1.0, math.inf)]
)
def test_solver_rejects_bad_size_or_target(case, size, target):
    shape, config = CASES[case]
    with pytest.raises(InvalidParameter):
        solve_offset_for_pi(shape, config, target, size)


def test_hexagon_a_cubic_has_three_real_roots():
    # the trigonometric form needs three real roots of
    # t*x^3 - (2t+1)*x^2 + (10-3t)*x + 3 on the whole range t >= 3; one lies
    # in (0, 1] because the cubic is 3 at x = 0 and 12 - 4t <= 0 at x = 1
    for excess in [0.0] + [10.0 ** (k / 100.0) for k in range(-600, 601)]:
        t = Fraction(3.0 + excess)  # 3 .. 3 + 1e6
        a, b, c, d = t, -(2 * t + 1), 10 - 3 * t, Fraction(3)
        disc = 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2
        assert disc > 0
        assert a + b + c + d <= 0
    root = solve_offset_for_pi(ShapeKind.HEXAGON, AxisConfig.A, 3.0 + 1e6, 1.0)[0]
    assert 0.0 < root < S3 / 2.0
    assert pi_hexagon(1.0, root, AxisConfig.A).pi == pytest.approx(3.0 + 1e6, rel=1e-12)


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        OffsetShapeSpec(ShapeKind.TRIANGLE, AxisConfig.A, 1.0, 0.1, base=2.5)
    # the triangle has one axis class; config B would be answered as A
    with pytest.raises(InvalidParameter):
        OffsetShapeSpec(ShapeKind.TRIANGLE, AxisConfig.B, 1.0, 0.5, base=1.0)
    with pytest.raises(InvalidParameter):
        solve_offset_for_pi(ShapeKind.TRIANGLE, AxisConfig.B, 5.0, 1.0)
    with pytest.raises(InvalidOffset):
        OffsetShapeSpec(ShapeKind.SQUARE, AxisConfig.A, 1.0, 1.5)
    with pytest.raises(InvalidParameter):
        pi_isosceles(-1.0, 0.5)
