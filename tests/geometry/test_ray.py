"""Ray unit tests."""

import warnings

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.ray import Ray, T_MAX_DEFAULT
from repro.geometry.vec import vec3
from repro.trace.tracer import RayBatch


def test_ray_at_parameter():
    ray = Ray(origin=vec3(1, 0, 0), direction=vec3(0, 2, 0))
    assert np.allclose(ray.at(0.5), [1, 1, 0])


def test_ray_default_interval():
    ray = Ray(origin=vec3(0, 0, 0), direction=vec3(1, 0, 0))
    assert ray.t_min > 0.0
    assert ray.t_max == T_MAX_DEFAULT


def test_zero_direction_raises():
    with pytest.raises(GeometryError):
        Ray(origin=vec3(0, 0, 0), direction=vec3(0, 0, 0))


def test_empty_interval_raises():
    with pytest.raises(GeometryError):
        Ray(origin=vec3(0, 0, 0), direction=vec3(1, 0, 0), t_min=2.0, t_max=1.0)


def test_inv_direction_reciprocal():
    ray = Ray(origin=vec3(0, 0, 0), direction=vec3(2, -4, 0.5))
    assert np.allclose(ray.inv_direction, [0.5, -0.25, 2.0])


def test_inv_direction_zero_component_is_inf():
    ray = Ray(origin=vec3(0, 0, 0), direction=vec3(1, 0, 0))
    assert np.isinf(ray.inv_direction[1])
    assert np.isinf(ray.inv_direction[2])


def test_origin_and_direction_coerced_to_float64():
    ray = Ray(origin=[0, 0, 0], direction=[1, 2, 3])
    assert ray.origin.dtype == np.float64
    assert ray.direction.dtype == np.float64


@pytest.mark.parametrize("tiny", [1e-310, -1e-310])
def test_subnormal_component_reciprocal_is_signed_inf_without_warning(tiny):
    """A reciprocal that overflows is the signed inf the slab test wants,
    for a single ray and for a batch alike."""
    direction = vec3(1.0, tiny, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ray = Ray(origin=vec3(0, 0, 0), direction=direction)
        batch = RayBatch.of([ray])
    assert ray.inv_direction[1] == np.copysign(np.inf, tiny)
    assert batch.inv_directions[0, 1] == np.copysign(np.inf, tiny)
