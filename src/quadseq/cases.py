"""Manufactured solutions with analytic derivatives and derived sources.

All callables are vectorized over coordinate arrays (x, y). The scalar case
feeds the fourth-order problem eps^2 lap^2 u - lap u = f; the flow case
feeds the velocity/pressure problem -div(nu grad u) + alpha u + grad p = f,
div u = g. Both built-in solutions are clamped-compatible on the unit
square, and the built-in flow velocity is a rotated gradient, so g = 0.
"""

from __future__ import annotations

import numpy as np

from .mesh import _integer

__all__ = [
    "ScalarCase",
    "BrinkmanCase",
    "scalar_sin_squared",
    "brinkman_sin_stream",
    "scalar_poly2_case",
]


def _sin_sq_derivatives(a: float):
    """g(t) = sin^2(a t) and its first four derivatives."""
    return (
        lambda t: np.sin(a * t) ** 2,
        lambda t: a * np.sin(2 * a * t),
        lambda t: 2 * a**2 * np.cos(2 * a * t),
        lambda t: -4 * a**3 * np.sin(2 * a * t),
        lambda t: -8 * a**4 * np.cos(2 * a * t),
    )


class ScalarCase:
    """Closed-form u with derivatives up to order 4 via callables."""

    def __init__(self, name, u, grad, hessian, laplacian, bilaplacian):
        self.name = name
        self.u = u
        self.grad = grad
        self.hessian = hessian
        self.laplacian = laplacian
        self.bilaplacian = bilaplacian

    def source(self, eps: float):
        """f = eps^2 lap^2 u - lap u."""
        return lambda x, y: eps**2 * self.bilaplacian(x, y) - self.laplacian(x, y)

    def source_biharmonic(self):
        """f = lap^2 u."""
        return self.bilaplacian


def scalar_sin_squared(frequency: int = 1) -> ScalarCase:
    """u = sin^2(k pi x) sin^2(k pi y); clamped on the unit square.

    The default k = 1 is the solution behind the reference convergence
    tables for the fourth-order problem. k must be an integer of at least
    1, as u is clamped only then; ``ValueError`` names it otherwise.
    """
    frequency = _integer(frequency, "frequency", 1)
    g, g1, g2, g3, g4 = _sin_sq_derivatives(frequency * np.pi)

    def u(x, y):
        return g(x) * g(y)

    def grad(x, y):
        return np.stack([g1(x) * g(y), g(x) * g1(y)], axis=-1)

    def hessian(x, y):
        hxx = g2(x) * g(y)
        hxy = g1(x) * g1(y)
        hyy = g(x) * g2(y)
        return np.stack(
            [np.stack([hxx, hxy], -1), np.stack([hxy, hyy], -1)], axis=-2
        )

    def laplacian(x, y):
        return g2(x) * g(y) + g(x) * g2(y)

    def bilaplacian(x, y):
        return g4(x) * g(y) + 2 * g2(x) * g2(y) + g(x) * g4(y)

    return ScalarCase(f"sin_squared_{frequency}", u, grad, hessian, laplacian, bilaplacian)


def scalar_poly2_case(c=(0.7, 1.3, -0.4, 0.9, -1.1, 0.6)) -> ScalarCase:
    """Quadratic u = c0 + c1 x + c2 y + c3 x^2 + c4 xy + c5 y^2 (exactly captured)."""
    c0, c1, c2, c3, c4, c5 = c

    def u(x, y):
        return c0 + c1 * x + c2 * y + c3 * x**2 + c4 * x * y + c5 * y**2

    def grad(x, y):
        return np.stack([c1 + 2 * c3 * x + c4 * y, c2 + c4 * x + 2 * c5 * y], axis=-1)

    def hessian(x, y):
        one = np.ones(np.broadcast(x, y).shape)
        return np.stack(
            [np.stack([2 * c3 * one, c4 * one], -1),
             np.stack([c4 * one, 2 * c5 * one], -1)], axis=-2,
        )

    def laplacian(x, y):
        return (2 * c3 + 2 * c5) * np.ones(np.broadcast(x, y).shape)

    def bilaplacian(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    return ScalarCase("poly2", u, grad, hessian, laplacian, bilaplacian)


class BrinkmanCase:
    """Closed-form velocity/pressure pair with analytic derivatives."""

    def __init__(self, name, velocity, velocity_grad, velocity_laplacian,
                 pressure, pressure_grad, divergence=None):
        self.name = name
        self.velocity = velocity
        self.velocity_grad = velocity_grad
        self.velocity_laplacian = velocity_laplacian
        self.pressure = pressure
        self.pressure_grad = pressure_grad
        self.divergence = divergence  # None means g == 0 identically

    def source(self, nu: float, alpha: float):
        """f = -nu lap u + alpha u + grad p."""
        def f(x, y):
            return (
                -nu * self.velocity_laplacian(x, y)
                + alpha * self.velocity(x, y)
                + self.pressure_grad(x, y)
            )
        return f


def brinkman_sin_stream() -> BrinkmanCase:
    """u is the rotated gradient of sin^2(pi x) sin^2(pi y); p = sin(pi x) - 2/pi.

    The velocity is exactly divergence free and vanishes on the boundary of
    the unit square; the pressure has zero mean there.
    """
    g, g1, g2, g3, _ = _sin_sq_derivatives(np.pi)

    def velocity(x, y):
        return np.stack([g(x) * g1(y), -g1(x) * g(y)], axis=-1)

    def velocity_grad(x, y):
        # [..., c, d] = d u_c / d x_d
        row1 = np.stack([g1(x) * g1(y), g(x) * g2(y)], -1)
        row2 = np.stack([-g2(x) * g(y), -g1(x) * g1(y)], -1)
        return np.stack([row1, row2], axis=-2)

    def velocity_laplacian(x, y):
        return np.stack(
            [g2(x) * g1(y) + g(x) * g3(y), -g3(x) * g(y) - g1(x) * g2(y)], axis=-1
        )

    def pressure(x, y):
        return np.sin(np.pi * x) - 2.0 / np.pi + 0.0 * y

    def pressure_grad(x, y):
        zero = np.zeros(np.broadcast(x, y).shape)
        return np.stack([np.pi * np.cos(np.pi * x) + zero, zero], axis=-1)

    return BrinkmanCase(
        "sin_stream", velocity, velocity_grad, velocity_laplacian,
        pressure, pressure_grad,
    )
