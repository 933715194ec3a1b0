"""Seeded random states and operators for sweeps and property tests."""

from __future__ import annotations

import numpy as np

from .registers import DenseOperator, QuditRegisterState


def random_state(dim: int, arity: int, rng: np.random.Generator) -> QuditRegisterState:
    """Haar-induced random pure state: a normalized complex-normal vector."""
    size = dim**arity
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return QuditRegisterState(dim, arity, v / np.linalg.norm(v))


def random_unitary(dim: int, rng: np.random.Generator) -> DenseOperator:
    """Haar-distributed random unitary: QR of a complex-normal matrix, phases fixed.

    Both normal blocks are one draw, scaled into z's parts: the same stream
    and bits as (a + 1j b) / sqrt 2 with a drawn before b.
    """
    x = rng.standard_normal((2, dim, dim))
    z = np.empty((dim, dim), dtype=complex)
    scale = 1 / np.sqrt(2)
    np.multiply(x[0], scale, out=z.real)
    np.multiply(x[1], scale, out=z.imag)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q *= d / np.abs(d)
    return DenseOperator(dim, q, label="random_unitary")


def random_operator(dim: int, rng: np.random.Generator) -> DenseOperator:
    """Generic complex-normal matrix; almost surely non-unitary and nonzero."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return DenseOperator(dim, z, label="random_operator")
