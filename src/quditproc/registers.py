"""Dense state vectors for registers of equal-dimension qudits.

Amplitude indexing is big-endian base N: subsystem 1 is the most significant
digit, so the basis state |n>_1 |m>_2 |k>_3 sits at flat index (n*N + m)*N + k.
Subsystem indices in the public API are 1-based throughout.

The rule for values is kept here alone. A value (a register, an operator, an
expansion, a processor, a program, an outcome, a scenario) is frozen once
constructed and every function here is pure, so all are safe to share across
threads or processes. Every array a value exposes, in a dict field too, goes
through `_locked`: a read-only view whose owner is locked too, so
it cannot be made writable again. `_kept` writes a value derived on first use
(an operator's Tr(A†A) or expansion, an expansion's support size, program
and support measurement, a bra's nonzero span or its index into a network's
success map, a gate array's G^-1 or compiled index) onto the instance once;
threads that race there only compute the same value twice. One value is kept
in a slot that a later use may replace: a program's success map K, for the
last (network, bra) it was post-selected against (`processor`). `_Value`
gives copies and pickles the fields alone, their arrays locked again, and
exact, unhashable equality: the same class and fields, arrays by
`np.array_equal`.
`programs.measurement_full(N)` and the gather index
in `gates` are built once per N and shared through a bounded, thread-safe
`functools.lru_cache`.

A register value is built one of three ways. The constructors of
`QuditRegisterState` and `UnnormalizedVector` copy their amplitudes and check
the dimension, arity and size (and, for a state, the norm). `_adopt` wraps,
without a copy or a check, only a fresh vector that a norm-preserving
operation (a permutation of amplitudes, or the product of two states) has just
made, or the int64 index ramp that a gate array is compiled on. `_deferred`
wraps, on the same terms, a function that makes such a vector and one that
contracts a bra against it without making it: the value's amplitudes are
made the first time anything reads them, and `partial_inner_product` of an
unread value against a bra on all but its leading qudit calls the second
(for a network output, K ψ). The first read writes the amplitudes onto the
instance through `_kept`, so racing first reads are as safe as `_kept`'s;
copies, pickles, `repr` and equality read them, so a deferred value behaves
like any other, and once read it is contracted as any other.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

# Construction-time normalization check; amplitude comparisons elsewhere use
# max absolute difference against the same scale.
NORM_TOL = 1e-12


def digits_to_index(digits, dim: int) -> int:
    """Flat index of the basis state with the given big-endian digits."""
    index = 0
    for d in digits:
        index = index * dim + int(d)
    return index


def _adopt(cls, dim: int, arity: int, amps: np.ndarray):
    """Wrap a fresh vector of length dim**arity as a `cls` value.

    No copy and no check: the caller made `amps` by a norm-preserving operation
    on checked values and holds no other reference to it. The vector is
    complex128, except the int64 index ramp that `processor` runs a gate array
    on, which never leaves its compile. A vector of any other origin goes
    through the constructor, which copies and checks it.
    """
    value = _bare(cls, dim, arity)
    object.__setattr__(value, "amplitudes", _locked(amps))
    return value


def _deferred(cls, dim: int, arity: int, read, project):
    """A `cls` value whose amplitudes `read()` makes the first time they are read.

    `read()` returns the whole fresh vector; the same terms as `_adopt`'s hold
    for it: a norm-preserving operation on checked values, no copy and no
    check. `project(bra)` returns, while the amplitudes are unread, <bra|
    contracted against the trailing arity - 1 qudits as a fresh vector of
    `dim` amplitudes; `partial_inner_product` reads a bra of any other arity
    through the whole vector.
    """
    value = _bare(cls, dim, arity)
    object.__setattr__(value, "_read", read)
    object.__setattr__(value, "_project", project)
    return value


def _bare(cls, dim: int, arity: int):
    value = object.__new__(cls)
    object.__setattr__(value, "dim", dim)
    object.__setattr__(value, "arity", arity)
    return value


def _locked(amps: np.ndarray) -> np.ndarray:
    # A read-only view of `amps`, whose owning array is locked too (an
    # unpickled array may instead sit on immutable bytes).
    amps.setflags(write=False)
    if isinstance(amps.base, np.ndarray):
        amps.base.setflags(write=False)
    return amps.view()


def _read_deferred(value) -> np.ndarray:
    return _locked(value._read())


def _kept(value, name: str, compute):
    """`compute(value)` for an immutable `value`, stored in its instance dict on first use.

    Writing the dict directly passes the frozen dataclass's guard.
    """
    cache = vars(value)
    if name not in cache:
        cache[name] = compute(value)
    return cache[name]


def _equal_values(a, b):
    """The same class, equal scalar fields and `np.array_equal` arrays, in a dict field too.

    A dataclass `==` compares fields as tuples, where an array's `==` is not a bool.
    """
    if type(a) is not type(b):
        return NotImplemented
    return all(_equal(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _equal(x, y) -> bool:
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    if isinstance(x, dict) and isinstance(y, dict):
        return x.keys() == y.keys() and all(_equal(x[k], y[k]) for k in x)
    return x == y


class _Value:
    """A frozen dataclass value: field-only copies and pickles, exact unhashable equality."""

    __eq__ = _equal_values
    __hash__ = None

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state):
        vars(self).update({k: _relocked(v) for k, v in state.items()})


def _relocked(value):
    if isinstance(value, np.ndarray):
        return _locked(value)
    if isinstance(value, dict):
        return {k: _relocked(v) for k, v in value.items()}
    return value


@dataclass(frozen=True, eq=False)
class _Register(_Value):
    """The dim**arity amplitudes of `arity` qudits of dimension `dim`, copied flat and read-only."""

    dim: int
    arity: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            amps = amps.reshape(-1)
        if self.dim < 2:
            raise ValueError(f"qudit dimension must be >= 2, got {self.dim}")
        if self.arity < 1:
            raise ValueError(f"register needs at least one qudit, got arity {self.arity}")
        if amps.size != self.dim**self.arity:
            raise ValueError(
                f"amplitude vector has length {amps.size}, expected {self.dim**self.arity} "
                f"for {self.arity} qudit(s) of dimension {self.dim}"
            )
        object.__setattr__(self, "amplitudes", _locked(amps))

    def __getattr__(self, name):
        # Reached only for a name missing from the instance dict: the
        # amplitudes of an unread `_deferred` value.
        if name == "amplitudes" and "_read" in vars(self):
            return _kept(self, "amplitudes", _read_deferred)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")


@dataclass(frozen=True, eq=False)
class QuditRegisterState(_Register):
    """Normalized pure state of `arity` qudits, each of dimension `dim`."""

    def __post_init__(self):
        super().__post_init__()
        norm_sq = float(np.vdot(self.amplitudes, self.amplitudes).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(
                f"state is not normalized: squared norm is {norm_sq!r} "
                "(use UnnormalizedVector for intermediate results)"
            )


@dataclass(frozen=True, eq=False)
class UnnormalizedVector(_Register):
    """Register-shaped complex vector of arbitrary norm, zero included.

    Projection residues and other mid-computation values live here so they
    cannot silently be mistaken for physical states.
    """

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> QuditRegisterState:
        n = self.norm()
        if not n > 1e-14:
            raise ValueError("cannot normalize a numerically zero vector")
        return QuditRegisterState(self.dim, self.arity, self.amplitudes / n)


@dataclass(frozen=True, eq=False)
class DenseOperator(_Value):
    """Complex square matrix acting on one qudit or one labeled register.

    Not required to be unitary; program synthesis accepts any matrix with
    strictly positive Tr(A†A).
    """

    dim: int
    entries: np.ndarray
    label: str | None = None

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(
                f"operator entries must be {self.dim}x{self.dim}, got shape {mat.shape}"
            )
        object.__setattr__(self, "entries", _locked(mat))

    def gram_trace(self) -> float:
        """Tr(A†A), the squared Hilbert-Schmidt norm of the matrix; summed once per value."""
        return _kept(self, "_gram_trace", _gram_trace)

    def is_unitary(self, tol: float = 1e-12) -> bool:
        delta = self.entries.conj().T @ self.entries - np.eye(self.dim)
        return bool(np.max(np.abs(delta)) <= tol)


def _gram_trace(op: DenseOperator) -> float:
    return float(np.sum(np.abs(op.entries) ** 2))


def basis_state(dim: int, arity: int, digits) -> QuditRegisterState:
    """Computational basis state |d_1 d_2 ... d_arity>."""
    digits = tuple(int(d) for d in digits)
    if len(digits) != arity:
        raise ValueError(f"expected {arity} digits, got {len(digits)}")
    for d in digits:
        if not 0 <= d < dim:
            raise ValueError(f"digit {d} out of range for dimension {dim}")
    amps = np.zeros(dim**arity, dtype=complex)
    amps[digits_to_index(digits, dim)] = 1.0
    return QuditRegisterState(dim, arity, amps)


def tensor(a, b):
    """Kronecker product with `a`'s qudits most significant; a state only if both factors are."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    amps = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)
    normalized = isinstance(a, QuditRegisterState) and isinstance(b, QuditRegisterState)
    return _adopt(QuditRegisterState if normalized else UnnormalizedVector, a.dim, a.arity + b.arity, amps)


def apply_to_subsystem(op: DenseOperator, target: int, state) -> UnnormalizedVector:
    """Apply `op` to one subsystem: (1 ⊗ ... ⊗ op ⊗ ... ⊗ 1) |state>.

    `target` is 1-based. Accepts normalized or unnormalized input; the result
    is an UnnormalizedVector because `op` need not preserve norm.
    """
    if op.dim != state.dim:
        raise ValueError(f"operator dimension {op.dim} does not match qudit dimension {state.dim}")
    if not 1 <= target <= state.arity:
        raise ValueError(f"subsystem index {target} out of range 1..{state.arity}")
    n, k = state.dim, state.arity
    cube = state.amplitudes.reshape((n,) * k)
    moved = np.tensordot(op.entries, cube, axes=([1], [target - 1]))
    out = np.moveaxis(moved, 0, target - 1).reshape(-1)
    return UnnormalizedVector(n, k, out)


def apply_to_register(op: DenseOperator, state) -> UnnormalizedVector:
    """Apply an operator defined on the register's whole index space.

    `op.dim` must equal dim**arity; used for gates that act on a multi-qudit
    register as a unit (for example the two-qubit program preparation gate).
    """
    size = state.amplitudes.size
    if op.dim != size:
        raise ValueError(f"operator dimension {op.dim} does not match register size {size}")
    return UnnormalizedVector(state.dim, state.arity, op.entries @ state.amplitudes)


def inner_product(a, b) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim or a.arity != b.arity:
        raise ValueError("shape mismatch in inner product")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def partial_inner_product(bra, joint) -> UnnormalizedVector:
    """Contract <bra| against the trailing `bra.arity` subsystems of `joint`.

    When `joint` is an unread `_deferred` value and `bra` covers all but its
    leading qudit, the overlap is the value's own contraction: for a network
    output, one N x N matvec K ψ by the success map kept on the program
    (`processor`), whatever the bra. Otherwise, with big-endian indexing the
    trailing subsystems are the fast digits, so this is one reshape to (rest,
    bra size) and one matrix-vector product over the columns of the bra's
    nonzero span [lo, hi), the first and one past the last nonzero amplitude,
    found once per bra value. For a dense bra that is every column. Every full
    Bell column of a measurement is built exactly, one nonzero and exact
    zeros, so the full measurement |0> ⊗ |+> spans [0, N) at every N and the
    product reads N^2 of the joint state's N^3 amplitudes. The result lives
    on the leading subsystems in their original order; its squared norm is
    the probability of projecting the trailing subsystems onto |bra>.
    """
    if bra.dim != joint.dim:
        raise ValueError("dimension mismatch in partial inner product")
    if bra.arity >= joint.arity:
        raise ValueError("partial projection must leave at least one subsystem")
    cache = vars(joint)
    if "_project" in cache and "amplitudes" not in cache and bra.arity == joint.arity - 1:
        overlap = cache["_project"](bra)
    else:
        lo, hi = _kept(bra, "_nonzero_span", _nonzero_span)
        overlap = joint.amplitudes.reshape(-1, bra.amplitudes.size)[:, lo:hi] @ bra.amplitudes[lo:hi].conj()
    return UnnormalizedVector(joint.dim, joint.arity - bra.arity, overlap)


def _nonzero_span(bra) -> tuple[int, int]:
    # (0, 0) for an all-zero bra, whose overlap is then all zero. The method
    # `nonzero` skips `np.flatnonzero`'s wrapper, a microsecond at N <= 8.
    (nonzero,) = bra.amplitudes.nonzero()
    if not nonzero.size:
        return 0, 0
    return int(nonzero[0]), int(nonzero[-1]) + 1
