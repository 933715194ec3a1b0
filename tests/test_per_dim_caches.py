"""The per-dimension constants: `measurement_full(N)` and the (i - j) mod N gather index.

Each is built once per N and shared. The reference constructions below are the
inline index expressions they replaced; the cached paths must equal them bit
for bit. Every Bell column of the full measurement is full, so it is built in
its closed form |0> ⊗ |+>; its reference is that form, and the plain
Bell-basis FFT must agree with it to round-off.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditproc import bell_basis_matrix, hs_expand, measurement_full, random_operator, random_unitary
from quditproc.cli import main
from quditproc.gates import _PER_DIM_CACHE_SIZE, _difference_index
from quditproc.harness import MAX_DIM

SRC = str(Path(__file__).resolve().parent.parent / "src")
CACHES = (measurement_full, _difference_index)


def reference_bell(dim, weights):
    cols = np.sqrt(dim) * np.fft.ifft(np.asarray(weights, dtype=complex).reshape(dim, dim), axis=0)
    k = np.arange(dim)
    return cols[k[:, None], (k[:, None] - k) % dim].reshape(-1)


def reference_coeffs(op):
    n = op.dim
    s = np.arange(n)
    return np.fft.ifft(op.entries[(s[:, None] - s) % n, s[:, None]], axis=0)


def reference_measurement_full(dim):
    amps = np.zeros(dim * dim, dtype=complex)
    amps[:dim] = 1 / np.sqrt(dim)
    return amps


def fft_measurement_full(dim):
    return reference_bell(dim, np.ones(dim * dim, dtype=bool) / np.sqrt(dim * dim))


dims = st.integers(2, 64)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dim=dims, seed=seeds)
@example(dim=256, seed=0)
def test_bell_basis_matrix_equals_the_inline_gather(dim, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    assert np.array_equal(bell_basis_matrix(dim, w), reference_bell(dim, w))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dim=dims, seed=seeds, haar=st.booleans())
@example(dim=256, seed=0, haar=True)
@example(dim=256, seed=1, haar=False)
def test_hs_expand_equals_the_inline_gather(dim, seed, haar):
    rng = np.random.default_rng(seed)
    op = (random_unitary if haar else random_operator)(dim, rng)
    assert np.array_equal(hs_expand(op).coeffs, reference_coeffs(op))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dim=dims)
@example(dim=256)
def test_measurement_full_equals_the_uncached_construction(dim):
    amps = measurement_full(dim).amplitudes
    assert np.array_equal(amps, reference_measurement_full(dim))
    assert np.max(np.abs(amps - fft_measurement_full(dim))) <= 1e-15


def test_difference_index_is_the_flat_index_of_the_modular_difference():
    dim = 7
    table = _difference_index(dim)
    assert table.dtype == np.int64
    assert table.shape == (dim, dim)
    assert all(table[i, j] == i * dim + (i - j) % dim for i in range(dim) for j in range(dim))


def test_cached_values_are_shared_and_read_only():
    assert measurement_full(5) is measurement_full(5)
    assert _difference_index(5) is _difference_index(5)
    with pytest.raises(ValueError, match="read-only"):
        measurement_full(5).amplitudes[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        _difference_index(5)[0, 0] = 1


def test_a_float_dim_is_not_served_from_the_int_entry():
    # typed=True: 3.0 misses the entry for 3 and fails as the uncached
    # construction does, instead of returning the dimension-3 measurement.
    measurement_full(3)
    with pytest.raises(TypeError):
        measurement_full(3.0)


def test_caches_stay_bounded_over_a_sweep():
    for dim in range(2, 2 * _PER_DIM_CACHE_SIZE + 5):
        bell_basis_matrix(dim, np.ones(dim * dim))
        measurement_full(dim)
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == _PER_DIM_CACHE_SIZE
        assert info.currsize == _PER_DIM_CACHE_SIZE


def test_full_caches_at_max_dim_stay_inside_their_stated_size():
    # One entry is 16 N^2 B (the measurement) plus 8 N^2 B (the table): 24 MiB
    # for both caches full at MAX_DIM = 256. The slack covers the Python
    # objects around each array.
    for cache in CACHES:
        cache.cache_clear()
    top_dims = range(MAX_DIM - _PER_DIM_CACHE_SIZE + 1, MAX_DIM + 1)
    tracemalloc.start()
    try:
        for dim in top_dims:
            measurement_full(dim)
            _difference_index(dim)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = sum(24 * dim**2 for dim in top_dims)
    assert arrays <= _PER_DIM_CACHE_SIZE * 24 * MAX_DIM**2 == 24 * 2**20
    assert arrays <= kept <= arrays + _PER_DIM_CACHE_SIZE * 2048
    for cache in CACHES:
        assert cache.cache_info().currsize == _PER_DIM_CACHE_SIZE
        cache.cache_clear()


def test_paper_claims_report_is_the_same_cold_warm_and_fresh(tmp_path):
    for cache in CACHES:
        cache.cache_clear()
    reports = []
    for name in ("cold", "warm"):
        out = tmp_path / f"{name}.json"
        assert main(["run", "--config", "paper-claims", "--seed", "2024", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert measurement_full.cache_info().hits > 0
    fresh = tmp_path / "fresh.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    argv = [sys.executable, "-m", "quditproc", "run", "--config", "paper-claims", "--seed", "2024"]
    proc = subprocess.run([*argv, "--out", str(fresh)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert reports[0] == reports[1] == fresh.read_bytes()
