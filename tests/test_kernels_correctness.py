"""Functional correctness of every kernel against the NumPy reference.

This is the load-bearing test file: each cell runs a generated instruction
stream through the functional engine on a random grid and compares the
simulated memory with the vectorized reference.
"""

import pytest

from tests.capabilities import build_or_skip
from tests.helpers import assert_matches_reference, run_method_2d, run_method_3d
from repro.kernels.base import KernelOptions
from repro.stencils.library import benchmark

METHODS_2D = [
    "auto",
    "vector-only",
    "matrix-only",
    "mat-ortho",
    "hstencil-naive",
    "hstencil-nosched",
    "hstencil",
    "hstencil-prefetch",
]

STENCILS_2D = ["star2d5p", "star2d9p", "star2d13p", "box2d9p", "box2d25p", "heat2d"]

METHODS_3D = ["auto", "vector-only", "matrix-only", "hstencil", "hstencil-prefetch"]
STENCILS_3D = ["star3d7p", "star3d13p", "box3d27p"]


@pytest.mark.parametrize("stencil", STENCILS_2D)
@pytest.mark.parametrize("method", METHODS_2D)
def test_2d_lx2(method, stencil, lx2):
    spec = benchmark(stencil)
    got, ref = build_or_skip(
        method, spec, lx2, 16, 32, 2, lambda: run_method_2d(method, spec, lx2)
    )
    assert_matches_reference(got, ref)


@pytest.mark.parametrize("stencil", STENCILS_3D)
@pytest.mark.parametrize("method", METHODS_3D)
def test_3d_lx2(method, stencil, lx2):
    spec = benchmark(stencil)
    got, ref = build_or_skip(
        method, spec, lx2, 16, 32, 2, lambda: run_method_3d(method, spec, lx2)
    )
    assert_matches_reference(got, ref)


@pytest.mark.parametrize("stencil", ["star2d5p", "star2d9p", "box2d9p", "box2d25p"])
@pytest.mark.parametrize("method", ["auto", "matrix-only", "hstencil", "hstencil-prefetch"])
def test_2d_m4(method, stencil, m4):
    """The M4 routing (M-MLA star path, inplace box path) stays correct."""
    spec = benchmark(stencil)
    got, ref = run_method_2d(method, spec, m4)
    assert_matches_reference(got, ref)


@pytest.mark.parametrize("unroll", [1, 2, 4, 8])
def test_unroll_factors(unroll, lx2):
    """Multi-register kernels are correct at every unroll factor."""
    spec = benchmark("star2d9p")
    got, ref = run_method_2d(
        "hstencil", spec, lx2, rows=16, cols=8 * unroll * 2, options=KernelOptions(unroll_j=unroll)
    )
    assert_matches_reference(got, ref)


@pytest.mark.parametrize("rows,cols", [(8, 16), (16, 16), (24, 48), (32, 64)])
def test_grid_shapes(rows, cols, lx2):
    spec = benchmark("box2d9p")
    got, ref = run_method_2d("hstencil", spec, lx2, rows=rows, cols=cols)
    assert_matches_reference(got, ref)


@pytest.mark.parametrize("method", ["hstencil", "matrix-only"])
def test_radius_4_star(method, lx2):
    """Largest-radius star in the registry exercises the widest halo."""
    spec = benchmark("star2d17p")
    got, ref = run_method_2d(method, spec, lx2, rows=16, cols=32)
    assert_matches_reference(got, ref)


def test_box3d_125p_hstencil(lx2):
    """r=2 3D box: five planes of five shifts each."""
    spec = benchmark("box3d125p")
    got, ref = run_method_3d("hstencil", spec, lx2, depth=6, rows=16, cols=16)
    assert_matches_reference(got, ref)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_different_inputs(seed, lx2):
    spec = benchmark("star2d5p")
    got, ref = run_method_2d("hstencil", spec, lx2, seed=seed)
    assert_matches_reference(got, ref)


def test_ext_reuse_vs_loads_equivalent(lx2):
    """EXT data reuse and unaligned loads compute identical results."""
    spec = benchmark("box2d25p")
    got_ext, ref = run_method_2d(
        "hstencil", spec, lx2, options=KernelOptions(unroll_j=2, ext_to_load=0)
    )
    got_ld, _ = run_method_2d(
        "hstencil", spec, lx2, options=KernelOptions(unroll_j=2, ext_to_load=4)
    )
    assert_matches_reference(got_ext, ref)
    assert_matches_reference(got_ld, ref)


@pytest.mark.parametrize("rollback", [0, 2, 4])
def test_mla_rollback_levels_equivalent(rollback, lx2):
    """Every rollback level computes the same stencil."""
    spec = benchmark("star2d9p")
    got, ref = run_method_2d(
        "hstencil", spec, lx2, options=KernelOptions(unroll_j=2, mla_rollback=rollback)
    )
    assert_matches_reference(got, ref)
