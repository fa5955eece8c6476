"""Grid lookups: the arithmetic cell on uniform grids against the binary
search, the curve reader's node rule, and the bilinear blend pinned bit for
bit."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sc_control import interp
from sc_control.errors import ValidationError
from sc_control.interp import UniformAxis

from conftest import baseline_retire_params, digest, table_bank_params


def retire_axes():
    """The xi and z axes the retirement solver builds, at several sizes."""
    p = baseline_retire_params()
    half = 8.0 * p.sigma_z
    axes = [np.linspace(0.0, 1.0, n) for n in (2, 3, 21, 76, 101, 201)]
    axes += [np.linspace(p.z_bar - half, p.z_bar + half, n) for n in (2, 15, 51, 81, 161)]
    return axes


def edge_queries(grid):
    """Every node, one ulp either side of each, the midpoints, points beyond
    both ends, xi = 0 and xi = 1, and NaN."""
    return np.concatenate([
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        0.5 * (grid[1:] + grid[:-1]),
        [grid[0] - 1.0, grid[-1] + 1.0, -np.inf, np.inf, 0.0, 1.0, np.nan]])


def reference_index(grid, q):
    return np.clip(np.searchsorted(grid, q) - 1, 0, grid.size - 2)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestUniformAxis:
    @pytest.mark.parametrize("grid", retire_axes(), ids=lambda g: f"{g[0]:.2g}..{g[-1]:.2g}/{g.size}")
    def test_cell_equals_binary_search_at_every_edge(self, grid):
        axis = UniformAxis(grid, "axis")
        q = edge_queries(grid)
        k, w = axis.cell(q)
        np.testing.assert_array_equal(k, reference_index(grid, q))
        k_ref, w_ref = interp.cell(grid, q)
        np.testing.assert_array_equal(k, k_ref)
        assert same_bits(w, w_ref)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-50.0, 50.0), span=st.floats(1e-3, 100.0), n=st.integers(2, 400),
           q=st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=40))
    def test_index_equals_binary_search_on_any_linspace(self, lo, span, n, q):
        grid = np.linspace(lo, lo + span, n)
        q = np.concatenate([np.asarray(q), edge_queries(grid)])
        np.testing.assert_array_equal(UniformAxis(grid, "axis").index(q),
                                      reference_index(grid, q))

    @pytest.mark.parametrize("grid", retire_axes(), ids=lambda g: f"{g[0]:.2g}..{g[-1]:.2g}/{g.size}")
    def test_lerp_in_the_cell_takes_node_values_exactly(self, grid):
        # the retirement boundary is read this way: exact on every node,
        # np.interp's value to within roundoff between nodes
        axis = UniformAxis(grid, "z")
        fp = np.round(np.linspace(0.35, 0.75, grid.size) * 20.0) / 20.0  # stepped, like xi*(z)
        assert same_bits(interp.lerp(fp, *axis.cell(grid)), fp)
        q = edge_queries(grid)[:-1]
        np.testing.assert_allclose(interp.lerp(fp, *axis.cell(q)), np.interp(q, grid, fp),
                                   rtol=1e-15, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 200), seed=st.integers(0, 2**32 - 1),
           q=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40))
    def test_lerp_in_the_cell_matches_np_interp_on_random_curves(self, n, seed, q):
        grid = np.linspace(-1.44, 1.44, n)
        fp = np.random.default_rng(seed).uniform(0.0, 1.0, n)
        axis = UniformAxis(grid, "z")
        assert same_bits(interp.lerp(fp, *axis.cell(grid)), fp)
        assert same_bits(interp.read(grid, fp, grid), fp)
        q = np.asarray(q)
        np.testing.assert_allclose(interp.lerp(fp, *axis.cell(q)), np.interp(q, grid, fp),
                                   rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(interp.read(grid, fp, q), np.interp(q, grid, fp),
                                   rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("grid", retire_axes(), ids=lambda g: f"{g[0]:.2g}..{g[-1]:.2g}/{g.size}")
    def test_stacked_lerp_reads_each_curve_through_its_row_offset(self, grid):
        # the race stacks both sides' boundaries and reads side s at the z
        # cell's index plus s * n_z
        axis = UniformAxis(grid, "z")
        rng = np.random.default_rng(grid.size + 1)
        q = edge_queries(grid)
        k, w = axis.cell(q)
        fps = [rng.uniform(0.0, 1.0, grid.size), np.linspace(0.7, 0.3, grid.size),
               np.round(rng.uniform(0.3, 0.8, grid.size) * 20.0) / 20.0]
        stacked = np.concatenate(fps)
        for s, fp in enumerate(fps):
            assert same_bits(interp.lerp(stacked, k + s * grid.size, w), interp.lerp(fp, k, w))
        # queries of different curves mixed in one call
        side = np.arange(q.size) % len(fps)
        want = np.choose(side, [interp.lerp(fp, k, w) for fp in fps])
        assert same_bits(interp.lerp(stacked, k + side * grid.size, w), want)

    @pytest.mark.parametrize("grid", [
        [0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.1, 0.3, 0.4], np.geomspace(1e-3, 1.0, 9),
        [0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [-np.inf, 0.0, 1.0]])
    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic on the nodes
    def test_non_uniform_grid_rejected_naming_it(self, grid):
        with pytest.raises(ValidationError, match="^xi grid is not uniform"):
            UniformAxis(grid, "xi")


class TestRead:
    """interp.read on a profile NaN at both ends, as xi_participate is on its
    edge z rows."""

    GRID = np.linspace(-1.0, 1.0, 5)
    PROFILE = np.array([np.nan, 0.8, 0.7, 0.6, np.nan])

    def test_a_node_reads_its_own_value_beside_a_nan(self):
        g, fp = self.GRID, self.PROFILE
        assert same_bits(interp.read(g, fp, g[[1, 2, 3]]), fp[[1, 2, 3]])
        assert float(interp.read(g, fp, g[1])) == 0.8
        assert float(interp.read(g, fp, g[3])) == 0.6
        # lerp in the node's cell weighs the NaN to its left by 0
        assert np.isnan(interp.lerp(fp, *interp.cell(g, g[1])))

    def test_between_a_nan_and_a_node_reads_nan(self):
        g, fp = self.GRID, self.PROFILE
        q = np.array([np.nextafter(g[0], np.inf), 0.5 * (g[0] + g[1]),
                      np.nextafter(g[1], -np.inf), 0.5 * (g[3] + g[4])])
        assert np.isnan(interp.read(g, fp, q)).all()

    def test_outside_the_grid_reads_the_end_node(self):
        g = self.GRID
        q = np.array([-np.inf, g[0] - 1.0, g[-1] + 1.0, np.inf])
        assert np.isnan(interp.read(g, self.PROFILE, q)).all()
        fp = np.array([0.9, 0.8, 0.7, 0.6, 0.5])
        assert same_bits(interp.read(g, fp, q), fp[[0, 0, -1, -1]])

    def test_between_finite_nodes_equals_lerp_bit_for_bit(self):
        g, fp = self.GRID, self.PROFILE
        q = np.concatenate([np.linspace(g[1], g[3], 41)[1:-1],
                            np.nextafter(g[[1, 2]], np.inf), np.nextafter(g[[2, 3]], -np.inf)])
        got = interp.read(g, fp, q)
        assert np.isfinite(got).all()
        assert same_bits(got, interp.lerp(fp, *interp.cell(g, q)))

    def test_a_stack_reads_each_row_on_the_last_axis(self):
        g = self.GRID
        rows = np.stack([self.PROFILE, np.linspace(0.9, 0.5, 5), self.PROFILE[::-1]])
        q = edge_queries(g)
        got = interp.read(g, rows, q)
        assert got.shape == (3, q.size)
        for row, want in zip(got, rows):
            assert same_bits(row, interp.read(g, want, q))
        assert same_bits(interp.read(g, rows, 0.0), rows[:, 2])


def test_no_np_interp_in_the_package():
    """Every linear read of a curve in the package goes through interp."""
    found = []
    for path in sorted(Path(interp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "interp"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")) \
                    or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
                        and any(a.name == "interp" for a in node.names)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, "np.interp in the package: " + ", ".join(found)


class TestBilinearPinned:
    """bilinear and PartialSolution.value on the 21 x 7 Table-B solve, over
    nodes, midpoints, one ulp past each node and points beyond the grid,
    pinned bit for bit as recorded before the lookup was split into cell
    location and one blend."""

    def test_value_and_stack_pinned(self, table_b_small):
        sol = table_b_small
        xs, ss = sol.xs, sol.ss
        x = np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]), [xs[0] - 1, xs[-1] + 1],
                            np.nextafter(xs, np.inf)])
        s = np.resize(np.concatenate([ss, 0.5 * (ss[1:] + ss[:-1]), [0.0, 1.0],
                                      np.nextafter(ss, -np.inf)]), x.size)
        X, S = np.meshgrid(x, s)
        assert digest(sol.value(X, S)) == "3c74668863b05dc4"
        stack = interp.bilinear(xs, ss, np.stack([sol.V, sol.V ** 2]), X, S)
        assert digest(stack) == "5bf5d7b92e1a5fd3"
        assert sol.value(0.3, table_bank_params().s_infinity).hex() == "0x1.63e4d665c9319p-2"
