"""Analysis helpers: CDFs, heatmaps, tables."""

import numpy as np
import pytest

from repro.analysis import EmpiricalCDF, Heatmap, cdf_table, render_table, summarize
from repro.analysis.cdf import median


class TestCDF:
    def test_at_and_median(self):
        cdf = EmpiricalCDF(np.array([1.0, 2.0, 3.0, 4.0]))
        assert cdf.at(0.5) == 0.0
        assert cdf.at(2.0) == pytest.approx(0.5)
        assert cdf.at(10.0) == 1.0
        assert cdf.median == pytest.approx(2.5)

    def test_curve_shape(self):
        cdf = EmpiricalCDF(np.array([0.0, 1.0]))
        xs, ys = cdf.curve(points=11)
        assert xs.shape == ys.shape == (11,)
        assert ys[0] > 0.0  # at(min) counts the sample itself
        assert ys[-1] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCDF(np.array([]))

    def test_percentile_validation(self):
        cdf = EmpiricalCDF(np.array([1.0]))
        with pytest.raises(ValueError):
            cdf.percentile(101.0)

    def test_cdf_table_and_summary(self):
        cdfs = {
            "a": EmpiricalCDF(np.array([1.0, 2.0])),
            "b": EmpiricalCDF(np.array([3.0, 4.0])),
        }
        rows = cdf_table(cdfs, [2.0, 4.0])
        assert rows[0] == ["2.00", "1.00", "0.00"]
        summary = summarize(cdfs, percentiles=(50,))
        assert summary["a"]["p50"] == pytest.approx(1.5)


class TestHeatmap:
    def make(self):
        xs, ys = np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0])
        pts = np.stack([xs.ravel(), ys.ravel(), np.ones(6)], axis=1)
        values = np.arange(6.0)
        return Heatmap(pts, values)

    def test_grid_reconstruction(self):
        hm = self.make()
        xs, ys, z = hm.grid()
        assert list(xs) == [0.0, 1.0, 2.0]
        assert list(ys) == [0.0, 1.0]
        assert z[0, 0] == 0.0 and z[1, 2] == 5.0

    def test_stats(self):
        stats = self.make().stats()
        assert stats["min"] == 0.0
        assert stats["max"] == 5.0
        assert stats["median"] == pytest.approx(2.5)

    def test_render_contains_scale_and_title(self):
        text = self.make().render(title="demo")
        assert text.startswith("demo")
        assert "scale:" in text
        # North (max y) at the top: the first data row holds the
        # highest values (indices 3..5).
        lines = text.splitlines()
        assert lines[1].count("@") >= 1

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            Heatmap(np.zeros((3, 3)), np.zeros(2))

    def test_render_with_fixed_scale(self):
        text = self.make().render(lo=0.0, hi=10.0)
        assert "'@'=10.0" in text


class TestTables:
    def test_alignment_and_borders(self):
        text = render_table(("a", "long header"), [("x", 1), ("yy", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("+")
        assert "| a " in lines[1]
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # perfectly aligned

    def test_title(self):
        text = render_table(("c",), [("v",)], title="T")
        assert text.splitlines()[0] == "T"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(("a", "b"), [("only-one",)])


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 31])
    def test_matches_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            assert median(values).tobytes() == np.median(values).tobytes()
            assert median(list(values)) == np.median(values)

    @pytest.mark.parametrize("rows", [1, 2, 3, 6])
    def test_columns_of_a_stack_match_numpy(self, rows):
        stack = np.random.default_rng(rows).normal(size=(rows, 5))
        out = median(stack, axis=0)
        assert out.shape == (5,)
        assert out.tobytes() == np.median(stack, axis=0).tobytes()

    def test_even_count_is_the_mean_of_the_middle_pair(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        assert median([5.0]) == 5.0

    def test_rejects_empty_input_and_other_axes(self):
        with pytest.raises(ValueError):
            median([])
        with pytest.raises(ValueError):
            median(np.zeros((2, 2)), axis=1)
