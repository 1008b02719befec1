import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import read_selection, reference_patch_mean_flow
from flowcomm import extractor as ex
from flowcomm import synth
from flowcomm.flow import FlowEstimatorParams, estimate_flow
from flowcomm.video import PatchGrid, partition_patches


def quadratic_field(grid: PatchGrid, phi: np.ndarray) -> ex.PatchFlowGrid:
    ii, jj = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols), indexing="ij")
    return ex.PatchFlowGrid(grid, ex.position_features(ii, jj) @ phi)


GRID_14 = PatchGrid(16, 16, 14, 14)


def patch_means(flow: np.ndarray, grid: PatchGrid) -> ex.PatchFlowGrid:
    return ex.patch_mean_flow(flow, grid, partition_patches(flow, grid))


class TestPatchMeanFlow:
    def test_constant_field(self):
        flow = np.stack([np.full((32, 32), 3.0), np.full((32, 32), -1.0)])
        pf = patch_means(flow, PatchGrid.for_shape(32, 32, 16, 16))
        assert np.allclose(pf.mean_flow[..., 0], 3.0)
        assert np.allclose(pf.mean_flow[..., 1], -1.0)

    def test_zero_field(self):
        flow = np.zeros((2, 32, 32))
        pf = patch_means(flow, PatchGrid.for_shape(32, 32, 16, 16))
        assert not pf.mean_flow.any()

    def test_half_patch(self):
        u = np.zeros((16, 16))
        u[:, :8] = 1.0
        pf = patch_means(np.stack([u, np.zeros((16, 16))]), PatchGrid.for_shape(16, 16, 16, 16))
        assert pf.mean_flow[0, 0, 0] == pytest.approx(0.5)

    def test_boundary_patch_uses_valid_pixels_only(self):
        # 20x20 field of ones: the padded border patch must still average to 1
        flow = np.stack([np.ones((20, 20)), np.ones((20, 20))])
        pf = patch_means(flow, PatchGrid.for_shape(20, 20, 16, 16))
        assert np.allclose(pf.mean_flow, 1.0)

    @pytest.mark.parametrize(
        "height, width, patch_h, patch_w",
        [
            (256, 256, 16, 16), (96, 160, 8, 8), (128, 96, 32, 32), (64, 64, 1, 1),  # no edge patch
            (100, 90, 16, 16), (70, 70, 16, 16), (40, 52, 16, 16), (30, 30, 7, 3),   # edge patches
            # more than numpy's buffer of values in a patch: its rows are summed in groups
            (300, 300, 96, 96), (400, 400, 130, 70), (3, 27000, 1, 9000),
        ],
    )
    def test_bits_equal_the_per_patch_loop(self, height, width, patch_h, patch_w):
        rng = np.random.default_rng(height * width + patch_h)
        grid = PatchGrid.for_shape(height, width, patch_h, patch_w)
        for scale in (1e-3, 1.0, 1e3):
            flow = rng.standard_normal((2, height, width)) * scale
            flow[:, ::5] = -0.0
            got = patch_means(flow, grid).mean_flow
            assert got.tobytes() == reference_patch_mean_flow(flow, grid).tobytes()


class TestLsre:
    POSITIONS = np.array([(0, 0), (0, 1), (1, 0), (2, 2), (3, 1), (1, 3)], dtype=np.float64)

    def test_constant_field(self):
        flows = np.tile([2.0, 1.0], (6, 1))
        model = ex.fit_background_lstsq(self.POSITIONS, flows)
        assert np.allclose(model.phi[:5], 0.0, atol=1e-8)
        assert np.allclose(model.phi[5], [2.0, 1.0], atol=1e-8)

    def test_plant_and_recover(self):
        phi = np.zeros((6, 2))
        phi[0, 0] = 0.1   # u = 0.1 i^2
        phi[4, 1] = -0.2  # v = -0.2 j
        q = ex.position_features(self.POSITIONS[:, 0], self.POSITIONS[:, 1])
        model = ex.fit_background_lstsq(self.POSITIONS, q @ phi)
        assert np.abs(model.phi - phi).max() < 1e-8

    def test_fit_is_exact_on_samples(self):
        rng = np.random.default_rng(3)
        flows = rng.standard_normal((6, 2))
        model = ex.fit_background_lstsq(self.POSITIONS, flows)
        q = ex.position_features(self.POSITIONS[:, 0], self.POSITIONS[:, 1])
        assert np.abs(q @ model.phi - flows).max() < 1e-8

    def test_collinear_positions_degenerate(self):
        positions = np.array([(0, j) for j in range(6)], dtype=np.float64)  # all i equal
        with pytest.raises(ex.DegenerateSampleError):
            ex.fit_background_lstsq(positions, np.zeros((6, 2)))


class TestRansac:
    def test_pure_quadratic_recovered(self):
        phi = np.random.default_rng(0).normal(size=(6, 2)) * 0.1
        pf = quadratic_field(GRID_14, phi)
        model = ex.ransac_background(pf, ex.ExtractorParams(), seed=42)
        assert np.abs(model.phi - phi).max() < 1e-6
        resid = np.linalg.norm(
            pf.mean_flow.reshape(-1, 2)
            - ex.position_features(*np.meshgrid(np.arange(14), np.arange(14), indexing="ij")).reshape(-1, 6)
            @ model.phi,
            axis=1,
        )
        assert np.all(resid < ex.ExtractorParams().inlier_eps)

    def test_outliers_excluded_exactly(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(6, 2)) * 0.05
        pf = quadratic_field(GRID_14, phi)
        flat = pf.mean_flow.reshape(-1, 2).copy()
        outliers = rng.choice(196, size=19, replace=False)
        flat[outliers] += [10.0, 10.0]
        pf = ex.PatchFlowGrid(GRID_14, flat.reshape(14, 14, 2))
        params = ex.ExtractorParams()
        model = ex.ransac_background(pf, params, seed=6)
        ii, jj = np.meshgrid(np.arange(14), np.arange(14), indexing="ij")
        resid = np.linalg.norm(flat - ex.position_features(ii, jj).reshape(-1, 6) @ model.phi, axis=1)
        assert set(np.where(resid >= params.inlier_eps)[0]) == set(outliers)
        assert np.abs(model.phi - phi).max() < 1e-6

    def test_zero_field(self):
        pf = ex.PatchFlowGrid(GRID_14, np.zeros((14, 14, 2)))
        model = ex.ransac_background(pf, ex.ExtractorParams(), seed=7)
        assert np.abs(model.phi).max() < 1e-9

    def test_recovery_near_outlier_bound(self):
        # noiseless inliers with 35% outliers, still under the 40% design limit
        rng = np.random.default_rng(30)
        phi = rng.normal(size=(6, 2)) * 0.05
        pf = quadratic_field(GRID_14, phi)
        flat = pf.mean_flow.reshape(-1, 2).copy()
        outliers = rng.choice(196, size=68, replace=False)
        flat[outliers] += rng.uniform(5.0, 12.0, size=(68, 2))
        model = ex.ransac_background(
            ex.PatchFlowGrid(GRID_14, flat.reshape(14, 14, 2)), ex.ExtractorParams(), seed=31
        )
        assert np.abs(model.phi - phi).max() < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        pf = ex.PatchFlowGrid(GRID_14, rng.standard_normal((14, 14, 2)))
        a = ex.ransac_background(pf, ex.ExtractorParams(), seed=9)
        b = ex.ransac_background(pf, ex.ExtractorParams(), seed=9)
        assert np.array_equal(a.phi, b.phi)

    def test_too_few_patches(self):
        grid = PatchGrid(16, 16, 1, 2)
        with pytest.raises(ValueError):
            ex.ransac_background(ex.PatchFlowGrid(grid, np.zeros((1, 2, 2))), ex.ExtractorParams(), 0)

    @pytest.mark.parametrize("rows, cols", [(2, 5), (5, 2)])
    def test_grid_below_three_rows_or_columns_rejected_before_any_draw(self, monkeypatch, rows, cols):
        # 10 patches pass a patch count of 6, but with 2 distinct rows (or columns)
        # every 6-patch draw is singular: 64 x 16 draws would each be refused.
        def no_fit(*args):
            raise AssertionError("the grid reached the background fit")

        monkeypatch.setattr(ex, "fit_background_lstsq", no_fit)
        pf = ex.PatchFlowGrid(PatchGrid(16, 16, rows, cols), np.zeros((rows, cols, 2)))
        message = rf"{rows}x{cols} patch grid \(16x16 px patches\) is too small"
        with pytest.raises(ValueError, match=message):
            ex.ransac_background(pf, ex.ExtractorParams(), 0)


class TestAdaptiveThreshold:
    def test_zero_field(self):
        pf = ex.PatchFlowGrid(GRID_14, np.zeros((14, 14, 2)))
        assert ex.adaptive_threshold(pf, ex.ExtractorParams(alpha1=0.5)) == pytest.approx(0.5)

    def test_three_four_five(self):
        pf = ex.PatchFlowGrid(GRID_14, np.tile([3.0, 4.0], (14, 14, 1)))
        l_th = ex.adaptive_threshold(pf, ex.ExtractorParams(alpha1=0.5, alpha2=1.0))
        assert l_th == pytest.approx(5.5)

    def test_alpha2_zero(self):
        rng = np.random.default_rng(10)
        pf = ex.PatchFlowGrid(GRID_14, rng.standard_normal((14, 14, 2)))
        l_th = ex.adaptive_threshold(pf, ex.ExtractorParams(alpha1=0.5, alpha2=0.0))
        assert l_th == pytest.approx(0.5)


class TestClassify:
    @staticmethod
    def constant_background(u, v):
        phi = np.zeros((6, 2))
        phi[5] = [u, v]
        return ex.BackgroundModel(phi)

    def test_perfect_fit_is_less_important(self):
        model = self.constant_background(1.0, 0.0)
        pf = ex.PatchFlowGrid(GRID_14, np.tile([1.0, 0.0], (14, 14, 1)))
        important, resid = ex.classify_patches(pf, model, l_th=0.5, params=ex.ExtractorParams())
        assert not important.any()
        assert np.allclose(resid, 0.0)

    def test_aligned_motion_blocked_by_direction(self):
        # magnitude passes but the vectors are parallel: zoom-alignment rule
        l_th = 0.5
        model = self.constant_background(1.0, 0.0)
        flows = np.tile([1.0, 0.0], (14, 14, 1))
        flows[3, 3] = [1.0 + 2 * l_th, 0.0]
        pf = ex.PatchFlowGrid(GRID_14, flows)
        important, _ = ex.classify_patches(pf, model, l_th, ex.ExtractorParams())
        assert not important[3, 3]

    def test_orthogonal_motion_selected(self):
        l_th = 0.5
        model = self.constant_background(1.0, 0.0)
        flows = np.tile([1.0, 0.0], (14, 14, 1))
        flows[3, 3] = [0.0, 1.0 + 2 * l_th]
        pf = ex.PatchFlowGrid(GRID_14, flows)
        important, _ = ex.classify_patches(pf, model, l_th, ex.ExtractorParams())
        assert important[3, 3]
        assert important.sum() == 1

    def test_zero_vectors_count_as_aligned(self):
        model = self.constant_background(0.0, 0.0)
        flows = np.tile([9.0, 0.0], (14, 14, 1))
        pf = ex.PatchFlowGrid(GRID_14, flows)
        important, _ = ex.classify_patches(pf, model, l_th=0.5, params=ex.ExtractorParams())
        # background prediction is the zero vector -> cos defined as 1 -> blocked
        assert not important.any()


class TestSelect:
    def test_rho_zero_selects_all(self):
        grid = PatchGrid(16, 16, 4, 4)
        resid = np.random.default_rng(11).random((4, 4))
        n_sel = ex.selection_count(0.0, grid.n_patches)
        picked = ex.select_patches(np.zeros((4, 4), bool), resid, n_sel)
        assert sorted(picked) == list(range(16))

    def test_rounding_rule(self):
        assert ex.selection_count(0.9, 196) == 20  # round(19.6)
        assert ex.selection_count(0.5, 3) == 2     # round-half-away: 1.5 -> 2

    def test_spillover(self):
        grid = PatchGrid(16, 16, 4, 4)
        rng = np.random.default_rng(12)
        resid = rng.random((4, 4))
        important = np.zeros((4, 4), bool)
        important.flat[[0, 3, 5, 9, 14]] = True  # 5 important patches
        n_sel = ex.selection_count(0.5, grid.n_patches)  # 8
        picked = ex.select_patches(important, resid, n_sel)
        assert len(picked) == 8
        picked_set = {divmod(int(k), 4) for k in picked}
        assert {divmod(k, 4) for k in (0, 3, 5, 9, 14)} <= picked_set
        # the 3 spillover picks are the top less-important residuals
        lsr = [(-resid[i, j], i, j) for i in range(4) for j in range(4) if not important[i, j]]
        lsr.sort()
        assert {(i, j) for _, i, j in lsr[:3]} <= picked_set


class TestExtract:
    def test_static_video_selects_from_lsr(self):
        zero = [np.zeros((2, 64, 64))]
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        sel = ex.extract(zero, grid, ex.ExtractorParams(mask_ratio=0.9), seed=13)
        assert not sel.important.any()           # p_sr empty everywhere
        assert sel.picks.shape == (1, ex.selection_count(0.9, 16))

    def test_block_motion_coverage(self):
        video, mask0 = synth.block_motion_video(
            160, 160, 2, [(32, 48, 16, 32)], dx=-2, dy=0, seed=14, bg_dx=1, bg_dy=0
        )
        flows = estimate_flow(video, FlowEstimatorParams(levels=2))
        grid = PatchGrid.for_shape(160, 160, 16, 16)
        gt = synth.block_motion_ground_truth(mask0, 16, 16)
        n_motion = int(gt.sum())
        rho = 1.0 - (n_motion + 4) / grid.n_patches
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=rho), seed=15)
        selected = {divmod(int(k), grid.cols) for k in sel.picks[0]}
        assert {(i, j) for i, j in zip(*np.where(gt))} <= selected

    def test_rho_zero_all_ones(self):
        video = synth.static_video(48, 48, 3, seed=16)
        flows = estimate_flow(video, FlowEstimatorParams(levels=2))
        grid = PatchGrid.for_shape(48, 48, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.0), seed=17)
        assert sel.xi.all()

    def test_determinism(self):
        rng = np.random.default_rng(18)
        flows = [np.stack([rng.standard_normal((64, 64)), rng.standard_normal((64, 64))])]
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        a = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.5), seed=19)
        b = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.5), seed=19)
        assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(a.picks, b.picks)

    @pytest.mark.parametrize("rho", [1.0, 1.5, -0.5, float("nan")])
    def test_prefix_rejects_mask_ratio_outside_unit_interval(self, rho):
        rng = np.random.default_rng(18)
        flows = [np.stack([rng.standard_normal((64, 64)), rng.standard_normal((64, 64))])]
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.0), seed=19)
        with pytest.raises(ValueError, match=r"mask_ratio must lie in \[0, 1\)"):
            sel.prefix(rho)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.0, 0.99), st.integers(0, 2**31 - 1))
    def test_selection_count_property(self, rho, seed):
        rng = np.random.default_rng(seed)
        flows = [np.stack([rng.standard_normal((48, 48)), rng.standard_normal((48, 48))])]
        grid = PatchGrid.for_shape(48, 48, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=rho), seed=seed)
        assert sel.n_selected == ex.selection_count(rho, grid.n_patches)
        assert int(sel.xi.sum()) == ex.selection_count(rho, grid.n_patches)

    def test_global_shift_leaves_selection_set_unchanged(self):
        # constant camera motion is absorbed by the background model
        rng = np.random.default_rng(20)
        base_u = np.zeros((96, 96))
        base_v = np.zeros((96, 96))
        base_u += rng.normal(0, 0.02, (96, 96))  # background jitter
        base_u[16:32, 16:48] = 4.0               # two moving patches
        base_v[64:80, 64:80] = -3.5              # one more
        grid = PatchGrid.for_shape(96, 96, 16, 16)
        params = ex.ExtractorParams(mask_ratio=0.8)  # n_sel = 7 >= 3 motion patches
        for shift in ((0.0, 0.0), (2.0, -1.0), (-3.0, 3.0)):
            flows = [np.stack([base_u + shift[0], base_v + shift[1]])]
            sel = ex.extract(flows, grid, params, seed=21)
            picked = set(sel.picks[0].tolist())
            if shift == (0.0, 0.0):
                reference = picked
            else:
                assert picked == reference

    def test_partition_into_sr_and_lsr(self):
        rng = np.random.default_rng(22)
        flows = [np.stack([rng.standard_normal((64, 64)) * 2, rng.standard_normal((64, 64)) * 2])]
        grid = PatchGrid.for_shape(64, 64, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.3), seed=23)
        # important is a subset of all patches; its complement is the lsr set
        assert sel.important.shape == sel.xi.shape
        assert sel.important.dtype == bool


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(24)
        flows = [
            np.stack([rng.standard_normal((40, 56)).astype(np.float32).astype(np.float64),
                      rng.standard_normal((40, 56)).astype(np.float32).astype(np.float64)])
            for _ in range(3)
        ]
        grid = PatchGrid.for_shape(40, 56, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.4), seed=25)
        back = read_selection(sel.to_bytes())
        assert back.grid == sel.grid
        assert back.mask_ratio == sel.mask_ratio
        assert np.array_equal(back.xi, sel.xi)
        assert np.array_equal(back.picks, sel.picks)
        assert np.array_equal(back.payloads, sel.payloads.astype(np.float32).astype(np.float64))
        assert back.to_bytes() == sel.to_bytes()

    def test_roundtrip_without_patches(self):
        rng = np.random.default_rng(26)
        flows = [np.stack([rng.standard_normal((48, 48)), rng.standard_normal((48, 48))]) for _ in range(2)]
        grid = PatchGrid.for_shape(48, 48, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.99), seed=27)  # k = 0 of 9
        assert sel.picks.shape == (2, 0) and sel.payloads.shape == (2, 0, 2, 16, 16)
        back = read_selection(sel.to_bytes())
        assert back.picks.shape == (2, 0) and back.payloads.shape == (2, 0, 2, 16, 16)
        assert not back.xi.any() and back.xi.shape == (2, 3, 3)
        assert back.to_bytes() == sel.to_bytes()

    def test_frames_with_different_counts_rejected(self):
        rng = np.random.default_rng(28)
        flows = [np.stack([rng.standard_normal((48, 48)), rng.standard_normal((48, 48))]) for _ in range(2)]
        grid = PatchGrid.for_shape(48, 48, 16, 16)
        sel = ex.extract(flows, grid, ex.ExtractorParams(mask_ratio=0.5), seed=29)  # k = 5 of 9
        # Rewrite the index table as the old per-frame layout could: frame 0 keeps
        # 5 patches and frame 1 only 4, with the payload stream cut to match.
        head = 40 + -(-sel.xi.size // 8)
        xi = sel.xi.copy()
        xi[1].flat[sel.picks[1, 4]] = False
        order = np.concatenate([[5], sel.picks[0], [4], sel.picks[1, :4]]).astype("<u4")
        payloads = sel.payloads.astype("<f4").reshape(10, -1)[:9]
        blob = sel.to_bytes()[:40] + np.packbits(xi.reshape(-1)).tobytes() + order.tobytes() + payloads.tobytes()
        assert len(blob) == head + order.nbytes + payloads.nbytes
        with pytest.raises(ValueError, match="selection counts differ"):
            read_selection(blob)

    def test_truncated_blob_rejected(self):
        rng = np.random.default_rng(30)
        flows = [np.stack([rng.standard_normal((48, 48)), rng.standard_normal((48, 48))]) for _ in range(2)]
        sel = ex.extract(flows, PatchGrid.for_shape(48, 48, 16, 16), ex.ExtractorParams(), seed=31)
        blob = sel.to_bytes()
        for cut in (3, 20, 41, 50, len(blob) - 1):  # magic, header, bitmap, index table, payloads
            with pytest.raises(ValueError):
                read_selection(blob[:cut])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            read_selection(b"nope" + b"\0" * 64)
