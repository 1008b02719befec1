"""Patch-level motion semantics: quadratic background fit, RANSAC, masked selection."""
from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass, replace

import numpy as np

from .video import PatchGrid, carve, partition_patches

SELECTION_MAGIC = b"FCSR"
# smallest singular value of a 6-sample design matrix that still determines the background fit
SINGULAR_TOL = 1e-9


class DegenerateSampleError(ValueError):
    """Sampled patch positions cannot determine the quadratic background model."""


@dataclass(frozen=True)
class ExtractorParams:
    alpha1: float = 0.5          # threshold offset, px
    alpha2: float = 1.0          # threshold gain on mean flow magnitude
    theta_th: float = 0.98       # cosine threshold; background aligns above it
    ransac_iters: int = 64
    inlier_eps: float = 0.5      # px, L2 residual for inlier vote
    mask_ratio: float = 0.0

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "theta_th", "inlier_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.inlier_eps <= 0.0:
            raise ValueError(f"inlier_eps must be positive, got {self.inlier_eps!r}")
        if self.ransac_iters < 1:
            raise ValueError("ransac_iters must be >= 1")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValueError("mask_ratio must lie in [0, 1)")


@dataclass(frozen=True)
class PatchFlowGrid:
    """Per-patch mean flow: mean_flow[i, j] = (mean u, mean v)."""

    grid: PatchGrid
    mean_flow: np.ndarray  # (rows, cols, 2)


@dataclass(frozen=True)
class BackgroundModel:
    """Quadratic-in-position background flow: predict(i, j) = phi^T q(i, j)."""

    phi: np.ndarray  # (6, 2)

    def predict(self, i, j) -> np.ndarray:
        q = position_features(i, j)
        return q @ self.phi


def position_features(i, j) -> np.ndarray:
    """q(i, j) = [i^2, j^2, ij, i, j, 1], broadcast over array inputs."""
    i = np.asarray(i, dtype=np.float64)
    j = np.asarray(j, dtype=np.float64)
    return np.stack([i * i, j * j, i * j, i, j, np.ones_like(i)], axis=-1)


@dataclass(frozen=True)
class SelectionResult:
    """Selected flow-patch payloads, the same number from every flow frame.

    Row t of `picks` holds frame t's row-major patch indices in selection
    order, and `payloads[t, n]` is the flow of patch `picks[t, n]`. A
    selection extracted with an encoder keeps, instead of the payloads, row t
    of `codes`: the codes of frame t's payloads, 2 ph pw of them per patch, in
    pick order. The selection for a larger mask ratio is a per-frame prefix of
    each.
    """

    grid: PatchGrid
    mask_ratio: float
    picks: np.ndarray            # (T', k) intp
    payloads: np.ndarray | None  # (T', k, 2, patch_h, patch_w) float64
    field_h: int
    field_w: int
    important: np.ndarray | None = None  # (T', rows, cols) bool, pre-selection classification
    codes: np.ndarray | None = None      # (T', 2 k patch_h patch_w) quantizer codes

    @property
    def n_flow_frames(self) -> int:
        return self.picks.shape[0]

    @property
    def n_selected(self) -> int:
        return self.picks.size

    @property
    def xi(self) -> np.ndarray:
        """(T', rows, cols) bool bitmap of the selected positions."""
        xi = np.zeros((self.n_flow_frames, self.grid.n_patches), dtype=bool)
        np.put_along_axis(xi, self.picks, True, axis=1)
        return xi.reshape(self.n_flow_frames, self.grid.rows, self.grid.cols)

    @property
    def selected(self) -> np.recarray:
        """Every pick as a (t, i, j) record, frame by frame in selection order."""
        t = np.repeat(np.arange(self.n_flow_frames), self.picks.shape[1])
        i, j = np.divmod(self.picks.reshape(-1), self.grid.cols)
        return np.rec.fromarrays([t, i, j], names="t,i,j")

    def prefix(self, mask_ratio: float) -> "SelectionResult":
        """The selection at a mask ratio no smaller than this one's: views of the first k picks."""
        if not 0.0 <= mask_ratio < 1.0:
            raise ValueError(f"mask_ratio must lie in [0, 1), got {mask_ratio!r}")
        k = selection_count(mask_ratio, self.grid.n_patches)
        if k > self.picks.shape[1]:
            raise ValueError(
                f"mask ratio {mask_ratio!r} keeps {k} patches a frame, more than the "
                f"{self.picks.shape[1]} selected at {self.mask_ratio!r}"
            )
        n_codes = k * 2 * self.grid.patch_h * self.grid.patch_w
        return replace(
            self, mask_ratio=mask_ratio, picks=self.picks[:, :k],
            payloads=None if self.payloads is None else self.payloads[:, :k],
            codes=None if self.codes is None else self.codes[:, :n_codes],
        )

    def to_bytes(self) -> bytes:
        """Compact binary form.

        Layout: magic, header (T', rows, cols, patch_h, patch_w, field_h,
        field_w, mask_ratio), packed xi bitmap, per frame the selection count
        and the selected patch indices in selection order (uint32 row-major
        linear index), then all payloads as float32 in the same order. The
        index list is what lets a reader re-associate payloads with positions:
        the bitmap alone does not encode the selection ordering the payload
        stream follows.
        """
        head = SELECTION_MAGIC + struct.pack(
            "<IIIIIIId",
            self.n_flow_frames,
            self.grid.rows,
            self.grid.cols,
            self.grid.patch_h,
            self.grid.patch_w,
            self.field_h,
            self.field_w,
            self.mask_ratio,
        )
        bits = np.packbits(self.xi.reshape(-1)).tobytes()
        order = np.insert(self.picks, 0, self.picks.shape[1], axis=1).astype("<u4")
        return head + bits + order.tobytes() + self.payloads.astype("<f4").tobytes()


def patch_mean_flow(flow: np.ndarray, grid: PatchGrid, patches: np.ndarray) -> PatchFlowGrid:
    """Mean (u, v) per patch of a (2, H, W) field, over the patch's in-field pixels (padding excluded).

    `patches` is the field's `partition_patches`. A full patch's mean sums its
    contiguous values in numpy's order for a mean over the strided patch in the
    field: whole rows, as many as fit numpy's ufunc buffer, each group summed
    pairwise and the groups added in turn, then divided by ph * pw. A patch cut
    by the field's right or bottom edge takes the mean of its in-field slice.
    """
    n, ph, pw = grid.n_patches, grid.patch_h, grid.patch_w
    _, height, width = flow.shape
    rows = max(1, np.getbufsize() // pw)
    sums = np.add.reduce(patches[:, :, :rows].reshape(n, 2, -1), axis=-1)
    for lo in range(rows, ph, rows):
        sums += np.add.reduce(patches[:, :, lo : lo + rows].reshape(n, 2, -1), axis=-1)
    mean = (sums / (ph * pw)).reshape(grid.rows, grid.cols, 2)
    cut = np.zeros((grid.rows, grid.cols), dtype=bool)
    cut[height // ph :] = True
    cut[:, width // pw :] = True
    for i, j in zip(*np.nonzero(cut)):
        u, v = flow[:, i * ph : (i + 1) * ph, j * pw : (j + 1) * pw]
        mean[i, j] = u.mean(), v.mean()
    return PatchFlowGrid(grid, mean)


def fit_background_lstsq(positions: np.ndarray, flows: np.ndarray) -> BackgroundModel:
    """Least-squares fit of the 6x2 quadratic model from exactly 6 patch samples.

    positions: (6, 2) of (i, j); flows: (6, 2) of (mean u, mean v).
    Raises DegenerateSampleError when the 6x6 design matrix is rank-deficient.
    """
    positions = np.asarray(positions, dtype=np.float64)
    flows = np.asarray(flows, dtype=np.float64)
    if positions.shape != (6, 2) or flows.shape != (6, 2):
        raise ValueError("exactly 6 (position, flow) samples required")
    q = position_features(positions[:, 0], positions[:, 1])  # (6, 6)
    if np.linalg.svd(q, compute_uv=False)[-1] < SINGULAR_TOL:
        raise DegenerateSampleError("degenerate sample: singular design matrix")
    phi = np.linalg.solve(q, flows)  # column-wise solve of Q phi = P
    return BackgroundModel(phi)


def check_background_grid(grid: PatchGrid, frame_shape: tuple[int, int] | None = None) -> None:
    """Raise unless the grid has the 3 patch rows and 3 columns the quadratic background needs.

    With fewer, i^2 (or j^2) is a linear combination of i and 1, so every 6-patch draw is singular.
    """
    if min(grid.rows, grid.cols) < 3:
        frame = "" if frame_shape is None else "{}x{} px, ".format(*frame_shape)
        raise ValueError(f"{grid.rows}x{grid.cols} patch grid ({frame}{grid.patch_h}x{grid.patch_w} px patches) "
                         "is too small for the quadratic background model, which needs at least 3 patch "
                         "rows and 3 patch columns")


def ransac_background(
    patch_flows: PatchFlowGrid, params: ExtractorParams, seed: int
) -> BackgroundModel:
    """Most-inliers quadratic background over ransac_iters random 6-subsets.

    Degenerate draws are redrawn up to a bounded retry count; ties on the
    inlier vote break toward the lower total inlier residual. Deterministic
    for a given seed.
    """
    grid = patch_flows.grid
    check_background_grid(grid)
    n = grid.n_patches
    ii, jj = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols), indexing="ij")
    positions = np.stack([ii.reshape(-1), jj.reshape(-1)], axis=1).astype(np.float64)
    flows = patch_flows.mean_flow.reshape(-1, 2)
    q_all = position_features(positions[:, 0], positions[:, 1])
    rng = np.random.default_rng(seed)

    best = None  # (inlier_count, -total_residual, model)
    for _ in range(params.ransac_iters):
        model = None
        for _retry in range(16):
            pick = rng.choice(n, size=6, replace=False)
            try:
                model = fit_background_lstsq(positions[pick], flows[pick])
                break
            except DegenerateSampleError:
                continue
        if model is None:
            continue
        residuals = np.linalg.norm(flows - q_all @ model.phi, axis=1)
        inliers = residuals < params.inlier_eps
        score = (int(inliers.sum()), -float(residuals[inliers].sum()))
        if best is None or score > best[0]:
            best = (score, model)
    if best is None:
        raise DegenerateSampleError("all RANSAC draws degenerate")
    return best[1]


def adaptive_threshold(patch_flows: PatchFlowGrid, params: ExtractorParams) -> float:
    """l_th = alpha1 + alpha2 * mean patch-flow magnitude over the frame."""
    mags = np.linalg.norm(patch_flows.mean_flow, axis=2)
    return params.alpha1 + params.alpha2 * float(mags.mean())


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise cosine; any zero vector is treated as aligned (cos = 1)."""
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    denom = na * nb
    safe = np.where(denom > 0, denom, 1.0)
    cos = np.sum(a * b, axis=-1) / safe
    return np.where(denom > 0, cos, 1.0)


def classify_patches(
    patch_flows: PatchFlowGrid, model: BackgroundModel, l_th: float, params: ExtractorParams
) -> tuple[np.ndarray, np.ndarray]:
    """Split patches into important / less-important sets.

    A patch is important when its L1 residual against the background
    prediction exceeds l_th AND its direction departs from the predicted
    background direction (cosine below theta_th). Returns (important mask,
    residual L1 map).
    """
    grid = patch_flows.grid
    ii, jj = np.meshgrid(np.arange(grid.rows), np.arange(grid.cols), indexing="ij")
    predicted = model.predict(ii, jj)  # (rows, cols, 2)
    resid = np.abs(patch_flows.mean_flow - predicted).sum(axis=2)
    cos = _cosine(patch_flows.mean_flow, predicted)
    important = (resid > l_th) & (cos < params.theta_th)
    return important, resid


def selection_count(mask_ratio: float, n_patches: int) -> int:
    """round-half-away-from-zero of (1 - rho) * N."""
    return int(math.floor((1.0 - mask_ratio) * n_patches + 0.5))


def select_patches(important: np.ndarray, resid: np.ndarray, k: int) -> np.ndarray:
    """Pick k patches, k = round((1-rho) * N): important first, by descending residual.

    Spillover continues into the less-important set with the same sort key;
    ties go to the lower row-major index, as lexsort is stable. Returns the
    picked row-major patch indices in selection order, so the picks at a
    larger rho are a prefix of these.
    """
    order = np.lexsort((-resid.reshape(-1), ~important.reshape(-1)))
    return order[:k]


def extract(fields, grid: PatchGrid, params: ExtractorParams, seed: int, encode=None) -> SelectionResult:
    """Run the per-frame mean/background/threshold/classify/select pipeline on each flow field.

    `fields` is a (T', 2, H, W) stack, or a function that calls sink(t, field,
    scratch) with each field t and returns the results in order, as
    `flow.estimate_flow` does given a sink. A frame's patches and its picked
    payloads are carved from `scratch` (see `partition_patches`), so what is
    made afresh is only what the selection keeps of the frame: a copy of the
    payloads, or, given `encode`, the codes encode(payloads), which it keeps
    in their place. Frames that arrive on several threads are extracted one
    at a time, as the background fits hold the interpreter lock for most of
    their time.
    """
    k = selection_count(params.mask_ratio, grid.n_patches)
    lock = threading.Lock()

    def select(t, field, scratch):
        with lock:
            patches = partition_patches(field, grid, scratch)
            pf = patch_mean_flow(field, grid, patches)
            model = ransac_background(pf, params, seed ^ t)
            l_th = adaptive_threshold(pf, params)
            important, resid = classify_patches(pf, model, l_th, params)
            picks = select_patches(important, resid, k)
            # in the canvas's place, free once the patches are cut from it
            payloads, = carve(scratch, (k, 2, grid.patch_h, grid.patch_w))
            np.take(patches, picks, axis=0, out=payloads)
            kept = payloads.copy() if encode is None else encode(payloads)
            return field.shape[1:], picks, important, kept

    if callable(fields):
        rows = fields(select)
    else:
        rows = [select(t, field, None) for t, field in enumerate(fields)]
    if not rows:
        raise ValueError("no flow fields to extract from")
    shapes, picks, important, kept = zip(*rows)
    kept = np.stack(kept)
    payloads, codes = (kept, None) if encode is None else (None, kept)
    return SelectionResult(
        grid, params.mask_ratio, np.stack(picks), payloads, *shapes[0], np.stack(important), codes
    )
