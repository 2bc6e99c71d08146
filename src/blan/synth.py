"""Procedural paired-face data: identity-conditioned renderings, a
parametric makeup operator, fold splitting and the on-disk dataset layout.

Faces are composed of smooth analytic masks (ellipses in canonical [0,1]^2
coordinates) so renderings are deterministic, differentiable-looking and
cheap. A pair consists of a clean rendering (the ground truth) and a
second rendering of the same identity under slightly different nuisance
with the makeup operator applied (the probe). Makeup covers four effects:
lip tint, eye-region darkening, brow thickening and skin smoothing (plus a
foundation tone shift).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ppm
from .defaults import IMAGE_SIZE, N_FOLDS
from .engine import Tensor

# seed-stream salts so every consumer draws from an independent stream
_SALT_IDENTITY = 0x1D
_SALT_NUISANCE = 0x9E
_SALT_MAKEUP = 0x3A
_SALT_FOLDS = 0xF0
_SALT_VARIATIONS = 100  # first nuisance salt of render_variations; pairs use 0 and 1

# nuisance ranges: shift in pixels, rotation in degrees, chance of an occluder
MAX_SHIFT_PX = 2.0
MAX_ROT_DEG = 3.0
OCCLUSION_PROB = 0.1


def _rng(*entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(e) for e in entropy]))


@dataclass
class SyntheticIdentity:
    """Geometry and coloring of one synthetic person, in canonical units."""

    id: int
    seed: int
    skin_tone: np.ndarray = None       # RGB in [-1,1]
    hair_tone: np.ndarray = None
    lip_tone: np.ndarray = None
    eye_tone: np.ndarray = None
    face_rx: float = 0.30
    face_ry: float = 0.40
    eye_spacing: float = 0.13          # half-distance between eye centers
    eye_y: float = -0.10
    eye_rx: float = 0.045
    eye_ry: float = 0.030
    brow_y: float = -0.175
    brow_ry: float = 0.012
    brow_rx: float = 0.075
    mouth_y: float = 0.22
    lip_rx: float = 0.10
    lip_ry: float = 0.040
    nose_len: float = 0.10

    @classmethod
    def sample(cls, ident, seed):
        rng = _rng(seed, _SALT_IDENTITY, ident)
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        return cls(
            id=ident,
            seed=seed,
            skin_tone=np.array([u(0.25, 0.75), u(0.05, 0.45), u(-0.15, 0.25)], dtype=np.float32),
            hair_tone=np.array([u(-0.9, 0.3), u(-0.9, 0.1), u(-0.9, 0.0)], dtype=np.float32),
            lip_tone=np.array([u(0.1, 0.5), u(-0.5, -0.1), u(-0.5, -0.1)], dtype=np.float32),
            eye_tone=np.array([u(-0.9, -0.3), u(-0.9, -0.2), u(-0.7, 0.3)], dtype=np.float32),
            face_rx=u(0.26, 0.34),
            face_ry=u(0.36, 0.44),
            eye_spacing=u(0.10, 0.16),
            eye_y=u(-0.13, -0.07),
            eye_rx=u(0.035, 0.055),
            eye_ry=u(0.022, 0.038),
            brow_y=u(-0.20, -0.15),
            brow_ry=u(0.008, 0.016),
            brow_rx=u(0.06, 0.09),
            mouth_y=u(0.18, 0.26),
            lip_rx=u(0.07, 0.13),
            lip_ry=u(0.03, 0.05),
            nose_len=u(0.07, 0.13),
        )


@dataclass
class Nuisance:
    """Small uncontrolled-acquisition effects: jitter and occlusion."""

    dx: float = 0.0          # canonical units (1.0 = image width)
    dy: float = 0.0
    rot_deg: float = 0.0
    occlusion: tuple | None = None  # (cx, cy, half_w, half_h, gray)

    @classmethod
    def sample(cls, ident, seed, salt, size):
        rng = _rng(seed, _SALT_NUISANCE, salt, ident)
        occ = None
        if rng.uniform() < OCCLUSION_PROB:
            occ = (
                float(rng.uniform(-0.3, 0.3)),
                float(rng.uniform(-0.3, 0.3)),
                float(rng.uniform(0.04, 0.10)),
                float(rng.uniform(0.04, 0.10)),
                float(rng.uniform(-0.6, 0.6)),
            )
        return cls(
            dx=float(rng.uniform(-MAX_SHIFT_PX, MAX_SHIFT_PX)) / size,
            dy=float(rng.uniform(-MAX_SHIFT_PX, MAX_SHIFT_PX)) / size,
            rot_deg=float(rng.uniform(-MAX_ROT_DEG, MAX_ROT_DEG)),
            occlusion=occ,
        )


@dataclass
class MakeupParams:
    """Strengths of the four cosmetic effects; all-zero is the identity map."""

    lip_tint: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.float32))
    eye_darken: float = 0.0        # multiplicative pull toward black in the eye region
    brow_radius_px: float = 0.0    # dilation radius of the brow strokes
    skin_sigma_px: float = 0.0     # gaussian blur within the skin mask
    foundation: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.float32))

    @classmethod
    def default(cls):
        return cls(
            lip_tint=np.array([0.45, -0.25, -0.10], dtype=np.float32),
            eye_darken=0.55,
            brow_radius_px=2.0,
            skin_sigma_px=1.6,
            foundation=np.array([0.16, 0.10, 0.06], dtype=np.float32),
        )

    @classmethod
    def sample(cls, ident, seed):
        """Per-identity makeup variation around the defaults."""
        rng = _rng(seed, _SALT_MAKEUP, ident)
        base = cls.default()
        jitter = lambda v, s: (np.asarray(v) * rng.uniform(1 - s, 1 + s)).astype(np.float32)
        return cls(
            lip_tint=jitter(base.lip_tint, 0.4),
            eye_darken=float(jitter(base.eye_darken, 0.4)),
            brow_radius_px=float(rng.uniform(1.0, 3.0)),
            skin_sigma_px=float(rng.uniform(1.0, 2.2)),
            foundation=jitter(base.foundation, 0.5),
        )


@dataclass
class RegionMasks:
    """Soft cosmetic-region masks; tails below 1e-3 are truncated to exact 0
    so the makeup operator is provably local."""

    lips: np.ndarray
    eyes: np.ndarray          # eye surround (shadow region)
    brows: np.ndarray
    skin: np.ndarray          # face skin minus the other regions


@dataclass
class ImagePair:
    I_A: Tensor               # makeup probe
    I_B: Tensor               # clean ground truth
    y: int


def _soft(d):
    """Smooth inside-mask from a normalized quadratic distance (1 = boundary),
    with a soft edge 0.035 wide in that distance."""
    m = 1.0 / (1.0 + np.exp(np.clip((d - 1.0) / 0.035, -60, 60)))
    m[m < 1e-3] = 0.0
    return m.astype(np.float32)


def _ellipse(xx, yy, cx, cy, rx, ry):
    return ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2


def _paint(img, mask, color):
    img *= 1.0 - mask[None]
    img += mask[None] * np.asarray(color, dtype=np.float32)[:, None, None]


def _mirrored_passes(img, r, line_filter):
    """Filter ``img`` along axis -2, then along axis -1.

    ``line_filter(x, n)`` gets a copy mirror-padded by ``r`` along axis -2
    (d c b a | a b c d | d c b a, scipy.ndimage's ``reflect``) and returns
    the n unpadded rows. Swapping the last two axes after each pass brings
    axis -1 to -2 and, after the second pass, back.
    """
    out = img
    for _ in range(2):
        pad = [(0, 0)] * (out.ndim - 2) + [(r, r), (0, 0)]
        out = np.swapaxes(line_filter(np.pad(out, pad, mode="symmetric"), out.shape[-2]), -1, -2)
    return out


def _gaussian_blur(img, sigma):
    """Gaussian blur of each (h, w) plane of ``img``, truncated at 4 sigma.

    Bit-identical to ``scipy.ndimage.gaussian_filter(plane, sigma)``: the
    same weights, float64 sums taken in scipy's order (centre tap, then the
    mirrored tap pairs from the outside in), and a rounding to img's dtype
    after each axis.
    """
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()

    def line_filter(x, n):
        x = x.astype(np.float64)
        acc = x[..., r : r + n, :] * w[r]
        for j in range(r, 0, -1):
            acc += (x[..., r - j : r - j + n, :] + x[..., r + j : r + j + n, :]) * w[r + j]
        return acc.astype(img.dtype)

    return _mirrored_passes(img, r, line_filter)


def _grey_dilation(img, r):
    """Maximum over the (2r+1) x (2r+1) window around each pixel.

    Equals ``scipy.ndimage.grey_dilation(img, size=(2r+1, 2r+1))``: a max
    is exact, so one pass per axis gives the 2-D window's value.
    """
    def line_filter(x, n):
        out = x[..., :n, :]
        for k in range(1, 2 * r + 1):
            out = np.maximum(out, x[..., k : k + n, :])
        return out

    return _mirrored_passes(img, r, line_filter)


def render_regions(identity: SyntheticIdentity, nuisance: Nuisance, size):
    """Render a clean face and its cosmetic-region masks.

    Nuisance is applied by evaluating all masks in jittered/rotated
    coordinates, so no resampling artifacts enter the image.
    """
    h, w = size
    ys = (np.arange(h, dtype=np.float64) + 0.5) / h - 0.5
    xs = (np.arange(w, dtype=np.float64) + 0.5) / w - 0.5
    yy0, xx0 = np.meshgrid(ys, xs, indexing="ij")
    th = np.deg2rad(nuisance.rot_deg)
    ct, st = np.cos(th), np.sin(th)
    xx = ct * (xx0 - nuisance.dx) - st * (yy0 - nuisance.dy)
    yy = st * (xx0 - nuisance.dx) + ct * (yy0 - nuisance.dy)

    ident = identity
    face = _soft(_ellipse(xx, yy, 0.0, 0.02, ident.face_rx, ident.face_ry))
    hair = _soft(_ellipse(xx, yy, 0.0, -0.05, ident.face_rx * 1.25, ident.face_ry * 1.18))
    eye_l = _ellipse(xx, yy, -ident.eye_spacing, ident.eye_y, ident.eye_rx, ident.eye_ry)
    eye_r = _ellipse(xx, yy, ident.eye_spacing, ident.eye_y, ident.eye_rx, ident.eye_ry)
    eyes = np.maximum(_soft(eye_l), _soft(eye_r))
    eye_surround = np.maximum(
        _soft(_ellipse(xx, yy, -ident.eye_spacing, ident.eye_y, ident.eye_rx * 2.0, ident.eye_ry * 2.6)),
        _soft(_ellipse(xx, yy, ident.eye_spacing, ident.eye_y, ident.eye_rx * 2.0, ident.eye_ry * 2.6)),
    )
    brows = np.maximum(
        _soft(_ellipse(xx, yy, -ident.eye_spacing, ident.brow_y, ident.brow_rx, ident.brow_ry)),
        _soft(_ellipse(xx, yy, ident.eye_spacing, ident.brow_y, ident.brow_rx, ident.brow_ry)),
    )
    nose = _soft(_ellipse(xx, yy, 0.0, 0.06, 0.022, ident.nose_len))
    lips = _soft(_ellipse(xx, yy, 0.0, ident.mouth_y, ident.lip_rx, ident.lip_ry))

    img = np.empty((3, h, w), dtype=np.float32)
    img[:] = np.array([-0.55, -0.55, -0.5], dtype=np.float32)[:, None, None]  # backdrop
    _paint(img, hair, ident.hair_tone)
    _paint(img, face, ident.skin_tone)
    _paint(img, nose, ident.skin_tone * 0.75)
    _paint(img, brows, ident.hair_tone * 0.8)
    _paint(img, eyes, ident.eye_tone)
    _paint(img, lips, ident.lip_tone)

    if nuisance.occlusion is not None:
        cx, cy, hw_, hh_, gray = nuisance.occlusion
        box = ((np.abs(xx0 - cx) <= hw_) & (np.abs(yy0 - cy) <= hh_))
        img[:, box] = gray

    np.clip(img, -1.0, 1.0, out=img)

    # regions are made disjoint by removing the *support* of higher-priority
    # masks, so pairwise products are exactly zero
    eye_region = (eye_surround * (brows == 0) * (lips == 0)).astype(np.float32)
    features = (eyes > 0) | (eye_region > 0) | (brows > 0) | (lips > 0) | (nose > 0)
    skin = (face * ~features).astype(np.float32)
    skin[skin < 1e-3] = 0.0
    masks = RegionMasks(lips=lips, eyes=eye_region, brows=brows, skin=skin)
    return img, masks


def apply_makeup(image, masks: RegionMasks, params: MakeupParams):
    """Apply the cosmetic operator; all-zero params return the input unchanged.

    Effects touch only their region masks (the brow effect touches the brow
    mask dilated by its radius), and the output is clamped to [-1,1].
    """
    img = np.asarray(image).copy()

    if np.any(params.lip_tint != 0):
        img += masks.lips[None] * params.lip_tint[:, None, None]

    if params.eye_darken != 0:
        # pull values toward black (-1) inside the eye surround
        img -= params.eye_darken * masks.eyes[None] * (img + 1.0)

    if params.brow_radius_px > 0:
        dilated = _grey_dilation(masks.brows, int(np.ceil(params.brow_radius_px)))
        img -= 0.6 * dilated[None] * (img + 1.0)

    if params.skin_sigma_px > 0:
        blurred = _gaussian_blur(img, params.skin_sigma_px)
        blend = masks.skin[None]
        img = img * (1.0 - blend) + blurred * blend

    if np.any(params.foundation != 0):
        img += masks.skin[None] * params.foundation[:, None, None]

    return np.clip(img, -1.0, 1.0).astype(np.float32)


def makeup_footprint(masks: RegionMasks, params: MakeupParams):
    """Boolean map of pixels the operator may touch for these params."""
    # a radius of 0 leaves the brow mask as it is
    brows = _grey_dilation(masks.brows, int(np.ceil(params.brow_radius_px)))
    return (masks.lips > 0) | (masks.eyes > 0) | (masks.skin > 0) | (brows > 0)


@dataclass
class FoldSplit:
    """Identity -> fold assignment; identities never straddle folds."""

    assignments: dict

    @classmethod
    def build(cls, ids, seed):
        ids = list(ids)
        order = _rng(seed, _SALT_FOLDS).permutation(len(ids))
        return cls({ids[j]: int(i % N_FOLDS) for i, j in enumerate(order)})

    def test_ids(self, fold):
        return sorted(i for i, f in self.assignments.items() if f == fold)

    def train_ids(self, fold):
        return sorted(i for i, f in self.assignments.items() if f != fold)


def _square(size):
    """The side of a square (h, w) image: a dataset's manifest records one,
    and ``Nuisance.sample`` scales its one shift bound to both axes."""
    h, w = size
    if h != w:
        raise ValueError(f"images must be square, got {h}x{w}")
    return h


def make_dataset(n_identities, seed, size=(IMAGE_SIZE, IMAGE_SIZE)):
    """One aligned (makeup, clean) pair per identity plus the fold split."""
    side = _square(size)
    if n_identities < N_FOLDS:
        raise ValueError(f"need at least {N_FOLDS} identities, got {n_identities}")
    pairs = []
    for ident in range(n_identities):
        identity = SyntheticIdentity.sample(ident, seed)
        nuis_b = Nuisance.sample(ident, seed, salt=0, size=side)
        nuis_a = Nuisance.sample(ident, seed, salt=1, size=side)
        clean_b, _ = render_regions(identity, nuis_b, size)
        clean_a, masks_a = render_regions(identity, nuis_a, size)
        makeup = apply_makeup(clean_a, masks_a, MakeupParams.sample(ident, seed))
        pairs.append(ImagePair(I_A=Tensor(makeup), I_B=Tensor(clean_b), y=ident))
    return pairs, FoldSplit.build(range(n_identities), seed)


def render_variations(n_identities, per_identity, seed, size=(IMAGE_SIZE, IMAGE_SIZE)):
    """Clean renderings with varied nuisance, for extractor pretraining."""
    side = _square(size)
    images, labels = [], []
    for ident in range(n_identities):
        identity = SyntheticIdentity.sample(ident, seed)
        for v in range(per_identity):
            nuis = Nuisance.sample(ident, seed, salt=_SALT_VARIATIONS + v, size=side)
            images.append(render_regions(identity, nuis, size)[0])
            labels.append(ident)
    return np.stack(images), np.asarray(labels)


# -- on-disk layout: pairs/<id>_A.ppm, pairs/<id>_B.ppm, folds.csv, manifest.csv


class DatasetError(ValueError):
    """Raised when a saved dataset's manifest, fold table or image is malformed."""


def save_dataset(root, pairs, folds: FoldSplit, seed, size):
    side = _square(size)
    root = Path(root)
    (root / "pairs").mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        ppm.write_image(root / "pairs" / f"{pair.y:05d}_A.ppm", pair.I_A)
        ppm.write_image(root / "pairs" / f"{pair.y:05d}_B.ppm", pair.I_B)
    with open(root / "folds.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "fold"])
        for ident in sorted(folds.assignments):
            writer.writerow([ident, folds.assignments[ident]])
    with open(root / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        writer.writerow(["seed", seed])
        writer.writerow(["size", side])
        writer.writerow(["n_identities", len(pairs)])
        writer.writerow(["n_folds", N_FOLDS])


def _read_table(path, header):
    """(line number, row) for each data row of a two-column CSV headed ``header``."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [(lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path.name}: not a readable CSV ({exc})") from None
    if not rows or rows[0][1] != header:
        got = ",".join(rows[0][1]) if rows else "an empty file"
        raise DatasetError(f"{path.name}: expected header {','.join(header)}, got {got}")
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise DatasetError(f"{path.name} line {lineno}: expected 2 fields, got {len(row)}")
    return rows[1:]


def _int(text, where):
    try:
        return int(text)
    except ValueError:
        raise DatasetError(f"{where}: {text!r} is not an integer") from None


def load_dataset(root):
    """Read what save_dataset wrote; raises DatasetError on a malformed table,
    a manifest n_folds other than N_FOLDS, a fold table whose ids are not
    0 .. n_identities-1, or an image whose size is not the manifest's."""
    root = Path(root)
    manifest = dict(row for _, row in _read_table(root / "manifest.csv", ["key", "value"]))
    n_folds = _int(manifest.get("n_folds", N_FOLDS), "manifest.csv n_folds")
    if n_folds != N_FOLDS:
        raise DatasetError(f"manifest.csv: n_folds is {n_folds}, not N_FOLDS = {N_FOLDS}")
    size = _int(manifest.get("size", ""), "manifest.csv size")
    n_identities = _int(manifest.get("n_identities", ""), "manifest.csv n_identities")
    assignments = {}
    for lineno, (ident, fold) in _read_table(root / "folds.csv", ["id", "fold"]):
        where = f"folds.csv line {lineno}"
        ident, fold = _int(ident, f"{where} id"), _int(fold, f"{where} fold")
        if ident in assignments:
            raise DatasetError(f"{where}: duplicate id {ident}")
        if not 0 <= ident < n_identities:
            raise DatasetError(f"{where}: id {ident} outside [0, {n_identities})")
        if not 0 <= fold < N_FOLDS:
            raise DatasetError(f"{where}: fold {fold} outside [0, {N_FOLDS})")
        assignments[ident] = fold
    if len(assignments) != n_identities:
        raise DatasetError(f"folds.csv: {len(assignments)} identities, "
                           f"manifest n_identities is {n_identities}")
    folds = FoldSplit(assignments)
    pairs = []
    for ident in sorted(assignments):
        i_a, i_b = (_read_pair_image(root, ident, side, size) for side in "AB")
        pairs.append(ImagePair(I_A=Tensor(i_a), I_B=Tensor(i_b), y=ident))
    return pairs, folds, manifest


def _read_pair_image(root, ident, side, size):
    name = f"{ident:05d}_{side}.ppm"
    image = ppm.read_image(root / "pairs" / name)
    if image.shape != (3, size, size):
        raise DatasetError(f"pairs/{name}: image {image.shape[2]}x{image.shape[1]}, "
                           f"manifest size is {size}")
    return image
