"""Procedural paired-face data: identity-conditioned renderings, a
parametric makeup operator, fold splitting and the dataset file, which is
one ``networks`` checkpoint container (see ``save_dataset``). Writer and
reader apply one check, ``_check_dataset``, and raise ``DatasetError``.

Faces are composed of smooth analytic masks (ellipses in canonical [0,1]^2
coordinates) so renderings are deterministic, differentiable-looking and
cheap. An identity is one uniform draw per range of two ordered tables:
``_TONES``, the per-channel ranges of its four RGB tones, and ``_SHAPE``, the
range of each geometry parameter (see ``SyntheticIdentity``). Faces are
left-right symmetric: each paired feature (eyes, eye surrounds, brows) is one
shape evaluated at |x|. A pair consists of a clean rendering (the ground
truth) and a second rendering of the same identity under slightly different
nuisance with the makeup operator applied (the probe).
Makeup covers four effects: lip tint, eye-region darkening, brow thickening
and skin smoothing (plus a foundation tone shift).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import networks
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


def _rng(seed, *salts):
    """The generator of one stream: a seed in [0, 2**32), then the salts that pick the stream."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=[networks._as_u32(seed, "seed"), *(networks._as_int(s, "seed") for s in salts)]))


# A synthetic person is one draw per range below, in table order: the three
# channels of each RGB tone in [-1, 1], then each geometry parameter in
# canonical units. The order is the draw order, so it fixes every image.
_TONES = {
    "skin_tone": ((0.25, 0.75), (0.05, 0.45), (-0.15, 0.25)),
    "hair_tone": ((-0.9, 0.3), (-0.9, 0.1), (-0.9, 0.0)),
    "lip_tone": ((0.1, 0.5), (-0.5, -0.1), (-0.5, -0.1)),
    "eye_tone": ((-0.9, -0.3), (-0.9, -0.2), (-0.7, 0.3)),
}
_SHAPE = {
    "face_rx": (0.26, 0.34),
    "face_ry": (0.36, 0.44),
    "eye_spacing": (0.10, 0.16),  # half-distance between eye centers
    "eye_y": (-0.13, -0.07),
    "eye_rx": (0.035, 0.055),
    "eye_ry": (0.022, 0.038),
    "brow_y": (-0.20, -0.15),
    "brow_ry": (0.008, 0.016),
    "brow_rx": (0.06, 0.09),
    "mouth_y": (0.18, 0.26),
    "lip_rx": (0.07, 0.13),
    "lip_ry": (0.03, 0.05),
    "nose_len": (0.07, 0.13),
}


class SyntheticIdentity(namedtuple("SyntheticIdentity", [*_TONES, *_SHAPE])):
    """Geometry and coloring of one synthetic person: a float32 RGB array per
    ``_TONES`` entry, then a float per ``_SHAPE`` entry."""

    __slots__ = ()

    @classmethod
    def sample(cls, ident, seed):
        rng = _rng(seed, _SALT_IDENTITY, ident)
        tones = [np.array([rng.uniform(*r) for r in rgb], np.float32) for rgb in _TONES.values()]
        return cls(*tones, *(float(rng.uniform(*r)) for r in _SHAPE.values()))


@dataclass
class Nuisance:
    """Small uncontrolled-acquisition effects: jitter and occlusion."""

    dx: float = 0.0          # canonical units (1.0 = image width)
    dy: float = 0.0
    rot_deg: float = 0.0
    occlusion: tuple | None = None  # (cx, cy, half_w, half_h, gray)

    @classmethod
    def sample(cls, ident, seed, salt, size):
        """The nuisance of one rendering of a face of side ``size`` pixels."""
        networks._require_at_least(size, 1, "Nuisance.sample: image side")
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

    def __post_init__(self):
        for name in ("eye_darken", "brow_radius_px", "skin_sigma_px"):
            networks._require_nonnegative(getattr(self, name), f"makeup {name}")
        for name in ("lip_tint", "foundation"):  # stored as the float32 array apply_makeup indexes
            value = getattr(self, name)
            try:
                rgb = np.asarray(value, dtype=np.float32)
            except (TypeError, ValueError):
                raise TypeError(f"makeup {name}: {value!r} is not 3 real numbers") from None
            if rgb.shape != (3,) or not np.isfinite(rgb).all():
                raise ValueError(f"makeup {name} must be 3 finite values, not {value!r}")
            setattr(self, name, rgb)

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
    """Soft float32 cosmetic-region masks; tails below 1e-3 are cut to exact 0
    once, in ``_soft``, so the makeup operator is provably local."""

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

    The colors are the identity's ``_TONES`` entries and the ellipses are set
    by its ``_SHAPE`` entries. Nuisance is applied by evaluating all masks in
    jittered/rotated coordinates, so no resampling artifacts enter the image.
    ``size`` is (s, s) with s >= 1; any other is refused before a pixel is drawn.
    """
    h = w = networks._square(size, lengths=(2,))
    networks._require_at_least(h, 1, "render_regions: image side")
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
    # at |x| the nearer of two mirror-image ellipses sets the mask, as their maximum would
    ax, s = np.abs(xx), ident.eye_spacing
    eyes = _soft(_ellipse(ax, yy, s, ident.eye_y, ident.eye_rx, ident.eye_ry))
    eye_surround = _soft(_ellipse(ax, yy, s, ident.eye_y, ident.eye_rx * 2.0, ident.eye_ry * 2.6))
    brows = _soft(_ellipse(ax, yy, s, ident.brow_y, ident.brow_rx, ident.brow_ry))
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
    eye_region = eye_surround * (brows == 0) * (lips == 0)
    features = (eyes > 0) | (eye_region > 0) | (brows > 0) | (lips > 0) | (nose > 0)
    skin = face * ~features
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
    """The fold of each identity: ``assignments[i]`` is identity i's, as the
    dataset file's ``folds`` entry holds them, so no identity straddles folds."""

    assignments: list

    @classmethod
    def build(cls, n, seed):
        """n >= N_FOLDS identities dealt to the folds in turn, in a seeded order:
        the identity order[i] gets fold i % N_FOLDS, so no fold is empty."""
        networks._require_at_least(n, N_FOLDS, "FoldSplit.build: n")
        order = _rng(seed, _SALT_FOLDS).permutation(n)
        return cls((np.argsort(order) % N_FOLDS).tolist())

    def _ids(self, fold, held_out):
        fold = networks._as_int(fold, "fold")
        if not 0 <= fold < N_FOLDS:
            raise ValueError(f"fold {fold} outside [0, {N_FOLDS})")
        return [i for i, f in enumerate(self.assignments) if (f == fold) == held_out]

    def test_ids(self, fold):
        return self._ids(fold, True)

    def train_ids(self, fold):
        return self._ids(fold, False)


def make_dataset(n_identities, seed, size=(IMAGE_SIZE, IMAGE_SIZE)):
    """One (makeup, clean) pair per identity plus the fold split.

    A pair is one face rendered twice and is not pixel-aligned: I_B draws
    its own shift, rotation and chance of an occluder (``Nuisance``), apart
    from I_A's.
    """
    side = networks._square(size)
    networks._require_at_least(side, 1, "make_dataset: image side")
    networks._require_at_least(n_identities, N_FOLDS, "make_dataset: n_identities")
    pairs = []
    for ident in range(n_identities):
        identity = SyntheticIdentity.sample(ident, seed)
        nuis_b = Nuisance.sample(ident, seed, salt=0, size=side)
        nuis_a = Nuisance.sample(ident, seed, salt=1, size=side)
        clean_b, _ = render_regions(identity, nuis_b, (side, side))
        clean_a, masks_a = render_regions(identity, nuis_a, (side, side))
        makeup = apply_makeup(clean_a, masks_a, MakeupParams.sample(ident, seed))
        pairs.append(ImagePair(I_A=Tensor(makeup), I_B=Tensor(clean_b), y=ident))
    return pairs, FoldSplit.build(n_identities, seed)


def render_variations(n_identities, per_identity, seed, size=(IMAGE_SIZE, IMAGE_SIZE)):
    """Clean renderings with varied nuisance, for extractor pretraining."""
    side = networks._square(size)
    for name, value in (("image side", side), ("n_identities", n_identities),
                        ("per_identity", per_identity)):
        networks._require_at_least(value, 1, f"render_variations: {name}")
    images, labels = [], []
    for ident in range(n_identities):
        identity = SyntheticIdentity.sample(ident, seed)
        for v in range(per_identity):
            nuis = Nuisance.sample(ident, seed, salt=_SALT_VARIATIONS + v, size=side)
            images.append(render_regions(identity, nuis, (side, side))[0])
            labels.append(ident)
    return np.stack(images), np.asarray(labels)


# -- on-disk layout, whose rules _check_dataset holds: one networks checkpoint
#    container whose entries are meta (seed, side) and folds (FoldSplit.assignments:
#    the fold of identity i at index i), both as u32 words (networks.pack_ints), and
#    I_A and I_B, the (N, 3, side, side) float32 stacks of probes and clean images in
#    id order.

class DatasetError(ValueError):
    """Raised when pairs or a valid container do not form a well-formed dataset."""


def _check_dataset(path, side, fold_of, images):
    """The one dataset check: the side, each identity's fold and the flat I_A, I_B values."""
    n = len(fold_of)
    if side < 1 or not n:
        raise DatasetError(f"{path}: {n} identities of side {side}, need >= 1 of side >= 1")
    for f in fold_of:
        if not 0 <= f < N_FOLDS:
            raise DatasetError(f"{path}: fold {f} outside [0, {N_FOLDS})")
    for name, values in images.items():
        if values.size != n * 3 * side * side:
            raise DatasetError(f"{path}: {name} holds {values.size} values, "
                               f"not {n} images of 3x{side}x{side}")
        if not networks._in_pixel_range(values):
            raise DatasetError(f"{path}: {name} has a pixel that is not a finite value in [-1, 1]")


def save_dataset(path, pairs, folds: FoldSplit, seed, size):
    """Write the pairs, folds, seed and side to one file at ``path``, or raise
    DatasetError, writing nothing, for what ``_check_dataset`` refuses, for pair
    ids other than 0 .. N-1 in order (an id is its index), a fold count other
    than the pair count or an image not 3 x side x side."""
    side = networks._square(size)
    n, fold_of = len(pairs), folds.assignments
    if [p.y for p in pairs] != list(range(n)) or len(fold_of) != n:
        raise DatasetError(f"{path}: pair ids must be 0 .. N-1, in order, with one fold per pair")
    # flat, as the reader sees them: no pairs, or pairs of another side, reach the check
    images = {name: np.concatenate([getattr(p, name).data.reshape(-1) for p in pairs]
                                   or [np.empty(0)], dtype="<f4") for name in ("I_A", "I_B")}
    _check_dataset(path, side, fold_of, images)
    for p in pairs:
        if {p.I_A.shape, p.I_B.shape} != {(3, side, side)}:
            raise DatasetError(f"{path}: pair {p.y} has an image that is not 3x{side}x{side}")
    networks.write_checkpoint(path, [
        ("meta", networks.pack_ints([seed, side])),
        ("folds", networks.pack_ints(fold_of)),
        *images.items(),
    ])


def load_dataset(path):
    """Read what save_dataset wrote: (pairs, folds, {"seed": seed, "size": side}),
    the folds a FoldSplit of the file's list. Bytes that are not a valid container
    raise networks.CheckpointError; other entries, a meta not of two values or a
    failed ``_check_dataset`` raise DatasetError."""
    entries = networks.read_checkpoint(path)
    if sorted(entries) != ["I_A", "I_B", "folds", "meta"]:
        raise DatasetError(f"{path}: entries {list(entries)}, expected meta, folds, I_A and I_B")
    meta = networks.unpack_ints(entries["meta"])
    if meta.size != 2:
        raise DatasetError(f"{path}: meta holds {meta.size} values, expected 2 (seed, side)")
    seed, side = (int(v) for v in meta)
    fold_of = networks.unpack_ints(entries["folds"])
    _check_dataset(path, side, fold_of, {name: entries[name] for name in ("I_A", "I_B")})
    i_a, i_b = (entries[name].reshape(-1, 3, side, side) for name in ("I_A", "I_B"))
    pairs = [ImagePair(I_A=Tensor(i_a[i]), I_B=Tensor(i_b[i]), y=i) for i in range(len(i_a))]
    return pairs, FoldSplit(fold_of.tolist()), {"seed": seed, "size": side}
