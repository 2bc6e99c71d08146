"""Procedural data: the identity draws, the makeup operator's identity and
locality, the faces' mirror symmetry, fold disjointness and range, the
extractor-pretraining variations, the image side, the dataset file's round
trip, the writer's refusals and the reader's errors on malformed files."""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_networks import BYTE_EDITS, mutate

from blan import losses, networks, synth
from blan.engine import Tensor
from blan.synth import FoldSplit, ImagePair, MakeupParams, Nuisance, SyntheticIdentity

SIZE = 32


def render(ident, seed=0):
    identity = SyntheticIdentity.sample(ident, seed)
    return synth.render_regions(identity, Nuisance.sample(ident, seed, salt=0, size=SIZE),
                                (SIZE, SIZE))


def reference_identity(ident, seed):
    """The draws of an identity written out: one uniform per value, the four
    tones channel by channel, then the geometry; the bytes of every dataset
    rest on this order."""
    rng = synth._rng(seed, synth._SALT_IDENTITY, ident)
    u = lambda lo, hi: float(rng.uniform(lo, hi))
    rgb = lambda *ranges: np.array([u(*r) for r in ranges], dtype=np.float32)
    return {
        "skin_tone": rgb((0.25, 0.75), (0.05, 0.45), (-0.15, 0.25)),
        "hair_tone": rgb((-0.9, 0.3), (-0.9, 0.1), (-0.9, 0.0)),
        "lip_tone": rgb((0.1, 0.5), (-0.5, -0.1), (-0.5, -0.1)),
        "eye_tone": rgb((-0.9, -0.3), (-0.9, -0.2), (-0.7, 0.3)),
        "face_rx": u(0.26, 0.34),
        "face_ry": u(0.36, 0.44),
        "eye_spacing": u(0.10, 0.16),
        "eye_y": u(-0.13, -0.07),
        "eye_rx": u(0.035, 0.055),
        "eye_ry": u(0.022, 0.038),
        "brow_y": u(-0.20, -0.15),
        "brow_ry": u(0.008, 0.016),
        "brow_rx": u(0.06, 0.09),
        "mouth_y": u(0.18, 0.26),
        "lip_rx": u(0.07, 0.13),
        "lip_ry": u(0.03, 0.05),
        "nose_len": u(0.07, 0.13),
    }


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
@pytest.mark.parametrize("ident", [0, 1, 4, 79])
def test_identity_draws_are_the_reference(ident, seed):
    """Uniform draws are exact on every CPU, so the values must be equal, not close."""
    got, want = SyntheticIdentity.sample(ident, seed), reference_identity(ident, seed)
    assert got._fields == tuple(want)
    for name, value in want.items():
        drawn = getattr(got, name)
        assert type(drawn) is type(value), name
        if isinstance(value, np.ndarray):
            assert drawn.dtype == np.float32 and drawn.tobytes() == value.tobytes(), name
        else:
            assert drawn == value, name


class TestMakeupOperator:
    @pytest.mark.parametrize("ident", [0, 1, 2])
    def test_all_zero_params_is_identity(self, ident):
        img, masks = render(ident)
        out = synth.apply_makeup(img, masks, MakeupParams())
        np.testing.assert_array_equal(out, img)

    @pytest.mark.parametrize("ident", [0, 1, 2, 3])
    def test_pixels_outside_footprint_untouched(self, ident):
        img, masks = render(ident)
        params = MakeupParams.sample(ident, seed=0)
        out = synth.apply_makeup(img, masks, params)
        outside = ~synth.makeup_footprint(masks, params)
        assert outside.any() and not outside.all()
        np.testing.assert_array_equal(out[:, outside], img[:, outside])
        assert np.abs(out - img).max() > 0.0  # the makeup did something


class TestMakeupParams:
    def test_defaults_and_samples_build(self):
        MakeupParams()
        MakeupParams.default()
        for ident in range(8):
            MakeupParams.sample(ident, seed=1)

    def test_a_tint_given_as_a_list_is_applied(self):
        img, masks = render(0)
        params = MakeupParams(lip_tint=[0.45, -0.25, -0.10], foundation=(0.16, 0.10, 0.06))
        assert params.lip_tint.dtype == params.foundation.dtype == np.float32
        default = MakeupParams.default()
        want = MakeupParams(lip_tint=default.lip_tint, foundation=default.foundation)
        np.testing.assert_array_equal(synth.apply_makeup(img, masks, params),
                                      synth.apply_makeup(img, masks, want))

    @pytest.mark.parametrize("name,value,error", [
        ("eye_darken", float("nan"), ValueError),
        ("eye_darken", -0.1, ValueError),
        ("eye_darken", True, TypeError),
        ("brow_radius_px", -1.0, ValueError),
        ("brow_radius_px", float("nan"), ValueError),
        ("brow_radius_px", "2", TypeError),
        ("skin_sigma_px", float("inf"), ValueError),
        ("skin_sigma_px", -1.0, ValueError),
        ("skin_sigma_px", None, TypeError),
        ("lip_tint", np.array([0.1, np.nan, 0.0], np.float32), ValueError),
        ("lip_tint", np.zeros(4, np.float32), ValueError),
        ("lip_tint", ["red", "green", "blue"], TypeError),
        ("foundation", np.array([np.inf, 0.0, 0.0]), ValueError),
        ("foundation", 0.1, ValueError),
        ("foundation", object(), TypeError),
    ])
    def test_a_bad_strength_is_refused_by_name(self, name, value, error):
        """Refused at construction, not later as numpy's bare error or NaN pixels."""
        with pytest.raises(error, match=f"makeup {name}"):
            MakeupParams(**{name: value})


class TestMirrorSymmetry:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_ellipse_at_abs_x_is_the_mirrored_pair(self, seed):
        """The two-ellipse form is the reference for each paired feature's mask."""
        rng = np.random.default_rng(seed)
        x = rng.uniform(-0.5, 0.5, (50, 60))
        x[:, :2] = [0.0, -0.0]
        y = rng.uniform(-0.5, 0.5, x.shape)
        s, cy = rng.uniform(0.0, 0.2), rng.uniform(-0.2, 0.2)
        rx, ry = rng.uniform(0.02, 0.3, 2)
        one = synth._soft(synth._ellipse(np.abs(x), y, s, cy, rx, ry))
        pair = np.maximum(*(synth._soft(synth._ellipse(x, y, c, cy, rx, ry)) for c in (-s, s)))
        assert one.dtype == pair.dtype == np.float32
        assert np.array_equal(one, pair)
        assert ((one > 0) & (one < 1)).any()  # the soft edge is covered, not only 0 and 1

    @pytest.mark.parametrize("size", [16, 64])
    @pytest.mark.parametrize("ident", [0, 1, 2])
    def test_face_without_nuisance_is_mirror_symmetric(self, size, ident):
        img, masks = synth.render_regions(SyntheticIdentity.sample(ident, seed=3), Nuisance(),
                                          (size, size))
        for a in (img, masks.lips, masks.eyes, masks.brows, masks.skin):
            np.testing.assert_array_equal(a, a[..., ::-1])
        made_up = synth.apply_makeup(img, masks, MakeupParams.default())
        assert losses.loss_sym(made_up).item() == 0.0
        # the probe of a pair has nuisance applied, so it is not symmetric
        pairs, _ = synth.make_dataset(synth.N_FOLDS, seed=3, size=(size, size))
        assert losses.loss_sym(pairs[ident].I_A).item() > 0.0


class TestFoldSplit:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n=st.integers(5, 60), seed=st.integers(0, 2**32 - 1))
    def test_every_identity_in_exactly_one_fold(self, n, seed):
        ids = list(range(n))
        n_folds = synth.N_FOLDS
        split = FoldSplit.build(n, seed)
        test_sets = [split.test_ids(f) for f in range(n_folds)]
        assert sorted(i for s in test_sets for i in s) == ids
        for f, test in enumerate(test_sets):
            assert not set(test) & set(split.train_ids(f))
            assert sorted(test + split.train_ids(f)) == ids
            assert len(test) in (n // n_folds, -(-n // n_folds))  # balanced

    def test_deterministic_in_seed(self):
        a = FoldSplit.build(20, seed=3)
        assert a.assignments == FoldSplit.build(20, seed=3).assignments

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1])
    @pytest.mark.parametrize("n", [5, 6, 11, 40, 80])
    def test_identity_order_i_gets_fold_i_mod_n_folds(self, n, seed):
        """The list form of the rule the files written so far were built by."""
        order = synth._rng(seed, synth._SALT_FOLDS).permutation(n)
        rule = {int(j): i % synth.N_FOLDS for i, j in enumerate(order)}
        assert FoldSplit.build(n, seed).assignments == [rule[i] for i in range(n)]

    @pytest.mark.parametrize("n", [synth.N_FOLDS - 1, 0, -1])
    def test_fewer_identities_than_folds_rejected(self, n):
        """A fold with no identity would enter a per-fold average as an empty test set."""
        with pytest.raises(ValueError, match=re.escape(f"FoldSplit.build: n must be >= {synth.N_FOLDS}, got {n}")):
            FoldSplit.build(n, seed=0)

    @pytest.mark.parametrize("n", [2.5, 10.0, "10"])
    def test_identity_count_not_an_integer_rejected(self, n):
        with pytest.raises(TypeError, match=re.escape(f"FoldSplit.build: n: {n!r} is not an integer")):
            FoldSplit.build(n, seed=0)

    @pytest.mark.parametrize("fold", [synth.N_FOLDS, -1])
    def test_fold_out_of_range_rejected(self, fold):
        """A mistyped held-out fold must not train on every identity and test on none."""
        split = FoldSplit.build(20, seed=3)
        for ids in (split.test_ids, split.train_ids):
            with pytest.raises(ValueError, match=f"fold {fold} outside"):
                ids(fold)

    @pytest.mark.parametrize("fold", [1.5, "1", 1.0])
    def test_fold_not_an_integer_rejected(self, fold):
        """1.5 would test on no identity and train on every one."""
        split = FoldSplit.build(10, seed=1)
        for ids in (split.test_ids, split.train_ids):
            with pytest.raises(TypeError, match=re.escape(f"fold: {fold!r} is not an integer")):
                ids(fold)

    def test_numpy_integer_fold_passes(self):
        split = FoldSplit.build(10, seed=1)
        assert split.test_ids(np.int64(1)) == split.test_ids(1)
        assert split.train_ids(np.uint8(1)) == split.train_ids(1)

    def test_too_few_identities_rejected(self):
        with pytest.raises(ValueError, match="make_dataset: n_identities must be >= 5, got 4"):
            synth.make_dataset(synth.N_FOLDS - 1, seed=0, size=(SIZE, SIZE))


class TestRenderVariations:
    def test_shape_labels_and_range(self):
        images, labels = synth.render_variations(3, 2, seed=5, size=(SIZE, SIZE))
        assert images.shape == (6, 3, SIZE, SIZE) and images.dtype == np.float32
        assert images.min() >= -1.0 and images.max() <= 1.0
        np.testing.assert_array_equal(labels, np.repeat(np.arange(3), 2))

    def test_same_seed_same_bytes_and_variations_differ(self):
        first, _ = synth.render_variations(2, 2, seed=5, size=(SIZE, SIZE))
        again, _ = synth.render_variations(2, 2, seed=5, size=(SIZE, SIZE))
        assert first.tobytes() == again.tobytes()
        assert not np.array_equal(first[0], first[1])  # two variations of identity 0

    @pytest.mark.parametrize("size", [(16, 32), (32, 16)])
    def test_non_square_size_rejected(self, size):
        """One shift bound scaled by one side: a wider axis would exceed MAX_SHIFT_PX."""
        with pytest.raises(ValueError, match="square"):
            synth.render_variations(1, 1, seed=5, size=size)

    @pytest.mark.parametrize("n_identities,per_identity,name", [
        (0, 2, "n_identities"), (2, 0, "per_identity"), (-1, 2, "n_identities"),
    ], ids=["no-identities", "no-variations", "negative"])
    def test_empty_request_names_the_argument(self, n_identities, per_identity, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            synth.render_variations(n_identities, per_identity, seed=1, size=(SIZE, SIZE))


@pytest.mark.parametrize("side", [0, -4])
@pytest.mark.parametrize("build", [
    lambda size: synth.make_dataset(synth.N_FOLDS, 1, size),
    lambda size: synth.render_variations(2, 2, 1, size),
], ids=["make_dataset", "render_variations"])
def test_side_below_1_rejected_before_rendering(monkeypatch, build, side):
    monkeypatch.setattr(synth, "render_regions", None)  # a render would raise TypeError
    with pytest.raises(ValueError, match=f"image side must be >= 1, got {side}"):
        build((side, side))


def fail_if_called(*args, **kwargs):
    raise AssertionError("called after a size it should have refused")


@pytest.mark.parametrize("size,error,match", [
    ((16, 16, 3), ValueError, r"\(16, 16, 3\) must be square, of the form \(s, s\)"),
    ((16, 8), ValueError, r"\(16, 8\) must be square"),
    ((0, 0), ValueError, "render_regions: image side must be >= 1, got 0"),
    ((16.0, 16.0), TypeError, "image size: 16.0 is not an integer"),
], ids=["with-channels", "non-square", "side-0", "float"])
def test_render_regions_refuses_a_size_before_rendering(monkeypatch, size, error, match):
    monkeypatch.setattr(synth, "_ellipse", fail_if_called)
    with pytest.raises(error, match=match):
        synth.render_regions(SyntheticIdentity.sample(0, 1), Nuisance(), size)


@pytest.mark.parametrize("side,error,match", [
    (0, ValueError, "image side must be >= 1, got 0"),
    (-4, ValueError, "image side must be >= 1, got -4"),
    (2.5, TypeError, "image side: 2.5 is not an integer"),
])
def test_nuisance_refuses_a_side_before_drawing(monkeypatch, side, error, match):
    monkeypatch.setattr(synth, "_rng", fail_if_called)
    with pytest.raises(error, match=f"Nuisance.sample: {match}"):
        Nuisance.sample(0, 1, 0, side)


def reshaped(pairs, shape):
    """The pairs with the first values of each image taken as an array of ``shape``."""
    cut = lambda image: Tensor(image.data.reshape(-1)[:int(np.prod(shape))].reshape(shape))
    return [ImagePair(I_A=cut(p.I_A), I_B=cut(p.I_B), y=p.y) for p in pairs]


def entries_of(pairs, folds, seed, side):
    """The entries save_dataset would write for these pairs, unchecked."""
    flat = lambda name: np.concatenate([getattr(p, name).data.reshape(-1) for p in pairs]
                                       or [np.empty(0, np.float32)])
    return [("meta", networks.pack_ints([seed, side])),
            ("folds", networks.pack_ints(folds.assignments)),
            ("I_A", flat("I_A")), ("I_B", flat("I_B"))]


class TestDatasetOnDisk:
    def test_save_load_round_trip(self, tmp_path):
        pairs, folds = synth.make_dataset(6, seed=4, size=(SIZE, SIZE))
        path = tmp_path / "new" / "ds"  # the directory is created
        synth.save_dataset(path, pairs, folds, seed=4, size=(SIZE, SIZE))
        loaded, loaded_folds, manifest = synth.load_dataset(path)
        assert loaded_folds.assignments == folds.assignments
        assert manifest == {"seed": 4, "size": SIZE}
        assert [p.y for p in loaded] == list(range(6))
        for orig, back in zip(pairs, loaded):
            for a, b in ((orig.I_A, back.I_A), (orig.I_B, back.I_B)):
                assert b.shape == (3, SIZE, SIZE) and b.data.dtype == np.float32
                assert b.data.tobytes() == a.data.tobytes()

    def test_non_square_size_rejected_before_anything_is_written(self, tmp_path):
        # the file records one side, so load_dataset would refuse the result
        with pytest.raises(ValueError, match="square"):
            synth.make_dataset(5, seed=1, size=(32, 16))
        pairs, folds = synth.make_dataset(5, seed=1, size=(16, 16))
        with pytest.raises(ValueError, match="square"):
            synth.save_dataset(tmp_path / "ds", pairs, folds, seed=1, size=(16, 32))
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_outside_u32_rejected_before_anything_is_written(self, tmp_path, seed):
        # SeedSequence takes such a seed, the file's u32 meta word cannot
        pairs, folds = synth.make_dataset(5, seed=1, size=(16, 16))
        with pytest.raises(ValueError, match=f"{seed} is outside"):
            synth.save_dataset(tmp_path / "ds", pairs, folds, seed=seed, size=(16, 16))
        assert list(tmp_path.iterdir()) == []

    # the file stores a pair's id as its index, so a subset would be relabelled,
    # and one fold per pair, so a fold list of another length has no place in it
    @pytest.mark.parametrize("cut", [slice(1, None), slice(None, 5)], ids=["ids", "folds"])
    def test_ids_other_than_indices_or_folds_other_than_pairs_rejected(self, tmp_path, cut):
        pairs, folds = synth.make_dataset(6, seed=1, size=(16, 16))
        with pytest.raises(synth.DatasetError,
                           match="pair ids must be 0 .. N-1, in order, with one fold per pair"):
            synth.save_dataset(tmp_path / "ds", pairs[cut], folds, seed=1, size=(16, 16))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.0001, -1.5],
                             ids=["nan", "inf", "-inf", "above", "below"])
    def test_pixel_not_finite_in_unit_range_rejected_before_anything_is_written(
            self, tmp_path, value):
        # load_dataset refuses such a pixel, so writing it must fail first
        pairs, folds = synth.make_dataset(5, seed=1, size=(16, 16))
        pairs[3].I_B.data[1, 2, 3] = value
        with pytest.raises(ValueError, match="I_B has a pixel that is not a finite value"):
            synth.save_dataset(tmp_path / "ds", pairs, folds, seed=1, size=(16, 16))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("change,match,reader_refuses", [
        pytest.param(lambda pairs, folds: (pairs, folds, (32, 32)),
                     r"I_A holds 3840 values, not 5 images of 3x32x32", True, id="other-side"),
        # the file cannot record a shape: the reader sees these values as 3x16x16 images
        pytest.param(lambda pairs, folds: (reshaped(pairs, (3, 8, 32)), folds, (16, 16)),
                     r"pair 0 has an image that is not 3x16x16", False,
                     id="other-shape"),
        pytest.param(lambda pairs, folds: (pairs, FoldSplit([7] * 5), (16, 16)),
                     r"fold 7 outside \[0, 5\)", True, id="fold-out-of-range"),
        pytest.param(lambda pairs, folds: ([], FoldSplit([]), (16, 16)),
                     "0 identities of side 16, need >= 1", True, id="no-pairs"),
        pytest.param(lambda pairs, folds: (reshaped(pairs, (3, 0, 0)), folds, (0, 0)),
                     "5 identities of side 0, need >= 1 of side >= 1", True, id="side-0"),
    ])
    def test_refused_with_dataset_error_before_anything_is_written(self, tmp_path, change, match,
                                                                   reader_refuses):
        pairs, folds, size = change(*synth.make_dataset(5, seed=1, size=(16, 16)))
        path = tmp_path / "ds"
        with pytest.raises(synth.DatasetError, match=match) as refused:
            synth.save_dataset(path, pairs, folds, seed=1, size=size)
        assert list(tmp_path.iterdir()) == []
        if not reader_refuses:
            return
        # the same values, written without the check, are refused by the reader in the same words
        networks.write_checkpoint(path, entries_of(pairs, folds, 1, size[0]))
        with pytest.raises(synth.DatasetError) as read_refused:
            synth.load_dataset(path)
        assert str(read_refused.value) == str(refused.value)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), side=st.integers(1, 3), n=st.integers(5, 7))
    def test_writer_and_reader_agree(self, tmp_path, data, side, n):
        """save_dataset either refuses the pairs and writes nothing, or
        writes a file that load_dataset returns bit for bit."""
        fold_of = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n), label="folds")
        pixel = st.sampled_from([np.float32(v) for v in (-1, 1, 0.5, 1.0001, np.nan)])
        values = data.draw(arrays(np.float32, (n, 2, 3 * side * side), elements=pixel),
                           label="pixels")
        shape = data.draw(st.sampled_from([(3, side, side), (side, 3, side), (3 * side * side,)]),
                          label="shape")
        pairs = [ImagePair(I_A=Tensor(v[0].reshape(shape)), I_B=Tensor(v[1].reshape(shape)), y=i)
                 for i, v in enumerate(values)]
        folds = FoldSplit(fold_of)
        valid = (shape == (3, side, side) and max(fold_of) < synth.N_FOLDS
                 and bool(np.all(np.abs(values) <= 1.0)))
        folder = Path(tempfile.mkdtemp(dir=tmp_path))
        try:
            synth.save_dataset(folder / "ds", pairs, folds, seed=1, size=(side, side))
        except synth.DatasetError:
            assert not valid and list(folder.iterdir()) == []
            return
        assert valid
        loaded, loaded_folds, manifest = synth.load_dataset(folder / "ds")
        assert manifest == {"seed": 1, "size": side}
        assert loaded_folds.assignments == folds.assignments
        for orig, back in zip(pairs, loaded, strict=True):
            for a, b in ((orig.I_A, back.I_A), (orig.I_B, back.I_B)):
                assert b.shape == a.shape and b.data.tobytes() == a.data.tobytes()

    def test_saving_what_was_loaded_rewrites_the_same_bytes(self, tmp_path):
        pairs, folds = synth.make_dataset(5, seed=2, size=(16, 16))
        synth.save_dataset(tmp_path / "first", pairs, folds, seed=2, size=(16, 16))
        loaded, loaded_folds, manifest = synth.load_dataset(tmp_path / "first")
        side = manifest["size"]
        synth.save_dataset(tmp_path / "again", loaded, loaded_folds, manifest["seed"], (side, side))
        assert (tmp_path / "again").read_bytes() == (tmp_path / "first").read_bytes()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("dataset") / "ds"
    pairs, folds = synth.make_dataset(5, seed=1, size=(16, 16))
    synth.save_dataset(path, pairs, folds, seed=1, size=(16, 16))
    return path


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """The bytes of a 5-identity 1x1 dataset: small enough for every byte to be edited."""
    path = tmp_path_factory.mktemp("tiny") / "ds"
    pairs, folds = synth.make_dataset(5, seed=1, size=(1, 1))
    synth.save_dataset(path, pairs, folds, seed=1, size=(1, 1))
    return path.read_bytes()


def rewritten(saved, dst, **changes):
    """A copy of the saved dataset with entries replaced, added, or dropped (None)."""
    entries = {**networks.read_checkpoint(saved), **changes}
    networks.write_checkpoint(dst, [(k, v) for k, v in entries.items() if v is not None])
    return dst


class TestMalformedDataset:
    def test_well_formed_file_loads(self, saved, tmp_path):
        _pairs, folds, manifest = synth.load_dataset(rewritten(saved, tmp_path / "d"))
        assert folds.assignments == synth.make_dataset(5, seed=1, size=(16, 16))[1].assignments
        assert manifest == {"seed": 1, "size": 16}

    @pytest.mark.parametrize("blob", [
        b"key,value\nseed,1\nsize,16\n",      # the old CSV manifest
        b"P6\n16 16\n255\n" + bytes(768),     # a PPM image
        b"",
    ], ids=["csv", "ppm", "empty"])
    def test_bytes_that_are_not_a_container(self, tmp_path, blob):
        path = tmp_path / "not-a-dataset"
        path.write_bytes(blob)
        with pytest.raises(networks.CheckpointError, match="not-a-dataset: not a checkpoint"):
            synth.load_dataset(path)

    def test_truncated_file(self, saved, tmp_path):
        path = tmp_path / "cut"
        path.write_bytes(saved.read_bytes()[:-100])
        with pytest.raises(networks.CheckpointError, match="cut: CRC mismatch"):
            synth.load_dataset(path)

    @pytest.mark.parametrize("keep,match", [
        (3, "not a checkpoint"), (8, "not a checkpoint"), (12, "CRC mismatch"),
        (100, "CRC mismatch"),
    ], ids=["in-magic", "after-version", "first-word", "in-images"])
    def test_file_cut_short_near_its_start(self, saved, tmp_path, keep, match):
        path = tmp_path / "cut"
        path.write_bytes(saved.read_bytes()[:keep])
        with pytest.raises(networks.CheckpointError, match=f"cut: {match}"):
            synth.load_dataset(path)

    @pytest.mark.parametrize("changes", [
        dict(folds=None), dict(labels=np.zeros(5, dtype=np.float32)),
    ], ids=["missing", "extra"])
    def test_missing_or_extra_entry(self, saved, tmp_path, changes):
        with pytest.raises(synth.DatasetError, match="entries .*, expected meta, folds, I_A and I_B"):
            synth.load_dataset(rewritten(saved, tmp_path / "d", **changes))

    @pytest.mark.parametrize("meta", [[1], [1, 16, 5], []], ids=["one", "three", "none"])
    def test_meta_not_two_values(self, saved, tmp_path, meta):
        path = rewritten(saved, tmp_path / "d", meta=networks.pack_ints(meta))
        with pytest.raises(synth.DatasetError, match=f"meta holds {len(meta)} values, expected 2"):
            synth.load_dataset(path)

    @pytest.mark.parametrize("name,changes", [
        ("I_A", dict(I_A=np.zeros(4 * 3 * 16 * 16, dtype=np.float32))),   # one image short
        ("I_B", dict(I_B=np.zeros(5 * 3 * 16 * 8, dtype=np.float32))),    # 16x8 images
        ("I_A", dict(meta=networks.pack_ints([1, 8]))),                   # side 8, not 16
        ("I_A", dict(folds=networks.pack_ints([0, 1, 2, 3, 4, 0]))),      # six identities
    ], ids=["short", "not-square", "other-side", "more-folds"])
    def test_image_entry_of_wrong_size(self, saved, tmp_path, name, changes):
        path = rewritten(saved, tmp_path / "d", **changes)
        with pytest.raises(synth.DatasetError, match=f"{name} holds .* values, not . images of 3x"):
            synth.load_dataset(path)

    @pytest.mark.parametrize("changes,match", [
        (dict(folds=networks.pack_ints([]), I_A=np.zeros(0, np.float32),
              I_B=np.zeros(0, np.float32)), "0 identities of side 16"),
        (dict(meta=networks.pack_ints([1, 0]), I_A=np.zeros(0, np.float32),
              I_B=np.zeros(0, np.float32)), "5 identities of side 0"),
    ], ids=["no-pairs", "side-0"])
    def test_no_identities_or_side_0(self, saved, tmp_path, changes, match):
        path = rewritten(saved, tmp_path / "d", **changes)
        with pytest.raises(synth.DatasetError, match=f"{match}, need >= 1 of side >= 1"):
            synth.load_dataset(path)

    @pytest.mark.parametrize("fold", [synth.N_FOLDS, 2**32 - 1])
    def test_fold_out_of_range(self, saved, tmp_path, fold):
        path = rewritten(saved, tmp_path / "d", folds=networks.pack_ints([0, 1, fold, 3, 4]))
        with pytest.raises(synth.DatasetError, match=rf"fold {fold} outside \[0, 5\)"):
            synth.load_dataset(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.0001, -1.5],
                             ids=["nan", "inf", "-inf", "above", "below"])
    def test_pixel_not_finite_in_unit_range(self, saved, tmp_path, value):
        image = networks.read_checkpoint(saved)["I_B"]
        image[7] = value
        path = rewritten(saved, tmp_path / "d", I_B=image)
        with pytest.raises(synth.DatasetError, match=r"I_B has a pixel that is not a finite value"):
            synth.load_dataset(path)

    @pytest.mark.parametrize("value", [-1.0, 1.0])
    def test_pixel_at_either_end_of_the_range_loads_exactly(self, saved, tmp_path, value):
        image = networks.read_checkpoint(saved)["I_B"]
        image[7] = value
        pairs, _folds, _manifest = synth.load_dataset(rewritten(saved, tmp_path / "d", I_B=image))
        assert pairs[0].I_B.data.reshape(-1)[7] == value

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=BYTE_EDITS)
    def test_mutated_file_with_valid_crc_loads_or_raises_a_named_error(self, tiny, tmp_path,
                                                                       edits):
        """Byte edits after the version word of a 1x1 dataset, with the CRC
        recomputed, either load or raise DatasetError or CheckpointError."""
        path = tmp_path / "fuzz"
        path.write_bytes(tiny)
        mutate(path, edits)
        try:
            loaded, folds, manifest = synth.load_dataset(path)
        except (synth.DatasetError, networks.CheckpointError):
            return
        side = manifest["size"]
        assert [p.y for p in loaded] == list(range(len(folds.assignments)))
        for p in loaded:
            for image in (p.I_A.data, p.I_B.data):
                assert image.shape == (3, side, side) and np.abs(image).max() <= 1.0
