"""Procedural data: the makeup operator's identity and locality, fold
disjointness, the extractor-pretraining variations, the dataset file's
round trip and its errors on malformed files."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_networks import BYTE_EDITS, mutate

from blan import networks, synth
from blan.synth import FoldSplit, MakeupParams, Nuisance, SyntheticIdentity

SIZE = 32


def render(ident, seed=0):
    identity = SyntheticIdentity.sample(ident, seed)
    return synth.render_regions(identity, Nuisance.sample(ident, seed, salt=0, size=SIZE),
                                (SIZE, SIZE))


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


class TestFoldSplit:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(n=st.integers(5, 60), seed=st.integers(0, 2**32 - 1))
    def test_every_identity_in_exactly_one_fold(self, n, seed):
        ids = list(range(100, 100 + n))
        n_folds = synth.N_FOLDS
        split = FoldSplit.build(ids, seed)
        test_sets = [split.test_ids(f) for f in range(n_folds)]
        assert sorted(i for s in test_sets for i in s) == ids
        for f, test in enumerate(test_sets):
            assert not set(test) & set(split.train_ids(f))
            assert sorted(test + split.train_ids(f)) == ids
            assert len(test) in (n // n_folds, -(-n // n_folds))  # balanced

    def test_deterministic_in_seed(self):
        a = FoldSplit.build(range(20), seed=3)
        assert a.assignments == FoldSplit.build(range(20), seed=3).assignments

    def test_too_few_identities_rejected(self):
        with pytest.raises(ValueError, match="at least"):
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

    def test_ids_other_than_indices_rejected(self, tmp_path):
        # the file stores a pair's id as its index, so a subset would be relabelled
        pairs, folds = synth.make_dataset(6, seed=1, size=(16, 16))
        with pytest.raises(ValueError, match="ids must both be 0 .. N-1"):
            synth.save_dataset(tmp_path / "ds", pairs[1:], folds, seed=1, size=(16, 16))
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
        assert sorted(folds.assignments) == [p.y for p in loaded] == list(range(len(loaded)))
        for p in loaded:
            for image in (p.I_A.data, p.I_B.data):
                assert image.shape == (3, side, side) and np.abs(image).max() <= 1.0
