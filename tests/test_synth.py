"""Procedural data: the makeup operator's identity and locality, fold
disjointness, the extractor-pretraining variations, the on-disk dataset
round trip and its errors on malformed tables."""

import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blan import ppm, synth
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


class TestDatasetOnDisk:
    def test_save_load_round_trip(self, tmp_path):
        pairs, folds = synth.make_dataset(6, seed=4, size=(SIZE, SIZE))
        synth.save_dataset(tmp_path, pairs, folds, seed=4, size=(SIZE, SIZE))
        loaded, loaded_folds, manifest = synth.load_dataset(tmp_path)
        assert loaded_folds.assignments == folds.assignments
        assert manifest == {"seed": "4", "size": str(SIZE), "n_identities": "6",
                            "n_folds": str(synth.N_FOLDS)}
        assert [p.y for p in loaded] == [p.y for p in pairs]
        for orig, back in zip(pairs, loaded):
            for a, b in ((orig.I_A, back.I_A), (orig.I_B, back.I_B)):
                assert b.shape == (3, SIZE, SIZE)
                assert np.abs(a.data - b.data).max() <= 1.0 / 127.5

    def test_non_square_size_rejected_before_anything_is_written(self, tmp_path):
        # the manifest records one side, so load_dataset would refuse the result
        with pytest.raises(ValueError, match="square"):
            synth.make_dataset(5, seed=1, size=(32, 16))
        pairs, folds = synth.make_dataset(5, seed=1, size=(16, 16))
        with pytest.raises(ValueError, match="square"):
            synth.save_dataset(tmp_path / "ds", pairs, folds, seed=1, size=(16, 32))
        assert not (tmp_path / "ds").exists()



MANIFEST = "key,value\nseed,1\nsize,16\nn_identities,5\nn_folds,5\n"
FOLDS = "id,fold\n0,1\n1,0\n2,4\n3,3\n4,2\n"


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    pairs, folds = synth.make_dataset(5, seed=1, size=(16, 16))
    synth.save_dataset(root, pairs, folds, seed=1, size=(16, 16))
    return root


def with_tables(saved, dst, manifest=MANIFEST, folds=FOLDS):
    """A copy of the saved dataset with the given manifest.csv and folds.csv text."""
    shutil.copytree(saved, dst)
    (dst / "manifest.csv").write_text(manifest)
    (dst / "folds.csv").write_text(folds)
    return dst


class TestMalformedDataset:
    def test_well_formed_tables_load(self, saved, tmp_path):
        _pairs, folds, _manifest = synth.load_dataset(with_tables(saved, tmp_path / "d"))
        assert folds.assignments == {0: 1, 1: 0, 2: 4, 3: 3, 4: 2}

    def test_manifest_without_header(self, saved, tmp_path):
        root = with_tables(saved, tmp_path / "d", manifest=MANIFEST.replace("key,value\n", ""))
        with pytest.raises(synth.DatasetError, match="manifest.csv: expected header key,value"):
            synth.load_dataset(root)

    def test_folds_without_header(self, saved, tmp_path):
        root = with_tables(saved, tmp_path / "d", folds=FOLDS.replace("id,fold\n", ""))
        with pytest.raises(synth.DatasetError, match="folds.csv: expected header id,fold"):
            synth.load_dataset(root)

    def test_undecodable_bytes(self, saved, tmp_path):
        root = with_tables(saved, tmp_path / "d")
        (root / "folds.csv").write_bytes(b"id,fold\n0,\xff\xfe\n")
        with pytest.raises(synth.DatasetError, match="folds.csv: not a readable CSV"):
            synth.load_dataset(root)

    @pytest.mark.parametrize("table,what", [
        (dict(folds="id,fold\none,0\n"), "id"),
        (dict(folds="id,fold\n0,x\n"), "fold"),
        (dict(manifest=MANIFEST.replace("n_folds,5", "n_folds,5.0")), "n_folds"),
        (dict(manifest=MANIFEST.replace("n_identities,5", "n_identities,five")), "n_identities"),
        (dict(manifest=MANIFEST.replace("n_identities,5\n", "")), "n_identities"),
    ], ids=["id", "fold", "n_folds", "n_identities", "n_identities_missing"])
    def test_non_integer_field(self, saved, tmp_path, table, what):
        root = with_tables(saved, tmp_path / "d", **table)
        with pytest.raises(synth.DatasetError, match=f"{what}: .* is not an integer"):
            synth.load_dataset(root)

    def test_duplicate_id(self, saved, tmp_path):
        root = with_tables(saved, tmp_path / "d", folds="id,fold\n0,0\n0,1\n")
        with pytest.raises(synth.DatasetError, match="line 3: duplicate id 0"):
            synth.load_dataset(root)

    @pytest.mark.parametrize("shape", [(3, 8, 8), (3, 16, 8)], ids=["8x8", "8x16"])
    def test_image_of_wrong_size(self, saved, tmp_path, shape):
        root = with_tables(saved, tmp_path / "d")
        ppm.write_image(root / "pairs" / "00002_A.ppm", np.zeros(shape, dtype=np.float32))
        with pytest.raises(synth.DatasetError, match="00002_A.ppm: image .*manifest size is 16"):
            synth.load_dataset(root)

    def test_fold_table_shorter_than_manifest(self, saved, tmp_path):
        root = with_tables(saved, tmp_path / "d", folds="id,fold\n0,1\n")
        with pytest.raises(synth.DatasetError, match="1 identities, manifest n_identities is 5"):
            synth.load_dataset(root)

    @pytest.mark.parametrize("ident", [-1, 5])
    def test_id_out_of_range(self, saved, tmp_path, ident):
        folds = FOLDS.replace("\n4,", f"\n{ident},")
        root = with_tables(saved, tmp_path / "d", folds=folds)
        with pytest.raises(synth.DatasetError, match=rf"line 6: id {ident} outside \[0, 5\)"):
            synth.load_dataset(root)

    def test_fold_out_of_range(self, saved, tmp_path):
        root = with_tables(saved, tmp_path / "d", folds="id,fold\n0,7\n")
        with pytest.raises(synth.DatasetError, match=r"fold 7 outside \[0, 5\)"):
            synth.load_dataset(root)

    def test_fold_count_other_than_n_folds(self, saved, tmp_path):
        root = with_tables(saved, tmp_path / "d", manifest=MANIFEST.replace("n_folds,5", "n_folds,4"))
        with pytest.raises(synth.DatasetError, match="n_folds is 4, not N_FOLDS = 5"):
            synth.load_dataset(root)
