"""PPM image IO: quantized round trip, bit-identical re-encoding, and
named errors for malformed files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blan import ppm
from blan.engine import Tensor
from blan.ppm import PpmError


def rand_image(seed, h=5, w=7):
    return np.random.default_rng(seed).uniform(-1, 1, size=(3, h, w)).astype(np.float32)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_within_one_quantization_step(self, seed):
        img = rand_image(seed)
        back = ppm.decode(ppm.encode(img))
        assert back.shape == img.shape and back.dtype == np.float32
        assert np.abs(back - img).max() <= 1.0 / 127.5

    def test_reencode_is_bit_identical(self):
        blob = ppm.encode(rand_image(3))
        assert ppm.encode(ppm.decode(blob)) == blob

    def test_extremes_are_exact(self):
        img = np.stack([np.full((2, 2), v, np.float32) for v in (-1.0, 0.0, 1.0)])
        back = ppm.decode(ppm.encode(img))
        assert back[0].tolist() == [[-1.0, -1.0]] * 2 and back[2].tolist() == [[1.0, 1.0]] * 2

    def test_files_and_tensors(self, tmp_path):
        img = rand_image(4)
        ppm.write_image(tmp_path / "x.ppm", img)
        np.testing.assert_array_equal(ppm.read_image(tmp_path / "x.ppm"),
                                      ppm.decode(ppm.encode(img)))
        # arrays only: a Tensor fails the shape check
        with pytest.raises(PpmError, match="shape"):
            ppm.encode(Tensor(img))

    def test_header_comments_skipped(self):
        blob = ppm.encode(rand_image(5, 2, 3))
        commented = blob.replace(b"P6\n", b"P6\n# made by hand\n", 1)
        np.testing.assert_array_equal(ppm.decode(commented), ppm.decode(blob))


class TestMalformed:
    def test_bad_magic(self):
        blob = ppm.encode(rand_image(0))
        with pytest.raises(PpmError, match="P6"):
            ppm.decode(b"P5" + blob[2:])

    def test_bad_maxval(self):
        blob = ppm.encode(rand_image(0, 2, 2)).replace(b"\n255\n", b"\n65535\n", 1)
        with pytest.raises(PpmError, match="maxval"):
            ppm.decode(blob)

    def test_truncated_payload(self):
        blob = ppm.encode(rand_image(0))
        with pytest.raises(PpmError, match="truncated payload"):
            ppm.decode(blob[:-1])

    def test_truncated_header(self):
        with pytest.raises(PpmError, match="truncated header"):
            ppm.decode(b"P6\n4 ")

    def test_out_of_range_pixels_rejected_on_encode(self):
        with pytest.raises(PpmError, match=r"\[-1, 1\]"):
            ppm.encode(np.full((3, 2, 2), 1.5, np.float32))

    @pytest.mark.parametrize("shape", [(3, 0, 5), (3, 5, 0)])
    def test_empty_image_rejected_on_encode(self, shape):
        with pytest.raises(PpmError, match="invalid dimensions"):
            ppm.encode(np.zeros(shape, np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected_on_encode(self, bad):
        img = rand_image(1, 2, 2)
        img[1, 0, 1] = bad
        with pytest.raises(PpmError, match="finite"):
            ppm.encode(img)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(edits=st.lists(
        st.tuples(st.sampled_from(["set", "insert", "delete", "truncate", "extend"]),
                  # half the edits land in the 11-byte header
                  st.one_of(st.integers(0, 12), st.integers(0, 2 ** 16)),
                  st.binary(min_size=1, max_size=8)),
        min_size=1, max_size=4,
    ))
    def test_mutated_blob_decodes_or_raises_ppm_error(self, edits):
        """Byte edits anywhere in a valid blob either still decode to a
        (3,h,w) float32 image in [-1, 1] or raise PpmError; nothing else."""
        blob = bytearray(ppm.encode(rand_image(6, 3, 4)))
        for kind, at, data in edits:
            at %= len(blob) + 1
            if kind == "set":
                blob[at : at + len(data)] = data
            elif kind == "insert":
                blob[at:at] = data
            elif kind == "delete":
                del blob[at : at + len(data)]
            elif kind == "truncate":
                del blob[at:]
            else:
                blob += data
        try:
            out = ppm.decode(bytes(blob))
        except PpmError:
            return
        assert out.dtype == np.float32 and out.ndim == 3 and out.shape[0] == 3
        assert np.abs(out).max() <= 1.0
