"""synth's numpy image filters: the Gaussian blur and grey dilation that the
makeup operator uses, and the promise that importing blan loads no scipy."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blan import synth
from blan.synth import _gaussian_blur, _grey_dilation


def blur_cases(n, seed=0):
    """(sigma, image) pairs: the makeup's sigma range, r = 0 (sigma < 0.125),
    radii larger than the image, and 1-pixel rows and columns."""
    rng = np.random.default_rng(seed)
    fixed = [(0.05, (4, 5)), (0.1, (1, 1)), (1.0, (1, 9)), (3.0, (5, 2)), (2.2, (3, 3))]
    for sigma, (h, w) in fixed:
        yield sigma, rng.uniform(-1, 1, (3, h, w)).astype(np.float32)
    for _ in range(n - len(fixed)):
        sigma = float(rng.uniform(0.05, 3.0))
        h, w = (int(v) for v in rng.integers(1, 65, 2))
        yield sigma, rng.uniform(-1, 1, (3, h, w)).astype(np.float32)


def brute_force_dilation(img, size):
    r = size // 2
    padded = np.pad(img, r, mode="symmetric")
    h, w = img.shape
    return np.array([[padded[i : i + size, j : j + size].max() for j in range(w)]
                     for i in range(h)], dtype=img.dtype)


class TestGaussianBlur:
    def test_bit_identical_to_scipy(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        for sigma, img in blur_cases(120):
            ref = np.stack([ndimage.gaussian_filter(c, sigma) for c in img])
            out = _gaussian_blur(img, sigma)
            assert out.dtype == np.float32
            assert out.tobytes() == ref.tobytes(), (sigma, img.shape)

    def test_float64_bit_identical_to_scipy(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        img = np.random.default_rng(1).uniform(-1, 1, (2, 20, 13))
        out = _gaussian_blur(img, 1.6)
        assert out.dtype == np.float64
        assert out.tobytes() == np.stack([ndimage.gaussian_filter(c, 1.6) for c in img]).tobytes()

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_commutes_with_flip_bitwise(self, axis):
        for sigma, img in blur_cases(20, seed=2):
            flipped = _gaussian_blur(np.flip(img, axis), sigma)
            assert flipped.tobytes() == np.flip(_gaussian_blur(img, sigma), axis).tobytes()

    @pytest.mark.parametrize("sigma", [0.05, 1.0, 1.6, 2.2, 6.0])
    @pytest.mark.parametrize("value", [-1.0, -0.3, 0.0, 0.7, 1.0])
    def test_constant_image_kept_within_one_ulp(self, sigma, value):
        img = np.full((3, 7, 11), value, np.float32)
        out = _gaussian_blur(img, sigma)
        assert out.shape == img.shape and out.dtype == np.float32
        np.testing.assert_array_max_ulp(out, img, maxulp=1)

    def test_zero_radius_is_identity(self):
        img = np.random.default_rng(3).uniform(-1, 1, (3, 6, 4)).astype(np.float32)
        assert _gaussian_blur(img, 0.1).tobytes() == img.tobytes()


class TestGreyDilation:
    @pytest.mark.parametrize("size", [1, 3, 5, 7])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 9), (9, 2), (16, 13)])
    def test_equals_brute_force_window_max(self, size, shape):
        img = np.random.default_rng(size).uniform(0, 1, shape).astype(np.float32)
        out = _grey_dilation(img, size // 2)
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, brute_force_dilation(img, size))

    def test_bit_identical_to_scipy(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        masks = synth.render_regions(synth.SyntheticIdentity.sample(0, 1), synth.Nuisance(),
                                     (64, 64))[1]
        for size in (1, 3, 5, 7):
            assert (_grey_dilation(masks.brows, size // 2).tobytes()
                    == ndimage.grey_dilation(masks.brows, size=(size, size)).tobytes())


def test_importing_blan_loads_no_scipy():
    src = Path(synth.__file__).resolve().parents[1]
    code = ("import sys; import blan.synth, blan.networks, blan.losses; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
