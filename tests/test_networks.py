"""Network structure: U-Net skip wiring, patch locality, parameter counts,
output ranges, freezing, the batch-only input contract, and the checkpoint
binary format."""

import errno
import inspect
import math
import os
import re
import stat
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import zlib
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from blan import defaults, engine, losses, networks, synth
from blan.engine import Tensor, grad_check
from blan.layers import CHUNK, BatchNorm2d, Conv2d, ConvTranspose2d, Linear, Module, init_normal
from blan.networks import (
    CHECKPOINT_MAGIC, CHECKPOINT_VERSION, BlanConfig, BlanModel, CheckpointError,
    FeatureDiscriminator, FeatureExtractor, FeatureExtractorConfig,
    Generator, GeneratorConfig, PatchDiscriminator, PatchDiscriminatorConfig,
    extract_feature, load_network_state,
    network_state_vector, pack_ints, read_checkpoint, unpack_ints,
    write_checkpoint,
)


def on_pool_thread():
    return threading.current_thread().name.startswith("blan-worker")


class PoolSpy:
    """engine._pool's stand-in: records the task of every block _fan_out
    submits, as engine._block(task, grad, lo, hi), and passes it on to the
    pool. A submit from a pool thread fails at once, so a regression fails
    the test rather than leave a pool thread waiting on a block queued
    behind itself."""

    def __init__(self, pool):
        self.pool, self.tasks = pool, []

    def submit(self, fn, task, grad, lo, hi):
        assert not on_pool_thread(), "a pool thread submitted to the pool"
        self.tasks.append(task)
        return self.pool.submit(fn, task, grad, lo, hi)

    def names(self):
        return [task.__qualname__ for task in self.tasks]


def rand_image(rng, size=64, batch=None):
    shape = (3, size, size) if batch is None else (batch, 3, size, size)
    return Tensor(rng.uniform(-1, 1, size=shape).astype(np.float32))


def chunk_uniforms(rng, size):
    """The float32 uniforms init_normal draws for a weight of ``size`` values,
    one (m, u) per chunk of m values: 2 ceil(m / 2) uniforms, chunk 0's from
    rng and chunk c's from rng.spawn(n - 1)[c - 1]."""
    n = max(1, -(-size // CHUNK))
    rngs = [rng, *rng.spawn(n - 1)]
    sizes = [min(CHUNK, size - c * CHUNK) for c in range(n)]
    return [(m, g.random(2 * -(-m // 2), dtype=np.float32)) for g, m in zip(rngs, sizes)]


def box_muller(m, u):
    """init_normal's m values from the uniforms u, written out: the first half
    of u sets each pair's radius, the second its angle; the cosines come
    first, then the sines the chunk has room for."""
    h = u.size // 2
    r = np.float32(0.02) * np.sqrt(np.float32(-2.0) * np.log1p(-u[:h]))
    theta = np.float32(2 * np.pi) * u[h:]
    return np.concatenate([r * np.cos(theta), (r * np.sin(theta))[: m - h]])


def reference_weight(rng, *shape):
    """init_normal(rng, *shape).data, written out."""
    chunks = chunk_uniforms(rng, math.prod(shape))
    return np.concatenate([box_muller(m, u) for m, u in chunks]).reshape(shape)


class TestGenerator:
    def test_shape_contract(self):
        g = Generator(GeneratorConfig(input_size=(64, 64, 3)), rng=np.random.default_rng(0))
        g.eval()
        out = g(rand_image(np.random.default_rng(1), batch=1))
        assert out.shape == (1, 3, 64, 64)

    def test_output_in_tanh_range(self):
        g = Generator(GeneratorConfig(input_size=(32, 32, 3)), rng=np.random.default_rng(0))
        g.eval()
        out = g(rand_image(np.random.default_rng(1), size=32, batch=1))
        assert np.abs(out.data).max() <= 1.0

    def test_bottleneck_is_1x1(self):
        cfg = GeneratorConfig(input_size=(64, 64, 3))
        assert cfg.encoder_depth == 6
        g = Generator(cfg, rng=np.random.default_rng(0))
        g.eval()
        x = rand_image(np.random.default_rng(1), batch=1)
        for stage in g.enc:
            x = stage(x)
        assert x.shape[-2:] == (1, 1)

    @pytest.mark.parametrize("depth", [4, 5, 6, 7])
    def test_skip_shape_audit(self, depth):
        """Decoder stage j >= 2 must consume upstream + matching skip channels."""
        size = 2 ** depth
        cfg = GeneratorConfig(input_size=(size, size, 3))
        assert cfg.encoder_depth == depth
        g = Generator(cfg, rng=np.random.default_rng(0))
        assert len(g.enc) == len(g.dec) == depth
        up_ch = cfg.channels(depth)  # bottleneck output feeds decoder stage 1
        for j, stage in enumerate(g.dec, start=1):
            conv = stage.mods[0]
            skip_ch = cfg.channels(depth - j + 1) if j >= 2 else 0
            assert conv.in_ch == up_ch + skip_ch
            up_ch = conv.out_ch
        assert g.dec[-1].mods[0].out_ch == 3
        # and the wiring runs: produce an output of the right size
        g.eval()
        out = g(rand_image(np.random.default_rng(1), size=size, batch=1))
        assert out.shape == (1, 3, size, size)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(input_size=(48, 48, 3)), "power of two"),
        (dict(base_channels=0), "base_channels must be >= 1"),
        (dict(max_channels=0), "max_channels must be >= 1"),
    ], ids=["input_size", "base_channels", "max_channels"])
    def test_non_power_of_two_rejected_at_build(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GeneratorConfig(**kwargs)

    def test_out_of_range_input_rejected(self):
        g = Generator(GeneratorConfig(input_size=(16, 16, 3)), rng=np.random.default_rng(0))
        g.eval()
        for ok in (-1.0, 1.0):  # the ends of the range are inside it
            g(Tensor(np.full((1, 3, 16, 16), ok, dtype=np.float32)))
        # the next float32 above 1 is outside: the rule has no slack
        for value in (2.0, np.nextafter(np.float32(1), np.float32(2))):
            bad = Tensor(np.full((1, 3, 16, 16), value, dtype=np.float32))
            with pytest.raises(ValueError, match=r"finite and lie in \[-1, 1\]"):
                g(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        """One non-finite pixel is refused, not spread over the whole output."""
        model = BlanModel(BlanConfig.for_size(16), seed=0)
        model.G.eval()
        img = rand_image(np.random.default_rng(1), size=16)
        img.data[2, 5, 7] = bad
        with pytest.raises(ValueError, match="finite"):
            model.remove_makeup(img)


class TestPatchDiscriminator:
    def _build(self, size=64, seed=0):
        cfg = PatchDiscriminatorConfig(input_size=(size, size, 3))
        return PatchDiscriminator(cfg, rng=np.random.default_rng(seed))

    def test_map_shape_and_range(self):
        d = self._build()
        out = d(rand_image(np.random.default_rng(1), batch=1))
        assert out.shape == (1, 2, 2)
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_patch_locality(self):
        d = self._build()
        k = d.config.k
        rng = np.random.default_rng(3)
        img = rng.uniform(-1, 1, size=(1, 3, 64, 64)).astype(np.float32)
        base = d(Tensor(img)).data.reshape(k, k).copy()
        ph = 64 // k
        for a in range(k):
            for b in range(k):
                pert = img.copy()
                pert[..., a * ph : (a + 1) * ph, b * ph : (b + 1) * ph] += (
                    0.05 * rng.standard_normal((3, ph, ph)).astype(np.float32)
                )
                np.clip(pert, -1, 1, out=pert)
                out = d(Tensor(pert)).data.reshape(k, k)
                mask = np.ones((k, k), bool)
                mask[a, b] = False
                assert np.array_equal(out[mask], base[mask]), "non-perturbed cells changed"

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError, match="2x2 patch grid"):
            PatchDiscriminatorConfig(input_size=(63, 63, 3))
        with pytest.raises(ValueError, match="square"):
            PatchDiscriminatorConfig(input_size=(64, 32, 3))

    def test_batched_map(self):
        d = self._build()
        out = d(rand_image(np.random.default_rng(5), batch=3))
        assert out.shape == (3, 2, 2)

    def test_batched_matches_single(self):
        d = self._build()
        rng = np.random.default_rng(6)
        imgs = rng.uniform(-1, 1, size=(2, 3, 64, 64)).astype(np.float32)
        batched = d(Tensor(imgs)).data
        singles = np.concatenate([d(Tensor(imgs[i : i + 1])).data for i in range(2)])
        np.testing.assert_array_equal(batched, singles)


class TestFeatureDiscriminator:
    def test_scalar_probability(self):
        d = FeatureDiscriminator(rng=np.random.default_rng(0))
        p = d(Tensor(np.zeros((1, 64), dtype=np.float32)))
        assert p.shape == (1,)
        assert 0.0 < p.item() < 1.0

    def test_deterministic(self):
        d = FeatureDiscriminator(rng=np.random.default_rng(0))
        feat = Tensor(np.random.default_rng(1).normal(size=(1, 64)).astype(np.float32))
        assert d(feat).item() == d(feat).item()

    def test_length_mismatch(self):
        d = FeatureDiscriminator(rng=np.random.default_rng(0))
        with pytest.raises(engine.ShapeError):
            d(Tensor(np.zeros((1, 32), dtype=np.float32)))

    def test_input_gradient_matches_finite_difference(self):
        d = FeatureDiscriminator(rng=np.random.default_rng(0))
        d.astype(np.float64)
        feat = Tensor(np.random.default_rng(2).normal(size=(1, 64)), requires_grad=True)
        assert grad_check(lambda p: engine.tmean(d(p[0])), [feat]) < 1e-4

    def test_parameter_count_example(self):
        d = FeatureDiscriminator(rng=np.random.default_rng(0))
        assert d.stack.mods[0].num_parameters() == 6_500
        assert d.num_parameters() == 6_601


class TestFeatureExtractor:
    def _build(self, seed=0):
        cfg = FeatureExtractorConfig(input_size=(64, 64, 3))
        return FeatureExtractor(cfg, rng=np.random.default_rng(seed))

    @pytest.mark.parametrize("kwargs,match", [
        *((dict(input_size=(size, size, 3)), "multiples of 16") for size in (0, 8, 24, 40)),
        *((dict(input_size=(32, size, 3)), "square") for size in (0, 8, 24, 40)),
    ], ids=[*(f"{size}x{size}" for size in (0, 8, 24, 40)), *(f"32x{size}" for size in (0, 8, 24, 40))])
    def test_size_not_a_multiple_of_16_rejected_at_build(self, kwargs, match):
        """Four stride-2 stages need a square input whose side is a positive
        multiple of 16."""
        with pytest.raises(ValueError, match=match):
            FeatureExtractorConfig(**kwargs)

    def test_feature_is_fixed_length_and_deterministic(self):
        f = self._build().eval()
        img = rand_image(np.random.default_rng(1))
        a = extract_feature(f, img).data
        b = extract_feature(f, img).data
        assert a.shape == (64,)
        np.testing.assert_array_equal(a, b)

    def test_single_pixel_change_moves_feature(self):
        f = self._build().eval()
        img = rand_image(np.random.default_rng(2)).data
        img2 = img.copy()
        img2[0, 10, 10] = -img2[0, 10, 10] + 0.1
        a = extract_feature(f, Tensor(img)).data
        b = extract_feature(f, Tensor(img2)).data
        assert np.abs(a - b).max() > 0.0

    def test_freeze_blocks_parameter_grads_but_not_input_grads(self):
        f = self._build().freeze()
        img = Tensor(np.random.default_rng(3).uniform(-1, 1, (3, 64, 64)).astype(np.float32),
                     requires_grad=True)
        feat = extract_feature(f, img)
        engine.tmean(engine.tabs(feat)).backward()
        assert img.grad is not None
        assert all(p.grad is None for p in f.parameters())


def write_with_crc(path, body):
    path.write_bytes(body + np.uint32(zlib.crc32(body)).tobytes())


# up to four byte edits for mutate: (kind, position, byte)
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["set", "insert", "delete"]),
              st.integers(0, 200), st.integers(0, 255)),
    min_size=1, max_size=4,
)


def mutate(path, edits):
    """Apply BYTE_EDITS to a container's bytes after its version word and
    write them back with the CRC recomputed."""
    body = bytearray(path.read_bytes()[:-4])
    for kind, at, byte in edits:
        at = 8 + at % (len(body) - 7)
        if kind == "set":
            body[at : at + 1] = bytes([byte])
        elif kind == "insert":
            body[at:at] = bytes([byte])
        else:
            del body[at : at + 1 + byte % 8]
    write_with_crc(path, bytes(body))


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        entries = [
            ("config", pack_ints([64, 64, 3, 6])),
            ("G", rng.normal(size=257).astype(np.float32)),
            ("D_p", rng.normal(size=33).astype(np.float32)),
        ]
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, entries)
        back = read_checkpoint(path)
        assert list(back) == ["config", "G", "D_p"]
        for name, values in entries:
            assert back[name].tobytes() == np.ascontiguousarray(values, "<f4").tobytes()
        assert unpack_ints(back["config"]).tolist() == [64, 64, 3, 6]

    def test_int_packing_is_exact_for_large_values(self):
        vals = [0, 1, 2 ** 24 + 1, 2 ** 32 - 1, np.int64(5), np.uint32(2 ** 32 - 1)]
        assert unpack_ints(pack_ints(vals)).tolist() == vals

    @pytest.mark.parametrize("value", [-1, 2**32])
    def test_int_outside_u32_rejected(self, value):
        # numpy 1.25-1.26 wraps -1 to 2**32 - 1, numpy 2 raises a bare OverflowError
        with pytest.raises(ValueError, match=rf"pack_ints: {value} is outside \[0, 2\*\*32\)"):
            pack_ints([1, value])

    @pytest.mark.parametrize("value", [1.5, 2.0, np.float32(3.0), "4", None])
    def test_non_integer_rejected(self, value):
        # numpy would store 1.5 as 1, so save_dataset(seed=1.5) would write seed 1
        with pytest.raises(TypeError, match=re.escape(f"pack_ints: {value!r} is not an integer")):
            pack_ints([1, value])

    def test_repeated_entry_name_refused_before_the_file_opens(self, tmp_path):
        # read_checkpoint refuses such a file, so writing it must fail first
        with pytest.raises(CheckpointError, match="duplicate entry 'G'"):
            write_checkpoint(tmp_path / "model.ckpt", [("G", np.ones(2, dtype=np.float32)),
                                                       ("G", np.zeros(2, dtype=np.float32))])
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_the_previous_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, [("G", np.ones(7, dtype=np.float32))])
        before = path.read_bytes()
        seen = []

        class DiskFull:
            """A file that takes the first part it is given, then runs out of space."""

            def __init__(self, fd, mode):
                self.fh = open(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, parts):
                self.fh.write(parts[0])
                self.fh.flush()
                seen.append(sorted(p.name for p in tmp_path.iterdir()))
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(networks, "open", DiskFull, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_checkpoint(path, [("G", np.zeros(9, dtype=np.float32))])
        assert len(seen) == 1 and len(seen[0]) == 2  # the part went to a file beside path
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
        monkeypatch.undo()
        write_checkpoint(path, [("G", np.zeros(9, dtype=np.float32))])
        assert read_checkpoint(path)["G"].tolist() == [0.0] * 9
        assert list(tmp_path.iterdir()) == [path]

    def test_temporary_that_cannot_be_created_raises_its_own_error(self, tmp_path, monkeypatch):
        def refuse(path, mode):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(networks, "open", refuse, raising=False)
        with pytest.raises(PermissionError):  # not the cleanup's FileNotFoundError
            write_checkpoint(tmp_path / "model.ckpt", [("G", np.ones(2, dtype=np.float32))])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_file_has_the_mode_of_any_new_file(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            write_checkpoint(tmp_path / "model.ckpt", [("G", np.ones(2, dtype=np.float32))])
            with open(tmp_path / "plain", "wb"):
                pass
        finally:
            os.umask(previous)
        mode = os.stat(tmp_path / "plain").st_mode
        assert mode == stat.S_IFREG | (0o666 & ~umask)
        assert os.stat(tmp_path / "model.ckpt").st_mode == mode

    def test_crc_detects_corruption(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, [("G", np.ones(7, dtype=np.float32))])
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC"):
            read_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    @pytest.mark.parametrize("body, match", [
        (b"\x02\x00\x00\x00\xff\xfe" + b"\x00" * 4, "UTF-8"),    # name bytes
        (b"\xff\x00\x00\x00G", "overruns"),                     # name length
        (b"\x01\x00\x00\x00G\x01\x00", "truncated scalar count"),  # count header
        (b"\x01\x00\x00\x00G\x00\x00\x00\x00" * 2, "duplicate"),
    ])
    def test_malformed_body_with_valid_crc_rejected(self, tmp_path, body, match):
        path = tmp_path / "x.ckpt"
        write_with_crc(path, CHECKPOINT_MAGIC + np.uint32(CHECKPOINT_VERSION).tobytes() + body)
        with pytest.raises(CheckpointError, match=match):
            read_checkpoint(path)

    def test_version_1_rejected(self, tmp_path):
        """Version 1 stored ConvTranspose2d weights as (in, out, k, k): same
        sizes, other taps, so a CRC-valid version-1 file must not load."""
        path = tmp_path / "v1.ckpt"
        entry = b"\x01\x00\x00\x00G\x01\x00\x00\x00" + np.float32(0.5).tobytes()
        write_with_crc(path, CHECKPOINT_MAGIC + np.uint32(1).tobytes() + entry)
        with pytest.raises(CheckpointError, match="unsupported format version 1$"):
            read_checkpoint(path)

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=BYTE_EDITS)
    def test_mutated_body_with_valid_crc_raises_only_checkpoint_error(self, tmp_path, edits):
        """Byte edits after the version word, with the CRC recomputed, either
        still parse or raise CheckpointError; never another exception."""
        path = tmp_path / "fuzz.ckpt"
        write_checkpoint(path, [
            ("config", pack_ints([64, 64, 3, 6])),
            ("G", np.linspace(-1, 1, 9, dtype=np.float32)),
            ("D_p", np.ones(3, dtype=np.float32)),
        ])
        mutate(path, edits)
        try:
            entries = read_checkpoint(path)
        except CheckpointError:
            return
        assert all(isinstance(v, np.ndarray) for v in entries.values())

    def test_network_state_vector_round_trip(self):
        f1 = FeatureExtractor(FeatureExtractorConfig(input_size=(32, 32, 3)),
                              rng=np.random.default_rng(0))
        f2 = FeatureExtractor(FeatureExtractorConfig(input_size=(32, 32, 3)),
                              rng=np.random.default_rng(9))
        load_network_state(f2, network_state_vector(f1))
        img = rand_image(np.random.default_rng(1), size=32)
        np.testing.assert_array_equal(
            extract_feature(f1.eval(), img).data, extract_feature(f2.eval(), img).data
        )

    def test_state_size_mismatch_rejected(self):
        f = FeatureDiscriminator(rng=np.random.default_rng(0))
        with pytest.raises(CheckpointError, match="mismatch"):
            load_network_state(f, np.zeros(3, dtype=np.float32))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, -1])
    def test_non_finite_state_is_refused_before_any_write(self, tmp_path, value, index):
        """A CRC guards the bytes, not the values: a state holding NaN or
        +-inf reads back, and loading it must refuse it and leave the network
        byte for byte as it was."""
        config = GeneratorConfig(input_size=(16, 16, 3))
        vec = network_state_vector(Generator(config, rng=np.random.default_rng(0)))
        vec[index] = value
        write_checkpoint(tmp_path / "g.ckpt", [("G", vec)])
        g = Generator(config, rng=np.random.default_rng(9))
        before = network_state_vector(g).tobytes()
        with pytest.raises(CheckpointError, match="not finite"):
            load_network_state(g, read_checkpoint(tmp_path / "g.ckpt")["G"])
        assert network_state_vector(g).tobytes() == before

    def test_float32_state_loads_into_float64_network(self):
        f1 = FeatureExtractor(FeatureExtractorConfig(input_size=(16, 16, 3)),
                              rng=np.random.default_rng(0))
        f2 = FeatureExtractor(FeatureExtractorConfig(input_size=(16, 16, 3)),
                              rng=np.random.default_rng(9)).astype(np.float64)
        vec = network_state_vector(f1)
        load_network_state(f2, vec)
        assert all(p.data.dtype == np.float64 for p in f2.parameters())
        np.testing.assert_array_equal(np.concatenate([a.reshape(-1) for a in f2.state_arrays()]), vec)


class TestCheckpointLayout:
    """Pins the serialized state order and initial values of every network,
    so a structural refactor cannot silently change the checkpoint bytes."""

    def test_generator_state_shapes(self):
        g = Generator(GeneratorConfig(input_size=(16, 16, 3)), rng=np.random.default_rng(0))
        shapes = [a.shape for a in g.state_arrays()]
        assert shapes == [
            # encoder: conv (weight, bias) [, batchnorm (gamma, beta)]
            (16, 3, 4, 4), (16,),
            (32, 16, 4, 4), (32,), (32,), (32,),
            (64, 32, 4, 4), (64,), (64,), (64,),
            (128, 64, 4, 4), (128,), (128,), (128,),
            # decoder: transposed conv (weight, bias) [, batchnorm (gamma, beta)]
            # (out_ch, k, k, in_ch), the layout the forward GEMM reads
            (64, 4, 4, 128), (64,), (64,), (64,),
            (32, 4, 4, 128), (32,), (32,), (32,),
            (16, 4, 4, 64), (16,), (16,), (16,),
            (3, 4, 4, 32), (3,),
            # batchnorm buffers (running mean, running var), encoder then decoder
            (32,), (32,), (64,), (64,), (128,), (128,),
            (64,), (64,), (32,), (32,), (16,), (16,),
        ]

    def test_extractor_state_shapes(self):
        """F is the extractor alone: a pretraining head or any other state
        added to it changes this list."""
        f = FeatureExtractor(FeatureExtractorConfig(input_size=(16, 16, 3)),
                             rng=np.random.default_rng(0))
        shapes = [a.shape for a in f.state_arrays()]
        assert shapes == [
            # conv (weight, bias) [, batchnorm (gamma, beta)]
            (16, 3, 4, 4), (16,),
            (32, 16, 4, 4), (32,), (32,), (32,),
            (64, 32, 4, 4), (64,), (64,), (64,),
            (64, 64, 4, 4), (64,), (64,), (64,),
            # fc_feat (weight, bias): the 1x1x64 map to the feature
            (64, 64), (64,),
            # batchnorm buffers (running mean, running var)
            (32,), (32,), (64,), (64,), (64,), (64,),
        ]

    def test_initial_state_vectors(self):
        """Each network draws its weights in state order from its own child of
        the model seed; a batchnorm gamma and running variance start at one
        and all else at zero. The CRCs pin the uniforms alone: every CPU draws
        them alike, while the weights' bytes also rest on numpy's float32
        log1p, sin and cos."""
        model = BlanModel(BlanConfig.for_size(64), seed=0)
        children = np.random.SeedSequence(entropy=(0, 0xB1A)).spawn(4)
        crcs = {}
        for (name, net), child in zip(model.networks().items(), children):
            modules = list(net._modules())
            weights = {id(m.weight.data) for m in modules
                       if isinstance(m, (Conv2d, ConvTranspose2d, Linear))}
            ones = {id(a) for m in modules if isinstance(m, BatchNorm2d)
                    for a in (m.gamma.data, m.running_var)}
            rng, crcs[name], expected = np.random.default_rng(child), 0, []
            for a in net.state_arrays():
                if id(a) in weights:
                    chunks = chunk_uniforms(rng, a.size)
                    for m, u in chunks:
                        crcs[name] = zlib.crc32(u.tobytes(), crcs[name])
                        expected.append(box_muller(m, u))
                else:
                    expected.append(np.full(a.size, float(id(a) in ones), np.float32))
            assert network_state_vector(net).tobytes() == np.concatenate(expected).tobytes(), name
        assert crcs == {
            "G": 213287264, "D_p": 4118566344, "D_f": 2369240119, "F": 2037126802,
        }


class TestParameterLayout:
    """Every parameter is a plain C-contiguous array in its logical shape."""

    @pytest.mark.parametrize("in_ch", [3, 100])
    def test_conv_transpose2d_weight_is_init_normal(self, in_ch):
        rng_layer, rng_ref = np.random.default_rng(40), np.random.default_rng(40)
        layer = ConvTranspose2d(in_ch, 6, 4, rng=rng_layer)
        ref = init_normal(rng_ref, 6, 4, 4, in_ch)
        assert layer.weight.shape == ref.shape == (6, 4, 4, in_ch)
        assert layer.weight.data.tobytes() == ref.data.tobytes()
        assert rng_layer.normal() == rng_ref.normal()

    BIG = (5, CHUNK // 2)  # 2.5 chunks: two whole and one half

    # one value, an odd count of values, a last cosine block cut short and
    # more than one chunk each have a case
    @pytest.mark.parametrize("shape", [(6, 3, 4, 4), (64, 100), (1,), (105,), (3, 11111), BIG],
                             ids=["conv", "linear", "one", "odd", "blocks", "big"])
    def test_init_normal_is_float32_box_muller_of_uniforms(self, shape):
        rng, twin = np.random.default_rng(21), np.random.default_rng(21)
        w = init_normal(rng, *shape)
        assert w.requires_grad and w.data.dtype == np.float32 and w.data.flags.c_contiguous
        assert w.data.tobytes() == reference_weight(twin, *shape).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_init_normal_is_n_0_002(self):
        """Over 2**20 values: the mean, the std, the Kolmogorov-Smirnov distance
        to the CDF of N(0, 0.02) and the cut-off that the 2**-24 resolution of
        the uniforms sets, 0.02 sqrt(48 ln 2). Seed 22 reads a mean of 1.3e-5
        (standard error 2e-5), a std of 0.9998 * 0.02 (7e-4) and a distance of
        9.3e-4, where 2e-3 has a p-value below 1e-3."""
        w = init_normal(np.random.default_rng(22), CHUNK).data
        assert abs(w.mean(dtype=np.float64)) < 1e-4
        assert abs(w.std(dtype=np.float64) / 0.02 - 1) < 3e-3
        x = np.sort(w).astype(np.float64)
        cdf = np.array([0.5 * (1 + math.erf(v / (0.02 * math.sqrt(2)))) for v in x.tolist()])
        ks = max((np.arange(1, x.size + 1) / x.size - cdf).max(),
                 (cdf - np.arange(x.size) / x.size).max())
        assert ks < 2e-3
        cut = np.float32(0.02 * math.sqrt(48 * math.log(2)))
        assert np.abs(w).max() <= cut + 4 * np.spacing(cut)

    def test_init_normal_cut_off(self):
        """The largest uniform below 1 in the radius gives the largest |w|."""

        class Top:
            def spawn(self, n):
                return [Top() for _ in range(n)]

            def random(self, size=None, dtype=None, out=None):
                out = np.empty(size, dtype) if out is None else out
                out[...] = np.float32(1 - 2.0 ** -24)
                return out

        w = init_normal(Top(), 2).data
        cut = np.float32(0.02 * math.sqrt(48 * math.log(2)))
        assert abs(abs(w[0]) - cut) <= 4 * np.spacing(cut)

    def test_big_weight_does_not_depend_on_the_width(self, monkeypatch):
        draws = []
        for width in (1, 2):
            monkeypatch.setattr(engine, "WIDTH", width)
            draws.append(init_normal(np.random.default_rng(23), *self.BIG).data.tobytes())
        assert draws[0] == draws[1]

    def test_big_weight_is_drawn_in_chunks(self):
        rng, twin = np.random.default_rng(24), np.random.default_rng(24)
        w = init_normal(rng, *self.BIG).data
        assert w.shape == self.BIG and w.dtype == np.float32 and w.flags.c_contiguous
        flat = w.reshape(-1)
        # chunk 0 is rng's own draw of 2**20 uniforms, and rng moves on by that draw
        assert flat[:CHUNK].tobytes() == box_muller(CHUNK, twin.random(CHUNK, np.float32)).tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state
        # the other chunks come from streams of their own, not rng's next values
        rest = [box_muller(m, u) for child, size in zip(twin.spawn(2), (CHUNK, CHUNK // 2))
                for m, u in chunk_uniforms(child, size)]
        assert flat[CHUNK:].tobytes() == np.concatenate(rest).tobytes()
        assert abs(w.std(dtype=np.float64) / 0.02 - 1) < 0.01
        assert abs(w.mean(dtype=np.float64)) < 1e-3

    def test_layer_built_on_a_pool_thread_draws_there(self, monkeypatch):
        """A layer built inside a _fan_out block draws all its chunks on that
        block's thread: a pool thread that submitted a chunk would wait on a
        block queued behind itself, with one pool thread forever."""
        spy = PoolSpy(engine._pool)
        monkeypatch.setattr(engine, "_pool", spy)

        def build():
            return Linear(1100, 1000, rng=np.random.default_rng(0))  # 1.1M values: 2 chunks

        def task(lo, hi):
            return on_pool_thread(), build().weight.data.tobytes()

        built = engine._fan_out(task, 2)
        assert spy.tasks == [task]  # the pool's block; neither block's build submitted
        ref = build().weight.data.tobytes()
        assert len(spy.tasks) == 2  # outside a block, the build drew one chunk on the pool
        assert built == [(True, ref), (False, ref)]

    @pytest.mark.parametrize("config", [
        BlanConfig.for_size(64),
        # the paper's channel widths at 16 px: decoder inputs of up to 512 channels
        BlanConfig(generator=GeneratorConfig(input_size=(16, 16, 3),
                                             base_channels=defaults.REFERENCE_BASE_CHANNELS,
                                             max_channels=defaults.REFERENCE_MAX_CHANNELS),
                   patch_disc=PatchDiscriminatorConfig(input_size=(16, 16, 3)),
                   extractor=FeatureExtractorConfig(input_size=(16, 16, 3))),
    ], ids=["desk", "reference-widths"])
    def test_every_state_array_is_c_contiguous_float32(self, config):
        model = BlanModel(config, seed=0)
        for name, net in model.networks().items():
            for i, a in enumerate(net.state_arrays()):
                assert a.dtype == np.float32 and a.flags.c_contiguous, f"{name} array {i}"


def eval_model():
    """A model whose G and F are ready for remove_makeup and extract_feature;
    a fresh BlanModel starts in train mode."""
    model = BlanModel(BlanConfig.for_size(16), seed=0)
    model.G.eval()
    model.F.eval()
    return model


class TestInputContract:
    """Networks take batches only; the two inference calls also take one image."""

    @pytest.fixture(scope="class")
    def model(self):
        return eval_model()

    CASES = [  # (network named in the error, model attribute, one sample's shape, wrong sample)
        ("generator", "G", (3, 16, 16), (3, 32, 32)),
        ("patch discriminator", "D_p", (3, 16, 16), (1, 16, 16)),
        ("feature discriminator", "D_f", (64,), (32,)),
        ("feature extractor", "F.features", (3, 16, 16), (3, 16, 32)),
    ]

    @staticmethod
    def _call(model, method, shape):
        return attrgetter(method)(model)(Tensor(np.zeros(shape, dtype=np.float32)))

    @pytest.mark.parametrize("name,method,sample,wrong", CASES, ids=[c[1] for c in CASES])
    def test_batch_of_samples_accepted(self, model, name, method, sample, wrong):
        assert self._call(model, method, (2,) + sample).shape[0] == 2

    @pytest.mark.parametrize("bad", ["unbatched", "wrong-sample", "empty-batch"])
    @pytest.mark.parametrize("name,method,sample,wrong", CASES, ids=[c[1] for c in CASES])
    def test_other_shapes_rejected(self, model, name, method, sample, wrong, bad):
        shape = {"unbatched": sample, "wrong-sample": (2,) + wrong, "empty-batch": (0,) + sample}
        with pytest.raises(engine.ShapeError, match=name):
            self._call(model, method, shape[bad])

    @pytest.mark.parametrize("method,batch",
                             [("G", 2), ("remove_makeup", 2), ("remove_makeup", None)])
    def test_ndarray_input_gives_the_tensors_bytes(self, model, method, batch):
        x = rand_image(np.random.default_rng(9), size=16, batch=batch)
        run = attrgetter(method)(model)
        assert run(x.data).data.tobytes() == run(x).data.tobytes()

    def test_remove_makeup_one_image_is_row_0_of_a_batch_of_one(self, model):
        img = rand_image(np.random.default_rng(7), size=16)
        single = model.remove_makeup(img)
        batch = model.remove_makeup(Tensor(img.data[None]))
        assert single.shape == (3, 16, 16) and batch.shape == (1, 3, 16, 16)
        assert single.data.tobytes() == batch.data[0].tobytes()

    def test_extract_feature_one_image_is_row_0_of_a_batch_of_one(self, model):
        img = rand_image(np.random.default_rng(8), size=16)
        single = extract_feature(model.F, img)
        batch = extract_feature(model.F, Tensor(img.data[None]))
        assert single.shape == (64,) and batch.shape == (1, 64)
        assert single.data.tobytes() == batch.data[0].tobytes()


class TestBlanModel:
    def test_parameter_sets_disjoint(self):
        model = BlanModel(BlanConfig.for_size(32), seed=0)
        ids = []
        for net in model.networks().values():
            ids.extend(id(p) for p in net.parameters())
        assert len(ids) == len(set(ids))

    def test_remove_makeup_inference_is_deterministic(self):
        model = BlanModel(BlanConfig.for_size(32), seed=0)
        model.G.eval()
        img = rand_image(np.random.default_rng(1), size=32)
        a = model.remove_makeup(img).data
        b = model.remove_makeup(img).data
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 32, 32)

    @pytest.mark.parametrize("part,cls", [
        ("generator", GeneratorConfig), ("patch_disc", PatchDiscriminatorConfig),
        ("extractor", FeatureExtractorConfig),
    ])
    def test_one_image_size(self, part, cls):
        """G's output is D_p's and F's input: a config whose sizes disagree
        is refused before any network is built."""
        with pytest.raises(ValueError, match="input sizes differ"):
            BlanConfig(**{part: cls(input_size=(32, 32, 3))})

    def test_settable_config_values(self):
        """Only the values a caller varies are fields: lambda1-3 (the
        ablation), the image size and G's widths. The patch grid and the
        edge and symmetry weights are constants."""
        configs = (losses.LossWeights, GeneratorConfig, PatchDiscriminatorConfig,
                   FeatureExtractorConfig)
        assert {cls.__name__: [f.name for f in fields(cls)] for cls in configs} == {
            "LossWeights": ["lambda1", "lambda2", "lambda3"],
            "GeneratorConfig": ["input_size", "base_channels", "max_channels"],
            "PatchDiscriminatorConfig": ["input_size"],
            "FeatureExtractorConfig": ["input_size"],
        }
        weights = losses.LossWeights()
        assert PatchDiscriminatorConfig().k == defaults.PATCH_GRID
        assert (weights.w_edge, weights.w_sym) == (defaults.WEIGHT_EDGE, defaults.WEIGHT_SYM)
        with pytest.raises(TypeError):
            PatchDiscriminatorConfig(k=3)
        with pytest.raises(TypeError):
            losses.LossWeights(w_edge=0.0)

    def test_every_conv_reads_contiguous_windows(self, monkeypatch):
        """engine's lowering copies each tap's OH x OW window as one contiguous
        run where the plane pitch is OW or there is one output row: every conv
        of G, D_p and F, forward and backward, and of the 128 px G is one."""
        lowering, seen = engine._lowering, set()

        def spy(*geometry):
            seen.add(geometry)
            return lowering(*geometry)

        monkeypatch.setattr(engine, "_lowering", spy)
        rng = np.random.default_rng(3)
        model = BlanModel(BlanConfig.for_size(16), seed=0)
        fake = model.G(rand_image(rng, size=16, batch=2))
        (engine.tsum(model.D_p(fake)) + engine.tsum(model.F(fake))).backward()
        assert all(p.grad is not None for p in model.G.parameters())
        g128 = Generator(GeneratorConfig(input_size=(128, 128, 3), base_channels=2,
                                         max_channels=4), rng=np.random.default_rng(0))
        g128.eval()
        with engine.no_grad():
            g128(rand_image(rng, size=128, batch=1))
        assert {h for h, *_ in seen} >= {1, 2, 16, 64, 128}
        for geometry in seen:
            geo = lowering(*geometry)
            assert geo.pitch == geo.ow or geo.oh == 1, geometry


# where int() would truncate the value or numpy fail later with a bare error
NON_INTEGERS = [
    (lambda: synth.make_dataset(5, 1.5, (16, 16)), "seed: 1.5"),
    (lambda: BlanModel(BlanConfig.for_size(16), seed=1.5), "BlanModel: seed: 1.5"),
    (lambda: GeneratorConfig((64.0, 64.0, 3)), "image size: 64.0"),
    (lambda: PatchDiscriminatorConfig((64.0, 64.0, 3)), "image size: 64.0"),
    (lambda: FeatureExtractorConfig((64.0, 64.0, 3)), "image size: 64.0"),
    (lambda: GeneratorConfig(base_channels=1.5), "generator base_channels: 1.5"),
    (lambda: synth.make_dataset(10.0, 1, (16, 16)), "make_dataset: n_identities: 10.0"),
    (lambda: synth.render_variations(2, 2.5, 1, (16, 16)), "render_variations: per_identity: 2.5"),
]


@pytest.mark.parametrize("build,named", NON_INTEGERS, ids=[
    "dataset-seed", "model-seed", "generator-side", "patch-side", "extractor-side",
    "base-channels", "identities", "variations"])
def test_non_integer_seed_size_or_count_is_refused(build, named):
    with pytest.raises(TypeError, match=re.escape(f"{named} is not an integer")):
        build()


# the takers of an image size and whether (s, s) is one: the configs' networks unpack (h, w, c)
SIZE_TAKERS = {
    "generator": (GeneratorConfig, False),
    "patch-disc": (PatchDiscriminatorConfig, False),
    "extractor": (FeatureExtractorConfig, False),
    "dataset": (lambda size: synth.make_dataset(5, 1, size), True),
    "variations": (lambda size: synth.render_variations(2, 2, 1, size), True),
}


def _rendered(result):
    """The bytes of a make_dataset or render_variations result."""
    first, second = result
    if isinstance(first, np.ndarray):
        return first.tobytes(), second.tobytes()
    return [(p.I_A.data.tobytes(), p.I_B.data.tobytes(), p.y) for p in first], second


@pytest.mark.parametrize("size", [(16, 16), (16, 16, 3, 4), (16, 16, 0), (16, 16, -1),
                                  (16, 16, 1), (16, 16, 4), (16,), (), 16, "16"], ids=repr)
@pytest.mark.parametrize("taker", SIZE_TAKERS)
def test_image_size_is_s_s_or_s_s_3(monkeypatch, taker, size):
    """Any other size is refused, naming it, before a network is built or a
    face rendered; synth renders (s, s, 3) as (s, s)."""
    build, takes_s_s = SIZE_TAKERS[taker]
    if size == (16, 16) and takes_s_s:
        assert _rendered(build((16, 16, 3))) == _rendered(build(size))
        return
    monkeypatch.setattr(synth, "render_regions", None)  # a render would raise TypeError
    with pytest.raises(ValueError, match=re.escape(f"image size {size!r} must be square")):
        build(size)


# every seed is one that a u32 word of a file, as in a dataset's meta entry, can store
SEED_USERS = {
    "dataset": (lambda seed: synth.make_dataset(5, seed, (4, 4)), "seed"),
    "variations": (lambda seed: synth.render_variations(2, 2, seed, (4, 4)), "seed"),
    "model": (lambda seed: BlanModel(BlanConfig.for_size(16), seed=seed), "BlanModel: seed"),
}


@pytest.mark.parametrize("seed", [-1, 2**32, 2**64])
@pytest.mark.parametrize("user", SEED_USERS)
def test_seed_outside_u32_is_refused(user, seed):
    build, named = SEED_USERS[user]
    with pytest.raises(ValueError, match=re.escape(f"{named}: {seed} is outside [0, 2**32)")):
        build(seed)
    build(2**32 - 1)  # the largest seed passes


def test_numpy_integers_pass():
    n, seed, side = np.int64(5), np.uint32(1), np.int32(16)
    pairs, folds = synth.make_dataset(n, seed, (side, side))
    ref, ref_folds = synth.make_dataset(5, 1, (16, 16))
    assert folds == ref_folds
    assert [(p.I_A.data.tobytes(), p.I_B.data.tobytes()) for p in pairs] == [
        (p.I_A.data.tobytes(), p.I_B.data.tobytes()) for p in ref]
    model, ref_model = (BlanModel(BlanConfig.for_size(16), seed=s) for s in (seed, 1))
    assert network_state_vector(model.G).tobytes() == network_state_vector(ref_model.G).tobytes()


def modes(net):
    """The training flag of net and of every module inside it."""
    return [m.training for m in net._modules()]


class NoBaseConstructor(Module):
    """A module whose constructor calls no base constructor."""

    def __init__(self):
        self.head = Linear(2, 1, rng=np.random.default_rng(0))


def test_a_module_starts_in_train_mode_without_a_base_constructor():
    net = NoBaseConstructor()
    assert modes(net) == [True, True]
    assert modes(net.eval()) == [False, False]
    assert modes(net.train()) == [True, True]
    assert modes(net.freeze()) == [False, False]


def mode_and_buffers(net):
    return modes(net), [a.tobytes() for a in net.buffers()]


@pytest.mark.parametrize("name", ["G", "F"])
def test_freeze_fixes_batch_statistics(name):
    """A frozen network is in eval mode throughout, so a forward in grad mode
    leaves every batchnorm running statistic byte for byte as it was."""
    net = getattr(BlanModel(BlanConfig.for_size(16), seed=0), name)
    before = [a.tobytes() for a in net.freeze().buffers()]
    net(rand_image(np.random.default_rng(1), size=16, batch=2))
    assert before and [a.tobytes() for a in net.buffers()] == before
    assert not any(modes(net))


def run_threads(target, n):
    """target(i) on n threads at once, switching between them every 10 us."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestInferenceNeedsEvalMode:
    """remove_makeup and extract_feature refuse a network in train mode and
    never change a network's mode or buffers: the mode is the caller's."""

    CALLS = {  # call -> (the network it runs, the call)
        "remove_makeup": ("G", lambda model, x: model.remove_makeup(x)),
        "extract_feature": ("F", lambda model, x: extract_feature(model.F, x)),
    }

    @pytest.fixture
    def model(self):
        return BlanModel(BlanConfig.for_size(16), seed=0)  # every network in train mode

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("call", CALLS)
    def test_train_mode_raises_and_changes_nothing(self, model, call, batch):
        name, run = self.CALLS[call]
        net = getattr(model, name)
        before = mode_and_buffers(net)
        x = rand_image(np.random.default_rng(0), size=16, batch=batch)
        with engine.no_grad(), pytest.raises(ValueError, match=f"{type(net).__name__} is in train mode"):
            run(model, x)
        assert mode_and_buffers(net) == before and all(before[0])

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("call", CALLS)
    def test_eval_mode_runs_and_changes_nothing(self, model, call, batch):
        name, run = self.CALLS[call]
        net = getattr(model, name).eval()
        before = mode_and_buffers(net)
        with engine.no_grad():
            run(model, rand_image(np.random.default_rng(0), size=16, batch=batch))
        assert mode_and_buffers(net) == before and not any(before[0])

    def test_frozen_extractor_is_ready(self, model):
        before = mode_and_buffers(model.F.freeze())
        extract_feature(model.F, rand_image(np.random.default_rng(1), size=16, batch=2))
        assert mode_and_buffers(model.F) == before and not any(before[0])

    def test_concurrent_callers_on_a_train_mode_generator_all_raise(self, model):
        """No caller can switch a shared G to eval and back under another
        caller's forward, which would then use and update batch statistics."""
        before = mode_and_buffers(model.G)
        inputs = [rand_image(np.random.default_rng(10 + i), size=16, batch=3) for i in range(4)]
        errors = [[] for _ in inputs]

        def caller(i):
            for _ in range(20):
                try:
                    model.remove_makeup(inputs[i])
                except ValueError as e:
                    errors[i].append(str(e))

        run_threads(caller, len(inputs))
        message = "Generator is in train mode: call .eval() on it before inference"
        assert errors == [[message] * 20] * len(inputs)
        assert mode_and_buffers(model.G) == before


class TestInferenceShards:
    """A no-grad eval batch of remove_makeup or extract_feature is cut into
    min(engine.WIDTH, n) contiguous shards; the results must be those of one
    block."""

    @pytest.fixture
    def model(self):
        return eval_model()

    @pytest.fixture
    def shard_sizes(self, monkeypatch):
        """Batch sizes that reach G's forward and F's features, in any order."""
        sizes = []
        for cls, method in ((Generator, "forward"), (FeatureExtractor, "features")):
            def spy(module, x, run=getattr(cls, method)):
                sizes.append(x.shape[0])
                return run(module, x)
            monkeypatch.setattr(cls, method, spy)
        return sizes

    @staticmethod
    def _expected_sizes(n, width):
        k = min(n, width)
        return sorted(n * (i + 1) // k - n * i // k for i in range(k))

    def _one_block_then(self, monkeypatch, width, call):
        monkeypatch.setattr(engine, "WIDTH", 1)
        ref = call()
        monkeypatch.setattr(engine, "WIDTH", width)
        return ref, call()

    # (call, tolerance relative to the output's largest magnitude): G's outputs
    # are O(1), the untrained F's features O(1e-3) and cancel in its Linear
    CALLS = {
        "remove_makeup": (lambda model, x: model.remove_makeup(x), 1e-6),
        "extract_feature": (lambda model, x: extract_feature(model.F, x), 1e-5),
    }

    # more blocks than the pool has threads is fine: the pool runs them in turn
    @pytest.mark.parametrize("width", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("call", CALLS)
    def test_matches_one_block(self, model, shard_sizes, monkeypatch, call, n, width):
        # not bit for bit: BLAS may round a GEMM with fewer columns (the convs)
        # or rows (F's Linear) differently
        run, rel = self.CALLS[call]
        x = rand_image(np.random.default_rng(n), size=16, batch=n)
        with engine.no_grad():
            ref, out = self._one_block_then(monkeypatch, width, lambda: run(model, x))
        assert sorted(shard_sizes[1:]) == self._expected_sizes(n, width)
        assert out.shape == ref.shape and out.data.dtype == ref.data.dtype == np.float32
        np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=rel * np.abs(ref.data).max())

    def test_sharded_outputs_record_no_graph(self, model, shard_sizes, monkeypatch):
        make, recorded = engine._make, []

        def recording_make(data, parents, backward, op):
            out = make(data, parents, backward, op)
            recorded.append(out.requires_grad)
            return out

        monkeypatch.setattr(engine, "_make", recording_make)
        x = rand_image(np.random.default_rng(3), size=16, batch=5)
        with engine.no_grad():  # F is not frozen: its parameters require grad
            outs = [model.remove_makeup(x), extract_feature(model.F, x)]
        assert sorted(shard_sizes) == [2, 2, 3, 3]
        assert recorded and not any(recorded)  # nor did any op of a shard, on either thread
        for out in outs:
            assert not out.requires_grad and out._backward is None and out._parents == ()

    def test_grad_on_call_is_not_sharded(self, model, shard_sizes, monkeypatch):
        """extract_feature(F, G(I_A)) of the G step sends G the same gradient."""
        model.G.train()
        model.F.freeze()
        I_A = rand_image(np.random.default_rng(4), size=16, batch=4)

        def g_grads():
            for p in model.G.parameters():
                p.zero_grad()
            engine.tmean(extract_feature(model.F, model.G(I_A))).backward()
            return [p.grad for p in model.G.parameters()]

        ref, got = self._one_block_then(monkeypatch, 2, g_grads)
        assert shard_sizes == [4, 4, 4, 4]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(ref, got))

    def test_batchnorm_buffers_and_modes_unchanged(self, model, shard_sizes):
        before = [mode_and_buffers(net) for net in (model.G, model.F)]
        x = rand_image(np.random.default_rng(5), size=16, batch=6)
        with engine.no_grad():
            model.remove_makeup(x)
            extract_feature(model.F, x)
        assert shard_sizes == [3, 3, 3, 3]
        assert all(buffers for _, buffers in before)
        assert [mode_and_buffers(net) for net in (model.G, model.F)] == before

    def test_wrong_sample_shape_names_the_callers_batch(self, model, shard_sizes):
        bad = Tensor(np.zeros((4, 3, 16, 32), dtype=np.float32))
        with pytest.raises(engine.ShapeError, match=re.escape("generator: input (4, 3, 16, 32)")):
            model.remove_makeup(bad)
        with engine.no_grad(), pytest.raises(
                engine.ShapeError, match=re.escape("feature extractor: input (4, 3, 16, 32)")):
            extract_feature(model.F, bad)
        assert shard_sizes == []

    def test_nan_in_the_last_sample_is_rejected_before_the_split(self, model, shard_sizes):
        x = rand_image(np.random.default_rng(6), size=16, batch=5)
        x.data[4, 1, 7, 7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            model.remove_makeup(x)
        assert shard_sizes == []

    @pytest.mark.parametrize("slow", ["caller", "pool"])
    def test_a_failed_pool_shard_raises_after_every_shard_finished(self, model, monkeypatch, slow):
        """The pool thread's shard of a 2-shard batch raises: the error reaches
        the caller only once its own shard has finished and no pool task is
        still running, and the next call gets the sharded result."""
        x = rand_image(np.random.default_rng(7), size=16, batch=4)
        with engine.no_grad():
            expected = model.remove_makeup(x).data.tobytes()
        finished, fail = [], [True]

        def spy(module, batch, forward=Generator.forward):
            where = "pool" if on_pool_thread() else "caller"
            try:
                if where == slow:
                    time.sleep(0.05)
                if where == "pool" and fail[0]:
                    raise RuntimeError("pool shard failed")
                return forward(module, batch)
            finally:
                finished.append(where)

        monkeypatch.setattr(Generator, "forward", spy)
        with engine.no_grad(), pytest.raises(RuntimeError, match="pool shard failed"):
            model.remove_makeup(x)
        assert sorted(finished) == ["caller", "pool"]
        fail[0] = False
        with engine.no_grad():
            assert model.remove_makeup(x).data.tobytes() == expected
        assert sorted(finished) == ["caller", "caller", "pool", "pool"]

    @staticmethod
    def _check_concurrent_callers(model, batch):
        """4 threads x 5 remove_makeup calls get the serial bytes, and none hangs."""
        inputs = [rand_image(np.random.default_rng(10 + i), size=16, batch=batch) for i in range(4)]
        expected = [model.remove_makeup(x).data.tobytes() for x in inputs]
        results = [[] for _ in inputs]

        def caller(i):
            for _ in range(5):
                results[i].append(model.remove_makeup(inputs[i]).data.tobytes())

        run_threads(caller, len(inputs))
        assert results == [[e] * 5 for e in expected]
        assert engine._state.grad  # no caller's no_grad leaked into this thread

    def test_concurrent_callers_get_the_serial_results(self, model):
        self._check_concurrent_callers(model, batch=3)

    def test_concurrent_single_image_callers_get_the_serial_results(self, model, monkeypatch):
        """Every caller splits its convs over the one shared pool thread."""
        monkeypatch.setattr(engine, "SPLIT_MACS", 0)  # G's 16 px convs are below it
        self._check_concurrent_callers(model, batch=None)
        assert not engine._state.inside  # no block's mark leaked into this thread


# the three tasks of _fan_out at inference: a conv's channel block, and a shard
CONV_BLOCKS = ("conv2d.<locals>.block", "conv_transpose2d.<locals>.block")
SHARD = "_infer.<locals>.shard"


def splitting_convs(net, size, batch=None):
    """(convs that submit a block, convs) of net's no-grad forward of one
    size x size image, or of a batch of them; net must be in eval mode."""
    spy = PoolSpy(engine._pool)
    engine._pool, pool = spy, engine._pool
    try:
        with engine.no_grad():
            networks._infer(net, rand_image(np.random.default_rng(size), size=size, batch=batch))
    finally:
        engine._pool = pool
    # a conv call's one block function, kept alive by the spy
    blocks = {task for task in spy.tasks if task.__qualname__ in CONV_BLOCKS}
    convs = sum(isinstance(m, (Conv2d, ConvTranspose2d)) for m in net._modules())
    return len(blocks), convs


class TestConvSplit:
    """A no-grad call that is one block -- one image, or a batch of one --
    splits each conv of at least engine.SPLIT_MACS multiply-adds into
    engine.WIDTH channel blocks, and runs every smaller conv whole: G's and
    F's at 16 and 64 px. A call that records a graph, and every shard of a
    sharded batch, split nothing: this keeps the split out of the train and
    verify steps."""

    @pytest.fixture
    def model(self):
        return eval_model()

    @pytest.fixture
    def submits(self, monkeypatch):
        """A PoolSpy as engine._pool."""
        spy = PoolSpy(engine._pool)
        monkeypatch.setattr(engine, "_pool", spy)
        return spy

    @pytest.mark.parametrize("batch", [None, 1])
    @pytest.mark.parametrize("size", [16, 64])
    def test_one_sample_at_desk_sizes_submits_nothing(self, submits, size, batch):
        model = BlanModel(BlanConfig.for_size(size), seed=0)
        model.G.eval()
        model.F.eval()
        x = rand_image(np.random.default_rng(size), size=size, batch=batch)
        with engine.no_grad():
            out = model.remove_makeup(x)
            extract_feature(model.F, x)
        assert submits.tasks == []
        assert out.shape == x.shape and not out.requires_grad

    @pytest.mark.parametrize("batch", [None, 1])
    def test_one_sample_splits_every_large_conv(self, model, submits, monkeypatch, batch):
        monkeypatch.setattr(engine, "SPLIT_MACS", 0)  # every conv at 16 px is large
        x = rand_image(np.random.default_rng(0), size=16, batch=batch)
        depth = model.G.config.encoder_depth
        out = model.remove_makeup(x)
        blocks = [CONV_BLOCKS[0]] * depth + [CONV_BLOCKS[1]] * depth
        assert submits.names() == blocks  # G's 4 convs, then its 4 transposed convs
        with engine.no_grad():
            extract_feature(model.F, x)
        assert submits.names() == blocks + [CONV_BLOCKS[0]] * 4  # and F's 4
        assert out.shape == x.shape and not out.requires_grad

    @pytest.mark.parametrize("batch", [None, 1, 5])
    def test_a_call_that_records_a_graph_submits_nothing(self, model, submits, monkeypatch, batch):
        """Neither its forward nor its backward splits a conv."""
        monkeypatch.setattr(engine, "SPLIT_MACS", 0)
        feats = extract_feature(model.F, rand_image(np.random.default_rng(1), size=16, batch=batch))
        assert feats.requires_grad  # F is not frozen: its parameters require grad
        engine.tsum(feats * feats).backward()
        assert submits.tasks == []

    def test_a_sharded_batch_submits_only_its_shard(self, model, submits, monkeypatch):
        """Every conv is large enough to split, but a shard's convs run whole."""
        monkeypatch.setattr(engine, "SPLIT_MACS", 0)
        with engine.no_grad():
            model.remove_makeup(rand_image(np.random.default_rng(2), size=16, batch=5))
            extract_feature(model.F, rand_image(np.random.default_rng(3), size=16, batch=2))
        assert submits.names() == [SHARD] * 2

    # at 128 px G's transposed convs to 64, 32 and 16 channels have 2**24
    # multiply-adds each; every other conv of G and F has fewer
    @pytest.mark.parametrize("size,split", [(16, 0), (128, 3)])
    def test_one_image_matches_one_block(self, submits, monkeypatch, size, split):
        model = BlanModel(BlanConfig.for_size(size), seed=0)
        model.G.eval()
        model.F.eval()
        x = rand_image(np.random.default_rng(size), size=size)
        for call, (run, rel) in TestInferenceShards.CALLS.items():
            with engine.no_grad():
                monkeypatch.setattr(engine, "WIDTH", 1)
                ref = run(model, x)
                monkeypatch.setattr(engine, "WIDTH", 2)
                out = run(model, x)
            assert out.shape == ref.shape and out.data.dtype == ref.data.dtype == np.float32
            np.testing.assert_allclose(out.data, ref.data, rtol=0, atol=rel * np.abs(ref.data).max())
        assert submits.names() == [CONV_BLOCKS[1]] * split

    def test_a_direct_no_grad_forward_splits_as_remove_makeup(self, submits):
        """G(x) of one 128 px image inside no_grad gives remove_makeup's bytes:
        both split the 3 large transposed convs."""
        model = BlanModel(BlanConfig.for_size(defaults.REFERENCE_IMAGE_SIZE), seed=0)
        model.G.eval()
        x = rand_image(np.random.default_rng(0), size=defaults.REFERENCE_IMAGE_SIZE)
        ref = model.remove_makeup(x)
        with engine.no_grad():
            out = model.G(engine.reshape(x, (1,) + x.shape))
        assert out.data.tobytes() == ref.data.tobytes()
        assert submits.names() == [CONV_BLOCKS[1]] * 6

    def test_splitting_convs_counts_each_conv_once(self, monkeypatch):
        monkeypatch.setattr(engine, "WIDTH", 3)
        model = BlanModel(BlanConfig.for_size(128), seed=0)
        model.G.eval()
        model.F.eval()
        assert splitting_convs(model.G, 128) == (3, 14)
        assert splitting_convs(model.F, 128) == (0, 4)
        assert splitting_convs(model.G, 128, batch=2) == (0, 14)  # a shard's convs run whole


def fan_out_hashes():
    """SHA-256 of two no-grad outputs cut by engine._fan_out: F's features of a
    16-image batch at 16 px (its shards) and remove_makeup of one 16 px image
    with every conv split. It imports what it uses, so a child process can
    run its source."""
    import hashlib

    import numpy as np

    from blan import engine
    from blan.networks import BlanConfig, BlanModel, extract_feature

    model = BlanModel(BlanConfig.for_size(16), seed=0)
    model.G.eval()
    model.F.eval()
    x = np.random.default_rng(0).uniform(-1, 1, size=(16, 3, 16, 16)).astype(np.float32)
    with engine.no_grad():
        feats = extract_feature(model.F, x).data
    split, engine.SPLIT_MACS = engine.SPLIT_MACS, 0
    try:
        out = model.remove_makeup(x[0]).data
    finally:
        engine.SPLIT_MACS = split
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in (feats, out)]


CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


@pytest.mark.skipif(len(CPUS) < 2, reason="needs an affinity mask of two or more cores to compare with one")
def test_output_bytes_do_not_depend_on_the_affinity_mask():
    """A child pinned to one of this process's cores before it imports blan
    gets the bytes this process gets."""
    script = "\n".join([
        "import os",
        f"os.sched_setaffinity(0, {{{CPUS[0]}}})",
        textwrap.dedent(inspect.getsource(fan_out_hashes)),
        "print(*fan_out_hashes())",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    assert child.stdout.split() == fan_out_hashes()


def g_objective(model, I_A, I_B, weights):
    """compose_total of G's six terms, through D_p, model.F and D_f."""
    fake = model.G(I_A)
    f_gen, f_gt = extract_feature(model.F, fake), extract_feature(model.F, I_B)
    return losses.compose_total(
        pxl=losses.loss_pxl(fake, I_B),
        edg=losses.loss_edge(fake, I_B),
        sym=losses.loss_sym(fake),
        adv_p=losses.loss_adv_pixel_G(model.D_p(fake)),
        cons_f=losses.loss_cons_feature(f_gen, f_gt),
        adv_f=losses.loss_adv_feature_G(model.D_f(f_gen)),
        weights=weights,
    )


@pytest.fixture(scope="module")
def g_step():
    """One float32 G step at 16 px: G, D_p, frozen F, D_f, compose_total, backward.

    Returns the parameter grads of G, D_p and D_f, and the dtype of every op
    output and of every array handed to a gradient, keyed by the node's op.
    """
    model = BlanModel(BlanConfig.for_size(16), seed=0)
    model.F.freeze()
    rng = np.random.default_rng(2)
    I_A, I_B = rand_image(rng, size=16, batch=2), rand_image(rng, size=16, batch=2)
    dtypes = set()
    make, accumulate = engine._make, Tensor._accumulate

    def recording_make(data, parents, backward, op):
        dtypes.add(("forward", op, np.asarray(data).dtype))
        return make(data, parents, backward, op)

    def recording_accumulate(self, grad, upstream):
        dtypes.add(("backward", self.op, np.asarray(grad).dtype))
        accumulate(self, grad, upstream)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_make", recording_make)
        mp.setattr(Tensor, "_accumulate", recording_accumulate)
        g_objective(model, I_A, I_B, losses.LossWeights()).backward()
    assert all(p.grad is None for p in model.F.parameters())
    grads = {name: [p.grad for p in model.networks()[name].parameters()]
             for name in ("G", "D_p", "D_f")}
    return grads, dtypes


def g_step_memory():
    """(graph, peak) in MB for one float32 G objective at 16 px, batch 4, as
    traced by tracemalloc: what building the graph leaves allocated, and the
    most that backward() allocates on top of it at any one time."""
    model = BlanModel(BlanConfig.for_size(16), seed=0)
    model.F.freeze()
    rng = np.random.default_rng(2)
    I_A, I_B = rand_image(rng, size=16, batch=4), rand_image(rng, size=16, batch=4)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = g_objective(model, I_A, I_B, losses.LossWeights())
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (start - base) / 2**20, (peak - start) / 2**20


def test_g_step_backward_frees_the_graph_as_it_walks():
    """Recorded: a 1.23 MB graph and a 0.78 MB backward() peak; 2.37 MB when
    every node lived until the walk ended."""
    graph, peak = g_step_memory()
    assert graph > 0.5  # numpy's arrays are traced, so the bound below means something
    assert peak < 1.2


class TestGStepFloat32:
    def test_no_op_promotes_to_float64(self, g_step):
        # e.g. a bool mask times a python float is float64 under NEP 50; the
        # gradient buffer would cast it back, so check what reaches it
        _grads, dtypes = g_step
        assert {kind for kind, _op, _dt in dtypes} == {"forward", "backward"}
        assert [d for d in dtypes if d[2] != np.float32] == []

    def test_every_grad_is_float32_and_c_contiguous(self, g_step):
        for name, grads in g_step[0].items():
            for i, g in enumerate(grads):
                assert g is not None, f"{name} parameter {i} got no gradient"
                assert g.dtype == np.float32, f"{name} parameter {i}: {g.dtype}"
                assert g.flags.c_contiguous, f"{name} parameter {i} is not C-contiguous"

    def test_no_two_grads_share_memory(self, g_step):
        grads = [g for gs in g_step[0].values() for g in gs]
        for i, gi in enumerate(grads):
            for gj in grads[i + 1 :]:
                assert not np.shares_memory(gi, gj)


def test_composed_g_objective_grad_check_float64():
    """G's whole objective, through D_p, frozen F and D_f, against central
    differences: G's first conv, a batchnorm gamma in each half and its last
    transposed conv. The three D/F terms move these gradients by 1e-6 to 5e-5,
    so the bound is far below the 1e-4 of the single-op checks."""
    model = BlanModel(BlanConfig.for_size(16), seed=0)
    for net in model.networks().values():
        net.astype(np.float64)
    model.F.freeze()
    rng = np.random.default_rng(2)
    I_A, I_B = (Tensor(rng.uniform(-0.9, 0.9, (2, 3, 16, 16))) for _ in range(2))
    weights = losses.LossWeights(lambda1=0.3, lambda2=0.5, lambda3=0.3)
    g = model.G
    params = [g.enc[0].mods[0].weight, g.enc[1].mods[1].gamma,
              g.dec[0].mods[1].gamma, g.dec[-1].mods[0].weight]
    assert grad_check(lambda _p: g_objective(model, I_A, I_B, weights), params,
                      eps=1e-6, max_coords=6) < 1e-7
    assert all(p.grad is None for p in model.F.parameters())
