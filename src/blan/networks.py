"""The four networks: generator G, patch discriminator D_p, feature
discriminator D_f and the frozen feature extractor F, plus the binary
container that is the package's one file format: it persists all four
networks as a checkpoint, and ``synth.save_dataset`` stores a dataset in it.

The generator is a U-Net: an encoder of stride-2 convolutions down to a
1x1 bottleneck and a mirrored decoder of stride-2 transposed convolutions.
The activation of encoder layer i is concatenated channel-wise into the
decoder path at the stage of equal spatial size, so low-level detail
bypasses the bottleneck. Each encoder and decoder stage is one Sequential,
so G's checkpoint order is its stage definition order: encoder stages
first, then decoder stages, parameters before batchnorm buffers.

Every network is built from Sequential stacks and takes batches only: an
input of shape (N,) + its configured sample shape, else a ShapeError that
names the network. The two inference calls ``BlanModel.remove_makeup`` and
``extract_feature`` run G's and F's own forward, and also take one (3, h, w)
image and return one result.

Both calls need their network in eval mode (frozen batch statistics) and
never change its mode: a network in train mode gets a ValueError, so the
mode has one owner, the caller. A batch that records no graph (inside
``engine.no_grad``) is validated whole and fanned out over the cores as
min(cores, N) contiguous shards along the batch axis (``engine._fan_out``),
whose results are concatenated in order. Eval mode is what makes this
sound: it makes a sample's result independent of the rest of its batch, up
to the last bits (BLAS may round a GEMM with fewer columns or rows
differently). A call that records a graph runs as one batch on the calling
thread. A no-grad call with no shard for a second core -- a single image,
or a batch of one -- splits the forward GEMM of each conv over the cores
instead (``engine._split_gemms``).
"""

from __future__ import annotations

import os
import tempfile
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import defaults, engine
from .engine import ShapeError, Tensor
from .layers import (
    BatchNorm2d, Conv2d, ConvTranspose2d, LeakyReLU, Linear, Module, ReLU,
    Sequential, Sigmoid, Tanh,
)


def _require_at_least(n, least, what):
    if n < least:
        raise ValueError(f"{what} must be >= {least}, got {n}")


def _square(input_size):
    h, w, _c = input_size
    if h != w:
        raise ValueError(f"input must be square, got {h}x{w}")
    return h


def _check_batch(network, x, sample):
    """The one input check of every network: x must be (N,) + sample, N >= 1."""
    if x.shape[1:] != sample or not x.shape[0]:
        raise ShapeError(f"{network}: input {x.shape} is not a batch of {sample} samples")


def _infer(net, x):
    """net(x) on one (3, h, w) image or a batch of net's inputs, sharded over
    the cores as the module docstring says; net must be in eval mode."""
    if net.training:
        raise ValueError(f"{type(net).__name__} is in train mode: call .eval() on it before inference")
    if x.ndim == 3:
        out = _infer(net, engine.reshape(x, (1,) + x.shape))
        return engine.reshape(out, out.shape[1:])
    if engine._state.grad:
        return net(x)
    net._check_input(x)  # so an error names the caller's batch, not a shard
    k = min(engine._CORES, x.shape[0])
    if k < 2:
        # no shard for a second core: split each conv GEMM over the cores instead
        with engine._split_gemms():
            return net(x)

    def shard(lo, hi):
        # the grad mode is per thread: a pool thread does not see the caller's
        with engine.no_grad():
            return net(Tensor(x.data[lo:hi])).data

    return Tensor(np.concatenate(engine._fan_out(shard, x.shape[0], k)))


@dataclass
class GeneratorConfig:
    input_size: tuple = (defaults.IMAGE_SIZE, defaults.IMAGE_SIZE, 3)  # (h, w, c)
    base_channels: int = defaults.BASE_CHANNELS
    max_channels: int = defaults.MAX_CHANNELS

    def __post_init__(self):
        size = _square(self.input_size)
        if size < 2 or size & (size - 1):
            raise ValueError(f"generator input size must be a power of two >= 2, got {size}")
        _require_at_least(self.base_channels, 1, "generator base_channels")
        _require_at_least(self.max_channels, 1, "generator max_channels")

    @property
    def encoder_depth(self):
        """log2(size) stride-2 stages, so the bottleneck is 1x1."""
        return int(np.log2(self.input_size[0]))

    def channels(self, i):
        """Output channels of encoder layer i (1-indexed)."""
        return min(self.base_channels * 2 ** (i - 1), self.max_channels)


@dataclass
class PatchDiscriminatorConfig:
    input_size: tuple = (defaults.IMAGE_SIZE, defaults.IMAGE_SIZE, 3)
    k = defaults.PATCH_GRID  # a class constant, not a field

    def __post_init__(self):
        size = _square(self.input_size)
        # k x k patches, each halved DP_CONV_LAYERS - 1 times down to at least 1x1
        unit = self.k << (defaults.DP_CONV_LAYERS - 1)
        if size < unit or size % unit:
            raise ValueError(f"input {size}x{size} does not split into a {self.k}x{self.k} "
                             f"patch grid for {defaults.DP_CONV_LAYERS} conv layers")


@dataclass
class FeatureExtractorConfig:
    input_size: tuple = (defaults.IMAGE_SIZE, defaults.IMAGE_SIZE, 3)

    def __post_init__(self):
        size = _square(self.input_size)
        # four stride-2 stages must leave at least a 1x1 map
        if size < 16 or size % 16:
            raise ValueError(f"extractor input {size}x{size} must be positive multiples of 16")


class Generator(Module):
    def __init__(self, config: GeneratorConfig, rng):
        super().__init__()
        self.config = config
        h, _w, c = config.input_size
        depth = config.encoder_depth

        self.enc = []
        in_ch = c
        for i in range(1, depth + 1):
            out_ch = config.channels(i)
            conv = Conv2d(in_ch, out_ch, 4, stride=2, pad=1, rng=rng)
            # first layer sees raw pixels and keeps their statistics
            norm = [BatchNorm2d(out_ch)] if i > 1 else []
            self.enc.append(Sequential(conv, *norm, LeakyReLU()))
            in_ch = out_ch

        self.dec = []
        for j in range(1, depth + 1):
            skip_ch = config.channels(depth - j + 1) if j >= 2 else 0
            out_ch = config.channels(depth - j) if j < depth else c
            conv = ConvTranspose2d(in_ch + skip_ch, out_ch, 4, stride=2, pad=1, rng=rng)
            # last layer maps straight to pixels in [-1, 1]
            tail = [BatchNorm2d(out_ch), ReLU()] if j < depth else [Tanh()]
            self.dec.append(Sequential(conv, *tail))
            in_ch = out_ch

    def _check_input(self, x):
        h, w, c = self.config.input_size
        _check_batch("generator", x, (c, h, w))
        # written so that NaN (whose comparisons are all False) is rejected too
        if not np.abs(x.data).max() <= 1.0 + 1e-5:
            raise ValueError("generator input must be finite and lie in [-1, 1]")

    def forward(self, x):
        self._check_input(x)
        skips = []
        for stage in self.enc:
            x = stage(x)
            skips.append(x)
        for j, stage in enumerate(self.dec):
            if j:
                x = engine.concat([x, skips[-1 - j]], axis=1)
            x = stage(x)
        return x


class PatchDiscriminator(Module):
    """Scores each of k x k non-overlapping patches independently.

    The same conv stack (no normalization, so each patch's score depends on
    that patch alone in every mode) runs on all patches; the last conv
    collapses the remaining spatial extent to 1x1 and a sigmoid maps to (0,1).
    """

    def __init__(self, config: PatchDiscriminatorConfig, rng):
        super().__init__()
        self.config = config
        h, _w, c = config.input_size
        patch = h // config.k
        layers = []
        in_ch = c
        size = patch
        for i in range(defaults.DP_CONV_LAYERS - 1):
            out_ch = defaults.DP_BASE_CHANNELS * 2 ** i
            layers += [Conv2d(in_ch, out_ch, 4, stride=2, pad=1, rng=rng), LeakyReLU()]
            in_ch = out_ch
            size //= 2
        layers += [Conv2d(in_ch, 1, size, stride=1, pad=0, rng=rng), Sigmoid()]
        self.stack = Sequential(*layers)

    def forward(self, x):
        h, w, c = self.config.input_size
        _check_batch("patch discriminator", x, (c, h, w))
        k, n = self.config.k, x.shape[0]
        p = h // k
        # patch (a, b) of sample i lands at row (a*k + b)*n + i
        grid = engine.reshape(x, (n, c, k, p, k, p))
        grid = engine.transpose(grid, (2, 4, 0, 1, 3, 5))
        stacked = engine.reshape(grid, (k * k * n, c, p, p))
        scores = self.stack(stacked)  # (k*k*n, 1, 1, 1)
        out = engine.reshape(scores, (k, k, n))
        return engine.transpose(out, (2, 0, 1))


class FeatureDiscriminator(Module):
    """Two fully connected layers and a sigmoid: feature vector -> (0,1)."""

    def __init__(self, rng):
        super().__init__()
        self.stack = Sequential(
            Linear(defaults.FEATURE_DIM, defaults.DF_HIDDEN, rng=rng), LeakyReLU(),
            Linear(defaults.DF_HIDDEN, 1, rng=rng), Sigmoid(),
        )

    def forward(self, feat):
        _check_batch("feature discriminator", feat, (defaults.FEATURE_DIM,))
        return engine.reshape(self.stack(feat), (-1,))


class FeatureExtractor(Module):
    """Conv stack and one linear layer: image -> identity feature.

    The extractor alone: pretraining puts its own classifier head on top and
    drops it, so F's state depends on its input size only. Stays frozen
    during adversarial training: parameters receive no updates and batch
    statistics are the running averages captured at pretraining, while
    gradients still flow through to the generator.
    """

    def __init__(self, config: FeatureExtractorConfig, rng):
        super().__init__()
        self.config = config
        h, _w, c = config.input_size
        b = defaults.F_BASE_CHANNELS
        layers = [Conv2d(c, b, 4, stride=2, pad=1, rng=rng), LeakyReLU()]
        for in_ch, out_ch in ((b, 2 * b), (2 * b, 4 * b), (4 * b, 4 * b)):
            conv = Conv2d(in_ch, out_ch, 4, stride=2, pad=1, rng=rng)
            layers += [conv, BatchNorm2d(out_ch), LeakyReLU()]
        self.convs = Sequential(*layers)
        self.fc_feat = Linear(4 * b * (h // 16) ** 2, defaults.FEATURE_DIM, rng=rng)

    def _check_input(self, x):
        h, w, c = self.config.input_size
        _check_batch("feature extractor", x, (c, h, w))

    def features(self, x):
        self._check_input(x)
        x = self.convs(x)
        return self.fc_feat(engine.reshape(x, (x.shape[0], -1)))

    def forward(self, x):
        # features is the body, under its own name: the benchmark's tracer wraps it
        return self.features(x)


def extract_feature(extractor: FeatureExtractor, image):
    """Fixed-length feature of one (3, h, w) image or a batch.

    The extractor must be in eval mode (``freeze()`` puts it there); the call
    never changes its mode. Inside ``engine.no_grad`` a batch is split over
    the cores (see the module docstring).
    """
    return _infer(extractor, image)


@dataclass
class BlanConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    patch_disc: PatchDiscriminatorConfig = field(default_factory=PatchDiscriminatorConfig)
    extractor: FeatureExtractorConfig = field(default_factory=FeatureExtractorConfig)

    def __post_init__(self):
        # one image size: G's output is what D_p and F take
        sizes = [tuple(c.input_size) for c in (self.generator, self.patch_disc, self.extractor)]
        if len(set(sizes)) > 1:
            raise ValueError(f"generator, patch discriminator and extractor input sizes differ: {sizes}")

    @classmethod
    def for_size(cls, size):
        shape = (size, size, 3)
        return cls(
            generator=GeneratorConfig(input_size=shape),
            patch_disc=PatchDiscriminatorConfig(input_size=shape),
            extractor=FeatureExtractorConfig(input_size=shape),
        )


class BlanModel:
    """The generator, the two discriminators and the frozen extractor.

    Parameter sets are disjoint by construction; optimizers are built per
    network so a step on one can never touch another.
    """

    def __init__(self, config: BlanConfig, seed=0):
        self.config = config
        ss = np.random.SeedSequence(entropy=(int(seed), 0xB1A))
        rng_g, rng_dp, rng_df, rng_f = (np.random.default_rng(s) for s in ss.spawn(4))
        self.G = Generator(config.generator, rng=rng_g)
        self.D_p = PatchDiscriminator(config.patch_disc, rng=rng_dp)
        self.D_f = FeatureDiscriminator(rng=rng_df)
        self.F = FeatureExtractor(config.extractor, rng=rng_f)

    def networks(self):
        return {"G": self.G, "D_p": self.D_p, "D_f": self.D_f, "F": self.F}

    def remove_makeup(self, image):
        """Generator forward on one (3, h, w) image or a batch, without a graph.

        G must be in eval mode (``self.G.eval()``); the call never changes
        its mode. A batch is split over the cores (see the module docstring).
        """
        with engine.no_grad():
            return _infer(self.G, image)


# -- checkpoint format -------------------------------------------------------
#
# little-endian binary: magic "BLAN", u32 format version, then entries of
# (u32 name length, name bytes, u32 scalar count, count x f32), and a trailing
# CRC32 over everything before it. Integer-valued entries ("config", "meta")
# are u32 words bit-cast to f32 so the 4-byte layout is uniform. Version 2
# stores ConvTranspose2d weights as (out, k, k, in); a version-1 file has the
# same sizes in (in, out, k, k) order, so it is refused, not misread.

CHECKPOINT_MAGIC = b"BLAN"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    pass


def write_checkpoint(path, entries):
    """entries: ordered list of (name, 1-d float32 array), no name twice.

    Creates the directory ``path`` goes in. Atomic: the bytes go to a
    temporary file beside ``path``, which is then renamed over it, so a
    failed write leaves any previous file as it was.
    """
    parts = [CHECKPOINT_MAGIC, np.uint32(CHECKPOINT_VERSION).tobytes()]
    names = set()
    for name, values in entries:
        if name in names:  # read_checkpoint would refuse the file
            raise CheckpointError(f"{path}: duplicate entry {name!r}")
        names.add(name)
        name_b = name.encode("utf-8")
        arr = np.ascontiguousarray(values, dtype="<f4").reshape(-1)
        parts += [np.uint32(len(name_b)).tobytes(), name_b, np.uint32(arr.size).tobytes(), arr]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(np.uint32(crc).tobytes())
    folder = os.path.dirname(os.path.abspath(path))
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=folder)
    try:
        with open(fd, "wb") as fh:
            fh.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path):
    """Returns the ordered entry dict; verifies magic, version and CRC."""
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())  # slices of a memoryview copy nothing
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = int(np.frombuffer(blob[4:8], dtype="<u4")[0])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    stored_crc = int(np.frombuffer(blob[-4:], dtype="<u4")[0])
    if stored_crc != zlib.crc32(blob[:-4]):
        raise CheckpointError(f"{path}: CRC mismatch (corrupt checkpoint)")
    entries = {}
    pos = 8
    end = len(blob) - 4

    def u32(what):
        nonlocal pos
        if pos + 4 > end:
            raise CheckpointError(f"{path}: truncated {what}")
        pos += 4
        return int(np.frombuffer(blob[pos - 4 : pos], dtype="<u4")[0])

    while pos < end:
        nlen = u32("entry header")
        if pos + nlen > end:
            raise CheckpointError(f"{path}: entry name of {nlen} bytes overruns the file")
        try:
            name = str(blob[pos : pos + nlen], "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: entry name is not valid UTF-8") from None
        pos += nlen
        if name in entries:
            raise CheckpointError(f"{path}: duplicate entry {name!r}")
        nbytes = 4 * u32(f"scalar count of entry {name!r}")
        if pos + nbytes > end:
            raise CheckpointError(f"{path}: truncated data for entry {name!r}")
        entries[name] = np.frombuffer(blob[pos : pos + nbytes], dtype="<f4").copy()
        pos += nbytes
    return entries


def pack_ints(values):
    """Integers in [0, 2**32) as u32 words bit-cast to f32; numpy would wrap
    or raise a bare OverflowError for any other value, so it is refused."""
    for v in values:
        if not 0 <= v < 2**32:
            raise ValueError(f"pack_ints: {v} is outside [0, 2**32)")
    return np.asarray(values, dtype="<u4").view("<f4")


def unpack_ints(arr):
    return np.ascontiguousarray(arr, dtype="<f4").view("<u4").astype(np.int64)


def network_state_vector(module):
    return np.concatenate([a.reshape(-1) for a in module.state_arrays()], dtype=np.float32)


def load_network_state(module, vec):
    arrays = module.state_arrays()
    total = sum(a.size for a in arrays)
    if vec.size != total:
        raise CheckpointError(
            f"state size mismatch: checkpoint has {vec.size} scalars, network needs {total}"
        )
    pos = 0
    for a in arrays:
        a[...] = vec[pos : pos + a.size].reshape(a.shape)  # casts to a.dtype as it copies
        pos += a.size
