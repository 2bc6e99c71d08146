"""The benchmark's three workloads, driven through ``blan``'s public API only.

Each workload builds its inputs from ``synth`` with the run's seed, sends
them through the PPM dataset round trip, builds its networks, and then runs
one closed-loop operation per ``step`` call. ``check`` inspects a step's
outputs after the clock has stopped; every failed check counts against
``failed`` in the result.

* ``train``      -- the hand-wired BLAN iteration (D_p step, D_f step, G step)
                    at desk scale, gradients only.
* ``verify``     -- remove_makeup + extract_feature + cosine scores for every
                    probe x gallery pair of one held-out fold, eval mode.
* ``remove_ref`` -- remove_makeup, one image per call, at the paper's
                    reference generator (128 px, 64..512 channels).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blan import defaults, engine, losses, networks, synth
from blan.engine import Tensor
from blan.layers import Conv2d
from blan.networks import (
    BlanConfig, BlanModel, FeatureExtractorConfig, GeneratorConfig,
    PatchDiscriminatorConfig,
)

HELD_OUT_FOLD = 0
PPM_TOLERANCE = 1.0 / 127.5
SAMPLE_ATOL = 1e-4  # batched vs per-image generator output, float32


@dataclass(frozen=True)
class Scale:
    """Input sizes of the three workloads."""

    train_size: int = defaults.IMAGE_SIZE
    train_batch: int = defaults.BATCH_SIZE
    train_identities: int = 40
    verify_size: int = defaults.IMAGE_SIZE
    verify_batch: int = 8
    verify_identities: int = 80
    ref_size: int = defaults.REFERENCE_IMAGE_SIZE
    ref_base_channels: int = defaults.REFERENCE_BASE_CHANNELS
    ref_max_channels: int = defaults.REFERENCE_MAX_CHANNELS
    ref_identities: int = 5
    warmup_steps: int = 2


DESK = Scale()
# small enough for a test to run every workload in a few seconds
TINY = Scale(train_size=16, train_batch=2, train_identities=10,
             verify_size=16, verify_batch=4, verify_identities=15,
             ref_size=16, ref_base_channels=8, ref_max_channels=16,
             ref_identities=5, warmup_steps=1)


def _ms(t0):
    return (time.perf_counter() - t0) * 1e3


def _finite_in_unit_range(a):
    return bool(np.isfinite(a).all() and np.abs(a).max() <= 1.0)


class Workload:
    """Set-up shared by all workloads: inputs, PPM round trip, bookkeeping.

    ``spans`` holds the set-up times (ms) of the calls into ``synth``,
    ``ppm`` and the checkpoint code; ``setup_checks`` the outcome of each
    set-up round trip.
    """

    name = ""
    probe = "large"  # the probe.PROBES entry whose op sizes match the steps
    items_per_step = 1

    def __init__(self, scale, workdir):
        self.warmup_steps = scale.warmup_steps
        self.workdir = Path(workdir)
        self.spans = {}
        self.setup_checks = []

    def _inputs(self, n_identities, seed, size):
        """Generated pairs after a save/load round trip through PPM files."""
        t0 = time.perf_counter()
        pairs, folds = synth.make_dataset(n_identities, seed, (size, size))
        self.spans["synth_ms"] = _ms(t0)
        root = self.workdir / "dataset"
        t0 = time.perf_counter()
        synth.save_dataset(root, pairs, folds, seed, (size, size))
        self.spans["ppm_write_ms"] = _ms(t0)
        t0 = time.perf_counter()
        loaded, loaded_folds, _manifest = synth.load_dataset(root)
        self.spans["ppm_read_ms"] = _ms(t0)
        self.spans["images"] = 2 * len(pairs)
        self.spans["pairs"] = len(pairs)
        ok = loaded_folds.assignments == folds.assignments and len(loaded) == len(pairs)
        for a, b in zip(pairs, loaded):
            for x, y in ((a.I_A, b.I_A), (a.I_B, b.I_B)):
                ok = ok and np.abs(x.data - y.data).max() <= PPM_TOLERANCE
        self.setup_checks.append(("ppm_round_trip", bool(ok)))
        return loaded, loaded_folds

    def warm_up(self):
        """Run and check a few steps so caches and allocators settle."""
        for i in range(self.warmup_steps):
            self.setup_checks.append((f"warmup_{i}", self.check(self.step(i))))

    def final_checks(self):
        """Checks run once after the timed loop; returns (name, ok) pairs."""
        return []

    def record(self, i, out):
        """Per-step figures kept in the results file (phase times, losses)."""
        return {}


class TrainWorkload(Workload):
    """BLAN iteration: D_p step, D_f step, G step; gradients, no updates.

    Every step computes its own inputs: G(I_A) is formed once per
    iteration, but F(I_B), F(G(I_A)) and D_p(G(I_A)) are recomputed in each
    step that needs them. Caching them is left to the program.
    """

    name = "train"
    probe = "small"

    def __init__(self, seed, scale: Scale, workdir):
        super().__init__(scale, workdir)
        self.items_per_step = scale.train_batch
        pairs, folds = self._inputs(scale.train_identities, seed, scale.train_size)
        by_id = {p.y: p for p in pairs}
        ids = np.random.default_rng(seed).permutation(folds.train_ids(HELD_OUT_FOLD))
        b = scale.train_batch
        self.batches = [
            (Tensor(np.stack([by_id[i].I_A.data for i in ids[j : j + b]])),
             Tensor(np.stack([by_id[i].I_B.data for i in ids[j : j + b]])))
            for j in range(0, len(ids) - b + 1, b)
        ]
        t0 = time.perf_counter()
        self.model = BlanModel(BlanConfig.for_size(scale.train_size), seed=seed)
        self.model.F.freeze()
        self.spans["model_build_ms"] = _ms(t0)
        self._checkpoint_round_trip()
        self.weights = losses.LossWeights()
        self.trained = {name: net.parameters()
                        for name, net in self.model.networks().items() if name != "F"}
        self.warm_up()

    def _checkpoint_round_trip(self):
        nets = self.model.networks()
        entries = [(name, networks.network_state_vector(net)) for name, net in nets.items()]
        path = self.workdir / "model.ckpt"
        t0 = time.perf_counter()
        networks.write_checkpoint(path, entries)
        self.spans["checkpoint_write_ms"] = _ms(t0)
        t0 = time.perf_counter()
        back = networks.read_checkpoint(path)
        for name, net in nets.items():
            networks.load_network_state(net, back[name])
        self.spans["checkpoint_read_ms"] = _ms(t0)
        ok = list(back) == list(nets) and all(
            back[name].tobytes() == vec.tobytes() for name, vec in entries
        )
        ok = ok and all(
            networks.network_state_vector(net).tobytes() == vec.tobytes()
            for net, (_name, vec) in zip(nets.values(), entries)
        )
        self.setup_checks.append(("checkpoint_round_trip", bool(ok)))

    def _zero_grads(self):
        for params in self.trained.values():
            for p in params:
                p.zero_grad()

    def _grads(self, name):
        return [p.grad for p in self.trained[name]]

    def step(self, i):
        I_A, I_B = self.batches[i % len(self.batches)]
        m, F = self.model, self.model.F
        phase = {}

        t0 = time.perf_counter()
        self._zero_grads()
        fake = m.G(I_A)
        dp_real = m.D_p(I_B)
        dp_fake = m.D_p(fake.detach())
        l_dp = losses.loss_D_p(dp_real, dp_fake)
        l_dp.backward()
        dp_grads = self._grads("D_p")
        phase["D_p_step"] = _ms(t0)

        t0 = time.perf_counter()
        self._zero_grads()
        df_real = m.D_f(networks.extract_feature(F, I_B))
        df_fake = m.D_f(networks.extract_feature(F, fake.detach()))
        l_df = losses.loss_D_f(df_real, df_fake)
        l_df.backward()
        df_grads = self._grads("D_f")
        phase["D_f_step"] = _ms(t0)

        t0 = time.perf_counter()
        self._zero_grads()
        dp_gen = m.D_p(fake)
        f_gen = networks.extract_feature(F, fake)
        f_gt = networks.extract_feature(F, I_B)
        df_gen = m.D_f(f_gen)
        terms = dict(
            pxl=losses.loss_pxl(fake, I_B),
            edg=losses.loss_edge(fake, I_B),
            sym=losses.loss_sym(fake),
            adv_p=losses.loss_adv_pixel_G(dp_gen),
            cons_f=losses.loss_cons_feature(f_gen, f_gt),
            adv_f=losses.loss_adv_feature_G(df_gen),
        )
        total = losses.compose_total(weights=self.weights, **terms)
        total.backward()
        phase["G_step"] = _ms(t0)

        return dict(
            phase_ms=phase,
            terms={k: v.item() for k, v in terms.items()},
            total_G=total.item(),
            loss_Dp=l_dp.item(),
            loss_Df=l_df.item(),
            d_outputs=[t.data for t in (dp_real, dp_fake, df_real, df_fake, dp_gen, df_gen)],
            grads={"D_p": dp_grads, "D_f": df_grads, "G": self._grads("G")},
            f_grads=[p.grad for p in F.parameters()],
        )

    def report(self, out):
        """The step's LossReport, with cons_p formed from the raw terms."""
        t, w = out["terms"], self.weights
        return losses.LossReport(
            pxl=t["pxl"], edg=t["edg"], sym=t["sym"],
            cons_p=t["pxl"] + w.w_edge * t["edg"] + w.w_sym * t["sym"],
            adv_p=t["adv_p"], cons_f=t["cons_f"], adv_f=t["adv_f"],
            total_G=out["total_G"], loss_Dp=out["loss_Dp"], loss_Df=out["loss_Df"],
        )

    def record(self, i, out):
        return dict(iteration=i, batch=i % len(self.batches), **out["phase_ms"],
                    **dict(zip(losses.LossReport.FIELDS, self.report(out).row())))

    def isolated_dp_conv(self, reps):
        """Median fwd/bwd ms of D_p's second conv, called alone on random input.

        Returns the trace key of the same call inside the iteration, so the
        two can be compared.
        """
        conv = [m for m in self.model.D_p.stack.mods if isinstance(m, Conv2d)][1]
        cfg = self.model.config.patch_disc
        patch = cfg.input_size[0] // cfg.k
        shape = (cfg.k * cfg.k * self.items_per_step, conv.in_ch, patch // 2, patch // 2)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        w = Tensor(conv.weight.data.copy(), requires_grad=True)
        b = Tensor(conv.bias.data.copy(), requires_grad=True)
        fwd, bwd = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            out = engine.conv2d(x, w, b, stride=conv.stride, pad=conv.pad)
            fwd.append(_ms(t0))
            g = np.ones_like(out.data)
            t0 = time.perf_counter()
            out._backward(g)
            bwd.append(_ms(t0))
        key = ("conv2d", (shape, w.shape, b.shape))
        return key, float(np.median(fwd)), float(np.median(bwd))

    def check(self, out):
        rep = self.report(out)
        values = np.array(rep.row())
        if not np.isfinite(values).all():
            return False
        if not np.isclose(losses.loss_total_G(rep, self.weights), rep.total_G,
                          rtol=1e-4, atol=1e-6):
            return False
        for d in out["d_outputs"]:
            if not (np.isfinite(d).all() and d.min() > 0.0 and d.max() < 1.0):
                return False
        for grads in out["grads"].values():
            if any(g is None or not np.isfinite(g).all() for g in grads):
                return False
            if not any(np.any(g) for g in grads):
                return False
        return all(g is None for g in out["f_grads"])


class VerifyWorkload(Workload):
    """One pass: remove_makeup on the held-out probes, features, all scores."""

    name = "verify"

    def __init__(self, seed, scale: Scale, workdir):
        super().__init__(scale, workdir)
        self.batch = scale.verify_batch
        pairs, folds = self._inputs(scale.verify_identities, seed, scale.verify_size)
        by_id = {p.y: p for p in pairs}
        ids = folds.test_ids(HELD_OUT_FOLD)
        self.probes = np.stack([by_id[i].I_A.data for i in ids])
        self.gallery = Tensor(np.stack([by_id[i].I_B.data for i in ids]))
        self.items_per_step = len(ids) * len(ids)
        t0 = time.perf_counter()
        self.model = BlanModel(BlanConfig.for_size(scale.verify_size), seed=seed)
        self.model.F.freeze()
        self.model.G.eval()
        self.spans["model_build_ms"] = _ms(t0)
        self.warm_up()

    def step(self, i):
        m = self.model
        stage = {}
        with engine.no_grad():
            t0 = time.perf_counter()
            outs = [m.remove_makeup(Tensor(self.probes[j : j + self.batch])).data
                    for j in range(0, len(self.probes), self.batch)]
            stage["G"] = _ms(t0)
            t0 = time.perf_counter()
            f_probe = networks.extract_feature(m.F, Tensor(np.concatenate(outs))).data
            f_gallery = networks.extract_feature(m.F, self.gallery).data
            stage["F"] = _ms(t0)
        t0 = time.perf_counter()
        a = f_probe / np.linalg.norm(f_probe, axis=1, keepdims=True)
        b = f_gallery / np.linalg.norm(f_gallery, axis=1, keepdims=True)
        scores = a @ b.T
        stage["score"] = _ms(t0)
        return dict(stage_ms=stage, outputs=outs, scores=scores)

    def record(self, i, out):
        return dict(out["stage_ms"])

    def check(self, out):
        s = out["scores"]
        n = len(self.probes)
        return (all(_finite_in_unit_range(o) for o in out["outputs"])
                and s.shape == (n, n)
                and bool(np.isfinite(s).all() and np.abs(s).max() <= 1.0 + 1e-5))

    def final_checks(self):
        outs = self.step(0)["outputs"]
        ok = True
        for j in (0, len(self.probes) - 1):
            single = self.model.remove_makeup(Tensor(self.probes[j])).data
            batched = outs[j // self.batch][j % self.batch]
            ok = ok and np.allclose(single, batched, rtol=0, atol=SAMPLE_ATOL)
        return [("batched_equals_single", bool(ok))]


def reference_config(scale: Scale):
    """The paper's generator (REFERENCE_* widths) with matching D_p and F."""
    shape = (scale.ref_size, scale.ref_size, 3)
    return BlanConfig(
        generator=GeneratorConfig(input_size=shape, base_channels=scale.ref_base_channels,
                                  max_channels=scale.ref_max_channels),
        patch_disc=PatchDiscriminatorConfig(input_size=shape),
        extractor=FeatureExtractorConfig(input_size=shape),
    )


class RemoveRefWorkload(Workload):
    """remove_makeup on one (3,h,w) probe per call at the reference config."""

    name = "remove_ref"

    def __init__(self, seed, scale: Scale, workdir):
        super().__init__(scale, workdir)
        pairs, _folds = self._inputs(scale.ref_identities, seed, scale.ref_size)
        self.probes = [p.I_A for p in pairs]
        t0 = time.perf_counter()
        self.model = BlanModel(reference_config(scale), seed=seed)
        self.model.G.eval()
        self.spans["model_build_ms"] = _ms(t0)
        self.spans["G_params"] = self.model.G.num_parameters()
        self.warm_up()

    def step(self, i):
        return dict(output=self.model.remove_makeup(self.probes[i % len(self.probes)]).data)

    def check(self, out):
        o = out["output"]
        return o.shape == self.probes[0].shape and _finite_in_unit_range(o)

    def final_checks(self):
        batched = self.model.remove_makeup(Tensor(np.stack([p.data for p in self.probes]))).data
        ok = all(
            np.allclose(self.step(i)["output"], batched[i], rtol=0, atol=SAMPLE_ATOL)
            for i in range(len(self.probes))
        )
        return [("batched_equals_single", bool(ok))]


WORKLOADS = {w.name: w for w in (TrainWorkload, VerifyWorkload, RemoveRefWorkload)}
