"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``__init__`` (this is
the set-up ``setup_s`` times), then runs identical passes. A pass calls
only public functions of the library, times the calls its two
throughput metrics cover, and checks the outputs. Every call starts
after the previous one returns (a closed loop with one caller).
"""

import hashlib
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from skipnorm import blocks, data, diagnostics, normalization, tensor, training
from tracer import gradcheck_evals

SPIRAL = dict(source="spiral", classes=3, noise=0.2)
DEPTH, WIDTH, HIDDEN = 16, 64, 64


class Checks:
    """Correctness checks attempted and failed, by check name.

    A failure that a documented defect of the library explains exactly
    is counted under ``known`` (with the defect it reproduces) instead
    of ``failed``: it is reported on every run, and the run stays
    correct. ``notes`` records checks that passed only on a second look.
    """

    def __init__(self):
        self.attempts = Counter()
        self.failed = Counter()
        self.known = Counter()
        self.notes = Counter()

    def check(self, name, ok, known=None):
        self.attempts[name] += 1
        if ok:
            return
        if known is not None:
            self.known[f"{name} -- {known}"] += 1
        else:
            self.failed[name] += 1

    def note(self, text):
        self.notes[text] += 1

    @property
    def attempted(self):
        return sum(self.attempts.values())

    @property
    def failures(self):
        return sum(self.failed.values())


@dataclass
class PassResult:
    """What one pass did: (items, seconds) per throughput metric, and
    exact counts that must be the same on every pass."""

    main: tuple
    aux: tuple
    counts: dict = field(default_factory=dict)
    digest: str = ""


def _params_bytes(model):
    return [(name, p.data.shape, p.data.tobytes()) for name, p, _ in model.parameters()]


def _inference_logits(model, x):
    model.set_norm_mode("inference")
    return model.forward(tensor.Tensor(x)).data


BN_STATS_DEFECT = "checkpoints drop batch-norm running statistics (ROADMAP item 2)"


def _batch_norms(model):
    return [p for block in model.blocks for p in block.norms if isinstance(p, normalization.BatchNormParams)]


def _only_bn_stats_lost(model, loaded, x, expected):
    """True when a checkpoint round trip lost the batch-norm running
    statistics and nothing else: the loaded model holds freshly
    initialised statistics, and with the trained ones copied in, its
    inference logits are bit-identical to ``expected``."""
    trained, fresh = _batch_norms(model), _batch_norms(loaded)
    if not trained or len(trained) != len(fresh):
        return False
    if not all((p.running_mean == 0.0).all() and (p.running_var == 1.0).all() for p in fresh):
        return False
    for src, dst in zip(trained, fresh):
        dst.running_mean, dst.running_var = src.running_mean.copy(), src.running_var.copy()
    return np.array_equal(_inference_logits(loaded, x), expected)


class Train:
    """The paper's benchmark cell, five constructions, then checkpoint
    round trips of each trained model."""

    main_metric = ("train.steps_per_s", "steps/s")
    aux_metric = ("train.checkpoint_mb_per_s", "MB/s")
    digest_key = "train_csv_sha256"
    tokens = ("1xskip", "2xskip-ln", "2rskip-ln", "contracted-f-ln:3", "2rskip-bn")
    epochs = 3
    round_trips = 4  # per model and pass, so the checkpoint timing is not a few ms

    def __init__(self, seed, out_dir):
        self.data = data.gen_synthetic(data.DatasetSpec(n_train=512, n_test=512, seed=seed, **SPIRAL))
        base = training.TrainConfig(
            blocks.SkipConstruction.parse(self.tokens[0]), depth=DEPTH, width=WIDTH, hidden=HIDDEN,
            epochs=self.epochs, batch_size=64, lr=0.02, seed=seed,
        )
        self.configs = [replace(base, construction=blocks.SkipConstruction.parse(t)) for t in self.tokens]
        self.steps_per_epoch = -(-len(self.data.x_train) // base.batch_size)
        self.path = os.path.join(out_dir, f"checkpoint-{os.getpid()}.bin")
        self.reference_csv = None

    def run_pass(self, checks):
        results, models = [], []
        steps, train_s = 0, 0.0
        for cfg in self.configs:
            t = perf_counter()
            result, model = training.train(cfg, self.data)
            train_s += perf_counter() - t
            steps += (result.diverged_epoch if result.diverged else cfg.epochs) * self.steps_per_epoch
            results.append(result)
            models.append(model)
        csv = training.matrix_csv(results).encode()
        if self.reference_csv is None:
            self.reference_csv = csv
        checks.check("train: matrix_csv bytes repeat", csv == self.reference_csv)

        moved, written, ckpt_s = 0, 0, 0.0
        x = self.data.x_test
        for cfg, model in zip(self.configs, models):
            label = cfg.construction.label()
            t = perf_counter()
            for _ in range(self.round_trips):
                blocks.save_model(model, self.path)
                loaded, _ = blocks.load_model(self.path)
            ckpt_s += perf_counter() - t
            size = os.path.getsize(self.path)
            moved += 2 * self.round_trips * size  # written, then read back
            written += size
            os.remove(self.path)
            checks.check(f"checkpoint {label}: parameters", _params_bytes(loaded) == _params_bytes(model))
            expected = _inference_logits(model, x)
            same = np.array_equal(_inference_logits(loaded, x), expected)
            known = BN_STATS_DEFECT if not same and _only_bn_stats_lost(model, loaded, x, expected) else None
            checks.check(f"checkpoint {label}: inference logits", same, known)
        return PassResult(
            main=(steps, train_s),
            aux=(moved / 1e6, ckpt_s),
            counts={
                "blocks.checkpoint_bytes": written,
                "training.diverged_runs": sum(r.diverged for r in results),
            },
            digest=hashlib.sha256(csv).hexdigest(),
        )


class Probe:
    """Gradient-norm and effective-scale sweeps in 256-row batches, plus
    the zero-branch amplification probe; no optimizer step."""

    main_metric = ("probe.sweep_rows_per_s", "rows/s")
    aux_metric = ("probe.scale_rows_per_s", "rows/s")
    digest_key = "output_sha256"
    sweep_tokens = ("2xskip", "2xskip-ln", "4rskip-ln")
    scale_tokens = ("4rskip-ln", "wskip-ln")
    rows, batch = 2048, 256
    amp_lam = 0.5

    def __init__(self, seed, out_dir):
        held_out = data.gen_synthetic(data.DatasetSpec(n_train=512, n_test=self.rows, seed=seed, **SPIRAL))
        x, y = held_out.x_test, held_out.y_test
        self.batches = [(x[i:i + self.batch], y[i:i + self.batch]) for i in range(0, len(x), self.batch)]
        self.models = {}
        for token in dict.fromkeys(self.sweep_tokens + self.scale_tokens):
            cfg = blocks.ModelConfig(
                blocks.SkipConstruction.parse(token), DEPTH, held_out.d_in, WIDTH, HIDDEN, held_out.classes
            )
            self.models[token] = blocks.build_model(cfg, seed)
        self.amp_construction = blocks.SkipConstruction(blocks.SkipKind.XSKIP, lam=self.amp_lam)
        self.seed = seed

    def run_pass(self, checks):
        outputs = []
        sweep_rows, sweep_s = 0, 0.0
        for token in self.sweep_tokens:
            t = perf_counter()
            report = diagnostics.gradient_norm_sweep(self.models[token], self.batches)
            sweep_s += perf_counter() - t
            sweep_rows += report.samples
            norms = np.array(report.block_norms)
            checks.check(f"sweep {report.label}: norms finite and positive",
                         bool(np.isfinite(norms).all() and (norms > 0).all()))
            outputs.append(norms)
        scale_rows, scale_s = 0, 0.0
        for token in self.scale_tokens:
            t = perf_counter()
            report = diagnostics.effective_scale_sweep(self.models[token], self.batches)
            scale_s += perf_counter() - t
            scale_rows += report.samples
            outputs.append(np.array(report.per_block))

        grads = diagnostics.amplification_probe(self.amp_construction, DEPTH, WIDTH, seed=self.seed)
        # boundary k carries lam^(depth-k): every step down multiplies by lam
        ratios = np.array([g / h for g, h in zip(grads[:-1], grads[1:])])
        checks.check("amplification 0.5xSkip: ratios exact to 1e-9",
                     bool(np.all(np.abs(ratios - self.amp_lam) <= 1e-9 * self.amp_lam)))
        outputs.extend(grads)
        digest = hashlib.sha256(b"".join(np.ascontiguousarray(o).tobytes() for o in outputs))
        return PassResult(main=(sweep_rows, sweep_s), aux=(scale_rows, scale_s), digest=digest.hexdigest())


def five_point_gradcheck(f, inputs, steps, tol):
    """The library's gradcheck with a five-point central difference,
    whose curvature error is O(step^4) instead of O(step^2), tried at
    each of ``steps`` in turn; same relative error and tolerance. True
    when every entry passes at one of the steps."""
    inputs = list(inputs)
    for t in inputs:
        t.zero_grad()
    f(*inputs).backward()
    analytic = [np.zeros(t.data.size) if t.grad is None else t.grad.reshape(-1).copy() for t in inputs]

    def difference(flat, i, step):
        orig, values = flat[i], []
        for k in (2, 1, -1, -2):
            flat[i] = orig + k * step
            values.append(float(f(*inputs).data))
        flat[i] = orig
        return (8.0 * (values[1] - values[2]) - (values[0] - values[3])) / (12.0 * step)

    def close(a, n):
        return abs(a - n) / max(1e-8, abs(a) + abs(n)) <= tol

    return all(
        any(close(a[i], difference(t.data.reshape(-1), i, step)) for step in steps)
        for t, a in zip(inputs, analytic)
        for i in range(a.size)
    )


def finite_difference_artefact(calls, steps=(1e-3, 1e-4, 1e-6, 1e-7, 1e-8)):
    """Second look at the gradcheck calls of a failed battery row.

    ``calls`` holds (f, inputs, report) per call. A central difference
    at the default step of 1e-5 can miss a correct gradient: rounding
    costs about 1e-11 of the function's value, too much for an entry
    near 1e-7; curvature costs O(step^2); and a relu input within a step
    of zero puts a kink inside the difference. Small entries want a
    large step and kinks a small one, so each entry gets its own. True
    when every failed call passes :func:`five_point_gradcheck`,
    tolerance unchanged. A wrong analytic gradient fails at every step."""
    failed = [(f, inputs, r.tol) for f, inputs, r in calls if not r.passed]
    return bool(failed) and all(five_point_gradcheck(f, inputs, steps, tol) for f, inputs, tol in failed)


class Gradcheck:
    """Finite-difference battery over every op and block construction,
    and the unrolled-decomposition check; thousands of tiny tapes."""

    main_metric = ("gradcheck.evals_per_s", "evals/s")
    aux_metric = ("gradcheck.decomp_instances_per_s", "instances/s")
    digest_key = "output_sha256"
    battery_instances = 4
    decomp_lams, decomp_width, decomp_instances = (1, 2, 3, 4), 8, 250
    decomp_tol = 1e-9

    def __init__(self, seed, out_dir):
        self.seed = seed

    def run_pass(self, checks):
        # the battery builds its inputs internally, so its gradcheck calls
        # are kept at the name the battery looks up, tracer wrapper or not
        calls, check = [], diagnostics.gradcheck

        def keep(f, inputs, **kwargs):
            report = check(f, inputs, **kwargs)
            calls.append((f, inputs, report))
            return report

        diagnostics.gradcheck = keep
        try:
            t = perf_counter()
            rows = diagnostics.gradcheck_battery(instances=self.battery_instances, seed=self.seed)
            battery_s = perf_counter() - t
        finally:
            diagnostics.gradcheck = check
        checks.check("gradcheck: battery calls per row", len(calls) == self.battery_instances * len(rows))
        for i, (name, worst, tol, passed) in enumerate(rows):
            row = calls[i * self.battery_instances:(i + 1) * self.battery_instances]
            if not passed and finite_difference_artefact(row):
                checks.note(f"gradcheck {name}: rel err {worst:.3g} > {tol:g} at step 1e-5, "
                            "passes the five-point second look (finite-difference artefact)")
                passed = True
            checks.check(f"gradcheck {name}", bool(passed))

        t = perf_counter()
        decomp = diagnostics.decomposition_check(
            self.decomp_lams, self.decomp_width, self.decomp_instances, seed=self.seed
        )
        decomp_s = perf_counter() - t
        for lam, rec, disc in decomp:
            checks.check(f"decomposition lam={lam}: reconstruction", rec <= self.decomp_tol)
            checks.check(f"decomposition lam={lam}: ratio", disc <= self.decomp_tol)

        digest = hashlib.sha256(repr((rows, decomp)).encode()).hexdigest()
        return PassResult(
            main=(sum(gradcheck_evals(inputs) for _, inputs, _ in calls), battery_s),
            aux=(len(self.decomp_lams) * self.decomp_instances, decomp_s),
            digest=digest,
        )


WORKLOADS = {"train": Train, "probe": Probe, "gradcheck": Gradcheck}
