"""Command-line interface.

Subcommands:
  train        one training run, loss curves to CSV, optional checkpoint
  matrix       construction x seed comparison sweep, results to CSV
  gradnorm     per-block gradient-norm sweep of a model, CSV
  ratio-check  decomposition/closed-form ratio verification table, CSV
  gradcheck    finite-difference battery over all ops and constructions

Every command accepts --seed and is bit-reproducible: rerunning with the
same arguments yields byte-identical CSV. Commands that take --out also
write ``<out>.manifest.json`` with the full option echo and sha256 of
each artifact.
"""

import argparse
import os
import sys

from .blocks import ModelConfig, SkipConstruction, build_model, load_model, save_model
from .data import DatasetSpec, gen_synthetic, load_cifar10
from .diagnostics import decomposition_check, gradcheck_battery, gradient_norm_sweep
from .errors import ConfigError, ContractError, DimensionError, FormatError
from .training import TrainConfig, csv_text, curves_csv, matrix_csv, run_matrix, train, write_manifest

DATA_DIR_ENV = "SKIPNORM_DATA_DIR"

__all__ = ["main", "DATA_DIR_ENV"]


def _parse_lams(text):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse lambda list {text!r}")
    if not values:
        raise ConfigError("empty lambda list")
    return values


def _expand_cells(tokens, lams):
    """Cross construction tokens with a lambda list.

    Tokens that embed their own lambda (``2xskip-ln``) or whose kind does
    not take one stay single cells; bare lambda-taking tokens fan out
    over the list.
    """
    cells = []
    for token in tokens:
        token = token.strip()
        if not token:
            continue
        explicit = token[0].isdigit() or token[0] == "."
        base = SkipConstruction.parse(token)
        if explicit or not base.uses_lambda or not lams:
            cells.append(base)
        else:
            cells.extend(SkipConstruction.parse(token, lam) for lam in lams)
    if not cells:
        raise ConfigError("no constructions given")
    return cells


def _make_dataset(args):
    if args.dataset == "cifar10":
        path = args.data_path or os.environ.get(DATA_DIR_ENV)
        if not path:
            raise ConfigError(f"cifar10 needs --data-path or the {DATA_DIR_ENV} environment variable")
        return load_cifar10(path, subset=args.subset, seed=args.seed)
    classes = 2 if args.dataset == "moons" else args.classes
    spec = DatasetSpec(
        args.dataset,
        classes=classes,
        n_train=args.train_n,
        n_test=args.test_n,
        noise=args.noise,
        seed=args.seed,
    )
    return gen_synthetic(spec)


def _train_config(args, construction, seed=0):
    return TrainConfig(construction, depth=args.depth, width=args.width, hidden=args.hidden, epochs=args.epochs,
                       batch_size=args.batch_size, lr=args.lr, seed=seed, w_skip_init=args.w_skip_init)


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _options_dict(args):
    return {k: v for k, v in vars(args).items() if k != "func"}


def _emit(args, text, extra_config=None, artifacts=None, wall_clock=None):
    """Write CSV to --out (with manifest) or to stdout."""
    if args.out:
        _write_text(args.out, text)
        all_artifacts = {"csv": args.out}
        all_artifacts.update(artifacts or {})
        config = {"command": args.command, "options": _options_dict(args)}
        if extra_config:
            config.update(extra_config)
        write_manifest(args.out + ".manifest.json", config, all_artifacts, wall_clock=wall_clock)
    else:
        sys.stdout.write(text)


def _cmd_train(args):
    construction = SkipConstruction.parse(args.construction, args.lam)
    data = _make_dataset(args)
    cfg = _train_config(args, construction, args.seed)
    result, model = train(cfg, data)
    artifacts = {}
    if args.checkpoint:
        save_model(model, args.checkpoint)
        artifacts["checkpoint"] = args.checkpoint
    _emit(
        args,
        curves_csv(result),
        extra_config={"train_config": cfg.as_dict(), "error_rate": result.error_rate,
                      "diverged": result.diverged, "diverged_epoch": result.diverged_epoch},
        artifacts=artifacts,
        wall_clock=result.wall_clock,
    )
    note = f" (diverged at epoch {result.diverged_epoch})" if result.diverged else ""
    print(f"{result.label}: test error {result.error_rate:.4f}{note}", file=sys.stderr)
    return 0


def _cmd_matrix(args):
    tokens = args.construction.split(",")
    lams = _parse_lams(args.lam) if args.lam is not None else None
    cells = _expand_cells(tokens, lams)
    data = _make_dataset(args)
    base = _train_config(args, cells[0])
    seeds = list(range(args.seed, args.seed + args.runs))

    def progress(r):
        note = f" (diverged at epoch {r.diverged_epoch})" if r.diverged else ""
        print(f"  {r.label} seed {r.seed}: error {r.error_rate:.4f}{note}", file=sys.stderr)

    results = run_matrix(cells, seeds, base, data, progress=progress)
    wall = sum(r.wall_clock for r in results)
    _emit(args, matrix_csv(results), wall_clock=wall)
    return 0


def _cmd_gradnorm(args):
    data = _make_dataset(args)
    if args.checkpoint:
        given = [a.option_strings[0] for a in _MODEL_FLAGS if getattr(args, a.dest) != a.default]
        if given:
            raise ConfigError(f"--checkpoint fixes the model; it cannot be combined with {', '.join(given)}")
        model, cfg = load_model(args.checkpoint)
        if data.classes > cfg.classes:
            raise ConfigError(f"{args.checkpoint}: a {cfg.classes}-class model cannot score {data.classes}-class data")
    else:
        construction = SkipConstruction.parse(args.construction, args.lam)
        mcfg = ModelConfig(
            construction, args.depth, data.d_in, args.width, args.hidden, data.classes, args.w_skip_init
        )
        model = build_model(mcfg, args.seed)
    n = min(args.samples, len(data.x_test))
    if n < 1:
        raise ConfigError("no held-out samples available for the sweep")
    batches = [
        (data.x_test[s:s + 256], data.y_test[s:s + 256]) for s in range(0, n, 256)
    ]
    report = gradient_norm_sweep(model, batches)
    rows = [(report.label, k, norm) for k, norm in enumerate(report.block_norms)]
    _emit(args, csv_text(("construction", "block_index", "mean_grad_norm"), rows))
    return 0


def _cmd_ratio_check(args):
    lams = _parse_lams("1,2,3,4" if args.lam is None else args.lam)
    rows = decomposition_check(lams, width=args.width, instances=args.samples, seed=args.seed)
    text = csv_text(("lambda", "max_reconstruction_error", "max_ratio_discrepancy"), rows)
    if args.out:
        _emit(args, text)
    sys.stdout.write(text)
    return 0


def _cmd_gradcheck(args):
    rows = gradcheck_battery(instances=args.samples, seed=args.seed, tol=args.tol)
    table = [(target, err, tol, "pass" if passed else "FAIL") for target, err, tol, passed in rows]
    text = csv_text(("target", "max_rel_err", "tol", "status"), table)
    if args.out:
        _emit(args, text)
    sys.stdout.write(text)
    return 0 if all(passed for *_, passed in rows) else 1


def _add_model_flags(p):
    """Add the flags that define a model; returns their argparse actions."""
    return [
        p.add_argument("--construction", default="rskip-ln",
                       help="construction token, e.g. plain, 2xskip, xskip-ln, 2rskip-ln, contracted-f-ln:3"),
        p.add_argument("--lambda", dest="lam", default=None,
                       help="shortcut scale; matrix accepts a comma list"),
        p.add_argument("--depth", type=int, default=16, help="number of residual blocks"),
        p.add_argument("--width", type=int, default=64, help="block feature width"),
        p.add_argument("--hidden", type=int, default=64, help="branch hidden width"),
        p.add_argument("--w-skip-init", type=float, default=1.0,
                       help="initial value of the learned skip vector (wskip-ln)"),
    ]


# the model flags with their defaults: a checkpoint leaves each at its default
_MODEL_FLAGS = _add_model_flags(argparse.ArgumentParser(add_help=False))


def _add_data_flags(p):
    p.add_argument("--dataset", choices=("spiral", "moons", "cifar10"), default="spiral")
    p.add_argument("--data-path", default=None,
                   help=f"CIFAR-10 binary directory (default ${DATA_DIR_ENV})")
    p.add_argument("--subset", type=int, default=2000, help="cifar10 training subset size")
    p.add_argument("--classes", type=int, default=3, help="spiral class count")
    p.add_argument("--noise", type=float, default=0.2, help="synthetic noise level")
    p.add_argument("--train-n", type=int, default=512, help="synthetic training samples")
    p.add_argument("--test-n", type=int, default=512, help="synthetic test samples")


def _add_train_flags(p):
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skipnorm",
        description="Skip-connection constructions: training harness and gradient diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training configuration")
    _add_model_flags(p)
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="loss-curve CSV path")
    p.add_argument("--checkpoint", default=None, help="save the trained model here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("matrix", help="construction x seed comparison sweep")
    _add_model_flags(p)
    _add_data_flags(p)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0, help="first seed; also the dataset seed")
    p.add_argument("--runs", type=int, default=5, help="seeds per construction")
    p.add_argument("--out", default=None, help="results CSV path")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("gradnorm", help="per-block gradient-norm sweep")
    _add_model_flags(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", default=None, help="model checkpoint to sweep (else untrained)")
    p.add_argument("--samples", type=int, default=2000, help="held-out samples to average over")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gradnorm)

    p = sub.add_parser("ratio-check", help="decomposition and closed-form ratio verification")
    p.add_argument("--lambda", dest="lam", default=None, help="comma list of recursion depths (default 1,2,3,4)")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--samples", type=int, default=100, help="random instances per depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ratio_check)

    p = sub.add_parser("gradcheck", help="finite-difference gradient battery")
    p.add_argument("--samples", type=int, default=20, help="instances per case")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractError, DimensionError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
