"""Command-line experiment runner.

Runs a paper-table comparison at a user-chosen scale without writing any
code::

    python -m repro.experiments.cli --methods simclr cq-c --encoder resnet18 \
        --dataset cifar --epochs 8 --fractions 0.1 --precisions fp 4

Prints the fine-tuning grid (and optionally linear evaluation) as an
aligned table.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from ..data.synthetic import make_cifar100_like, make_imagenet_like
from .config import EvalProtocol, MethodSpec, PretrainConfig
from .runner import finetune_grid, linear_eval_point, pretrain
from .tables import format_table

__all__ = ["build_parser", "parse_method", "parse_precision", "main"]

_METHOD_CHOICES = ("simclr", "byol", "cq-a", "cq-b", "cq-c", "cq-quant")


def parse_method(name: str, precision_set: str, base: str) -> MethodSpec:
    """Translate a CLI method name into a MethodSpec."""
    key = name.lower()
    if key not in _METHOD_CHOICES:
        raise ValueError(
            f"unknown method {name!r}; choose from {_METHOD_CHOICES}"
        )
    if key == "simclr":
        return MethodSpec("SimCLR", base="simclr")
    if key == "byol":
        return MethodSpec("BYOL", base="byol")
    variant = key.split("-", 1)[1].upper()
    label = f"CQ-{variant} ({precision_set})"
    return MethodSpec(label, variant=variant, precision_set=precision_set,
                      base=base)


def parse_precision(text: str) -> Optional[int]:
    """CLI precision column: "fp" (full precision) or a bit-width."""
    if text.lower() in ("fp", "full", "none"):
        return None
    bits = int(text)
    if not 1 <= bits <= 32:
        raise ValueError(f"precision must be in [1, 32], got {bits}")
    return bits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Run a Contrastive Quant comparison at chosen scale.",
    )
    parser.add_argument("--methods", nargs="+", default=["simclr", "cq-c"],
                        help=f"any of {_METHOD_CHOICES}")
    parser.add_argument("--base", default="simclr",
                        choices=("simclr", "byol"),
                        help="base framework for CQ variants")
    parser.add_argument("--encoder", default="resnet18")
    parser.add_argument("--width", type=float, default=0.0625,
                        help="channel width multiplier")
    parser.add_argument("--dataset", default="cifar",
                        choices=("cifar", "imagenet"))
    parser.add_argument("--classes", type=int, default=8)
    parser.add_argument("--image-size", type=int, default=12)
    parser.add_argument("--per-class", type=int, default=32)
    parser.add_argument("--epochs", type=int, default=8)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--precision-set", default="2-8")
    parser.add_argument("--fractions", nargs="+", type=float, default=[0.1])
    parser.add_argument("--precisions", nargs="+", default=["fp"],
                        help='"fp" or bit-widths, e.g. --precisions fp 4')
    parser.add_argument("--finetune-epochs", type=int, default=10)
    parser.add_argument("--linear-eval", action="store_true",
                        help="also run linear evaluation")
    parser.add_argument("--num-workers", type=int, default=0,
                        help="augmentation workers prefetching two-view "
                             "batches ahead of each training step "
                             "(0 = inline; batches are byte-identical "
                             "for any worker count)")
    parser.add_argument("--prefetch-factor", type=int, default=2,
                        help="batches in flight per worker when "
                             "--num-workers > 0 (default 2)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="run the per-method pretrain+eval pipelines "
                             "as a process-parallel sweep with this many "
                             "concurrent jobs (1 = sequential); a failed "
                             "method reports its error without killing "
                             "the other rows")
    parser.add_argument("--telemetry-dir", default=None,
                        help="write JSONL run logs and machine-readable "
                             "run summaries under this directory "
                             "(summarize with python -m repro.telemetry.report)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="save pre-training checkpoints under this "
                             "directory (one subdirectory per method; "
                             "atomic writes + sha256 manifest)")
    parser.add_argument("--resume", action="store_true",
                        help="resume each method's pre-training from the "
                             "newest valid checkpoint in --checkpoint-dir "
                             "(bit-exact; corrupt files are skipped)")
    parser.add_argument("--checkpoint-every", type=int, default=1,
                        help="checkpoint every N epochs (default 1)")
    parser.add_argument("--keep-last", type=int, default=3,
                        help="retain the newest N checkpoints per method "
                             "(best-loss checkpoint is always kept)")
    parser.add_argument("--engine", default="trace",
                        choices=("trace", "eager"),
                        help="step executor: 'trace' replays compiled "
                             "plans (default), 'eager' runs every step "
                             "through Python dispatch")
    parser.add_argument("--seed", type=int, default=0)
    return parser


def _method_row(
    method: MethodSpec,
    train,
    test,
    config: PretrainConfig,
    protocol: EvalProtocol,
    linear_eval: bool = False,
    telemetry_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    checkpoint_every: int = 1,
    keep_last: int = 3,
) -> List[object]:
    """One table row (module-level so sweep workers can pickle it)."""
    outcome = pretrain(method, train, config,
                       telemetry_dir=telemetry_dir,
                       checkpoint_dir=checkpoint_dir,
                       resume=resume,
                       checkpoint_every=checkpoint_every,
                       keep_last=keep_last)
    grid = finetune_grid(outcome, train, test, protocol)
    row: List[object] = [method.name]
    for precision in protocol.precisions:
        for fraction in protocol.label_fractions:
            row.append(grid[(precision, fraction)])
    if linear_eval:
        row.append(linear_eval_point(outcome, train, test, protocol))
    return row


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")

    maker = make_cifar100_like if args.dataset == "cifar" else make_imagenet_like
    data = maker(
        num_classes=args.classes,
        image_size=args.image_size,
        train_per_class=args.per_class,
        seed=args.seed,
    )
    config = PretrainConfig(
        encoder=args.encoder,
        width_multiplier=args.width,
        epochs=args.epochs,
        batch_size=args.batch_size,
        seed=args.seed,
        num_workers=args.num_workers,
        prefetch_factor=args.prefetch_factor,
        engine=args.engine,
    )
    protocol = EvalProtocol(
        label_fractions=tuple(args.fractions),
        precisions=tuple(parse_precision(p) for p in args.precisions),
        finetune_epochs=args.finetune_epochs,
        finetune_lr=0.02,
        seed=args.seed + 1,
    )

    methods: List[MethodSpec] = [
        parse_method(name, args.precision_set, args.base)
        for name in args.methods
    ]

    headers = ["Method"]
    for precision in protocol.precisions:
        tag = "FP" if precision is None else f"{precision}-bit"
        for fraction in protocol.label_fractions:
            headers.append(f"{tag} {int(round(100 * fraction))}%")
    if args.linear_eval:
        headers.append("Linear")

    failed = []
    if args.jobs > 1:
        from ..parallel import SweepExecutor, SweepJob

        print(f"sweeping {len(methods)} methods across {args.jobs} jobs ...",
              flush=True)
        executor = SweepExecutor(max_workers=args.jobs,
                                 telemetry_root=args.telemetry_dir)
        result = executor.run([
            SweepJob(
                name=method.name,
                fn=_method_row,
                kwargs={
                    "method": method,
                    "train": data.train,
                    "test": data.test,
                    "config": config,
                    "protocol": protocol,
                    "linear_eval": args.linear_eval,
                    "checkpoint_dir": args.checkpoint_dir,
                    "resume": args.resume,
                    "checkpoint_every": args.checkpoint_every,
                    "keep_last": args.keep_last,
                },
            )
            for method in methods
        ])
        print(result.format_table(title=f"sweep ({result.backend} backend, "
                                        f"{result.elapsed_seconds:.1f}s)"))
        by_name = {r.name: r for r in result}
        rows = [
            by_name[m.name].value if by_name[m.name].ok
            else [m.name] + ["FAILED"] * (len(headers) - 1)
            for m in methods
        ]
        failed = result.failed
        for report in failed:
            print(f"\n{report.name} failed:\n{report.traceback}")
    else:
        rows = []
        for method in methods:
            print(f"pre-training {method.name} ...", flush=True)
            rows.append(_method_row(
                method, data.train, data.test, config, protocol,
                linear_eval=args.linear_eval,
                telemetry_dir=args.telemetry_dir,
                checkpoint_dir=args.checkpoint_dir,
                resume=args.resume,
                checkpoint_every=args.checkpoint_every,
                keep_last=args.keep_last,
            ))

    print()
    print(format_table(headers, rows,
                       title=f"{args.encoder} on {args.dataset}-like data "
                             f"(accuracy %)"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
