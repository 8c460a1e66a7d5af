"""Command-line entry point: run any paper experiment by name.

    python -m repro fig9            # one experiment
    python -m repro all             # the full evaluation
    python -m repro list            # available experiments
    python -m repro plan --model gpt2-345m --stages 4 --micro-batches 16
    python -m repro telemetry report runs/t0   # re-render a saved run
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import List, Optional

from repro.experiments import ALL_EXPERIMENTS


def _plan_main(argv: List[str]) -> int:
    """``repro plan``: one partition search from the command line."""
    parser = argparse.ArgumentParser(
        prog="autopipe-repro plan",
        description="Plan one pipeline partition (heuristic or oracle).",
    )
    parser.add_argument(
        "--model", default="gpt2-345m",
        help="benchmark model name from the zoo (default: gpt2-345m)",
    )
    parser.add_argument("--stages", type=int, required=True,
                        help="pipeline depth (number of stages)")
    parser.add_argument("--micro-batches", type=int, required=True,
                        help="micro-batches per iteration")
    parser.add_argument("--micro-batch-size", type=int, default=1,
                        help="micro-batch size (default: 1)")
    parser.add_argument(
        "--oracle", action="store_true",
        help="run the exhaustive branch-and-bound oracle instead of the "
             "heuristic planner",
    )
    parser.add_argument("--comm-mode", choices=("paper", "edges"),
                        default="paper")
    parser.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help="record spans/counters and write events.jsonl, counters.json, "
             "trace.json (Perfetto-loadable) and summary.txt into DIR",
    )
    args = parser.parse_args(argv)
    for flag in ("stages", "micro_batches", "micro_batch_size"):
        if getattr(args, flag) < 1:
            parser.error(f"--{flag.replace('_', '-')} must be >= 1")

    from repro import obs
    from repro.experiments.common import make_profile
    from repro.models.zoo import get_model

    try:
        model = get_model(args.model)
    except KeyError as exc:
        parser.error(str(exc))
    profile = make_profile(model, args.micro_batch_size, args.micro_batches)
    if args.oracle:
        from repro.core.exhaustive import exhaustive_partition as search
    else:
        from repro.core.planner import plan_partition as search
    tel = obs.Telemetry() if args.telemetry is not None else None
    try:
        with obs.session(tel):
            result = search(
                profile, args.stages, args.micro_batches,
                comm_mode=args.comm_mode,
            )
    except (ValueError, RuntimeError) as exc:
        parser.error(str(exc))
    if tel is not None:
        tel.write(args.telemetry)
    if args.oracle:
        extra = f"space {result.space}"
    else:
        extra = f"granularity {result.granularity}"
    print(f"model {model.name}, {args.stages} stages x "
          f"{args.micro_batches} micro-batches"
          + (" (oracle)" if args.oracle else " (planner)"))
    print(f"partition: {tuple(result.partition.sizes)}")
    print(f"iteration time: {result.iteration_time * 1e3:.3f} ms")
    print(f"evaluations: {result.evaluations} ({extra}, "
          f"{result.search_seconds * 1e3:.1f} ms search)")
    if args.telemetry is not None:
        from repro.obs import report_directory

        print(f"\ntelemetry written to {args.telemetry}")
        print(report_directory(args.telemetry))
    return 0


def _telemetry_main(argv: List[str]) -> int:
    """``repro telemetry report <dir>``: re-render a saved run."""
    parser = argparse.ArgumentParser(
        prog="autopipe-repro telemetry",
        description="Inspect saved telemetry run directories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report = sub.add_parser("report", help="print the summary of a run")
    report.add_argument("directory", help="telemetry directory to render")
    args = parser.parse_args(argv)
    from repro.obs import report_directory

    try:
        print(report_directory(args.directory))
    except FileNotFoundError as exc:
        print(f"error: not a telemetry directory: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "plan":
        return _plan_main(argv[1:])
    if argv and argv[0] == "telemetry":
        return _telemetry_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="autopipe-repro",
        description="Reproduce the AutoPipe (CLUSTER 2022) evaluation.",
    )
    parser.add_argument(
        "experiment",
        help="experiment name (fig9..fig14, table2..table4), 'all' or 'list'",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="record search-stack telemetry for the whole invocation and "
             "write the sink files (events.jsonl, counters.json, "
             "trace.json, summary.txt) into DIR",
    )
    args = parser.parse_args(argv)
    telemetry = None
    if args.telemetry is not None:
        from repro import obs

        telemetry = obs.set_current(obs.Telemetry())

    if args.experiment == "list":
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0
    if args.experiment == "all":
        # "report" re-runs every experiment into one document; running it
        # inside "all" would duplicate the whole evaluation.
        names = [n for n in ALL_EXPERIMENTS if n != "report"]
    elif args.experiment in ALL_EXPERIMENTS:
        names = [args.experiment]
    else:
        parser.error(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(ALL_EXPERIMENTS)}, 'all' or 'list'"
        )
        return 2
    # A crashing experiment used to take the whole invocation down with
    # a traceback and (worse) a zero exit under some wrappers; now each
    # experiment is isolated, failures go to stderr, and "all" finishes
    # the remaining experiments before reporting which ones failed.
    failed: List[str] = []
    for name in names:
        try:
            ALL_EXPERIMENTS[name].main()
        except KeyboardInterrupt:
            raise
        except Exception:
            traceback.print_exc(file=sys.stderr)
            print(f"error: experiment {name!r} failed", file=sys.stderr)
            failed.append(name)
        print()
    if telemetry is not None:
        from repro import obs

        telemetry.write(args.telemetry)
        obs.set_current(None)
        print(f"telemetry written to {args.telemetry}", file=sys.stderr)
    if failed:
        print(
            f"{len(failed)}/{len(names)} experiments failed: "
            + ", ".join(failed),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
