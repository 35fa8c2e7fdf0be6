"""Command-line interface: ``repro <command> [options]``.

Commands:

* ``generate``   — write a synthetic paper-shaped dataset to TSV files;
* ``discretize`` — entropy-MDL discretize a TSV dataset into an item file;
* ``mine``       — mine top-k covering rule groups from an item file;
* ``classify``   — train a classifier on one TSV and evaluate on another
  (``--save`` persists a trained rule classifier and its pipeline);
* ``predict``    — apply a saved rule classifier to new samples;
* ``serve``      — run the JSON-over-HTTP serving layer of
  :mod:`repro.service` (model registry, mining cache, async jobs;
  batch-coalescing asyncio front end, ``--store`` for restart-durable
  jobs);
* ``loadtest``   — benchmark the HTTP front end and write
  ``BENCH_service.json`` (see :mod:`repro.service.loadtest`);
* ``bench``      — time serial vs. parallel mining on the synthetic
  generators and write ``BENCH_core.json`` (see :mod:`repro.bench`);
* ``audit``      — differential fuzz & invariant audit: seeded random
  datasets mined across engines, flags and worker counts, checked
  against the naive baseline and the paper's invariants
  (see :mod:`repro.audit`);
* ``experiments``— forward to the table/figure drivers.

All file formats are the plain-text formats of :mod:`repro.data.loaders`
(TSV with a JSON header line for expression matrices, JSON for
discretized items), so every intermediate is inspectable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import json

from .analysis.metrics import evaluate
from .classifiers import (
    AdaBoostTrees,
    BaggingTrees,
    CBAClassifier,
    DecisionTreeC45,
    IRGClassifier,
    RCBTClassifier,
    SVMClassifier,
)
from .core.topk_miner import mine_topk, relative_minsup
from .data.discretize import EntropyDiscretizer
from .data.loaders import (
    load_discretized,
    load_expression,
    save_discretized,
    save_expression,
)
from .data.synthetic import PAPER_DATASETS, generate_paper_dataset

__all__ = ["main"]


def _jobs_arg(value: str):
    """argparse type for worker counts: an integer or the string 'auto'.

    'auto' defers to the execution planner of
    :mod:`repro.core.planner`, which picks serial or all-cores per
    workload.
    """
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        )

_RULE_CLASSIFIERS = {
    "rcbt": lambda args: RCBTClassifier(k=args.k, nl=args.nl,
                                        n_jobs=getattr(args, "jobs", 1)),
    "cba": lambda args: CBAClassifier(),
    "irg": lambda args: IRGClassifier(),
}
_NUMERIC_CLASSIFIERS = {
    "tree": lambda args: DecisionTreeC45(),
    "bagging": lambda args: BaggingTrees(10),
    "boosting": lambda args: AdaBoostTrees(10),
    "svm": lambda args: SVMClassifier(kernel=args.kernel),
}


def _cmd_generate(args: argparse.Namespace) -> int:
    train, test = generate_paper_dataset(args.dataset, scale=args.scale)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    train_path = out / f"{args.dataset}_train.tsv"
    test_path = out / f"{args.dataset}_test.tsv"
    save_expression(train, train_path)
    save_expression(test, test_path)
    print(f"wrote {train_path} ({train.n_samples} samples x "
          f"{train.n_genes} genes)")
    print(f"wrote {test_path} ({test.n_samples} samples)")
    return 0


def _cmd_discretize(args: argparse.Namespace) -> int:
    train = load_expression(args.train)
    discretizer = EntropyDiscretizer().fit(train)
    save_discretized(discretizer.transform(train), args.output)
    print(f"{discretizer.n_selected_genes} genes kept "
          f"({len(discretizer.items_)} items); wrote {args.output}")
    if args.test and args.test_output:
        test = load_expression(args.test)
        save_discretized(discretizer.transform(test), args.test_output)
        print(f"wrote {args.test_output}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    dataset = load_discretized(args.items)
    if args.minsup is not None:
        minsup = args.minsup
    else:
        minsup = relative_minsup(dataset, args.consequent,
                                 args.minsup_fraction)
    if args.fault:
        # Fault-injection debug hook: exercise the crash-recovery
        # supervisor of repro.parallel against a real dataset from the
        # shell (e.g. --strategy hybrid --jobs 2 --fault kill@0.0).  Only
        # a hybrid mine's partitions run on workers; a direct or column
        # mine is one walk in this process, with no workers to lose.
        from .core.hybrid import mine_topk_hybrid
        from .parallel import FaultPlan, plan

        planned = plan(dataset, args.consequent, minsup, task="topk",
                       k=args.k, n_jobs=args.jobs, strategy=args.strategy)
        if planned.strategy != "hybrid" or planned.workers == 1:
            print("--fault needs workers to fault: use --strategy hybrid "
                  f"with --jobs != 1 (this mine plans {planned.strategy}, "
                  f"{planned.workers} worker(s); a direct or column mine "
                  "runs in one process)",
                  file=sys.stderr)
            return 2
        try:
            faults = FaultPlan.parse(args.fault)
        except ValueError as error:
            print(f"--fault: {error}", file=sys.stderr)
            return 2
        result = mine_topk_hybrid(
            dataset, args.consequent, minsup, k=args.k, engine=args.engine,
            n_jobs=planned.workers, fault=faults,
        )
    else:
        result = mine_topk(
            dataset, args.consequent, minsup, k=args.k, engine=args.engine,
            n_jobs=args.jobs, strategy=args.strategy,
        )
    hybrid_stats = getattr(result, "hybrid_stats", None)
    if hybrid_stats is not None:
        print(f"hybrid: {hybrid_stats.n_partitions} partitions "
              f"({hybrid_stats.n_skipped_partitions} skipped), largest "
              f"partition {hybrid_stats.peak_resident_cells} cells "
              f"(matrix {hybrid_stats.total_cells} cells)",
              file=sys.stderr)
    planned = result.stats.plan
    density = "-" if planned.density is None else f"{planned.density:.4f}"
    frequent = (
        "" if planned.frequent_items is None
        else f", {planned.frequent_items} frequent items"
    )
    print(f"plan: {planned.strategy}, {planned.workers} worker(s), "
          f"density {density}{frequent}", file=sys.stderr)
    if result.stats.degraded:
        print("note: worker loss degraded this mine to serial execution "
              "(result is still exact)", file=sys.stderr)
    print(f"top-{args.k} covering rule groups "
          f"(consequent={dataset.class_names[args.consequent]}, "
          f"minsup={minsup}, {result.stats.nodes_visited} nodes):")
    for row, groups in sorted(result.per_row.items()):
        for rank, group in enumerate(groups, start=1):
            items = ", ".join(
                dataset.item_label(i) for i in sorted(group.antecedent)[:4]
            )
            extra = len(group.antecedent) - 4
            suffix = f", ...(+{extra})" if extra > 0 else ""
            print(f"  row {row} #{rank}: {{{items}{suffix}}} "
                  f"sup={group.support} conf={group.confidence:.3f}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    train = load_expression(args.train)
    test = load_expression(args.test)
    discretizer = EntropyDiscretizer().fit(train)
    if args.classifier in _RULE_CLASSIFIERS:
        model = _RULE_CLASSIFIERS[args.classifier](args)
        model.fit(discretizer.transform(train))
        predictions, sources = model.predict_with_sources(
            discretizer.transform(test)
        )
        report = evaluate(list(test.labels), predictions, sources)
    else:
        genes = discretizer.selected_genes_
        model = _NUMERIC_CLASSIFIERS[args.classifier](args)
        model.fit(train.values[:, genes], train.labels)
        predictions = list(model.predict(test.values[:, genes]))
        report = evaluate(list(test.labels), predictions)
    print(f"{args.classifier}: {report.summary()}")
    if args.save:
        if args.classifier not in ("rcbt", "cba"):
            print("--save supports only rcbt and cba", file=sys.stderr)
            return 2
        from .classifiers.persistence import save_classifier

        save_classifier(model, args.save)
        pipeline_path = Path(args.save).with_suffix(".pipeline.json")
        pipeline_path.write_text(json.dumps({
            "cuts": {str(g): c for g, c in discretizer.cuts_.items()},
            "gene_names": train.gene_names,
            "class_names": train.class_names,
        }), encoding="utf-8")
        print(f"saved model to {args.save} and pipeline to {pipeline_path}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .classifiers.persistence import load_classifier

    pipeline = json.loads(Path(args.pipeline).read_text(encoding="utf-8"))
    discretizer = EntropyDiscretizer.from_cuts(
        {int(g): c for g, c in pipeline["cuts"].items()},
        pipeline["gene_names"],
        pipeline["class_names"],
    )
    model = load_classifier(args.model)
    data = load_expression(args.data)
    items = discretizer.transform(data)
    predictions, sources = model.predict_with_sources(items)
    class_names = pipeline["class_names"]
    for index, (label, source) in enumerate(zip(predictions, sources)):
        print(f"sample {index}: {class_names[label]} ({source})")
    if len(set(data.labels)) > 1 or data.n_samples:
        report = evaluate(list(data.labels), predictions, sources)
        print(report.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import AsyncReproServer

    server = AsyncReproServer(
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        grace_seconds=args.grace_seconds,
        models_dir=args.models_dir,
        cache_bytes=args.cache_bytes,
        mining_workers=args.workers,
        mine_jobs=args.mine_jobs,
        store_path=args.store,
    )
    server.start()
    registered = server.service.registry.names()
    if registered:
        print(f"warm started models: {', '.join(registered)}")
    recovered = server.service.telemetry.counter("mine_jobs_recovered")
    if recovered:
        print(f"recovered {recovered} durable mining job(s) from "
              f"{args.store}")
    print(f"serving on {server.url} (Ctrl-C or SIGTERM to stop)", flush=True)

    # SIGTERM (systemd/k8s stop) drains like Ctrl-C does: interrupt the
    # foreground wait, then stop() below gives in-flight requests
    # --grace-seconds and checkpoints the durable job store.
    def _terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        try:
            while True:
                signal.pause()
        except KeyboardInterrupt:
            pass
        print("draining...", flush=True)
        server.stop()
        print("stopped cleanly", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 0


def _run_gated(args: argparse.Namespace, run, compare) -> int:
    """The shared tail of ``bench`` and ``loadtest``: read the baseline,
    run, write the report, print it, then gate it against the baseline."""
    from .bench import write_report

    # Read the baseline before writing, in case --output points at it.
    baseline = None
    if args.compare:
        baseline = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    report = run()
    write_report(report, args.output)
    for line in report.summary_lines():
        print(line)
    print(f"wrote {args.output}")
    if baseline is None:
        return 0
    lines, ok = compare(report.as_dict(), baseline)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        DEFAULT_WORKLOADS,
        QUICK_WORKLOADS,
        compare_reports,
        run_bench,
    )

    workloads = None
    if args.only:
        pool = QUICK_WORKLOADS if args.quick else DEFAULT_WORKLOADS
        workloads = tuple(w for w in pool if args.only in w.name)
        if not workloads:
            names = ", ".join(w.name for w in pool)
            print(f"--only {args.only!r} matches no workload; "
                  f"available: {names}", file=sys.stderr)
            return 2
    return _run_gated(args, lambda: run_bench(
        scale=args.scale,
        jobs=tuple(args.jobs),
        repeats=args.repeats,
        quick=args.quick,
        include_quick=args.include_quick,
        workloads=workloads,
    ), compare_reports)


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from .service.loadtest import compare_reports, run_loadtest

    return _run_gated(args, lambda: run_loadtest(
        quick=args.quick,
        progress=print if args.verbose else None,
    ), compare_reports)


def _cmd_audit(args: argparse.Namespace) -> int:
    from .audit import run_audit

    report = run_audit(
        seed=args.seed,
        cases=args.cases,
        quick=args.quick,
        only_case=args.only_case,
        parallel_jobs=1 if args.no_parallel else args.parallel_jobs,
        progress=print if args.verbose else None,
    )
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments.__main__ import main as experiments_main

    return experiments_main([args.experiment, *args.rest])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Top-k covering rule groups for gene expression data "
                    "(SIGMOD 2005 reproduction)",
    )
    commands = parser.add_subparsers(dest="command")

    generate = commands.add_parser(
        "generate", help="write a synthetic paper-shaped dataset"
    )
    generate.add_argument("dataset", choices=sorted(PAPER_DATASETS))
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--output", default=".")
    generate.set_defaults(handler=_cmd_generate)

    discretize = commands.add_parser(
        "discretize", help="entropy-MDL discretize a TSV dataset"
    )
    discretize.add_argument("train", help="training TSV (cuts are fitted here)")
    discretize.add_argument("--output", required=True, help="items JSON")
    discretize.add_argument("--test", help="optional test TSV")
    discretize.add_argument("--test-output", help="items JSON for the test split")
    discretize.set_defaults(handler=_cmd_discretize)

    mine = commands.add_parser(
        "mine", help="mine top-k covering rule groups from an item file"
    )
    mine.add_argument("items", help="discretized items JSON")
    mine.add_argument("--consequent", type=int, default=1)
    mine.add_argument("--k", type=int, default=1)
    mine.add_argument("--minsup", type=int, default=None,
                      help="absolute minimum support")
    mine.add_argument("--minsup-fraction", type=float, default=0.7,
                      help="used when --minsup is not given")
    mine.add_argument("--engine", choices=("bitset", "table", "tree"),
                      default="bitset")
    mine.add_argument("--jobs", type=_jobs_arg, default=1,
                      help="worker processes for a hybrid mine's "
                           "partitions (0 = all cores, 'auto' = let the "
                           "planner decide; output is identical to "
                           "serial); a direct or column mine runs in one "
                           "process")
    mine.add_argument("--strategy", choices=("direct", "hybrid", "auto"),
                      default="direct",
                      help="direct enumerates the rows of the whole "
                           "dataset in one walk; hybrid partitions "
                           "column-first for tall datasets (bit-identical "
                           "output); auto plans column enumeration of the "
                           "closed sets when the frequent items are few "
                           "for the row count, else hybrid when the "
                           "frequent items per row are few, else direct "
                           "(DESIGN.md §13)")
    mine.add_argument("--fault", metavar="PLAN", default=None,
                      help="inject worker faults for recovery testing, "
                           "e.g. 'kill@0.0' (mode@job.attempt[:seconds]; "
                           "modes kill/raise/hang/delay; requires "
                           "--strategy hybrid and --jobs != 1)")
    mine.set_defaults(handler=_cmd_mine)

    classify = commands.add_parser(
        "classify", help="train on one TSV, evaluate on another"
    )
    classify.add_argument("classifier",
                          choices=(*_RULE_CLASSIFIERS, *_NUMERIC_CLASSIFIERS))
    classify.add_argument("--train", required=True)
    classify.add_argument("--test", required=True)
    classify.add_argument("--k", type=int, default=10)
    classify.add_argument("--nl", type=int, default=20)
    classify.add_argument("--kernel", choices=("linear", "poly"),
                          default="linear")
    classify.add_argument("--jobs", type=_jobs_arg, default=1,
                          help="worker processes for rcbt rule mining, "
                               "one whole mine per class (0 = all cores, "
                               "'auto' = planner decides)")
    classify.add_argument("--save", help="write the trained model (rcbt/cba) "
                                          "and its pipeline file here")
    classify.set_defaults(handler=_cmd_classify)

    predict = commands.add_parser(
        "predict", help="apply a saved rule classifier to new samples"
    )
    predict.add_argument("--model", required=True,
                         help="model JSON from classify --save")
    predict.add_argument("--pipeline", required=True,
                         help="pipeline JSON written next to the model")
    predict.add_argument("--data", required=True, help="samples TSV")
    predict.set_defaults(handler=_cmd_predict)

    serve = commands.add_parser(
        "serve", help="run the rule-mining & classification HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="0 picks an ephemeral port")
    serve.add_argument("--models-dir",
                       help="persist registered models here and warm "
                            "start from it")
    serve.add_argument("--cache-bytes", type=int, default=64 * 1024 * 1024,
                       help="byte bound of the mining result cache")
    serve.add_argument("--workers", type=int, default=2,
                       help="mining job worker threads")
    serve.add_argument("--mine-jobs", type=_jobs_arg, default=1,
                       help="worker processes each mining job may use "
                            "for its hybrid partitions (cap for "
                            "per-request n_jobs; 'auto' = planner decides "
                            "per workload); a direct mine runs in its "
                            "job thread")
    serve.add_argument("--store", default=None, metavar="DB",
                       help="durable SQLite job store: queued/running "
                            "mines survive restarts and identical "
                            "re-mines are answered from disk")
    serve.add_argument("--grace-seconds", type=float, default=5.0,
                       help="drain window for in-flight requests on "
                            "Ctrl-C/SIGTERM")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request")
    serve.set_defaults(handler=_cmd_serve)

    bench = commands.add_parser(
        "bench", help="time serial vs parallel mining; write BENCH_core.json"
    )
    bench.add_argument("--output", default="BENCH_core.json",
                       help="where to write the JSON report")
    bench.add_argument("--jobs", type=int, nargs="+", default=[2, 4],
                       help="parallel worker counts to measure")
    bench.add_argument("--scale", type=float, default=0.25,
                       help="gene-count scale of the synthetic workloads")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed repetitions per configuration (best "
                            "wall-clock is reported)")
    bench.add_argument("--quick", action="store_true",
                       help="one small workload, one repeat — the CI "
                            "smoke profile")
    bench.add_argument("--include-quick", action="store_true",
                       help="append the quick workloads to a full run so "
                            "the baseline covers CI's --quick profile")
    bench.add_argument("--only", metavar="SUBSTRING",
                       help="run only workloads whose name contains this "
                            "substring (applied to the active profile)")
    bench.add_argument("--compare", metavar="BASELINE",
                       help="diff this run against a committed report; "
                            "exit non-zero if any serial time regressed "
                            "more than 2x")
    bench.set_defaults(handler=_cmd_bench)

    loadtest = commands.add_parser(
        "loadtest", help="benchmark the HTTP front end; write "
                         "BENCH_service.json"
    )
    loadtest.add_argument("--output", default="BENCH_service.json",
                          help="where to write the JSON report")
    loadtest.add_argument("--quick", action="store_true",
                          help="smaller request counts — the CI smoke "
                               "profile")
    loadtest.add_argument("--compare", metavar="BASELINE",
                          help="diff this run against a committed report; "
                               "exit non-zero if any RPS regressed more "
                               "than 2x (plus an absolute floor), any "
                               "requests errored, or a run has no "
                               "baseline entry")
    loadtest.add_argument("--verbose", action="store_true",
                          help="print one line per scenario run")
    loadtest.set_defaults(handler=_cmd_loadtest)

    audit = commands.add_parser(
        "audit", help="differential fuzz & invariant audit of the miners "
                      "and serving layer"
    )
    audit.add_argument("--seed", type=int, default=0,
                       help="master seed; (seed, case index) fully "
                            "determines a case")
    audit.add_argument("--cases", type=int, default=25,
                       help="number of fuzz cases to run")
    audit.add_argument("--only-case", type=int, default=None,
                       help="re-run exactly one case index (the repro "
                            "path printed by failure reports)")
    audit.add_argument("--quick", action="store_true",
                       help="bounded CI profile: smaller flag matrix, "
                            "no classifier round-trips")
    audit.add_argument("--parallel-jobs", type=int, default=2,
                       help="worker processes for the serial-vs-parallel "
                            "check")
    audit.add_argument("--no-parallel", action="store_true",
                       help="skip the serial-vs-parallel check entirely")
    audit.add_argument("--verbose", action="store_true",
                       help="print one line per case")
    audit.set_defaults(handler=_cmd_audit)

    experiments = commands.add_parser(
        "experiments", help="run a table/figure driver"
    )
    experiments.add_argument(
        "experiment",
        choices=("table1", "table2", "fig6", "fig7", "fig8",
                 "ablations", "report"),
    )
    experiments.add_argument("rest", nargs=argparse.REMAINDER)
    experiments.set_defaults(handler=_cmd_experiments)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        # No subcommand: print usage and fail like argparse does for bad
        # arguments, instead of raising AttributeError.
        parser.print_usage(sys.stderr)
        return 2
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
