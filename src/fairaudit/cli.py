"""Command-line entry point.

Subcommands: audit, decompose, curves, noise, subgroups, test, synth,
report, prepare-adult; each takes only the options it reads.  A flat
key=value config file may set any of them, with the same type and range
checks as the flag; explicit flags win.  All randomness derives from
--seed, and identical inputs plus seed give a byte-identical report body.

Exit codes: 0 success, 2 config error, 3 data error, 4 analysis error.

The module imports only the layers that parsing, loading data and
emitting a report need; each subcommand imports its analysis modules,
so one ``fairaudit`` process loads only the modules its subcommand runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .costs import (
    CostKind, brier_score, discrimination_level, empty_group_error,
    group_losses, row_losses, sample_variance,
)
from .data import (
    Dataset,
    Schema,
    Task,
    derive_seed,
    load_dataset,
    read_key_values,
    read_text,
    split,
    write_dataset,
)
from .errors import AnalysisError, ConfigError, DataError, FairauditError
from .learners import (
    FIELDS_READ, LearnerKind, LearnerSpec, score_predictions, train,
)
from .report import AuditReport, emit_report, write_curve_table


# On/off values, in any case, of a config line or a learner option.
_ON_OFF = {"1": True, "true": True, "yes": True,
           "0": False, "false": False, "no": False}


def parse_learner(text: str) -> LearnerSpec:
    """Parse 'kind' or 'kind:key=value,key=value' into a LearnerSpec."""
    kind_text, _, rest = text.partition(":")
    try:
        kind = LearnerKind(kind_text.strip())
    except ValueError:
        raise ConfigError(f"unknown learner kind {kind_text!r}") from None
    kwargs = {}
    converters = {
        f.name: type(f.default)
        for f in fields(LearnerSpec)
        if f.name not in ("kind", "seed")
    }
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if key not in converters:
                raise ConfigError(f"unknown learner option {key!r}")
            convert = converters[key]
            try:
                kwargs[key] = (_ON_OFF[value.lower()] if convert is bool
                               else convert(value))
            except (KeyError, ValueError):
                raise ConfigError(
                    f"learner option {key}={value!r} is not a valid "
                    f"{convert.__name__}"
                ) from None
    try:
        spec = LearnerSpec(kind=kind, **kwargs)
    except AnalysisError as exc:
        raise ConfigError(f"learner {text!r}: {exc}") from None
    read = FIELDS_READ[spec.kind]
    unread = [key for key in kwargs if key not in read]
    if unread:
        raise ConfigError(
            f"learner {text!r} does not read {', '.join(unread)}; "
            f"it reads {', '.join(read)}"
        )
    return spec


def parse_kinds(text: str) -> list[CostKind]:
    kinds = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            kinds.append(CostKind(item))
        except ValueError:
            raise ConfigError(f"unknown cost kind {item!r}") from None
    if not kinds:
        raise ConfigError("no cost kinds given")
    return kinds


def parse_kind(text: str) -> CostKind:
    """Parse exactly one cost kind."""
    kinds = parse_kinds(text)
    if len(kinds) != 1:
        raise ConfigError(f"takes one cost kind, got {text!r}")
    return kinds[0]


def _load_data(args) -> Dataset:
    if not args.data:
        raise ConfigError("--data is required for this subcommand")
    if not args.schema:
        raise ConfigError("--schema is required for this subcommand")
    return load_dataset(args.data, Schema.from_file(args.schema))


def _trained_predictions(args, d: Dataset, seed: int):
    """Either use the score column from the data, or train the configured
    learner on a split and evaluate on the held-out part."""
    if d.score is not None:
        return score_predictions(d.score, d.task, args.threshold), d
    spec = replace(parse_learner(args.learner), seed=derive_seed(seed, "train"))
    ds = split(d, args.test_fraction, derive_seed(seed, "split"))
    model = train(spec, ds.train)
    scores = model.predict_scores(ds.test.features)
    return score_predictions(scores, d.task, args.threshold), ds.test


def _groups_with_rows(d: Dataset, report: AuditReport) -> list[int]:
    """The declared groups that have rows in ``d``.  Per-group blocks leave
    out every other one, with the warning ``discrimination_level`` gives."""
    groups = []
    for a in range(d.n_groups):
        if d.group_indices(a).size:
            groups.append(a)
        else:
            report.warn(f"group {a} skipped: {empty_group_error(a)}")
    return groups


def cmd_audit(args, report: AuditReport) -> None:
    d = _load_data(args)
    preds, eval_set = _trained_predictions(args, d, args.seed)
    for kind in parse_kinds(args.kind):
        block = discrimination_level(preds, eval_set, kind)
        report.add(f"group_costs.{kind.value}", block)
        for w in block.warnings:
            report.warn(w)
    if eval_set.task is Task.BINARY and preds.scores is not None:
        briers = {
            str(a): brier_score(preds.scores, eval_set, a)
            for a in _groups_with_rows(eval_set, report)
        }
        report.add("brier_scores", briers)


def _synth_spec(args):
    """The synthetic spec named by ``--synth-kind`` and its generator
    ``gen(spec, n, seed) -> (Dataset, ConditionalOutcomeModel)``."""
    from . import synth

    if args.synth_kind == "regression":
        spec = synth.RegressionSynthSpec(
            sigma_eps=args.sigma_eps, homoskedastic=args.homoskedastic
        )
        return spec, synth.gen_regression
    return synth.default_discrete_spec(), synth.gen_discrete


def cmd_decompose(args, report: AuditReport) -> None:
    from . import decomposition as decomp

    seed = args.seed
    spec = parse_learner(args.learner)
    if args.data:
        d = _load_data(args)
        ds = split(d, args.test_fraction, derive_seed(seed, "split"))
        ensemble = decomp.ensemble_train(
            spec, ds.train, args.t_models, args.n_train or ds.train.n,
            ds.test, derive_seed(seed, "ensemble"), threshold=args.threshold,
        )
        om = None
        eval_set = ds.test
    else:
        synth_spec, gen = _synth_spec(args)
        sampler = lambda n, s: gen(synth_spec, n, s)[0]
        eval_set, om = gen(synth_spec, args.eval_size, derive_seed(seed, "eval"))
        ensemble = decomp.ensemble_train(
            spec, sampler, args.t_models, args.n_train or 200,
            eval_set, derive_seed(seed, "ensemble"), threshold=args.threshold,
        )
    loss = (
        decomp.Loss.ZERO_ONE
        if eval_set.task is Task.BINARY
        else decomp.Loss.SQUARED
    )
    blocks = {
        str(a): decomp.group_decomposition(ensemble, eval_set, om, loss, a)
        for a in _groups_with_rows(eval_set, report)
    }
    report.add("decomposition", blocks)
    report.add("gamma_bar", decomp.gamma_bar(blocks))
    if om is None:
        report.warn(
            "outcome model unknown: bias and noise reported as a combined "
            "residual; see noise bounds for noise estimates"
        )


def cmd_curves(args, report: AuditReport) -> None:
    from . import curves as curves_mod

    grid = _grid_sizes(args.grid)
    d = _load_data(args)
    spec = parse_learner(args.learner)
    kinds = parse_kinds(args.kind)
    exp = curves_mod.run_curve_experiment(
        spec, d, grid, args.trials, derive_seed(args.seed, "curves"),
        cost_kinds=kinds, threshold=args.threshold,
    )
    fits = curves_mod.fit_curve_experiment(exp)
    fit_block = {
        f"{kind.value}.group{a}": fit for (a, kind), fit in sorted(
            fits.items(), key=lambda kv: (kv[0][1].value, kv[0][0])
        )
    }
    report.add("power_law_fits", fit_block)
    gaps = {}
    for kind in kinds:
        kind_fits = [fit for (a, k), fit in fits.items() if k == kind]
        if len(kind_fits) >= 2:
            gaps[kind.value] = {}
            for label, n in (("at_max_n", max(grid)), ("asymptotic", np.inf)):
                gaps[kind.value][label] = curves_mod.extrapolate_gamma(
                    kind_fits, n)
    report.add("gamma_extrapolations", gaps)
    rows = []
    for kind in kinds:
        for a in range(d.n_groups):
            for n, mean, count in exp.mean_costs(a, kind):
                values = np.asarray(exp.trial_costs[(a, kind, n)])
                stderr = math.sqrt(sample_variance(values)) / math.sqrt(count)
                fit = fits.get((a, kind))
                fitted = fit(n) if fit else ""
                rows.append([n, a, kind.value, mean, stderr, fitted])
    if args.out:
        write_curve_table(os.path.join(args.out, "curve_data.csv"), rows)


def cmd_noise(args, report: AuditReport) -> None:
    from . import noise_bounds

    d = _load_data(args)
    max_samples = args.max_nn_samples if args.max_nn_samples > 0 else None
    estimates = noise_bounds.all_bounds(
        d, k=args.k, folds=args.folds, seed=derive_seed(args.seed, "noise"),
        max_samples=max_samples,
    )
    block = {
        f"{e.method.value}.group{e.group}": e for e in estimates
    }
    report.add("noise_bounds", block)


def cmd_subgroups(args, report: AuditReport) -> None:
    from . import subgroups

    kind = parse_kind(args.kind)
    if args.topics and kind is not CostKind.ZERO_ONE:
        raise ConfigError(
            f"--topics takes --kind zero_one only, got {kind.value!r}"
        )
    d = _load_data(args)
    preds, eval_set = _trained_predictions(args, d, args.seed)
    if args.topics:
        cl = subgroups.load_membership(args.topics, n_expected=eval_set.n)
        rep = subgroups.rank_clusters(preds, eval_set, cl, kind)
        report.add("topic_clusters", rep)
        for w in rep.warnings:
            report.warn(w)
    else:
        # Raises for an inapplicable kind; the loop skips cell-less features.
        row_losses(preds, eval_set, kind)
        clusterings = subgroups.threshold_clusterings(eval_set)
        summary = {}
        for j, cl in enumerate(clusterings):
            if cl.degenerate:
                report.warn(f"feature {j} is constant; clustering degenerate")
                continue
            try:
                rep = subgroups.rank_clusters(preds, eval_set, cl, kind)
            except AnalysisError:
                continue
            top = rep.clusters[0]
            summary[eval_set.column_names[j]] = {
                "top_cluster": top,
                "gap": rep.gaps[top],
                "variance": rep.variances[top],
                "enrichment": rep.enrichment[top],
            }
        if not summary:
            raise AnalysisError(
                "no feature splits the evaluation rows into a cluster with "
                f"{kind.value} costs in 2 groups"
            )
        report.add("feature_threshold_clusters", summary)


def _finite_statistic(report: AuditReport, result):
    """``result``, a ``stats.TestResult``, as the report gives it: an
    infinite statistic, from an exact gap (no variance to scale it by),
    becomes None with a warning; its p-value and ``reject`` stand."""
    if math.isfinite(result.statistic):
        return result
    report.warn(
        f"{result.name}: statistic {result.statistic} from samples without "
        "variance, reported as null"
    )
    return replace(result, statistic=None)


def cmd_test(args, report: AuditReport) -> None:
    from . import stats

    d = _load_data(args)
    preds, eval_set = _trained_predictions(args, d, args.seed)
    kind = parse_kind(args.kind)
    # Before any test runs, leave out each group whose cost is undefined
    # or that has fewer than the 2 samples a test needs.
    samples, errors = group_losses(preds, eval_set, kind)
    for a, la in samples.items():
        if la.size < 2:
            errors[a] = AnalysisError(
                f"group {a} has 1 {kind.value} sample; a test needs at least 2"
            )
    for a in sorted(errors):
        report.warn(f"group {a} skipped: {errors[a]}")
    losses = {a: la for a, la in samples.items() if a not in errors}
    groups = list(losses)
    if len(groups) < 2:
        raise AnalysisError(
            f"fewer than 2 groups have evaluation rows that {kind.value} "
            "can test"
        )
    # The z-test compares the first two groups kept.
    result = stats.gamma_z_test(
        preds, eval_set, kind, level=args.level, groups=tuple(groups[:2])
    )
    report.add("gamma_z_test", _finite_statistic(report, result))
    for w in result.detail.get("warnings", []):
        report.warn(w)
    ci = stats.bootstrap_gamma_ci(
        preds, eval_set, kind, reps=args.reps, level=args.level,
        seed=derive_seed(args.seed, "bootstrap"), groups=groups,
    )
    report.add("bootstrap_gamma_ci", {"low": ci[0], "high": ci[1]})
    if len(groups) > 2:
        anova = stats.anova_f(list(losses.values()), level=args.level)
        report.add("anova_f", _finite_statistic(report, anova))
        pairwise = stats.pairwise_welch_holm(losses, level=args.level)
        report.add("pairwise_welch_holm", {
            pair: _finite_statistic(report, r) for pair, r in pairwise.items()
        })


def cmd_synth(args, report: AuditReport) -> None:
    from . import synth

    spec, gen = _synth_spec(args)
    d, _ = gen(spec, args.n, derive_seed(args.seed, "synth"))
    bayes = synth.exact_bayes(spec)
    report.add(
        "exact_bayes",
        {"noise": list(bayes["noise"])},
    )
    if args.data:
        write_dataset(d, args.data)
        report.add("written", {"path": args.data, "rows": d.n, "features": d.k})


def cmd_report(args, report: AuditReport) -> None:
    if not args.data:
        raise ConfigError("report subcommand needs --data <report.json>")
    text = read_text(args.data, "report")
    # The loaded report's own config and version replace this run's echo.
    vars(report).update(vars(AuditReport.from_json(text)))


def cmd_prepare_adult(args, report: AuditReport) -> None:
    from . import adult as adult_mod

    if not args.data or not args.out_csv or not args.out_schema:
        raise ConfigError(
            "prepare-adult needs --data <raw adult.data> --out-csv <csv> "
            "--out-schema <schema>"
        )
    rows = adult_mod.convert_adult(args.data, args.out_csv, args.out_schema)
    report.add(
        "prepare_adult",
        {"rows": rows, "csv": args.out_csv, "schema": args.out_schema},
    )


class _Parser(argparse.ArgumentParser):
    """Reports every parse failure as a ConfigError (exit 2)."""

    def error(self, message):
        raise ConfigError(message)


def _checked(convert, rule: str, ok):
    """An argparse ``type``: ``convert`` the text, then reject a value for
    which ``ok`` is false, naming the ``rule`` it breaks."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    # argparse names the type in "invalid int value: 'x'".
    parse.__name__ = convert.__name__
    return parse


def _at_least(low: int):
    return _checked(int, f">= {low}", lambda v: v >= low)


def _grid_sizes(text: str) -> list[int]:
    try:
        sizes = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1 or len(set(sizes)) < len(sizes):
        raise ConfigError("must be distinct comma-separated sizes >= 1, "
                          f"got {text!r}")
    return sizes


def _parsed_text(parse):
    """An argparse type: checks text with ``parse``, keeps it for the echo."""
    def check(text):
        try:
            parse(text)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text
    return check


def build_parser(
    data: bool | None = None, command: str | None = None
) -> _Parser:
    """The one declaration of every option: its type, default, valid range
    and the subcommands that read it.  Config-file values pass it too.
    ``decompose`` reads some options only with ``--data`` and others only
    without it; ``data`` picks the source whose options it takes (None:
    both).  Only ``command`` gets its options (None: every subcommand); the
    others are declared by name, so the usage and the message for an
    unknown subcommand still list them all."""
    unit_open = _checked(float, "in (0, 1)", lambda v: 0.0 < v < 1.0)
    unit_closed = _checked(float, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    positive = _checked(float, "finite and > 0", lambda v: 0.0 < v < math.inf)
    uint32 = _checked(int, "in [0, 2**32)", lambda v: 0 <= v < 2**32)
    trained = ("audit", "decompose", "curves", "subgroups", "test")
    held_out = ("audit", "decompose/data", "subgroups", "test")
    synthetic = ("decompose/synthetic", "synth")
    # (flag, the subcommands that read it, add_argument keywords); a
    # "command/source" reader takes it from that source only.  Only they
    # take it, so the config echo lists only inputs the run read.
    options = [
        ("--schema", ("noise", *held_out, "curves"), dict(default=None)),
        ("--learner", trained,
         dict(type=_parsed_text(parse_learner), default="bagged_trees")),
        ("--threshold", trained, dict(type=unit_closed, default=0.5)),
        ("--test-fraction", held_out, dict(type=unit_open, default=0.2)),
        ("--kind", ("audit", "curves"),
         dict(type=_parsed_text(parse_kinds), default="zero_one")),
        ("--kind", ("subgroups", "test"),
         dict(type=_parsed_text(parse_kind), default="zero_one")),
        ("--level", ("test",), dict(type=unit_open, default=0.05)),
        ("--synth-kind", synthetic,
         dict(default="discrete", choices=("discrete", "regression"))),
        ("--sigma-eps", synthetic, dict(type=positive, default=1.0)),
        ("--homoskedastic", synthetic, dict(action="store_true")),
        ("--t-models", ("decompose",), dict(type=_at_least(2), default=50)),
        ("--n-train", ("decompose",), dict(type=_at_least(0), default=0, help=(
            "training-set size per ensemble member; 0 means the train-split "
            "size with --data and 200 with a synthetic source"))),
        ("--eval-size", ("decompose/synthetic",),
         dict(type=_at_least(1), default=500)),
        ("--grid", ("curves",),
         dict(type=_parsed_text(_grid_sizes), default="100,200,400")),
        ("--trials", ("curves",), dict(type=_at_least(1), default=10)),
        ("--k", ("noise",), dict(type=_at_least(1), default=5)),
        ("--folds", ("noise",), dict(type=_at_least(2), default=5)),
        ("--max-nn-samples", ("noise",), dict(type=_at_least(0), default=0)),
        ("--topics", ("subgroups",), dict(default=None)),
        ("--reps", ("test",), dict(type=_at_least(100), default=1000)),
        ("--n", ("synth",), dict(type=_at_least(1), default=1000)),
        ("--out-csv", ("prepare-adult",), dict(default=None)),
        ("--out-schema", ("prepare-adult",), dict(default=None)),
    ]
    # Flags must be spelled out: an abbreviation would change meaning once
    # a new option shares its prefix.
    parser = _Parser(prog="fairaudit", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    sources = {None: ("data", "synthetic"), True: ("data",),
               False: ("synthetic",)}[data]
    for name in COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        if command not in (None, name):
            continue
        names = {name, *(f"{name}/{source}" for source in sources)}
        p.add_argument("--config", default=None)
        p.add_argument("--data", default=None)
        p.add_argument("--seed", type=uint32, default=None)
        p.add_argument("--out", default="fairaudit_out")
        p.add_argument("--format", default="json", choices=("json", "csv"))
        for flag, readers, keywords in options:
            if names.intersection(readers):
                p.add_argument(flag, **keywords)
    return parser


def _config_defaults(command: argparse.ArgumentParser, path) -> dict:
    """The ``key=value`` lines of config file ``path`` as defaults for the
    subcommand parser ``command``.  Each key must name one of its options;
    the text stays text, for the option's type to convert when parsed."""
    options = {
        a.dest: a for a in command._actions if a.dest not in ("help", "config")
    }
    defaults = {}
    for key, text in read_key_values(path, "config"):
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise ConfigError(f"config key {key!r} is not a known option")
        value = text
        if action.nargs == 0:  # an on/off flag such as --homoskedastic
            value = _ON_OFF.get(text.lower())
            if value is None:
                raise ConfigError(f"config key {key!r}: {text!r} is not on/off")
        # argparse checks choices on given values only, not on defaults.
        elif action.choices is not None and text not in action.choices:
            raise ConfigError(
                f"config key {key!r}: {text!r} is not one of "
                + ", ".join(action.choices)
            )
        defaults[action.dest] = value
    return defaults


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv`` (default ``sys.argv[1:]``).  Only the subcommand it
    names gets its options declared.  ``decompose`` is parsed once more,
    taking only the options of the source the first pass found (``--data``
    given by flag or config, or not)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option with a value, so the first token that
    # names a subcommand is the one argparse runs.
    command = next((token for token in argv if token in COMMANDS), None)
    args = _parse(build_parser(command=command), argv)
    if args.command == "decompose":
        source = "with --data" if args.data else "without --data"
        try:
            args = _parse(
                build_parser(data=bool(args.data), command="decompose"), argv
            )
        except ConfigError as exc:
            raise ConfigError(f"decompose {source}: {exc}") from None
    return args


def _parse(parser: _Parser, argv) -> argparse.Namespace:
    """Parse ``argv`` with ``parser``.  A ``--config`` file's values become
    the subcommand's defaults and the same argv is parsed again, so they
    are converted and range-checked exactly as flags are, and a flag given
    explicitly wins."""
    args = parser.parse_args(argv)
    if args.config:
        command = parser.commands[args.command]
        command.set_defaults(**_config_defaults(command, args.config))
        try:
            args = parser.parse_args(argv)
        except ConfigError as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
    return args


COMMANDS = {
    "audit": cmd_audit,
    "decompose": cmd_decompose,
    "curves": cmd_curves,
    "noise": cmd_noise,
    "subgroups": cmd_subgroups,
    "test": cmd_test,
    "synth": cmd_synth,
    "report": cmd_report,
    "prepare-adult": cmd_prepare_adult,
}


def run_cli(argv=None) -> int:
    try:
        try:
            args = parse_args(argv)
        except SystemExit:  # --help has printed the usage
            return 0
        if args.seed is None:
            raise ConfigError("--seed is mandatory (reproducibility contract)")
        # The echo covers analysis inputs only; emission options (where and
        # in which format to write) must not break byte-identical reruns.
        emission_only = {"out", "format", "config"}
        config_echo = {
            k: v
            for k, v in sorted(vars(args).items())
            if v is not None and k not in emission_only
        }
        report = AuditReport(config=config_echo)
        COMMANDS[args.command](args, report)
        emit_report(report, args.out, args.format)
        return 0
    except ConfigError as exc:
        print(f"fairaudit: config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"fairaudit: data error: {exc}", file=sys.stderr)
        return 3
    except (AnalysisError, FairauditError) as exc:
        print(f"fairaudit: analysis error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
