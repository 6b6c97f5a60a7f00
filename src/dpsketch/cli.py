"""Command-line surface for sketching CSV datasets and querying sketches.

Subcommands: sketch, estimate, cdf, cov, query-batch, fit-logreg,
inspect, eval.  Machine-readable CSV goes to stdout, human diagnostics to
stderr.  Exit codes, decided in ``main`` only: 0 ok, 1 I/O error, 2
validation or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

# perfbench's tracer replaces sketch_exact, privatize, save_sketch,
# load_sketch, estimate_cdf, estimate_covariance, answer_queries,
# fit_logistic_from_sketch and evaluate_auc on their modules after this
# import, so they are looked up there at call time: a name bound here
# by `from x import f` would keep the unwrapped function.
from . import reweighting, targets
from . import sketch as sketching
from .domain import BINARY, CONTINUOUS, Domain, DomainError, read_csv
from .estimator import SyntheticFeatures, TrainConfig, WeightedSamples
from .feature_maps import FeatureMapError, build_map, map_kind
from .metrics import emd_1d, frobenius, scored_error
from .sketch import (DEFAULT_SPLIT, SketchError, check_budget, epsilon_text,
                     noise_scales, write_json)
from .targets import (TargetError, check_queries, default_thresholds,
                      parse_predicates, parse_target)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2


class CliError(Exception):
    """A failure reported as one `error:` line; main exits 2 on it."""


# Every `sketch` option, each both a flag and a --config key:
# name -> (reader, parameter of feature_maps.build_map it sets, help)
SKETCH_OPTIONS = {
    "map": (str, None, "hist (default), rff or race"),
    "bins": (int, "n_bins", None),
    "m": (int, "m", None),
    "sigma": (float, "sigma", None),
    "hashes": (int, "n_hashes", None),
    "buckets": (int, "n_buckets", None),
    "r_width": (float, "r_width", None),
    "epsilon": (str, None, None),
    "split": (float, None, None),
    "map_seed": (int, None, None),
    "noise_seed": (int, None, "seed of the privacy noise (default: fresh "
                   "OS entropy); must differ from the map seed"),
}


def _seed(name, value):
    """value; CliError if it is a negative integer (None passes)."""
    if value is not None and value < 0:
        raise CliError(f"{name} must be a non-negative integer, got {value}")
    return value


def _parse_epsilon(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise CliError(f"epsilon must be a number or inf, got {text!r}")
    if not value > 0:
        raise CliError("epsilon must be positive or inf")
    return value


def _load_schema(path, header):
    if path is None:
        return Domain.unit(len(header))
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise CliError(f"{path}: invalid JSON ({err})")
    cols = doc.get("columns") if isinstance(doc, dict) else None
    if not isinstance(cols, list) or len(cols) != len(header):
        raise CliError(f"{path}: schema must list {len(header)} columns")
    if not all(isinstance(col, dict) for col in cols):
        raise CliError(f"{path}: each column must be a JSON object")
    try:
        return Domain(tuple(float(col.get("lower", 0.0)) for col in cols),
                      tuple(float(col.get("upper", 1.0)) for col in cols),
                      tuple(col.get("kind", CONTINUOUS) for col in cols))
    except (DomainError, TypeError, ValueError) as err:
        raise CliError(f"{path}: {err}")


def _read_key_values(path, allowed_keys) -> dict:
    """Read a key=value file (blank lines and # comments skipped)."""
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in allowed_keys:
                raise CliError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _convert(path, key, text, reader):
    """reader(text) for the value of a key=value entry, or a CliError."""
    try:
        return reader(text)
    except ValueError:
        raise CliError(f"{path}: {key}={text!r} is not a valid "
                       f"{reader.__name__}")


def _out_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


# -- subcommands ----------------------------------------------------------


def cmd_sketch(args) -> int:
    config = _read_key_values(args.config, SKETCH_OPTIONS) if args.config else {}

    def opt(name, default=None):
        """The flag's value, else the config file's, else default."""
        if getattr(args, name) is not None:
            return getattr(args, name)
        if name in config:
            return _convert(args.config, name, config[name],
                            SKETCH_OPTIONS[name][0])
        return default

    map_seed = _seed("map seed", opt("map_seed", 0))
    epsilon = _parse_epsilon(opt("epsilon", "inf"))
    split = opt("split", DEFAULT_SPLIT)
    # without an explicit seed the noise comes from OS entropy
    noise_seed = _seed("noise seed", opt("noise_seed"))
    if noise_seed == map_seed:
        raise CliError("the noise seed must differ from the map seed, which "
                       "the sketch file publishes")
    check_budget(epsilon, split)
    kind = map_kind(opt("map", "hist"))

    data, header = read_csv(args.input)
    domain = _load_schema(args.schema, header)
    params = {param: opt(name)
              for name, (_, param, _) in SKETCH_OPTIONS.items() if param}
    spec = build_map(kind, domain, map_seed, params)

    try:
        exact = sketching.sketch_exact(spec, data)
    except (DomainError, FeatureMapError) as err:
        raise CliError(f"schema violation: {err}")
    sketch = sketching.privatize(exact, spec, epsilon, split, seed=noise_seed)
    sketching.save_sketch(args.out, sketch, spec)

    sum_scale, count_scale = noise_scales(spec, sketch.epsilon_num,
                                          sketch.epsilon_den)
    writer = _out_writer()
    writer.writerow(["sensitivity_l1", "noise_scale_sum", "noise_scale_count",
                     "noisy_count"])
    writer.writerow([repr(spec.sensitivity_l1()), repr(sum_scale),
                     repr(count_scale), repr(sketch.noisy_count)])
    print(f"wrote {args.out} ({spec.variant}, m={spec.m}, "
          f"epsilon={epsilon_text(epsilon)})",
          file=sys.stderr)
    return EXIT_OK


def _load_sketch_file(path):
    try:
        return sketching.load_sketch(path)
    except (json.JSONDecodeError, SketchError, FeatureMapError) as err:
        raise CliError(f"{path}: {err}")
    except KeyError as err:
        raise CliError(f"{path}: missing key {err.args[0]!r}")


def _train_config(args, domain=None):
    try:
        return TrainConfig(n_synth=args.n_synth, extra_reg=args.extra_reg,
                           seed=_seed("synth seed", args.synth_seed),
                           domain=domain)
    except ValueError as err:
        raise CliError(str(err))


def _read_truth(path, domain):
    """The records of a --truth file weighted 1/n each, or None without
    one; CliError naming the file unless they have domain.d attributes."""
    if path is None:
        return None
    data, _ = read_csv(path)
    try:
        return WeightedSamples.uniform(data, domain)
    except DomainError as err:
        raise CliError(f"{path}: {err}")


def cmd_estimate(args) -> int:
    sketch, spec = _load_sketch_file(args.sketch)
    try:
        kind, payload = parse_target(args.target, spec.d)
    except TargetError as err:
        raise CliError(f"target parse error: {err}")
    truth = _read_truth(args.truth, spec.domain)

    def answer(samples):
        if kind == "cdf":
            return targets.estimate_cdf(samples, payload).values
        if kind == "cov":
            return targets.estimate_covariance(samples)
        return float(samples.sums([payload])[0])

    features = SyntheticFeatures(spec, _train_config(args))
    value = answer(features.weighted(sketch))
    true = None if truth is None else answer(truth)
    target = args.target.strip()
    writer = _out_writer()

    if kind == "cdf":
        header = ["target", "threshold", "estimate"]
        writer.writerow(header if true is None else header + ["true_value"])
        for i, s in enumerate(default_thresholds(spec.domain, payload)):
            row = [target, repr(float(s)), repr(float(value[i]))]
            if true is not None:
                row.append(repr(float(true[i])))
            writer.writerow(row)
        if true is not None:
            print(f"emd={emd_1d(value, true)!r}", file=sys.stderr)
    elif kind == "cov":
        for row in value:
            writer.writerow([repr(float(v)) for v in row])
        if true is not None:
            print(f"frobenius={frobenius(value, true)!r}", file=sys.stderr)
    else:
        header = ["target", "estimate"]
        row = [target, repr(value)]
        if true is not None:
            header += ["true_value", "metric", "metric_value"]
            metric, error = scored_error(value, true)
            row += [repr(true), metric, repr(error)]
        writer.writerow(header)
        writer.writerow(row)
    return EXIT_OK


def cmd_cdf(args) -> int:
    args.target = f"cdf {args.attr}"
    return cmd_estimate(args)


def cmd_cov(args) -> int:
    args.target = "cov"
    return cmd_estimate(args)


def cmd_query_batch(args) -> int:
    sketch, spec = _load_sketch_file(args.sketch)
    with open(args.queries) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    try:
        queries = [parse_predicates(line) for line in lines]
        check_queries(queries, spec.d)  # before any solve
    except TargetError as err:
        raise CliError(f"query parse error: {err}")
    truth = _read_truth(args.truth, spec.domain)

    features = SyntheticFeatures(spec, _train_config(args))
    answers = targets.answer_queries(features.weighted(sketch), queries)
    counts = answers.fractions * max(sketch.noisy_count, 1.0)
    writer = _out_writer()
    header = ["query", "fraction", "count"]
    if truth is not None:
        true = targets.answer_queries(truth, queries).fractions
        header.append("true_fraction")
    writer.writerow(header)
    for i, line in enumerate(lines):
        row = [line, repr(float(answers.fractions[i])), repr(float(counts[i]))]
        if truth is not None:
            row.append(repr(float(true[i])))
        writer.writerow(row)
    return EXIT_OK


def cmd_fit_logreg(args) -> int:
    if args.iters < 1:
        raise CliError(f"--iters must be at least 1, got {args.iters}")
    if args.step is not None:
        print("note: --step is ignored; the fit takes Newton steps",
              file=sys.stderr)
    sketch, spec = _load_sketch_file(args.sketch)
    test_data, _ = read_csv(args.test)
    if spec.variant == "HIST":
        print("warning: the binned-marginal feature map carries no "
              "cross-attribute information; expect near-chance AUC",
              file=sys.stderr)

    domain = spec.domain
    if domain.kinds[-1] != BINARY:
        # Reinterpret the last attribute as the label if it was declared
        # continuous on [0, 1].
        kinds = (CONTINUOUS,) * (domain.d - 1) + (BINARY,)
        try:
            domain = Domain(domain.lower, domain.upper, kinds)
        except DomainError as err:
            raise CliError(f"last attribute cannot be a binary label: {err}")
    try:
        domain.validate(test_data)
    except DomainError as err:
        raise CliError(f"schema violation: {args.test}: {err}")

    config = _train_config(args, domain)
    features = SyntheticFeatures(spec, config)
    lam, weighted = features.penalty(sketch), features.weighted(sketch)
    del features  # the fit reads the weights alone: free encoding and factor
    model = reweighting.fit_logistic_from_sketch(weighted, args.iters)
    fit = model.diagnostics
    if not fit["converged"]:
        print(f"warning: the fit stopped after {fit['iterations']} Newton "
              f"steps without converging (--iters {args.iters})",
              file=sys.stderr)
    try:
        auc_value = reweighting.evaluate_auc(model, test_data)
    except ValueError as err:
        raise CliError(f"{args.test}: {err}")

    if args.model_out:
        doc = {
            "theta": model.theta.tolist(),
            "intercept": model.intercept,
            "objective": model.objective,
            "penalized_objective": fit["penalized_objective"],
            "rho": fit["rho"],
            "newton_steps": fit["iterations"],
            "converged": fit["converged"],
            "config": {"n_synth": config.n_synth, "iters": args.iters,
                       "lambda": lam},
        }
        write_json(args.model_out, doc)

    writer = _out_writer()
    writer.writerow(["auc"])
    writer.writerow([repr(auc_value)])
    return EXIT_OK


def cmd_inspect(args) -> int:
    sketch, spec = _load_sketch_file(args.sketch)
    sum_scale, count_scale = noise_scales(spec, sketch.epsilon_num,
                                          sketch.epsilon_den)
    writer = _out_writer()
    writer.writerow(["field", "value"])
    rows = [
        ("variant", spec.variant),
        ("d", spec.d),
        ("m", spec.m),
        ("sensitivity_l1", repr(spec.sensitivity_l1())),
        ("epsilon_num", epsilon_text(sketch.epsilon_num)),
        ("epsilon_den", epsilon_text(sketch.epsilon_den)),
        ("noisy_count", repr(sketch.noisy_count)),
        ("spec_id", sketch.spec_id),
        ("noise_scale_sum", repr(sum_scale)),
        ("noise_scale_count", repr(count_scale)),
    ]
    for row in rows:
        writer.writerow(row)
    return EXIT_OK


def _split(text) -> tuple:
    return tuple(s.strip() for s in text.split(","))


# keys accepted in a plan file, with the reader of each value
PLAN_KEYS = {
    "dataset": str, "n": int, "d": int, "repetitions": int, "n_synth": int,
    "n_queries": int, "seed": int, "extra_reg": float, "sketches": _split,
    "tasks": _split,
    "epsilons": lambda text: tuple(_parse_epsilon(s) for s in _split(text)),
}


def cmd_eval(args) -> int:
    # imported here, unlike the rest of the package: no other command uses
    # harness, and importing it added about 5 ms to every command's start
    from .harness import ExperimentPlan, run_plan

    values = _read_key_values(args.plan, PLAN_KEYS)
    try:
        plan = ExperimentPlan(**{
            key: _convert(args.plan, key, text, PLAN_KEYS[key])
            for key, text in values.items()})
    except ValueError as err:
        raise CliError(f"{args.plan}: {err}")
    if args.quick:
        plan = plan.quick()
    results = run_plan(plan, args.out)
    print(f"results written to {results}", file=sys.stderr)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------


def _subcommand(sub, name, text, func, *positionals):
    """The subparser of a command run by func, with its positionals."""
    p = sub.add_parser(name, help=text)
    p.set_defaults(func=func)
    for arg in positionals:
        p.add_argument(arg)
    return p


def _add_fit_args(sub, truth=True):
    """The query commands' --truth (unless truth is False) and fit flags."""
    if truth:
        sub.add_argument("--truth", default=None)
    sub.add_argument("--n-synth", type=int, default=100_000)
    sub.add_argument("--extra-reg", type=float, default=1.0)
    sub.add_argument("--synth-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsketch",
        description="Differentially private dataset sketches and "
                    "sketch-based estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "sketch", "sketch a CSV dataset", cmd_sketch, "input")
    p.add_argument("--out", required=True)
    for name, (reader, _, text) in SKETCH_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=reader, help=text)
    p.add_argument("--schema", default=None)
    p.add_argument("--config", default=None)

    p = _subcommand(sub, "estimate", "estimate a target from a sketch",
                    cmd_estimate, "sketch", "target")
    _add_fit_args(p)
    p = _subcommand(sub, "cdf", "estimate a per-attribute CDF", cmd_cdf,
                    "sketch")
    p.add_argument("--attr", type=int, required=True)
    _add_fit_args(p)
    p = _subcommand(sub, "cov", "estimate the covariance matrix", cmd_cov,
                    "sketch")
    _add_fit_args(p)
    p = _subcommand(sub, "query-batch", "answer counting queries from a file",
                    cmd_query_batch, "sketch", "queries")
    _add_fit_args(p)

    p = _subcommand(sub, "fit-logreg", "train a logistic model from a sketch",
                    cmd_fit_logreg, "sketch", "test")
    p.add_argument("--model-out", default=None)
    p.add_argument("--step", type=float, default=None,
                   help="accepted for compatibility; unused")
    p.add_argument("--iters", type=int, default=100,
                   help="cap on Newton steps (default 100)")
    _add_fit_args(p, truth=False)

    _subcommand(sub, "inspect", "describe a sketch file", cmd_inspect, "sketch")
    p = _subcommand(sub, "eval", "run an experiment plan", cmd_eval)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quick", action="store_true")

    return parser


def _print_warning(message, category, filename, lineno, file=None,
                   line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command.  Every exit code but the parser's is decided here:
    a closed stdout exits 1 silently, any other OSError exits 1, and a
    CliError or the package's input errors exit 2, each as one line."""
    args = build_parser().parse_args(argv)
    try:
        # library warnings read like the commands' own notes: one line
        # each, without the source location
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except BrokenPipeError:
        return EXIT_IO
    except OSError as err:
        message, code = err, EXIT_IO
    except (CliError, DomainError, FeatureMapError, SketchError) as err:
        message, code = err, EXIT_VALIDATION
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
