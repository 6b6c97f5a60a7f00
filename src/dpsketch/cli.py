"""Command-line surface for sketching CSV datasets and querying sketches.

Subcommands: sketch, estimate, cdf, cov, query-batch, fit-logreg,
inspect, eval.  Machine-readable CSV goes to stdout, human diagnostics to
stderr.  Exit codes: 0 ok, 1 I/O error, 2 validation or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2

SEED_ENV_VAR = "DPSKETCH_SEED"

# `sketch` flags and config keys that set a feature-map parameter:
# name -> (parameter of feature_maps.build_map, type)
MAP_OPTIONS = {
    "bins": ("n_bins", int), "m": ("m", int), "sigma": ("sigma", float),
    "hashes": ("n_hashes", int), "buckets": ("n_buckets", int),
    "r_width": ("r_width", float),
}

# keys accepted in a key=value config file for `sketch`
SKETCH_CONFIG_KEYS = {
    "map", *MAP_OPTIONS, "epsilon", "split", "map_seed", "noise_seed",
    "normalize",
}


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _seed(name, value, fallback=0):
    """The seed given as name, else DPSKETCH_SEED, else fallback; CliError
    unless the seed is a non-negative integer."""
    if value is None:
        text = os.environ.get(SEED_ENV_VAR)
        if text is None:
            return fallback
        try:
            name, value = SEED_ENV_VAR, int(text)
        except ValueError:
            raise CliError(f"{SEED_ENV_VAR} must be an integer, got {text!r}")
    if value < 0:
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


def _read_csv(path):
    from .domain import DomainError, read_csv

    try:
        return read_csv(path)
    except OSError as err:
        raise CliError(str(err), EXIT_IO)
    except DomainError as err:
        raise CliError(str(err))


def _load_schema(path, header):
    from .domain import CONTINUOUS, Domain, DomainError

    if path is None:
        d = len(header)
        return Domain.unit(d)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise CliError(str(err), EXIT_IO)
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
    try:
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
    except OSError as err:
        raise CliError(str(err), EXIT_IO)
    return values


def _convert(path, key, text, cast):
    """cast(text) for the value of a key=value entry, or a CliError."""
    try:
        return cast(text)
    except ValueError:
        raise CliError(f"{path}: {key}={text!r} is not a valid {cast.__name__}")


def _out_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


# -- subcommands ----------------------------------------------------------


def cmd_sketch(args) -> int:
    import numpy as np

    from .domain import DomainError
    from .feature_maps import FeatureMapError, build_map
    from .sketch import (DEFAULT_SPLIT, SketchError, noise_scales, privatize,
                         save_sketch, sketch_exact)

    config = _read_key_values(args.config, SKETCH_CONFIG_KEYS) if args.config else {}

    def opt(name, flag_value, cast, default):
        if flag_value is not None:
            return flag_value
        if name in config:
            return _convert(args.config, name, config[name], cast)
        return default

    data, header = _read_csv(args.input)
    domain = _load_schema(args.schema, header)
    normalize = args.normalize or config.get("normalize", "").lower() in ("1", "true")
    norm_extra = None
    if normalize:
        from .domain import Domain

        mins = data.min(axis=0)
        maxs = data.max(axis=0)
        span = np.where(maxs > mins, maxs - mins, 1.0)
        data = (data - mins) / span
        domain = Domain.unit(data.shape[1])
        norm_extra = {"normalization": {"min": mins.tolist(), "max": maxs.tolist()}}
        print("note: min/max normalization constants are computed from the "
              "data and recorded in the sketch file; they leak information "
              "outside the stated privacy budget", file=sys.stderr)

    map_kind = opt("map", args.map, str, "hist")
    map_seed = _seed("map seed", opt("map_seed", args.map_seed, int, None))
    params = {param: opt(name, getattr(args, name), cast, None)
              for name, (param, cast) in MAP_OPTIONS.items()}
    try:
        spec = build_map(map_kind, domain, map_seed, params)
    except FeatureMapError as err:
        raise CliError(str(err))

    epsilon = _parse_epsilon(opt("epsilon", args.epsilon, str, "inf"))
    split = opt("split", args.split, float, DEFAULT_SPLIT)
    # without an explicit seed the noise comes from OS entropy
    noise_seed = _seed("noise seed",
                       opt("noise_seed", args.noise_seed, int, None), None)

    try:
        exact = sketch_exact(spec, data)
    except (DomainError, FeatureMapError) as err:
        raise CliError(f"schema violation: {err}")
    try:
        sketch = privatize(exact, spec, epsilon, split, seed=noise_seed)
    except SketchError as err:
        raise CliError(str(err))

    try:
        save_sketch(args.out, sketch, spec, extra=norm_extra)
    except OSError as err:
        raise CliError(str(err), EXIT_IO)

    sum_scale, count_scale = noise_scales(spec, sketch.epsilon_num,
                                          sketch.epsilon_den)
    writer = _out_writer()
    writer.writerow(["sensitivity_l1", "noise_scale_sum", "noise_scale_count",
                     "noisy_count"])
    writer.writerow([repr(spec.sensitivity_l1()), repr(sum_scale),
                     repr(count_scale), repr(sketch.noisy_count)])
    print(f"wrote {args.out} ({spec.variant}, m={spec.m}, "
          f"epsilon={'inf' if math.isinf(epsilon) else epsilon})",
          file=sys.stderr)
    return EXIT_OK


def _load_sketch_file(path):
    from .feature_maps import FeatureMapError
    from .sketch import SketchError, load_sketch

    try:
        return load_sketch(path)
    except OSError as err:
        raise CliError(str(err), EXIT_IO)
    except (json.JSONDecodeError, SketchError, FeatureMapError) as err:
        raise CliError(f"{path}: {err}")
    except KeyError as err:
        raise CliError(f"{path}: missing key {err.args[0]!r}")


def _train_config(args, domain=None):
    from .estimator import TrainConfig

    try:
        return TrainConfig(
            n_synth=args.n_synth,
            extra_reg=args.extra_reg,
            seed=_seed("synth seed", args.synth_seed),
            domain=domain,
        )
    except ValueError as err:
        raise CliError(str(err))


def _read_truth(path, domain):
    """The records of a --truth file weighted 1/n each, or None without
    one; CliError naming the file unless they have domain.d attributes."""
    if path is None:
        return None
    from .domain import DomainError
    from .estimator import WeightedSamples

    data, _ = _read_csv(path)
    try:
        return WeightedSamples.uniform(data, domain)
    except DomainError as err:
        raise CliError(f"{path}: {err}")


def cmd_estimate(args) -> int:
    from .estimator import SyntheticFeatures
    from .metrics import emd_1d, frobenius, scored_error
    from .targets import (TargetError, default_thresholds, estimate_cdf,
                          estimate_covariance, parse_target)

    sketch, spec, _doc = _load_sketch_file(args.sketch)
    try:
        kind, payload = parse_target(args.target, spec.d)
    except TargetError as err:
        raise CliError(f"target parse error: {err}")
    truth = _read_truth(args.truth, spec.domain)

    def answer(samples):
        if kind == "cdf":
            return estimate_cdf(samples, payload).values
        if kind == "cov":
            return estimate_covariance(samples)
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
    from .estimator import SyntheticFeatures
    from .targets import (TargetError, _check_queries, answer_queries,
                          parse_predicates)

    sketch, spec, _doc = _load_sketch_file(args.sketch)
    try:
        with open(args.queries) as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError as err:
        raise CliError(str(err), EXIT_IO)
    try:
        queries = [parse_predicates(line) for line in lines]
        _check_queries(queries, spec.d)  # before any solve
    except TargetError as err:
        raise CliError(f"query parse error: {err}")
    truth = _read_truth(args.truth, spec.domain)

    features = SyntheticFeatures(spec, _train_config(args))
    answers = answer_queries(features.weighted(sketch), queries)
    counts = answers.fractions * max(sketch.noisy_count, 1.0)
    writer = _out_writer()
    header = ["query", "fraction", "count"]
    if truth is not None:
        true = answer_queries(truth, queries).fractions
        header.append("true_fraction")
    writer.writerow(header)
    for i, line in enumerate(lines):
        row = [line, repr(float(answers.fractions[i])), repr(float(counts[i]))]
        if truth is not None:
            row.append(repr(float(true[i])))
        writer.writerow(row)
    return EXIT_OK


def cmd_fit_logreg(args) -> int:
    from .domain import BINARY, DomainError
    from .estimator import SyntheticFeatures
    from .reweighting import evaluate_auc, fit_logistic_from_sketch
    from .sketch import write_json

    if args.iters < 1:
        raise CliError(f"--iters must be at least 1, got {args.iters}")
    if args.step is not None:
        print("note: --step is ignored; the fit takes Newton steps",
              file=sys.stderr)
    sketch, spec, _doc = _load_sketch_file(args.sketch)
    test_data, _ = _read_csv(args.test)
    if spec.variant == "HIST":
        print("warning: the binned-marginal feature map carries no "
              "cross-attribute information; expect near-chance AUC",
              file=sys.stderr)

    domain = spec.domain
    if domain.kinds[-1] != BINARY:
        from .domain import CONTINUOUS, Domain

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
    model = fit_logistic_from_sketch(features, sketch, args.iters)
    fit = model.diagnostics
    if not fit["converged"]:
        print(f"warning: the fit stopped after {fit['iterations']} Newton "
              f"steps without converging (--iters {args.iters})",
              file=sys.stderr)
    try:
        auc_value = evaluate_auc(model, test_data)
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
                       "lambda": fit["lambda"]},
        }
        try:
            write_json(args.model_out, doc)
        except OSError as err:
            raise CliError(str(err), EXIT_IO)

    writer = _out_writer()
    writer.writerow(["auc"])
    writer.writerow([repr(auc_value)])
    return EXIT_OK


def cmd_inspect(args) -> int:
    from .sketch import noise_scales

    sketch, spec, doc = _load_sketch_file(args.sketch)
    sum_scale, count_scale = noise_scales(spec, sketch.epsilon_num,
                                          sketch.epsilon_den)
    writer = _out_writer()
    writer.writerow(["field", "value"])
    rows = [
        ("variant", spec.variant),
        ("d", spec.d),
        ("m", spec.m),
        ("sensitivity_l1", repr(spec.sensitivity_l1())),
        ("epsilon_num", "inf" if math.isinf(sketch.epsilon_num)
         else repr(sketch.epsilon_num)),
        ("epsilon_den", "inf" if math.isinf(sketch.epsilon_den)
         else repr(sketch.epsilon_den)),
        ("noisy_count", repr(sketch.noisy_count)),
        ("spec_id", sketch.spec_id),
        ("noise_scale_sum", repr(sum_scale)),
        ("noise_scale_count", repr(count_scale)),
    ]
    if "normalization" in doc:
        rows.append(("normalized", "true"))
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


def _read_plan(path):
    from .harness import ExperimentPlan

    values = _read_key_values(path, PLAN_KEYS)
    try:
        return ExperimentPlan(**{key: _convert(path, key, text, PLAN_KEYS[key])
                                 for key, text in values.items()})
    except ValueError as err:
        raise CliError(f"{path}: {err}")


def cmd_eval(args) -> int:
    from .domain import DomainError
    from .harness import run_plan

    plan = _read_plan(args.plan)
    if args.quick:
        plan = plan.quick()
    try:
        results = run_plan(plan, args.out)
    except OSError as err:
        raise CliError(str(err), EXIT_IO)
    except DomainError as err:
        raise CliError(str(err))
    print(f"results written to {results}", file=sys.stderr)
    return EXIT_OK


# -- argument parsing -----------------------------------------------------


def _add_fit_args(sub):
    sub.add_argument("--n-synth", type=int, default=100_000)
    sub.add_argument("--extra-reg", type=float, default=1.0)
    sub.add_argument("--synth-seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsketch",
        description="Differentially private dataset sketches and "
                    "sketch-based estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sketch", help="sketch a CSV dataset")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--map", default=None, help="hist (default), rff or race")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--hashes", type=int, default=None)
    p.add_argument("--buckets", type=int, default=None)
    p.add_argument("--r-width", type=float, default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--split", type=float, default=None)
    p.add_argument("--map-seed", type=int, default=None)
    p.add_argument("--noise-seed", type=int, default=None,
                   help="seed of the privacy noise (default: DPSKETCH_SEED "
                        "if set, else fresh OS entropy)")
    p.add_argument("--schema", default=None)
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sketch)

    p = sub.add_parser("estimate", help="estimate a target from a sketch")
    p.add_argument("sketch")
    p.add_argument("target")
    p.add_argument("--truth", default=None)
    _add_fit_args(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("cdf", help="estimate a per-attribute CDF")
    p.add_argument("sketch")
    p.add_argument("--attr", type=int, required=True)
    p.add_argument("--truth", default=None)
    _add_fit_args(p)
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("cov", help="estimate the covariance matrix")
    p.add_argument("sketch")
    p.add_argument("--truth", default=None)
    _add_fit_args(p)
    p.set_defaults(func=cmd_cov)

    p = sub.add_parser("query-batch", help="answer counting queries from a file")
    p.add_argument("sketch")
    p.add_argument("queries")
    p.add_argument("--truth", default=None)
    _add_fit_args(p)
    p.set_defaults(func=cmd_query_batch)

    p = sub.add_parser("fit-logreg", help="train a logistic model from a sketch")
    p.add_argument("sketch")
    p.add_argument("test")
    p.add_argument("--model-out", default=None)
    p.add_argument("--step", type=float, default=None,
                   help="accepted for compatibility; unused")
    p.add_argument("--iters", type=int, default=100,
                   help="cap on Newton steps (default 100)")
    _add_fit_args(p)
    p.set_defaults(func=cmd_fit_logreg)

    p = sub.add_parser("inspect", help="describe a sketch file")
    p.add_argument("sketch")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("eval", help="run an experiment plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_eval)

    return parser


def _print_warning(message, category, filename, lineno, file=None,
                   line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # library warnings read like the commands' own notes: one line
        # each, without the source location
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
