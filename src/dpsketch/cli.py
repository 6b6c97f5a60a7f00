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


def _default_seed(fallback=0):
    """DPSKETCH_SEED as an int, or fallback when it is unset."""
    value = os.environ.get(SEED_ENV_VAR)
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {value!r}")


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
    map_seed = opt("map_seed", args.map_seed, int, _default_seed())
    params = {param: opt(name, getattr(args, name), cast, None)
              for name, (param, cast) in MAP_OPTIONS.items()}
    try:
        spec = build_map(map_kind, domain, map_seed, params)
    except FeatureMapError as err:
        raise CliError(str(err))

    epsilon = _parse_epsilon(opt("epsilon", args.epsilon, str, "inf"))
    split = opt("split", args.split, float, DEFAULT_SPLIT)
    # without an explicit seed the noise comes from OS entropy
    noise_seed = opt("noise_seed", args.noise_seed, int, _default_seed(None))

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
    except (json.JSONDecodeError, SketchError, FeatureMapError, KeyError) as err:
        raise CliError(f"{path}: {err}")


def _train_config(args, domain=None):
    from .estimator import TrainConfig

    try:
        return TrainConfig(
            n_synth=args.n_synth,
            extra_reg=args.extra_reg,
            seed=args.synth_seed if args.synth_seed is not None else _default_seed(),
            domain=domain,
        )
    except ValueError as err:
        raise CliError(str(err))


def cmd_estimate(args) -> int:
    import numpy as np

    from .estimator import SyntheticFeatures
    from .metrics import emd_1d, mre
    from .targets import TargetError, estimate_cdf, estimate_covariance, parse_target

    sketch, spec, _doc = _load_sketch_file(args.sketch)
    try:
        kind, payload = parse_target(args.target, spec.d)
    except TargetError as err:
        raise CliError(f"target parse error: {err}")

    truth_data = None
    if args.truth:
        truth_data, _ = _read_csv(args.truth)

    features = SyntheticFeatures(spec, _train_config(args))
    w = features.weights(sketch, features.penalty(sketch))
    writer = _out_writer()

    if kind in ("moment", "count"):
        value = float(features.weighted_sums(w, [payload])[0])
        row = [args.target.strip(), repr(value)]
        header = ["target", "estimate"]
        if truth_data is not None:
            true_value = float(np.mean(payload(truth_data)))
            header += ["true_value", "metric", "metric_value"]
            if true_value != 0:
                row += [repr(true_value), "mre", repr(mre(value, true_value))]
            else:
                row += [repr(true_value), "abs_error", repr(abs(value - true_value))]
        writer.writerow(header)
        writer.writerow(row)
    elif kind == "cdf":
        est = estimate_cdf(features, w, payload)
        header = ["target", "threshold", "estimate"]
        true_cdf = None
        if truth_data is not None:
            true_cdf = [(truth_data[:, payload - 1] <= s).mean()
                        for s in est.thresholds]
            header.append("true_value")
        writer.writerow(header)
        for i, (s, v) in enumerate(zip(est.thresholds, est.values)):
            row = [args.target.strip(), repr(float(s)), repr(float(v))]
            if true_cdf is not None:
                row.append(repr(float(true_cdf[i])))
            writer.writerow(row)
        if true_cdf is not None:
            print(f"emd={emd_1d(est.values, true_cdf)!r}", file=sys.stderr)
    elif kind == "cov":
        cov = estimate_covariance(features, w)
        for row in cov:
            writer.writerow([repr(float(v)) for v in row])
        if truth_data is not None:
            from .metrics import frobenius

            mu = truth_data.mean(axis=0)
            c = truth_data - mu
            true_cov = c.T @ c / truth_data.shape[0]
            print(f"frobenius={frobenius(cov, true_cov)!r}", file=sys.stderr)
    return EXIT_OK


def cmd_cdf(args) -> int:
    args.target = f"cdf {args.attr}"
    return cmd_estimate(args)


def cmd_cov(args) -> int:
    args.target = "cov"
    return cmd_estimate(args)


def cmd_query_batch(args) -> int:
    import numpy as np

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

    truth_data = None
    if args.truth:
        truth_data, _ = _read_csv(args.truth)

    features = SyntheticFeatures(spec, _train_config(args))
    w = features.weights(sketch, features.penalty(sketch))
    answers = answer_queries(features, w, queries)
    counts = answers.fractions * max(sketch.noisy_count, 1.0)
    writer = _out_writer()
    header = ["query", "fraction", "count"]
    if truth_data is not None:
        header.append("true_fraction")
    writer.writerow(header)
    for i, line in enumerate(lines):
        row = [line, repr(float(answers.fractions[i])), repr(float(counts[i]))]
        if truth_data is not None:
            row.append(repr(float(np.mean(queries[i](truth_data)))))
        writer.writerow(row)
    return EXIT_OK


def cmd_fit_logreg(args) -> int:
    from .domain import BINARY, DomainError
    from .estimator import SyntheticFeatures
    from .reweighting import evaluate_auc, fit_logistic_from_sketch

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
        tmp = args.model_out + ".tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(doc, fh, sort_keys=True, indent=1)
                fh.write("\n")
            os.replace(tmp, args.model_out)
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


PLAN_KEYS = {
    "dataset", "n", "d", "sketches", "epsilons", "repetitions", "tasks",
    "n_synth", "n_queries", "extra_reg", "seed",
}


def _read_plan(path):
    from .harness import ExperimentPlan

    values = _read_key_values(path, PLAN_KEYS)
    kwargs = {}
    if "dataset" in values:
        kwargs["dataset"] = values["dataset"]
    for key in ("n", "d", "repetitions", "n_synth", "n_queries", "seed"):
        if key in values:
            kwargs[key] = _convert(path, key, values[key], int)
    if "extra_reg" in values:
        kwargs["extra_reg"] = _convert(path, "extra_reg", values["extra_reg"],
                                       float)
    if "sketches" in values:
        kwargs["sketches"] = tuple(s.strip() for s in values["sketches"].split(","))
    if "tasks" in values:
        kwargs["tasks"] = tuple(s.strip() for s in values["tasks"].split(","))
    if "epsilons" in values:
        kwargs["epsilons"] = tuple(
            _parse_epsilon(s) for s in values["epsilons"].split(","))
    try:
        return ExperimentPlan(**kwargs)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
