"""Workload definitions: seeded input generators, command sequences, checks.

A workload is what one analyst runs against the ``dpsketch`` CLI.  Its
inputs (CSV datasets, query files and the sketches the query workloads
read) are generated from the ``--seed`` argument; the program only ever
sees those files.  Every command carries a checker that parses the
command's stdout, validates it, and pairs each printed statistic with the
truth computed here from the generated data.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Every CLI seed is pinned, so outputs are deterministic whatever the
# program's own default seeding does.  The workload seed only shapes the data.
MAP_SEED = 11
NOISE_SEED = 12
SYNTH_SEED = 13

PUBLISH_ROWS = 120_000
CRITERION1_ROWS = 27_000
D = 10
RACE_N_SYNTH = 10_000
SMALL_N_SYNTH = 20_000
N_QUERIES = 20
LOGREG_ROWS = 20_000
LOGREG_D = 6
LOGREG_MARGIN = 50.0
LOGREG_TASK_SEED = 7  # fixes the label direction
LOGREG_N_SYNTH = 20_000

# (map name, sketch flags) of each sketch a workload builds.
HIST = ("hist", ["--map", "hist", "--bins", "100", "--epsilon", "1"])
RFF = ("rff", ["--map", "rff", "--m", "200", "--sigma", "1", "--epsilon", "1"])
RACE = ("race", ["--map", "race", "--hashes", "80", "--buckets", "80",
                 "--r-width", "0.1", "--epsilon", "1"])
LOGREG_RFF = ("rff", ["--map", "rff", "--m", "200", "--sigma", "1",
                      "--epsilon", "10"])
LOGREG_RACE = ("race", ["--map", "race", "--hashes", "20", "--buckets", "10",
                        "--r-width", "0.5", "--epsilon", "0.3"])
SEED_FLAGS = ["--map-seed", str(MAP_SEED), "--noise-seed", str(NOISE_SEED)]

# Loose accuracy floors: far from what the estimator achieves, but a broken
# estimator (zeros, noise, swapped columns) trips them.
MAX_MEAN_ABS_ERR = 0.2
MAX_COV_ABS_ERR = 0.1
MIN_AUC = 0.75


class CheckError(Exception):
    """A command's output failed validation.

    pairs holds the (estimate, truth) answers parsed before the failure, so
    that answer_err does not depend on unrelated formatting defects.
    """

    def __init__(self, message: str, pairs=()):
        super().__init__(message)
        self.pairs = list(pairs)


@dataclass
class Command:
    """One CLI invocation of a pass and how to judge its stdout."""

    key: str          # unique within a pass, e.g. "race:cov"
    kind: str         # sketch, inspect, estimate, cdf, cov, query_batch, fit_logreg
    argv: list[str]   # arguments after ``dpsketch``
    check: Callable[[bytes], list[tuple[float, float]]]
    answers: int = 0  # distinct statistics the command delivers


@dataclass
class Inputs:
    """One pass of commands over the generated files."""

    commands: list[Command]
    rows_sketched: int = 0  # records read by the sketch commands of one pass


# -- generators -----------------------------------------------------------


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def uniform_data(seed: int, n: int, d: int) -> np.ndarray:
    return rng_for(seed, 1).uniform(0.0, 1.0, size=(n, d))


def separable_data(seed: int, n: int, d: int, margin: float):
    """Uniform features, label ~ Bernoulli(sigmoid(margin * (w.x - t))).

    The direction w is part of the task and stays fixed; the seed draws the
    samples.  (With w drawn per seed, the AUC the sketch reaches varies more
    between seeds than any bound a regression check could use.)
    """
    w = rng_for(LOGREG_TASK_SEED, 0).normal(size=d - 1)
    w /= np.linalg.norm(w)
    rng = rng_for(seed, 2)
    xbar = rng.uniform(0.0, 1.0, size=(n, d - 1))
    u = xbar @ w
    p = 1.0 / (1.0 + np.exp(-margin * (u - w.sum() / 2.0)))
    y = (rng.uniform(size=n) < p).astype(float)
    return np.column_stack([xbar, y]), w


def queries(seed: int, n: int, d: int) -> list[str]:
    """Conjunctions of three one-sided predicates on distinct attributes."""
    rng = rng_for(seed, 3)
    lines = []
    for _ in range(n):
        attrs = rng.choice(d, size=3, replace=False) + 1
        preds = []
        for a in attrs:
            if rng.uniform() < 0.5:
                preds.append(f"x{a}<={rng.uniform(0.3, 0.9):.3f}")
            else:
                preds.append(f"x{a}>={rng.uniform(0.1, 0.7):.3f}")
        lines.append(" and ".join(preds))
    return lines


def write_csv(path: Path, data: np.ndarray) -> None:
    header = ",".join(f"x{j + 1}" for j in range(data.shape[1]))
    # %.17g round-trips every double, so the CLI parses exactly these values
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
               comments="")


def query_truth(line: str, data: np.ndarray) -> float:
    mask = np.ones(data.shape[0], dtype=bool)
    for pred in line.split(" and "):
        op = "<=" if "<=" in pred else ">="
        attr, bound = pred.split(op)
        col = data[:, int(attr[1:]) - 1]
        mask &= (col <= float(bound)) if op == "<=" else (col >= float(bound))
    return float(mask.mean())


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """AUC of continuous (tie-free) scores via the Mann-Whitney statistic."""
    ranks = np.empty(len(scores))
    ranks[np.argsort(scores, kind="stable")] = np.arange(1, len(scores) + 1)
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def build_sketch(cli_main, data_csv: Path, out: Path, flags: list[str]) -> None:
    """Build an input sketch through the CLI entry point, in this process."""
    argv = ["sketch", str(data_csv), "--out", str(out), *flags, *SEED_FLAGS]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"setup sketch failed ({code}): {err.getvalue()}")


# -- output parsing and checks ---------------------------------------------


def parse_csv(stdout: bytes) -> list[list[str]]:
    try:
        rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    except (UnicodeDecodeError, csv.Error) as err:
        raise CheckError(f"malformed CSV: {err}") from err
    if not rows:
        raise CheckError("empty output")
    return rows


def finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError as err:
        raise CheckError(f"not a number: {text!r}") from err
    if not math.isfinite(value):
        raise CheckError(f"non-finite value {text!r}")
    return value


def fraction(text: str) -> float:
    value = finite(text)
    if not 0.0 <= value <= 1.0:
        raise CheckError(f"fraction {value} outside [0, 1]")
    return value


def expect_header(rows, header: list[str], n_rows: int) -> list[list[str]]:
    if rows[0] != header:
        raise CheckError(f"header {rows[0]} != {header}")
    if len(rows) != n_rows + 1:
        raise CheckError(f"expected {n_rows} rows, got {len(rows) - 1}")
    return rows[1:]


def check_mean_err(pairs, limit: float, what: str):
    err = float(np.mean([abs(e - t) for e, t in pairs]))
    if err > limit:
        raise CheckError(f"{what}: mean abs error {err:.4f} > {limit}")
    return pairs


def estimate_check(truth: float):
    def check(stdout):
        (row,) = expect_header(parse_csv(stdout), ["target", "estimate"], 1)
        pair = [(finite(row[1]), truth)]
        return check_mean_err(pair, MAX_MEAN_ABS_ERR, "moment")
    return check


def cdf_check(column: np.ndarray):
    def check(stdout):
        rows = expect_header(parse_csv(stdout),
                             ["target", "threshold", "estimate"], 10)
        thresholds = [finite(r[1]) for r in rows]
        if thresholds != sorted(thresholds):
            raise CheckError("CDF thresholds not ascending")
        pairs = [(fraction(r[2]), float((column <= s).mean()))
                 for r, s in zip(rows, thresholds)]
        return check_mean_err(pairs, MAX_MEAN_ABS_ERR, "cdf")
    return check


def cov_check(data: np.ndarray):
    centered = data - data.mean(axis=0)
    truth = centered.T @ centered / data.shape[0]
    d = data.shape[1]

    def check(stdout):
        rows = parse_csv(stdout)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise CheckError(f"expected a {d}x{d} matrix")
        est = np.array([[finite(v) for v in r] for r in rows])
        if not np.array_equal(est, est.T):
            raise CheckError("covariance output is not symmetric")
        worst = float(np.abs(est - truth).max())
        if worst > MAX_COV_ABS_ERR:
            raise CheckError(f"cov: max abs error {worst:.4f} > {MAX_COV_ABS_ERR}")
        iu = np.triu_indices(d)
        return list(zip(est[iu].tolist(), truth[iu].tolist()))
    return check


def query_batch_check(lines: list[str], data: np.ndarray):
    truths = [query_truth(line, data) for line in lines]

    def check(stdout):
        rows = expect_header(parse_csv(stdout), ["query", "fraction", "count"],
                             len(lines))
        pairs = []
        for row, line, truth in zip(rows, lines, truths):
            if row[0] != line:
                raise CheckError(f"query echoed as {row[0]!r}, sent {line!r}")
            if finite(row[2]) < 0:
                raise CheckError("negative count")
            pairs.append((fraction(row[1]), truth))
        return check_mean_err(pairs, MAX_MEAN_ABS_ERR, "queries")
    return check


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def fit_logreg_check(model_path: Path, test: np.ndarray, truth: np.ndarray):
    """The answers of a fitted model are its P(y=1 | x) on the held-out rows.

    truth holds the generating probabilities; the printed AUC must be the
    AUC of the saved model on those rows.
    """
    xbar, labels = test[:, :-1], test[:, -1]
    first: dict = {}

    def check(stdout):
        (row,) = expect_header(parse_csv(stdout), ["auc"], 1)
        auc = fraction(row[0])
        text = model_path.read_bytes()
        doc = json.loads(text)
        theta = np.asarray(doc["theta"], dtype=float)
        scores = xbar @ theta + float(doc["intercept"])
        if not np.all(np.isfinite(scores)):
            raise CheckError("model has non-finite coefficients")
        pairs = list(zip(sigmoid(scores).tolist(), truth.tolist()))
        problems = []
        if auc < MIN_AUC:
            problems.append(f"auc {auc:.4f} < {MIN_AUC}")
        if not math.isclose(auc, rank_auc(scores, labels), abs_tol=1e-9):
            problems.append(f"auc {auc} is not the saved model's AUC")
        if first.setdefault("text", text) != text:
            problems.append("model file differs from the first pass")
        if problems:
            raise CheckError("; ".join(problems), pairs)
        return pairs
    return check


def exact_sum(spec: dict, data: np.ndarray) -> np.ndarray:
    """The noise-free feature sum, computed from the spec embedded in the file."""
    params, mats = spec["params"], spec["matrices"]
    if spec["variant"] == "HIST":
        bins = params["n_bins"]
        lo = np.asarray(spec["domain"]["lower"])
        hi = np.asarray(spec["domain"]["upper"])
        idx = np.clip(np.floor((data - lo) / ((hi - lo) / bins)).astype(np.int64),
                      0, bins - 1)
        width = bins
    elif spec["variant"] == "RFF":
        freqs = np.asarray(mats["frequencies"]).reshape(spec["d"], -1)
        z = data @ freqs
        return np.concatenate([np.cos(z).sum(axis=0), np.sin(z).sum(axis=0)])
    elif spec["variant"] == "RACE":
        proj = np.asarray(mats["projections"]).reshape(-1, spec["d"])
        z = (data @ proj.T + np.asarray(mats["offsets"])) / params["r_width"]
        width = params["n_buckets"]
        idx = np.mod(np.floor(z).astype(np.int64), width)
    else:
        raise CheckError(f"unknown variant {spec['variant']!r}")
    return np.concatenate([np.bincount(idx[:, a], minlength=width)
                           for a in range(idx.shape[1])]).astype(float)


def sketch_check(out: Path, data: np.ndarray, variant: str, m: int,
                 sensitivity: float):
    """Check the printed scales, and the file's noisy sum against the data.

    The file must also be byte-identical in every pass, like stdout.
    """
    first: dict = {}

    header = ["sensitivity_l1", "noise_scale_sum", "noise_scale_count",
              "noisy_count"]

    def check(stdout):
        (row,) = expect_header(parse_csv(stdout), header, 1)
        pairs = [(finite(row[3]) / data.shape[0], 1.0)]
        problems = []
        for name, text in zip(header[:3], row[:3]):
            try:
                finite(text)
            except CheckError as err:
                problems.append(f"{name}: {err}")
        if not problems and not math.isclose(float(row[0]), sensitivity,
                                             rel_tol=1e-9):
            problems.append(f"sensitivity {row[0]} != {sensitivity}")
        text = out.read_bytes()
        if "text" not in first:
            doc = json.loads(text)
            if doc["spec"]["variant"] != variant or len(doc["noisy_sum"]) != m:
                raise CheckError(f"sketch file is not a {variant} sketch of "
                                 f"size {m}", pairs)
            noise = (np.asarray(doc["noisy_sum"], dtype=float)
                     - exact_sum(doc["spec"], data))
            scale = sensitivity / float(doc["epsilon_num"])
            ratio = float(np.mean(np.abs(noise))) / scale
            # mean |Laplace(b)| is b; with m >= 200 entries 0.7..1.3 is > 4 SE
            if not 0.7 <= ratio <= 1.3:
                problems.append(f"noisy sum is {ratio:.3f} noise scales from "
                                "the exact sum (expected about 1)")
            first["text"] = text
        elif text != first["text"]:
            problems.append("sketch file differs from the first pass")
        if problems:
            raise CheckError("; ".join(problems), pairs)
        return pairs
    return check


def inspect_check(variant: str, m: int, d: int):
    def check(stdout):
        rows = parse_csv(stdout)
        if rows[0] != ["field", "value"] or any(len(r) != 2 for r in rows):
            raise CheckError("inspect output is not field,value rows")
        fields = dict(rows[1:])
        if (fields.get("variant"), fields.get("m"), fields.get("d")) != (
                variant, str(m), str(d)):
            raise CheckError(f"inspect reports {fields}")
        for name in ("sensitivity_l1", "epsilon_num", "epsilon_den",
                     "noisy_count"):
            try:
                finite(fields.get(name, "nan"))
            except CheckError as err:
                raise CheckError(f"{name}: {err}") from None
        return []
    return check


# -- workloads --------------------------------------------------------------
#
# setup_*(seed, work, cli_main) writes every input file and returns what the
# command lists need; its time is the setup_s metric.  commands_*(work, state)
# computes the truths and lists one pass of CLI commands.


def setup_publish(seed: int, work: Path, cli_main) -> dict:
    data = uniform_data(seed, PUBLISH_ROWS, D)
    write_csv(work / "data.csv", data)
    return {"data": data}


# (map, m, L1 sensitivity) of each sketch publish writes.  RFF is left out:
# its `sketch` and `inspect` print sensitivity_l1 as "np.float64(...)", which
# fails the finite-number check on every pass.  Add (RFF, 200, 100 * sqrt(2))
# back once the CLI prints a plain number.
PUBLISH_MAPS = ((HIST, 1000, D), (RACE, 6400, 80))


def commands_publish(work: Path, state: dict) -> Inputs:
    data = state["data"]
    cmds = []
    for (name, flags), m, delta in PUBLISH_MAPS:
        out = work / f"{name}.json"
        variant = name.upper()
        cmds.append(Command(
            f"{name}:sketch", "sketch",
            ["sketch", str(work / "data.csv"), "--out", str(out), *flags,
             *SEED_FLAGS],
            sketch_check(out, data, variant, m, delta)))
        cmds.append(Command(f"{name}:inspect", "inspect", ["inspect", str(out)],
                            inspect_check(variant, m, D)))
    return Inputs(cmds, rows_sketched=len(PUBLISH_MAPS) * data.shape[0])


def setup_queries(seed: int, work: Path, cli_main, maps) -> dict:
    data = uniform_data(seed, CRITERION1_ROWS, D)
    write_csv(work / "data.csv", data)
    lines = queries(seed, N_QUERIES, D)
    (work / "queries.txt").write_text("\n".join(lines) + "\n")
    for name, flags in maps:
        build_sketch(cli_main, work / "data.csv", work / f"{name}.json", flags)
    return {"data": data, "queries": lines}


def query_commands(work: Path, state: dict, name: str, n_synth: int,
                   kinds: tuple[str, ...]) -> list[Command]:
    data, lines = state["data"], state["queries"]
    sketch = str(work / f"{name}.json")
    fit = ["--n-synth", str(n_synth), "--synth-seed", str(SYNTH_SEED)]
    d = data.shape[1]
    table = {
        "estimate": (["estimate", sketch, "moment 1 1"],
                     estimate_check(float(data[:, 0].mean())), 1),
        "cdf": (["cdf", sketch, "--attr", "1"], cdf_check(data[:, 0]), 10),
        "cov": (["cov", sketch], cov_check(data), d * (d + 1) // 2),
        "query_batch": (["query-batch", sketch, str(work / "queries.txt")],
                        query_batch_check(lines, data), len(lines)),
    }
    return [Command(f"{name}:{kind}", kind, table[kind][0] + fit, table[kind][1],
                    table[kind][2]) for kind in kinds]


QUERY_KINDS = ("estimate", "cdf", "cov", "query_batch")


def setup_query_race(seed, work, cli_main):
    return setup_queries(seed, work, cli_main, [RACE])


def commands_query_race(work, state):
    # estimate isolates the fixed cost (Gram + Cholesky); cov adds 65 fits
    return Inputs(query_commands(work, state, "race", RACE_N_SYNTH,
                                 ("estimate", "cov")))


def setup_query_small(seed, work, cli_main):
    return setup_queries(seed, work, cli_main, [HIST, RFF])


def commands_query_small(work, state):
    return Inputs([c for name in ("hist", "rff")
                   for c in query_commands(work, state, name, SMALL_N_SYNTH,
                                           QUERY_KINDS)])


def setup_logreg(seed: int, work: Path, cli_main) -> dict:
    data, w = separable_data(seed, LOGREG_ROWS, LOGREG_D, LOGREG_MARGIN)
    n_test = LOGREG_ROWS // 10
    write_csv(work / "test.csv", data[:n_test])
    write_csv(work / "train.csv", data[n_test:])
    for name, flags in (LOGREG_RFF, LOGREG_RACE):
        build_sketch(cli_main, work / "train.csv", work / f"{name}.json", flags)
    return {"test": data[:n_test], "direction": w}


def commands_logreg(work: Path, state: dict) -> Inputs:
    test, w = state["test"], state["direction"]
    truth = sigmoid(LOGREG_MARGIN * (test[:, :-1] @ w - w.sum() / 2.0))
    fit = ["--n-synth", str(LOGREG_N_SYNTH), "--synth-seed", str(SYNTH_SEED)]
    cmds = []
    for name, _ in (LOGREG_RFF, LOGREG_RACE):
        model = work / f"{name}-model.json"
        cmds.append(Command(
            f"{name}:fit_logreg", "fit_logreg",
            ["fit-logreg", str(work / f"{name}.json"), str(work / "test.csv"),
             "--model-out", str(model), *fit],
            fit_logreg_check(model, test, truth)))
    return Inputs(cmds)


WORKLOADS = {
    "publish": (setup_publish, commands_publish),
    "query-race": (setup_query_race, commands_query_race),
    "query-small": (setup_query_small, commands_query_small),
    "logreg": (setup_logreg, commands_logreg),
}
