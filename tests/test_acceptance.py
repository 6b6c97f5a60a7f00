"""Acceptance gate: one test per stated criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with -v -s or in the
captured output of failures) before asserting, so the gate's verdict per
criterion can be read directly off the run log.
"""

import csv
import math
import subprocess
import sys

import numpy as np
import pytest

from dpsketch import (
    Domain,
    HistMap,
    Moment,
    SyntheticFeatures,
    TrainConfig,
    build_race,
    build_rff,
    mre,
    privatize,
    sketch_exact,
    theorem_lambda,
)
from dpsketch.harness import gen_random10
from dpsketch.reweighting import WeightedSamples, logistic_objective
from dpsketch.targets import BoxIndicator, Predicate
from reference import fit, kernel_estimate, logistic_sweep


def _report(criterion, label, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} ({label}): {verdict} -- {detail}")


# -- criterion 1: first-moment accuracy on the uniform reference dataset --


def _table1_mre(kind, eps, n_trials=100):
    d, n = 10, 27_000
    domain = Domain.unit(d)
    if kind == "rff":
        spec = build_rff(d, 200, 1.0, seed=42, domain=domain)
    else:
        spec = HistMap(domain, 100)
    feats = SyntheticFeatures(spec, TrainConfig(n_synth=100_000, seed=7))
    moments = [Moment(j, 1) for j in range(1, d + 1)]
    trial_means = []
    for t in range(n_trials):
        X = gen_random10(n, d, (11, t))
        sk = privatize(sketch_exact(spec, X), spec, eps, seed=(12, t))
        errs = [
            mre(est, X[:, j].mean())
            for j, est in enumerate(feats.weighted(sk).sums(moments))
        ]
        trial_means.append(np.mean(errs))
    return float(np.mean(trial_means))


@pytest.mark.parametrize("kind,eps,target", [
    ("rff", math.inf, 6.25e-8),
    ("rff", 1.0, 9.55e-3),
    ("hist", math.inf, 1.87e-5),
    ("hist", 1.0, 9.10e-4),
], ids=["rff-inf", "rff-eps1", "hist-inf", "hist-eps1"])
def test_criterion_1_first_moment_table(kind, eps, target):
    observed = _table1_mre(kind, eps)
    bound = 10.0 * target
    label = f"{kind} eps={'inf' if math.isinf(eps) else eps}"
    _report(1, label, observed <= bound,
            f"mean MRE {observed:.3e} vs bound {bound:.3e} "
            f"(reference {target:.3e}, 100 trials)")
    assert observed <= bound


# -- criterion 2: the risk upper bound holds in Monte Carlo ---------------


def _bound_check(spec, f, eps_num, n_a, seed):
    n, R = 50, 10_000
    rng = np.random.default_rng(seed)
    delta = spec.sensitivity_l1()
    lam = theorem_lambda(spec, eps_num, n)
    sigma = delta / eps_num

    X = rng.uniform(size=(R * n, spec.d))
    P = spec.encode_batch(X).toarray().reshape(R, n, spec.m)
    F = f(X).reshape(R, n)
    S0 = P.mean(axis=1)          # per-replicate exact normalized sketch
    Fbar = F.mean(axis=1)
    xi = rng.laplace(0.0, sigma, size=(R, spec.m))
    S = S0 + xi / n              # zeta = 0: the count stays exact

    M = 400_000
    Xj = rng.uniform(size=(M, spec.d))
    Pj = spec.encode_batch(Xj).toarray()
    Fj = f(Xj)

    results = []
    for _ in range(n_a):
        a = rng.normal(0.0, 0.2, size=spec.m)
        err2 = (Fbar - S @ a) ** 2
        mc = float(err2.mean())
        se = float(err2.std(ddof=1) / math.sqrt(R))
        J = float(np.mean((Fj - Pj @ a) ** 2) + lam * a @ a)
        results.append((mc, J, se))
    return results


def test_criterion_2_risk_bound():
    f = Moment(1, 1)
    cases = _bound_check(build_rff(2, 16, 1.0, seed=0), f, 1.0, 10, seed=1)
    cases += _bound_check(HistMap(Domain.unit(2), 8), f, 1.0, 10, seed=2)
    worst = max((mc - J) / se for mc, J, se in cases)
    ok = all(mc <= J + 3 * se for mc, J, se in cases)
    _report(2, "risk bound", ok,
            f"20 coefficient vectors, worst excess {worst:.2f} MC standard "
            f"errors (must stay below 3)")
    assert ok


# -- criterion 3: exact recovery of span members --------------------------


def test_criterion_3_exact_recovery():
    rng = np.random.default_rng(3)
    worst = 0.0
    for spec, components in [
        (build_rff(3, 50, 1.0, seed=0), [0, 7, 30, 49]),
        (HistMap(Domain.unit(3), 8), [0, 5, 12, 23]),
        (build_race(3, 6, 5, 0.3, seed=1), [0, 9, 17, 29]),
    ]:
        X = rng.uniform(size=(1000, 3))
        sk = privatize(sketch_exact(spec, X), spec, math.inf)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=20_000, seed=4))
        P = spec.encode_batch(X).toarray()
        targets = [(f"{spec.variant}[{k}]",
                    lambda Z, k=k: spec.encode_batch(Z).toarray()[:, k],
                    P[:, k].mean()) for k in components]
        if spec.variant == "HIST":
            # bin-aligned threshold indicator: a sum of whole bins
            targets.append(("HIST cdf@0.375",
                            BoxIndicator((Predicate(1, "<=", 0.375),)),
                            (X[:, 0] <= 0.375).mean()))
        for name, f, truth in targets:
            model = fit(feats, f, 1e-9)
            est = float(model.coef @ sk.normalized)
            worst = max(worst, abs(est - truth))
    ok = worst < 1e-6
    _report(3, "span recovery", ok,
            f"max |estimate - empirical mean| = {worst:.2e} over all three "
            f"maps (tolerance 1e-6)")
    assert ok


# -- criterion 4: kernel fidelity of the random-feature map ---------------


def test_criterion_4_kernel_fidelity():
    d, m = 3, 200  # m' = 100
    rng = np.random.default_rng(4)
    pairs = [(rng.uniform(size=d), rng.uniform(size=d)) for _ in range(20)]
    errors = []
    for seed in range(100):
        spec = build_rff(d, m, 1.0, seed=seed)
        for x, y in pairs:
            truth = math.exp(-float(np.sum((x - y) ** 2)) / 2.0)
            errors.append(abs(kernel_estimate(spec, x, y) - truth))
    mean_err = float(np.mean(errors))
    bound = 3.0 / math.sqrt(m // 2)
    ok = mean_err <= bound
    _report(4, "kernel fidelity", ok,
            f"mean |estimate - kernel| = {mean_err:.4f} over 100 seeds x 20 "
            f"pairs, bound 3/sqrt(m') = {bound:.4f}")
    assert ok


# -- criterion 5: L1 sensitivity of the exact sum -------------------------


def test_criterion_5_sensitivity():
    rng = np.random.default_rng(5)
    specs = [HistMap(Domain.unit(3), 6), build_rff(3, 30, 1.0, seed=0),
             build_race(3, 5, 4, 0.25, seed=1)]
    ok = True
    equality = {"HIST": False, "RACE": False}
    details = []
    for spec in specs:
        delta = spec.sensitivity_l1()
        worst = 0.0
        for size in range(1, 6):
            for trial in range(5):
                X = rng.uniform(size=(size, 3))
                full = sketch_exact(spec, X).sum_features
                for i in range(size):
                    rest = sketch_exact(spec, np.delete(X, i, axis=0))
                    gap = float(np.abs(full - rest.sum_features).sum())
                    worst = max(worst, gap)
                    if gap > delta + 1e-9:
                        ok = False
                    if spec.variant in equality and \
                            abs(gap - delta) < 1e-12:
                        equality[spec.variant] = True
        details.append(f"{spec.variant} worst {worst:.6f} <= {delta}")
    ok = ok and all(equality.values())
    _report(5, "L1 sensitivity", ok,
            "; ".join(details) + f"; equality hit: {equality}")
    assert ok


# -- criterion 6: weight/fit duality identity -----------------------------


def test_criterion_6_duality():
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(500, 3))
    worst = 0.0
    for spec in (HistMap(Domain.unit(3), 5), build_rff(3, 24, 1.0, seed=0),
                 build_race(3, 5, 4, 0.3, seed=1)):
        sk = privatize(sketch_exact(spec, X), spec, 1.0, seed=2)
        feats = SyntheticFeatures(spec, TrainConfig(n_synth=2000, seed=3))
        lam = 0.1
        w = feats.weights(sk, lam)
        for t in range(10):
            L = np.random.default_rng((7, t)).uniform(-1, 1, size=feats.n)
            model = fit(feats, lambda _, L=L: L, lam)
            lhs = float(w @ L)
            rhs = float(model.coef @ sk.normalized)
            rel = abs(lhs - rhs) / max(abs(rhs), 1e-12)
            worst = max(worst, rel)
    ok = worst < 1e-8
    _report(6, "implicit duality", ok,
            f"worst relative gap {worst:.2e} over 10 targets x 3 maps "
            f"(tolerance 1e-8)")
    assert ok


# -- criterion 7: logistic regression trained from the sketch -------------


def test_criterion_7_logistic_auc():
    rff = logistic_sweep([10.0], n=20_000, d=6, sketch_kind="rff",
                         n_runs=10, n_synth=20_000, seed=0)[10.0]
    race = logistic_sweep(
        [0.3], n=20_000, d=6, sketch_kind="race", n_runs=10, n_synth=20_000,
        seed=0, sketch_params={"n_hashes": 20, "n_buckets": 10,
                               "r_width": 0.5})[0.3]
    ok = rff >= 0.95 and race >= 0.85
    _report(7, "logistic AUC", ok,
            f"RFF eps=10 mean AUC {rff:.3f} (>= 0.95); "
            f"RACE eps=0.3 mean AUC {race:.3f} (>= 0.85); 10 runs each")
    assert ok


# -- criterion 8: analytic gradient of the reweighted log-loss ------------


def test_criterion_8_gradient_check():
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(size=(50, 5)),
                           rng.integers(0, 2, size=50)])
    worst = 0.0
    for trial in range(5):
        theta = rng.normal(0.0, 1.0, size=6)
        w = rng.normal(0.0, 1.0, size=50)
        objective = logistic_objective(WeightedSamples(pts, w))
        _, analytic = objective(theta)
        h = 1e-6
        numeric = np.empty_like(theta)
        for k in range(6):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            numeric[k] = (objective(up)[0] - objective(dn)[0]) / (2 * h)
        rel = float(np.linalg.norm(analytic - numeric)
                    / max(np.linalg.norm(numeric), 1e-12))
        worst = max(worst, rel)
    ok = worst < 1e-5
    _report(8, "gradient check", ok,
            f"worst relative gradient error {worst:.2e} (tolerance 1e-5)")
    assert ok


# -- criterion 9: determinism across runs and thread counts ---------------


def _run(argv, env, cwd):
    return subprocess.run([sys.executable, "-m", "dpsketch.cli"] + argv,
                          capture_output=True, text=True, env=env, cwd=cwd)


def test_criterion_9_determinism(tmp_path, child_env):
    rng = np.random.default_rng(9)
    data = rng.uniform(size=(3000, 4))
    csv_path = tmp_path / "data.csv"
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x1", "x2", "x3", "x4"])
        w.writerows(data.tolist())

    sketches, estimates = [], []
    for run, threads in ((0, 1), (1, 1), (2, 4)):
        out = tmp_path / f"s{run}.json"
        res = _run(["sketch", str(csv_path), "--out", str(out), "--map",
                    "rff", "--m", "60", "--epsilon", "1.0", "--map-seed",
                    "5", "--noise-seed", "6"], child_env(threads), tmp_path)
        assert res.returncode == 0, res.stderr
        sketches.append(out.read_bytes())
        res = _run(["estimate", str(out), "moment 2 1", "--n-synth", "20000",
                    "--synth-seed", "1"], child_env(threads), tmp_path)
        assert res.returncode == 0, res.stderr
        estimates.append(res.stdout)

    same_bytes = sketches[0] == sketches[1] == sketches[2]
    same_est = estimates[0] == estimates[1] == estimates[2]
    ok = same_bytes and same_est
    _report(9, "determinism", ok,
            f"sketch files byte-identical: {same_bytes}; estimates identical "
            f"across reruns and 1 vs 4 threads: {same_est}")
    assert ok
