import hashlib
import json
import math
import os

import numpy as np
import pytest

import dpsketch


@pytest.fixture
def child_env():
    """Build the environment of a child Python process run by a test.

    The returned function takes a BLAS thread count and gives a copy of
    os.environ with that count set and the absolute directory of the
    imported dpsketch package at the front of PYTHONPATH, so that the
    child imports the same package even when it runs in another
    directory, where a relative PYTHONPATH no longer resolves.
    """
    package_root = os.path.dirname(
        os.path.dirname(os.path.abspath(dpsketch.__file__)))

    def make(threads) -> dict:
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = str(threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p)
        return env

    return make


@pytest.fixture
def csv_parts(monkeypatch):
    """Make read_csv cut even small files into parts.

    The per-part minimum drops to 64 bytes and three CPUs read as
    usable, so a body of a few hundred bytes splits in three.  The
    returned list gets one entry per read_csv call: True when the parts
    answered, False when the one-process parse did.
    """
    from dpsketch import domain

    monkeypatch.setattr(domain, "PART_MIN_BYTES", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    answered = []
    in_parts = domain._parse_in_parts

    def spy(fh):
        data = in_parts(fh)
        answered.append(data is not None)
        return data

    monkeypatch.setattr(domain, "_parse_in_parts", spy)
    return answered


@pytest.fixture(params=[
    "race-d", "rff-truncated-frequencies", "domain-unknown-kind",
    "domain-upper-below-lower", "domain-infinite-bound", "domain-dimension",
    "race-zero-hashes", "race-r-width-string", "race-offset-huge",
    "race-offset-negative", "rff-nan-frequency", "rff-negative-sigma",
    "file-array", "spec-array",
])
def malformed_sketch_doc(request):
    """A sketch-file document whose embedded spec is malformed.

    spec_id is recomputed from the changed spec, so that only the spec
    is at fault.
    """
    case = request.param
    if case.startswith("rff"):
        spec = dpsketch.build_rff(3, 8, 1.0, seed=0)
    else:
        spec = dpsketch.build_race(3, 4, 5, 0.3, seed=0)
    data = np.random.default_rng(0).uniform(size=(50, 3))
    sketch = dpsketch.privatize(dpsketch.sketch_exact(spec, data), spec, 1.0,
                                seed=1)
    doc = json.loads(json.dumps(sketch.to_dict(spec)))
    if case == "file-array":
        return [doc]
    s = doc["spec"]
    if case == "race-d":
        s["d"] = 4
    elif case == "rff-truncated-frequencies":
        s["matrices"]["frequencies"].pop()
    elif case == "domain-unknown-kind":
        s["domain"]["kinds"][0] = "ordinal"
    elif case == "domain-upper-below-lower":
        s["domain"]["upper"][0] = -1.0
    elif case == "domain-infinite-bound":
        s["domain"]["upper"][0] = math.inf  # written as Infinity
    elif case == "domain-dimension":
        for key in ("lower", "upper", "kinds"):
            s["domain"][key].pop()
    elif case == "race-zero-hashes":
        s.update(m=0, matrices={"projections": [], "offsets": []})
        s["params"]["n_hashes"] = 0
        doc["noisy_sum"] = []
    elif case == "race-r-width-string":
        s["params"]["r_width"] = "0.3"
    elif case == "race-offset-huge":
        # (w^T x + b) / r_width would overflow the int64 bucket index
        s["matrices"]["offsets"][0] = 1e300
    elif case == "race-offset-negative":
        s["matrices"]["offsets"][0] = -1.0
    elif case == "rff-nan-frequency":
        s["matrices"]["frequencies"][0] = math.nan
    elif case == "rff-negative-sigma":
        s["params"]["sigma"] = -1.0
    elif case == "spec-array":
        doc["spec"] = [s]
    canonical = json.dumps(doc["spec"], sort_keys=True, separators=(",", ":"))
    doc["spec_id"] = hashlib.sha256(canonical.encode()).hexdigest()
    return doc
