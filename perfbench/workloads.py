"""The four benchmark workloads.

Each workload has a parent side (``prepare`` builds the inputs from the seed
and any oracle answers, ``check`` verifies one worker's outputs) and a
worker side (``run``, executed in a fresh interpreter by ``worker.py``).
The worker side reaches every ``mms`` function through its module at call
time, so tracing wrappers installed after import are seen.

Why these four: ``census`` and ``planar`` are full enumerations that stress
opposite layers (many simplices in few lattice classes, so ``canon`` and
``enumeration`` dominate; against few simplices with large hulls, so
``engine`` and ``geometry`` dominate).  ``sample`` runs the same code with
nearly every class new, so the per-process caches miss.  ``query`` is the
only one that reaches ``sos``: one long-lived process answering a stream of
single-simplex questions.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

DEFAULT_SEED = 20260822
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def points_digest(points) -> str:
    text = ";".join(",".join(str(c) for c in p) for p in sorted(points))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# pipeline outputs


def read_store(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "merged.jsonl"), "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def invariants_digest(records: list[dict]) -> str:
    """Digest of every per-class invariant of a merged store.  The
    representative is left out: which member of a class represents it is
    not an invariant and is expected to change."""
    lines = [
        "|".join(
            str(rec[f])
            for f in (
                "key",
                "mms_size",
                "conv_count",
                "floor_count",
                "classification",
                "h_ratio",
                "simplex_multiplicity",
            )
        )
        for rec in records
    ]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def store_summary(out_dir: str) -> tuple[dict, list[str]]:
    """Figures of a finished pipeline directory plus structural problems:
    keys sorted and unique, the ``.idx`` sidecar pointing at each record,
    and ``stats.json`` agreeing with a recount of the records."""
    problems = []
    records = read_store(out_dir)
    keys = [rec["key"] for rec in records]
    if keys != sorted(set(keys)):
        problems.append("merged.jsonl keys are not sorted and unique")
    merged = os.path.join(out_dir, "merged.jsonl")
    with open(merged, "rb") as fh:
        blob = fh.read()
    with open(merged + ".idx", "r", encoding="utf-8") as fh:
        index = [line.rstrip("\n").rsplit("\t", 1) for line in fh if line.strip()]
    if [k for k, _ in index] != keys:
        problems.append(".idx keys differ from merged.jsonl")
    for key, off in index:
        line = blob[int(off):].split(b"\n", 1)[0]
        if json.loads(line)["key"] != key:
            problems.append(f".idx offset of {key} is wrong")
            break
    with open(os.path.join(out_dir, "stats.json"), "r", encoding="utf-8") as fh:
        stats = json.load(fh)
    sim, lat = stats["simplicial_sets"], stats["lattices"]
    total = sum(rec["simplex_multiplicity"] for rec in records)
    h_sum = sum(
        rec["simplex_multiplicity"] * _h_value(rec["h_ratio"]) for rec in records
    )
    if sim["total_count"] != total or lat["total_count"] != len(records):
        problems.append("stats.json totals disagree with the records")
    elif total and sim["mean_exact"] != _fraction_text(h_sum / total):
        problems.append("stats.json simplicial mean disagrees with the records")
    if not os.path.isfile(os.path.join(out_dir, "stats.csv")):
        problems.append("stats.csv missing")
    summary = {
        "simplices": total,
        "classes": len(records),
        "h_classes": lat["h_count"],
        "m_classes": lat["m_count"],
        "intermediate_classes": lat["intermediate_count"],
        "mean_simplicial": sim["mean"],
        "mean_lattice": lat["mean"],
        "invariants_sha256": invariants_digest(records),
        "stats_json_sha256": file_digest(os.path.join(out_dir, "stats.json")),
    }
    return summary, problems


def _h_value(text: str) -> Fraction:
    num, den = (int(x) for x in text.split("/"))
    return Fraction(1) if den == 0 else Fraction(num, den)


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def compare(summary: dict, expected: dict) -> list[str]:
    return [
        f"{field}: got {summary.get(field)!r}, expected {want!r}"
        for field, want in expected.items()
        if summary.get(field) != want
    ]


# ---------------------------------------------------------------------------
# workloads


class PipelineWorkload:
    """A whole pipeline run is one operation; its items are simplices."""

    def operations(self, params: dict) -> int:
        return 1

    def items(self, result: dict) -> int:
        return result["summary"]["simplices"]


class Census(PipelineWorkload):
    """Full enumeration with few lattice classes: the rank-pruned walk and
    one HNF per simplex dominate; MMS work is a handful of classes."""

    name = "census"
    n, two_d = 6, 4

    def prepare(self, seed: int) -> tuple[dict, dict]:
        return {"n": self.n, "two_d": self.two_d}, {}

    @staticmethod
    def run(spec: dict) -> dict:
        from mms import pipeline

        p = spec["params"]
        start = perf_counter_ns()
        pipeline.run_pipeline(p["n"], p["two_d"], "full", 1, spec["out_dir"])
        wall = perf_counter_ns() - start
        return {"wall_ns": wall}

    def check(self, oracle: dict, out_dir: str, result: dict) -> list[str]:
        summary, problems = store_summary(out_dir)
        result["summary"] = summary
        return problems + compare(summary, load_reference()[self.name])


class Planar(PipelineWorkload):
    """The ``mms check-conjecture`` path: every planar simplex up to a
    degree, where large hulls make the removal loop and midpoint closure
    dominate and nearly every class is new."""

    name = "planar"
    two_d = 28

    def prepare(self, seed: int) -> tuple[dict, dict]:
        return {"two_d": self.two_d}, {}

    @staticmethod
    def run(spec: dict) -> dict:
        from mms import pipeline

        start = perf_counter_ns()
        report = pipeline.check_conjecture(
            spec["params"]["two_d"], workers=1, out_dir=spec["out_dir"]
        )
        wall = perf_counter_ns() - start
        return {"wall_ns": wall, "report": report.to_json_dict()}

    def check(self, oracle: dict, out_dir: str, result: dict) -> list[str]:
        summary, problems = store_summary(out_dir)
        result["summary"] = summary
        report = result["report"]
        if not report["passed"] or report["intermediate_lattice_classes"] != 0:
            problems.append("dichotomy check reported INTERMEDIATE classes")
        for field, name in (
            ("total_simplices", "simplices"),
            ("total_lattices", "classes"),
            ("h_lattice_classes", "h_classes"),
            ("m_lattice_classes", "m_classes"),
        ):
            if report[field] != summary[name]:
                problems.append(f"report {field} disagrees with the store")
        return problems + compare(summary, load_reference()[self.name])


class Sample(PipelineWorkload):
    """A seeded prefix of the sampled 4x16 stream: almost every sample is a
    new lattice class, so many small hull scans and n!-permutation orbit
    keys run with the caches missing."""

    name = "sample"
    n, two_d, count = 4, 16, 1000
    oracle_classes = 12

    def prepare(self, seed: int) -> tuple[dict, dict]:
        # the class multiplicities recomputed apart from the pipeline: one
        # canonical key per sample, no orbit cache
        from mms.canon import canonical_key
        from mms.sampler import sample_simplex

        keys = Counter(
            canonical_key(sample_simplex(self.n, self.two_d, seed, i)).key_text
            for i in range(self.count)
        )
        params = {"n": self.n, "two_d": self.two_d, "count": self.count, "seed": seed}
        return params, {"seed": seed, "multiplicities": dict(keys)}

    @staticmethod
    def run(spec: dict) -> dict:
        from mms import pipeline

        p = spec["params"]
        start = perf_counter_ns()
        pipeline.run_pipeline(
            p["n"], p["two_d"], "sample", 1, spec["out_dir"], seed=p["seed"], count=p["count"]
        )
        wall = perf_counter_ns() - start
        return {"wall_ns": wall}

    def check(self, oracle: dict, out_dir: str, result: dict) -> list[str]:
        from mms.canon import canonical_key
        from mms.engine import classify, floor_set, h_ratio, mms_fixed_point, MmsResult
        from mms.geometry import SimplicialSet, lattice_points

        summary, problems = store_summary(out_dir)
        result["summary"] = summary
        records = read_store(out_dir)
        got = {rec["key"]: rec["simplex_multiplicity"] for rec in records}
        if got != oracle["multiplicities"]:
            problems.append("class multiplicities differ from a per-sample recount")
        rng = random.Random(oracle["seed"])
        for rec in rng.sample(records, min(self.oracle_classes, len(records))):
            delta = SimplicialSet.parse(rec["representative"])
            mms = mms_fixed_point(delta)
            fixed = MmsResult(
                delta=delta,
                mms_points=tuple(sorted(mms)),
                conv_count=len(lattice_points(delta)),
                floor_count=len(floor_set(delta)),
            )
            want = (
                canonical_key(delta).key_text,
                fixed.mms_size,
                fixed.conv_count,
                fixed.floor_count,
                classify(fixed).value,
                str(h_ratio(fixed)),
            )
            have = tuple(
                rec[f]
                for f in ("key", "mms_size", "conv_count", "floor_count", "classification", "h_ratio")
            )
            if have != want:
                problems.append(f"class {rec['key']} disagrees with the fixed-point oracle")
        if oracle["seed"] == DEFAULT_SEED:
            problems += compare(summary, load_reference()[self.name])
        return problems


class Query:
    """One library process answering a seeded closed-loop stream of
    single-simplex questions (one caller).  A session takes one support and
    asks for its MMS, its canonical key, then SOS decisions on its interior
    exponents, so the SOS memo misses once and then hits.  Each session has
    its own support, which keeps the mix of hull sizes close to the same
    from seed to seed.  The n = 6 keys (720 column permutations each) make
    up about 2% of the queries and set the p99."""

    name = "query"
    # (n, 2d, sessions, SOS queries per session); 6-simplices of degree 4
    # have no interior lattice points, so they get no SOS queries
    shapes = ((2, 40, 33, 8), (3, 16, 33, 8), (4, 16, 22, 8), (5, 12, 15, 4), (6, 4, 20, 0))

    def prepare(self, seed: int) -> tuple[dict, dict]:
        from mms.canon import canonical_key
        from mms.engine import mms_fixed_point
        from mms.geometry import lattice_points, strictly_interior
        from mms.sampler import sample_simplex

        rng = random.Random(seed)
        sessions = []
        for n, two_d, count, sos_count in self.shapes:
            index = 0
            for _ in range(count):
                while True:
                    delta = sample_simplex(n, two_d, seed, index)
                    index += 1
                    if not sos_count:
                        interior = []
                        break
                    interior = [
                        p for p in sorted(lattice_points(delta)) if strictly_interior(delta, p)
                    ]
                    if interior:
                        break
                betas = rng.sample(interior, min(sos_count, len(interior)))
                # supports with few interior points repeat exponents
                betas = [betas[k % len(betas)] for k in range(sos_count)]
                sessions.append((delta, betas))
        rng.shuffle(sessions)
        supports, queries, expected = [], [], []
        for d, (delta, betas) in enumerate(sessions):
            supports.append(str(delta))
            mms = mms_fixed_point(delta)
            queries.append(["mms", d, []])
            expected.append(points_digest(mms))
            queries.append(["key", d, []])
            expected.append(canonical_key(delta).key_text)
            for k, beta in enumerate(betas):
                if k % 2 == 0:
                    terms = [beta]
                    queries.append(["circuit", d, [list(beta)]])
                else:
                    terms = [betas[k - 1], beta]
                    queries.append(["sonc", d, [list(t) for t in terms]])
                expected.append(all(t in mms for t in terms))
        return {"supports": supports, "queries": queries}, {"expected": expected}

    @staticmethod
    def run(spec: dict) -> dict:
        from mms import canon, engine, sos
        from mms.geometry import SimplicialSet

        p = spec["params"]
        deltas = [SimplicialSet.parse(text) for text in p["supports"]]
        queries = [(kind, deltas[d], [tuple(t) for t in terms]) for kind, d, terms in p["queries"]]
        answers = []
        latencies = []
        clock = perf_counter_ns
        start = clock()
        for kind, delta, terms in queries:
            t0 = clock()
            try:
                if kind == "mms":
                    answer = engine.compute_mms(delta)
                elif kind == "key":
                    answer = canon.canonical_key(delta)
                elif kind == "circuit":
                    answer = sos.circuit_is_sos(sos.CircuitSupport(delta, terms[0]))
                else:
                    answer = sos.sonc_simplex_is_sos(
                        sos.SimplexSupportedPoly(
                            delta, tuple(sos.InnerTerm.of(t, sos.Sign.NEG) for t in terms)
                        )
                    )
            except Exception as exc:  # one failed query must not end the stream
                answer = exc
            latencies.append(clock() - t0)
            answers.append(answer)
        wall = clock() - start
        verdicts = []
        for (kind, _, _), answer in zip(queries, answers):
            if isinstance(answer, Exception):
                verdicts.append(f"error: {answer!r}")
            elif kind == "mms":
                verdicts.append(points_digest(answer.mms_points))
            elif kind == "key":
                verdicts.append(answer.key_text)
            else:
                verdicts.append(answer)
        return {"wall_ns": wall, "latencies_ns": latencies, "verdicts": verdicts}

    def operations(self, params: dict) -> int:
        return len(params["queries"])

    def items(self, result: dict) -> int:
        return len(result["latencies_ns"])

    def check(self, oracle: dict, out_dir: str, result: dict) -> list[str]:
        wrong = sum(
            1 for got, want in zip(result["verdicts"], oracle["expected"]) if got != want
        )
        missing = len(oracle["expected"]) - len(result["verdicts"])
        result["failed_ops"] = wrong + max(0, missing)
        return [f"{wrong} of {len(oracle['expected'])} query answers wrong"] if wrong else []


WORKLOADS = {w.name: w for w in (Census(), Planar(), Sample(), Query())}
