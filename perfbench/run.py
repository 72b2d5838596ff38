"""andlib benchmark: cold-process workloads driven through the public CLI.

    python3 perfbench/run.py --workload train --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all     # every workload in turn
    python3 perfbench/run.py --smoke            # all workloads, tiny corpora

Run from the repository root. Set-up writes each workload's corpus with
``andlib synth --config`` (and, for the cluster workloads, trains the model
they load); then, until ``--seconds`` have passed, every iteration is a
fresh process (perfbench/child.py) that runs the workload's commands through
``andlib.cli.main`` and reports its peak RSS. ``--trace 1`` alternates
traced and untraced iterations and reports per-layer figures instead.

Each iteration's outputs are checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only if every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

#: ``--seed n`` runs the program with seed ``n % N_SEEDS``; reference.json
#: holds the seed commit's outputs for each of these seeds
N_SEEDS = 16
#: quality may not drop below the recorded value by more than float noise
QUALITY_TOLERANCE = 1e-9
#: iterations per run at the least, whatever ``--seconds`` says; a traced
#: run needs two traced iterations and one untraced
MIN_ITERATIONS = 2
MIN_TRACED_ITERATIONS = 3
#: stop starting iterations after this long, and give up on a process
#: after CHILD_TIMEOUT_S, so a run ends within 180 s
HARD_STOP_S = 100.0
CHILD_TIMEOUT_S = 60.0

#: generator settings of the acceptance suite's hard corpus (HARD_CONFIG in
#: tests/test_acceptance.py); workloads vary only n_authors, collision_rate
#: and the generator seed
HARD_GENERATOR = {
    "mean_papers": 5,
    "homonym_rate": 0.7,
    "same_community_collision": 0.9,
    "embedding_noise": 1.3,
    "coauthor_noise": 0.4,
    "shared_metadata": 0.8,
    "email_missing": 0.85,
    "affiliation_missing": 0.6,
    "venue_missing": 0.4,
    "abstract_missing": 0.5,
    "variant_rate": 0.35,
}


@dataclasses.dataclass(frozen=True)
class Corpus:
    n_authors: int
    collision_rate: float
    seed: int

    def generator_doc(self) -> dict:
        return {
            **HARD_GENERATOR,
            "n_authors": self.n_authors,
            "collision_rate": self.collision_rate,
        }


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus  # the corpus the timed region works on
    trains: bool  # True: the timed region trains; else set-up trains the model
    setup_repeats: int  # set-up is repeated this often; setup_s is the median


#: corpus the model is trained on, in the timed region of ``train`` and in
#: the set-up of the cluster workloads
TRAIN_CORPUS = Corpus(n_authors=100, collision_rate=0.4, seed=42)
#: training pairs sampled by the timed ``andlib train``; below the train
#: split's pair count on TRAIN_CORPUS for every seed, so the fit always sees
#: this many rows
TRAIN_CAP = 1000
#: training pairs for the model that set-up trains for the cluster
#: workloads; small, because set-up is repeated in every run
MODEL_CAP = 600

WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", TRAIN_CORPUS, trains=True, setup_repeats=3),
        Workload("cluster-many", Corpus(200, 0.15, 8), trains=False, setup_repeats=2),
        Workload("cluster-giant", Corpus(100, 0.7, 10), trains=False, setup_repeats=2),
    )
}

#: tiny stand-ins for --smoke: same commands, seconds instead of minutes
SMOKE_TRAIN_CORPUS = Corpus(n_authors=60, collision_rate=0.3, seed=42)
SMOKE_WORKLOADS = {
    w.name: w
    for w in (
        Workload("train", SMOKE_TRAIN_CORPUS, trains=True, setup_repeats=1),
        Workload("cluster-many", Corpus(40, 0.15, 8), trains=False, setup_repeats=1),
        Workload("cluster-giant", Corpus(20, 0.7, 10), trains=False, setup_repeats=1),
    )
}
SMOKE_RUN_CONFIG = {"eps_budget": 4, "hyperparams": {"n_trees": 4, "max_leaves": 4}}


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("ANDLIB_JOBS", None)
    return env


def run_cli(argv: list[str], log_path: str) -> int:
    """One CLI command as its own process, the way a user runs it."""
    with open(log_path, "a", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "andlib.cli", *argv],
                cwd=ROOT,
                env=child_env(),
                stdout=log,
                stderr=log,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return -1
    return proc.returncode


def env_record() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    pass


@dataclasses.dataclass
class Setup:
    corpus_dir: str
    model_dir: str | None  # set-up's trained model (cluster workloads)
    seconds: list[float]
    digests: dict[str, str]


def _synth(corpus: Corpus, out_dir: str, log: str) -> None:
    cfg = out_dir + ".generator.json"
    write_json(cfg, corpus.generator_doc())
    code = run_cli(
        ["synth", "--out", out_dir, "--seed", str(corpus.seed), "--config", cfg], log
    )
    if code != 0:
        raise SetupError(f"synth exited {code}; see {log}")


def train_argv(data: str, out: str, run_seed: int, cap: int,
               run_config: str | None) -> list[str]:
    argv = ["train", "--data", data, "--out", out, "--seed", str(run_seed)]
    argv += ["--train-cap", str(cap)]
    if run_config:
        argv += ["--config", run_config]
    return argv


def _corpus_digest(corpus_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(corpus_dir)):
        if name.endswith(".json") and name != "resolved_config.json":
            h.update(name.encode())
            h.update(sha256(os.path.join(corpus_dir, name)).encode())
    return h.hexdigest()


def setup(workload: Workload, run_seed: int, work: str, train_corpus: Corpus,
          run_config: str | None) -> Setup:
    """Set up ``workload.setup_repeats`` times from scratch; every
    repetition must write the same bytes. The first repetition's files are
    used."""
    seconds, digests = [], None
    for rep in range(workload.setup_repeats):
        rep_dir = fresh_dir(os.path.join(work, f"setup{rep}"))
        log = os.path.join(rep_dir, "setup.log")
        t0 = time.perf_counter()
        corpus_dir = os.path.join(rep_dir, "corpus")
        _synth(workload.corpus, corpus_dir, log)
        model_dir = None
        if not workload.trains:
            train_dir = os.path.join(rep_dir, "train_corpus")
            _synth(train_corpus, train_dir, log)
            model_dir = os.path.join(rep_dir, "model")
            code = run_cli(train_argv(train_dir, model_dir, run_seed, MODEL_CAP, run_config), log)
            if code != 0:
                raise SetupError(f"train exited {code}; see {log}")
        seconds.append(time.perf_counter() - t0)
        rep_digests = {"corpus": _corpus_digest(corpus_dir)}
        if model_dir:
            rep_digests["model"] = sha256(os.path.join(model_dir, "model.json"))
        if digests is None:
            digests = rep_digests
        elif rep_digests != digests:
            raise SetupError(f"set-up repetition {rep} wrote different bytes")
    first = os.path.join(work, "setup0")
    return Setup(
        corpus_dir=os.path.join(first, "corpus"),
        model_dir=os.path.join(first, "model") if not workload.trains else None,
        seconds=seconds,
        digests=digests,
    )


def corpus_facts(corpus_dir: str) -> dict:
    """Signature ids and block sizes, computed once outside the timed region."""
    sys.path.insert(0, SRC)
    from andlib.blocking import build_blocks
    from andlib.corpus import load_dataset

    ds = load_dataset(
        os.path.join(corpus_dir, "papers.json"),
        os.path.join(corpus_dir, "signatures.json"),
        clusters_file=os.path.join(corpus_dir, "clusters.json"),
        embeddings_file=os.path.join(corpus_dir, "embeddings.json"),
    )
    return {
        "signatures": sorted(ds.signatures),
        "block_sizes": {b.key: len(b.members) for b in build_blocks(ds)},
    }


# ---------------------------------------------------------------------------
# one iteration
# ---------------------------------------------------------------------------


def iteration_commands(workload: Workload, st: Setup, it_dir: str, run_seed: int,
                       run_config: str | None) -> tuple[list[list[str]], str]:
    data = st.corpus_dir
    if workload.trains:
        model_dir = os.path.join(it_dir, "model")
        cmds = [train_argv(data, model_dir, run_seed, TRAIN_CAP, run_config)]
    else:
        model_dir = st.model_dir
        cmds = []
    pred = os.path.join(it_dir, "pred")
    cmds.append(
        ["cluster", "--data", data, "--out", pred, "--model",
         os.path.join(model_dir, "model.json")]
    )
    cmds.append(
        ["eval", "--data", data, "--pred", os.path.join(pred, "clusters.json"),
         "--out", os.path.join(it_dir, "eval")]
    )
    return cmds, model_dir


def run_iteration(workload: Workload, st: Setup, work: str, index: int, run_seed: int,
                  run_config: str | None, traced: bool) -> dict:
    """One fresh child process; returns its wall time, report and outputs."""
    it_dir = fresh_dir(os.path.join(work, f"iter{index}"))
    cmds, model_dir = iteration_commands(workload, st, it_dir, run_seed, run_config)
    spec = {
        "src": SRC,
        "commands": cmds,
        "trace": traced,
        "log": os.path.join(it_dir, "commands.log"),
        "result": os.path.join(it_dir, "child.json"),
    }
    spec_path = os.path.join(it_dir, "spec.json")
    write_json(spec_path, spec)
    with open(os.path.join(it_dir, "child.stderr"), "w") as stderr:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT,
                env=child_env(),
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                timeout=CHILD_TIMEOUT_S,
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = -1
        wall = time.perf_counter() - t0
    out = {"index": index, "traced": traced, "wall_s": wall, "exit_code": code,
           "dir": it_dir, "model_dir": model_dir}
    if os.path.exists(spec["result"]):
        out["child"] = read_json(spec["result"])
    return out


def check_iteration(it: dict, facts: dict, ref: dict | None) -> list[str]:
    """Output checks; each message is one failed check."""
    problems = []
    child = it.get("child")
    if it["exit_code"] != 0 or child is None:
        msg = f"child exited {it['exit_code']}"
        if child and child.get("error"):
            msg += ": " + child["error"].strip().splitlines()[-1]
        return [msg]
    pred_path = os.path.join(it["dir"], "pred", "clusters.json")
    listed = [s for members in read_json(pred_path).values() for s in members]
    if sorted(listed) != facts["signatures"]:
        problems.append("clusters.json does not cover every signature exactly once")
    ev = read_json(os.path.join(it["dir"], "eval", "metrics.json"))
    report = read_json(os.path.join(it["model_dir"], "report.json"))
    it["quality"] = {
        "b3_f1": ev["b3_f1"],
        "pairwise_macro_f1": ev["pairwise_macro_f1"],
        "val_auroc": report.get("val_auroc_ensemble"),
    }
    it["report"] = report
    it["digests"] = {
        "model.json": sha256(os.path.join(it["model_dir"], "model.json")),
        "clusters.json": sha256(pred_path),
    }
    if it["quality"]["val_auroc"] is None:
        problems.append("report.json has no val_auroc_ensemble")
    if ref is not None:
        for key in ("b3_f1", "pairwise_macro_f1"):
            if it["quality"][key] < ref[key] - QUALITY_TOLERANCE:
                problems.append(f"{key} {it['quality'][key]} below recorded {ref[key]}")
    return problems


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def load_benchmark_spec() -> dict:
    return read_json(os.path.join(ROOT, "BENCHMARK.json"))


def expected_counts(workload: Workload, facts: dict, first: dict) -> dict:
    """Counts the traced run must reproduce, from the corpus alone."""
    sizes = facts["block_sizes"]
    pairs = sum(n * (n - 1) // 2 for n in sizes.values())
    expected = {"blocking.blocks": len(sizes), "cluster.pairs_scored": pairs}
    if workload.trains:
        splits = read_json(os.path.join(first["model_dir"], "splits.json"))
        expected["cluster.pairs_scored"] += sum(
            n * (n - 1) // 2 for key, n in sizes.items() if splits.get(key) == "val"
        )
        expected["model.train_pairs"] = first["report"]["train_pairs"]
    return expected


def layer_summary(traced: list[dict], untraced_wall: float, spec: dict,
                  failures: list[str]) -> dict[str, float]:
    """Per-layer figures of a traced run: times are medians over the traced
    iterations; counts come from the first, and every traced iteration must
    repeat them exactly."""
    per_it = [it["child"]["layers"] for it in traced]
    for m in spec["per_layer"]:
        name = m["name"]
        if m["unit"] in ("count", "rows", "ratio") and name in per_it[0]:
            values = {layers[name] for layers in per_it}
            if len(values) > 1:
                failures.append(f"count {name} differs between traced runs: {sorted(values)}")
    summary = dict(per_it[0])
    for name in summary:
        if name.endswith(("_s", "_ms")):
            summary[name] = statistics.median(layers[name] for layers in per_it)
    summary["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
    summary["trace.overhead_s"] = summary["trace.wall_s"] - untraced_wall
    return summary


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, *,
                 smoke: bool = False, record: bool = False) -> tuple[dict, dict]:
    """Set up, iterate, check. Returns (result line, run record)."""
    t_start = time.perf_counter()
    spec = load_benchmark_spec()
    run_seed = seed % N_SEEDS
    record_env = env_record()
    work = fresh_dir(os.path.join(WORK, ("smoke-" if smoke else "") + workload.name))
    run_config = None
    if smoke:
        run_config = os.path.join(work, "run_config.json")
        write_json(run_config, SMOKE_RUN_CONFIG)
    train_corpus = SMOKE_TRAIN_CORPUS if smoke else TRAIN_CORPUS
    st = setup(workload, run_seed, work, train_corpus, run_config)
    facts = corpus_facts(st.corpus_dir)

    reference = {} if smoke else (read_json(REFERENCE) if os.path.exists(REFERENCE) else {})
    ref = reference.get(workload.name, {}).get(str(run_seed))

    min_iters = MIN_TRACED_ITERATIONS if trace else (1 if record else MIN_ITERATIONS)
    deadline = time.perf_counter() + seconds
    iterations, failures = [], []
    while True:
        now = time.perf_counter()
        if (now >= deadline and len(iterations) >= min_iters) or now - t_start > HARD_STOP_S:
            break
        traced = trace and len(iterations) % 2 == 0
        it = run_iteration(workload, st, work, len(iterations), run_seed, run_config, traced)
        problems = check_iteration(it, facts, ref)
        it["problems"] = problems
        failures.extend(f"iteration {it['index']}: {p}" for p in problems)
        iterations.append(it)

    good = [it for it in iterations if not it["problems"]]
    flags = []
    if ref is None and not smoke and not record:
        failures.append(f"no recorded reference for seed {run_seed}")
    # every iteration of a run does the same work on the same inputs
    for key in ("digests", "quality"):
        values = {json.dumps(it[key], sort_keys=True) for it in good}
        if len(values) > 1:
            failures.append(f"{key} differ between iterations of one run")
    if good and ref is not None:
        for name, digest in good[0]["digests"].items():
            if ref["digests"].get(name) != digest:
                flags.append(f"{name} digest differs from the recorded one (behaviour change)")

    untraced = [it["wall_s"] for it in good if not it["traced"]]
    traced_its = [it for it in good if it["traced"]]
    n_sigs = len(facts["signatures"])
    metrics: dict[str, float] = {"setup_s": statistics.median(st.seconds)}
    if untraced:
        wall = statistics.median(untraced)
        rss = [it["child"]["maxrss_kb"] / 1024.0 for it in good if not it["traced"]]
        metrics.update(
            wall_s=wall,
            sigs_per_s=n_sigs / wall,
            peak_rss_mb=statistics.median(rss),
        )
    if good:
        metrics.update(good[0]["quality"])
    metrics["fail_frac"] = (len(iterations) - len(good)) / max(len(iterations), 1)

    layers: dict[str, float] = {}
    if trace and traced_its and untraced:
        layers = layer_summary(traced_its, metrics["wall_s"], spec, failures)
        for name, want in expected_counts(workload, facts, traced_its[0]).items():
            if layers[name] != want:
                failures.append(f"{name} is {layers[name]}, the corpus implies {want}")
    elif trace:
        failures.append("traced run needs a good traced and a good untraced iteration")

    section = "per_layer" if trace else "end_to_end"
    source = layers if trace else metrics
    out_metrics = {}
    for m in spec[section]:
        if m["name"] not in source:
            failures.append(f"metric {m['name']} was not measured")
            continue
        out_metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}

    record_env["loadavg_end"] = list(os.getloadavg())
    run_record = {
        "workload": workload.name,
        "seed": seed,
        "run_seed": run_seed,
        "corpus": dataclasses.asdict(workload.corpus),
        "train_corpus": dataclasses.asdict(train_corpus),
        "train_cap": TRAIN_CAP if workload.trains else MODEL_CAP,
        "smoke": smoke,
        "trace": trace,
        "env": record_env,
        "setup_s": st.seconds,
        "setup_digests": st.digests,
        "iterations": [
            {k: it.get(k) for k in ("index", "traced", "wall_s", "exit_code", "problems",
                                    "digests", "quality")}
            | {k: it.get("child", {}).get(k) for k in ("maxrss_kb", "cpu_s")}
            for it in iterations
        ],
        "all_metrics": metrics,
        "layers": layers,
        "failures": failures,
        "flags": flags,
    }
    write_json(os.path.join(work, "run_record.json"), run_record)
    if trace and traced_its:
        write_json(os.path.join(work, "spans.json"), traced_its[0]["child"]["spans"])
    if record and good:
        reference = read_json(REFERENCE) if os.path.exists(REFERENCE) else {}
        reference.setdefault(workload.name, {})[str(run_seed)] = {
            **{k: good[0]["quality"][k] for k in ("b3_f1", "pairwise_macro_f1", "val_auroc")},
            "digests": good[0]["digests"],
        }
        write_json(REFERENCE, reference)
    # a run-level check that fails (counts, determinism, missing metric)
    # fails the run even when every iteration passed on its own
    failed = len(iterations) - len(good)
    if failures and not failed:
        failed = 1
    result = {
        "correct": not failures,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": out_metrics,
    }
    return result, run_record


def print_report(result: dict, run_record: dict) -> None:
    """Human-readable lines: every end-to-end metric (also in a traced run)
    and fail_frac, then the per-layer metrics of a traced run."""
    spec = load_benchmark_spec()
    print(f"workload {run_record['workload']} seed {run_record['seed']} "
          f"(program seed {run_record['run_seed']}) trace {int(run_record['trace'])}")
    print("env " + json.dumps(run_record["env"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"fail_frac": "1"}
    for name, value in run_record["all_metrics"].items():
        print(f"  {name:<34} {value:>14.6f} {units[name]}")
    if run_record["trace"]:
        for name, m in result["metrics"].items():
            print(f"  {name:<34} {m['value']:>14.6f} {m['unit']}")
    for flag in run_record["flags"]:
        print(f"FLAG {flag}")
    for failure in run_record["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on tiny corpora, untraced and traced")
    parser.add_argument("--record", action="store_true",
                        help="store this run's quality and digests in reference.json")
    args = parser.parse_args(argv)

    if args.smoke:
        runs = [(w, t) for w in SMOKE_WORKLOADS.values() for t in (False, True)]
        seconds = 0.0
    elif args.workload:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        runs = [(WORKLOADS[name], bool(args.trace)) for name in names]
        seconds = args.seconds
    else:
        parser.error("--workload is required unless --smoke is given")

    ok = True
    for workload, trace in runs:
        try:
            result, run_record = run_workload(
                workload, args.seed, seconds, trace, smoke=args.smoke, record=args.record
            )
        except (SetupError, OSError, ImportError) as exc:
            print(f"error: {workload.name}: {exc}", file=sys.stderr)
            return 2
        print_report(result, run_record)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
