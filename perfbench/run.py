"""Run one slipdisk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim64 --seed 0 --seconds 15 --trace 0

Run from anywhere; the package is imported from the checkout's own
`src/`, never from an installed copy. The run sets up (imports, input
generation, one untimed warm-up job), then issues jobs one at a time
(closed loop) for about `--seconds`, checking every job's outputs.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it follows the untraced jobs with as many seconds of
jobs with span wrappers installed around every layer, and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is the JSON result. Run metadata, per-job records and
span summaries go to `.perfbench-runs/` in the checkout.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-runs"
MIN_JOBS = 2
THREAD_ENV = ("SLIPDISK_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark; no result is printed."""


def import_package():
    """Import slipdisk from ROOT/src and refuse any other copy."""
    if not (SRC / "slipdisk" / "__init__.py").is_file():
        raise SetupError(f"no slipdisk package under {SRC}")
    sys.path.insert(0, str(SRC))
    import slipdisk
    where = Path(slipdisk.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"slipdisk imported from {where}, not from {SRC}")
    return slipdisk


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    with open(path) as fh:
        return json.load(fh)


def metadata() -> dict:
    import numpy
    import scipy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def _git_sha() -> str | None:
    """HEAD of ROOT/.git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


class Ledger:
    """Runs jobs, checks their outputs and keeps the failure accounting."""

    def __init__(self, workload, reference, check):
        self.workload = workload
        self.reference = reference
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.max_rel_dev = 0.0
        self.records: list[dict] = []

    def job(self, phase: str, tracer=None, install=None) -> dict:
        gc.collect()
        raw, error = None, None
        if tracer is not None:
            tracer.job = len(self.records)
            install(tracer)
        start = time.perf_counter()
        try:
            raw = self.workload.run()
        except Exception:  # a failed job is counted, and the run goes on
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.restore()
        failures, info = [], {}
        if error is None:
            try:
                result = self.workload.outputs(raw)
                failures, dev = self.check(result, self.reference)
                info = result.info
                self.max_rel_dev = max(self.max_rel_dev, dev)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            failures.append(error)
        if failures:
            print(f"perfbench: {phase} job failed:\n  " + "\n  ".join(failures),
                  file=sys.stderr)
        self.attempted += 1
        self.failed += bool(failures)
        record = {"phase": phase, "wall_s": wall, "ok": not failures,
                  "failures": failures, "info": info}
        self.records.append(record)
        return record

    def loop(self, phase: str, budget_s: float, estimate_s: float,
             min_jobs: int, **kw) -> list[dict]:
        """Closed loop: run `min_jobs` jobs, then start another while it
        is expected to end within the budget."""
        start = time.perf_counter()
        done = []
        while True:
            done.append(self.job(phase, **kw))
            walls = [estimate_s] + [r["wall_s"] for r in done]
            expected_end = time.perf_counter() - start + statistics.median(walls)
            if len(done) >= min_jobs and expected_end > budget_s:
                return done


def _median(records: list[dict], key=None) -> float:
    ok = [r for r in records if r["ok"]] or records
    values = [r["wall_s"] if key is None else r["info"].get(key, 0.0) for r in ok]
    return statistics.median(values)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        spec = load_spec()
        import_package()
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, str(work_dir))
        workload.setup()
        ledger = Ledger(workload, workloads.load_reference(args.workload, args.seed),
                        workloads.check)
        warm = ledger.job("warmup")
        setup_s = time.perf_counter() - _T0

        # A plain run times at least MIN_JOBS jobs, so that a sweep32 job
        # (longer than the whole budget) is still a median of two. A traced
        # run then times traced jobs for as long again.
        plain = ledger.loop("timed", args.seconds, warm["wall_s"],
                            1 if args.trace else MIN_JOBS)
        tracer = Tracer()
        if args.trace:
            traced = ledger.loop("traced", args.seconds, warm["wall_s"], 1,
                                 tracer=tracer, install=layers.install)
            metrics = layers.layer_metrics(tracer.spans(), tracer.counts, len(traced))
            metrics.update({
                "ns_solver.snapshot_bytes": _median(traced, "snapshot_bytes"),
                "diagnose_s": _median(plain, "diagnose_s"),
                "adn_s": _median(plain, "adn_s"),
                "check.max_rel_dev": ledger.max_rel_dev,
                "trace.overhead_s": _median(traced) - _median(plain),
            })
            wanted = spec["per_layer"]
        else:
            metrics = {
                "wall_s": _median(plain),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        print(f"perfbench: metrics {sorted(set(names) ^ set(metrics))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 3
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    meta = metadata()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"args": vars(args), "metadata": meta, "result": result,
                   "jobs": ledger.records}, fh, indent=1)
    if args.trace:
        _write_spans(OUT_DIR / f"{stem}-spans.csv.gz", tracer.spans())

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} timed jobs")
    for name in names:
        print(f"  {name:<40} {metrics[name]:>14.6g} {result['metrics'][name]['unit']}")
    print(f"  {'failed_frac':<40} {ledger.failed / ledger.attempted:>14.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} jobs, warm-up included)")
    print("metadata " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


def _write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["span_id", "parent_id", "job", "thread", "name",
                      "start", "end", "self_s"])
        for s in spans:
            out.writerow([s.span_id, s.parent_id, s.job, s.thread, s.name,
                          repr(s.start), repr(s.end), repr(s.self_s)])


if __name__ == "__main__":
    sys.exit(main())
