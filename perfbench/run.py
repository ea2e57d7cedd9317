#!/usr/bin/env python3
"""End-to-end benchmark of the enterprise infection detector.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest [--seed <n>]

Run from the repository root. The script builds the library and the
benchmark's two programs from source (perfbench/CMakeLists.txt) into
.bench_build, generates the seed's dataset once into
.bench_data/s<seed>-<generator hash> with perfbench_gen (a separate
process), then runs the measured program perfbench_run on one workload. Its
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics; each metric's unit comes from BENCHMARK.json, and a metric set
that differs from BENCHMARK.json's fails the run. Any report, rt emission,
save or load that does not match the threads=1 reference counts as failed,
and the script then exits non-zero.

--selftest proves the check: one altered detection and one failed save must
each raise `failed` and fail the run, while a clean run passes.

Workloads and metrics are described in perfbench/README.md and
perfbench/workloads.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("batch_proxy", "rt_replay", "restart_longlived")
# Datasets kept in .bench_data (~0.4 GB each), least recently used evicted.
MAX_DATASETS = 4
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure, then an incremental build of both programs."""
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "-j", str(nproc())],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_gen", out / "perfbench_run"


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def dataset(gen, seed):
    """The seed's dataset directory, generated on first use. The directory
    is keyed by the generator binary's hash: a change to the simulator, the
    training, the state format or gen.cpp makes a fresh dataset and fresh
    reference digests."""
    root = ROOT / ".bench_data"
    path = root / f"s{seed}-{file_hash(gen)}"
    if not (path / "COMPLETE").exists():
        root.mkdir(exist_ok=True)
        kept = sorted((d for d in root.iterdir() if d.is_dir() and d != path),
                      key=lambda d: d.stat().st_mtime)
        for old in kept[:max(0, len(kept) - (MAX_DATASETS - 1))]:
            shutil.rmtree(old, ignore_errors=True)
        log(f"generating dataset for seed {seed}")
        subprocess.run([str(gen), "--seed", str(seed), "--out", str(path)],
                       check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=RUN_TIMEOUT_S)
    os.utime(path)  # least-recently-used order for eviction
    # Flush the generator's ~0.4 GB of writes now, so that their write-back
    # does not compete with the measured run for CPU and disk.
    os.sync()
    return path


def measure(runner, data, workload, seconds, trace, fault="none"):
    """Run the measured program; returns (exit code, stdout lines, result)."""
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(runner), "--workload", workload, "--data", str(data),
           "--work", str(work), "--seconds", str(seconds),
           "--trace", str(trace), "--fault", fault]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines[:-1] if result else lines, result


def print_properties(data):
    props = json.loads((data / "properties.json").read_text())
    ops = [d for d in props["days"] if d["day"] >= "2014-02"]
    events = sum(d["events"] for d in ops) / len(ops)
    mb = sum(d["mb"] for d in ops) / len(ops)
    print(f"inputs: seed {props['seed']}, {events:.0f} events and {mb:.2f} MB "
          f"per operation day, {props['distinct_domains']} distinct domains, "
          f"trained history {props['trained_history_domains']} domains / "
          f"{props['trained_state_bytes']} B, padded history "
          f"{props['padded_history_domains']} domains + "
          f"{props['padded_history_uas']} UAs / "
          f"{props['padded_state_bytes']} B")


def selftest(runner, data):
    """Each injected fault must fail the run; a clean run must pass."""
    ok = True
    for fault in ("none", "detection", "save"):
        code, _, result = measure(runner, data, "restart_longlived", 1, 0,
                                  fault=fault)
        failed = result["failed"] if result else None
        expect_fail = fault != "none"
        good = result is not None and (
            (expect_fail and code != 0 and failed > 0
             and not result["correct"])
            or (not expect_fail and code == 0 and failed == 0
                and result["correct"]))
        print(f"selftest fault={fault}: exit {code}, failed {failed} / "
              f"{result['attempted'] if result else None} -> "
              f"{'ok' if good else 'WRONG'}")
        ok = ok and good
    return ok


def with_units(metrics, trace):
    """The measured values with their units from BENCHMARK.json, in its
    order; None when the measured names, or those workloads.json describes,
    differ from BENCHMARK.json's list."""
    kind = "per_layer" if trace else "end_to_end"
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    described = json.loads((BENCH_DIR / "workloads.json").read_text())[kind]
    names = {m["name"] for m in listed}
    for what, have in (("measured", set(metrics)),
                       ("workloads.json", set(described))):
        if have != names:
            log(f"{what} metric names differ from BENCHMARK.json: missing "
                f"{sorted(names - have)}, unlisted {sorted(have - names)}")
            return None
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    gen, runner = build()
    data = dataset(gen, args.seed)
    if args.selftest:
        return 0 if selftest(runner, data) else 1

    print_properties(data)
    code, lines, result = measure(runner, data, args.workload, args.seconds,
                                  args.trace)
    for line in lines:
        print(line)
    if result is None:
        log(f"perfbench_run exited {code} without a result")
        return 1
    result["metrics"] = with_units(result["metrics"], args.trace)
    if result["metrics"] is None:
        return 1
    print(f"failed_frac: {result['failed']} / {result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6f}")
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as error:
        log(f"error: {error}")
        sys.exit(1)
