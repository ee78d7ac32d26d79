#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload long_run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench/ (and the repository libraries it compiles from
../src) in Release mode under $CARGO_TARGET_DIR (default .bench_build),
runs one workload in its own process, and passes its output through.
The last stdout line is the result JSON. --smoke runs every workload
briefly, traced, with every check on, and exits 1 on any failed
operation or check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_run", "batch_sweep", "serve_tenants")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once and builds incrementally; build logs go to stderr."""
    if not (ROOT / "src" / "runtime" / "CMakeLists.txt").exists():
        log("repository sources not found under", ROOT / "src")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return out / "cenn_perfbench"


def source_sha():
    """SHA-256 over the sources the benchmark builds and reads."""
    digest = hashlib.sha256()
    for top in ("src", "zoo", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload process; returns (exit code, stdout lines)."""
    out_dir = binary.parent / "out" / workload
    shutil.rmtree(out_dir, ignore_errors=True)
    env = dict(os.environ)
    # Environment overrides of the execution policy would change what
    # the workloads measure; the benchmark always runs the policies it
    # names.
    env.pop("CENN_EXEC", None)
    env.pop("CENN_KERNEL_PATH", None)
    env["PERFBENCH_GIT_SHA"] = git_sha()
    env["PERFBENCH_SOURCE_SHA"] = source_sha()
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--out=" + str(out_dir), "--data=" + str(HERE),
           "--root=" + str(ROOT)]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, cwd=str(ROOT), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(workload, "did not finish within", RUN_TIMEOUT_S, "s")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def smoke(binary):
    ok = True
    for workload in WORKLOADS:
        code, lines = run_workload(binary, workload, 1, 2, 1, smoke=True)
        result = parse_result(lines)
        good = (code == 0 and result is not None and result["correct"]
                and result["failed"] == 0 and result["attempted"] > 0)
        log("smoke", workload, "ok" if good else "FAILED",
            lines[-1] if lines else "(no output)")
        ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    binary = build(build_dir())
    if binary is None:
        log("build failed")
        return 1
    if args.smoke:
        return smoke(binary)

    code, lines = run_workload(binary, args.workload, args.seed,
                               args.seconds, args.trace)
    result = parse_result(lines)
    if code != 0 or result is None:
        log(args.workload, "exited", code, "without a result")
        return 1
    for line in lines:
        print(line)
    (binary.parent / "out" / args.workload / "result.json").write_text(
        json.dumps({"machine": next(json.loads(line.split(" ", 1)[1])
                                    for line in lines
                                    if line.startswith("machine ")),
                    "workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "result": result}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
