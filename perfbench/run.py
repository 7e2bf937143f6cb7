#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the project's libraries, sp_serve and the benchmark runner in a
Release tree under .bench_build/perfbench (the first run builds; later ones
only check the tree is current), then starts the runner from the repository
root. Human-readable lines come first; the last stdout line is the JSON
result. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = Path(".bench_build") / "perfbench"
WORKLOADS = ["campaign", "publish-scale", "serve-reload"]


def die_with_parent():
    """Runs in the runner's child: SIGKILL it when run.py goes away."""
    import ctypes
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def build():
    """Configures (once) and builds the Release tree; returns its path."""
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release", *generator]
            if subprocess.run(configure, stdout=out, stderr=out).returncode != 0:
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                return None
        jobs = str(os.cpu_count() or 1)
        targets = ["--target", "perfbench_runner", "perfbench_sp_serve"]
        if subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, *targets],
                          stdout=out, stderr=out).returncode != 0:
            return None
    return BUILD


def stamp():
    """git sha (when the tree is a git checkout) plus a digest of the sources."""
    sha = "none"
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if git.returncode == 0:
            sha = git.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [ROOT / "examples" / "sp_serve.cpp"]
    files += [p for p in HERE.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"git_sha={sha} src_digest={digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    os.chdir(ROOT)
    if not (ROOT / "src").is_dir() or not (ROOT / "examples" / "sp_serve.cpp").is_file():
        return fail("the project sources (src/, examples/) are missing")
    tree = build()
    if tree is None:
        return fail(f"build failed; see {BUILD / 'build.log'}")

    expected = json.loads((HERE / "digests.json").read_text()).get(args.workload)
    work = Path(".bench_build") / "work" / args.workload
    traces = Path(".bench_build") / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(tree / "perfbench_runner"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", str(work), "--trace-dir", str(traces),
               "--serve-bin", str((tree / "sp_serve").resolve()),
               "--stamp", stamp()]
    if expected:
        command += ["--expect-digest", expected]

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    runner = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              preexec_fn=die_with_parent)
    try:
        output, _ = runner.communicate(timeout=170)
    except BaseException:
        runner.kill()
        runner.wait()
        raise
    lines = output.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if runner.returncode != 0 or not isinstance(result, dict):
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        return fail(f"runner exited with {runner.returncode} without a result")
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
