#!/usr/bin/env python3
"""Build and run the PeerTrack benchmark.

    python3 perfbench/run.py --workload <ingest|ingest_audited|query_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds the library and the benchmark (Release) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only check the build is
current. Build output goes to stderr; the benchmark's stdout is passed
through unchanged, so its last line is the JSON result. A traced run
(--trace 1) also writes its spans as JSON lines into the build directory.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def arg_value(argv, flag):
    for i, arg in enumerate(argv[:-1]):
        if arg == flag:
            return argv[i + 1]
    return None


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def main():
    argv = sys.argv[1:]
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"no PeerTrack sources at {root / 'src'}; run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    binary = build(bench_dir, target / "perfbench")

    command = [str(binary)] + argv
    if arg_value(argv, "--trace") == "1":
        workload = arg_value(argv, "--workload") or "unknown"
        seed = arg_value(argv, "--seed") or "0"
        command += ["--trace-out", str(target / f"spans-{workload}-{seed}.jsonl")]
    start = time.monotonic()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s after {time.monotonic() - start:.0f} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
