#!/usr/bin/env python3
"""Build the benchmark and run one workload, pinned to one core.

    python3 benchmark/run.py --workload <echo_rpc|fig3_winner|ft_recovery>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark package (benchmark/Cargo.toml)
is built in release mode into $CARGO_TARGET_DIR (default: .bench_build),
then the workload runs in its own process under `taskset`, pinned to the
last core this process may use. The simulator gives every simulated
process an OS thread but runs one at a time, so unpinned runs measure
cross-core wake-ups more than the program. The workload process prints
its progress on standard error and, as the last line of standard output,
one JSON object: `correct`, `attempted`, `failed` and `metrics`.
Exits non-zero, without a result line, when the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Cargo's output goes to standard error: standard output carries only
    # the result line.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("benchmark build failed")
    return os.path.join(target, "release", "ldft-repo-bench")


def pinned(cmd):
    if shutil.which("taskset") is None:
        print("taskset not found: running unpinned", file=sys.stderr)
        return cmd
    core = max(os.sched_getaffinity(0))
    print(f"pinned to core {core}", file=sys.stderr)
    return ["taskset", "-c", str(core)] + cmd


def main():
    binary = build()
    # The workload runs each round in a child process; starting it in a
    # new process group lets a timeout stop all of them at once.
    proc = subprocess.Popen(pinned([binary] + sys.argv[1:]), cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"workload did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out.decode())
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
