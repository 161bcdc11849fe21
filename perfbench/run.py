"""Pipeline benchmark: builds the program and the benchmark, then runs one
workload in one JVM. Run from the repository root:

    python3 perfbench/run.py --workload paper-sf1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The last line of stdout is the result JSON; the line before it records the
environment, sample counts and check details. Spark's log goes to stderr.
Build output, reference caches and per-run reports go to .bench_build/.
"""

import argparse
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.dont_write_bytecode = True
import build  # noqa: E402

# A run must end within 180 s; leave room to stop the JVM.
RUN_LIMIT_S = 170
HEAP = ["-Xms3g", "-Xmx3g"]


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return ""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    root = Path.cwd()
    out = root / ".bench_build"
    classes, digest = build.build(root, out)
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    cp = ":".join([str(classes), str(build.BENCH / "resources"), f"{build.spark_jars()}/*"])
    args = ["--selftest"] if a.selftest else [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    cmd = [build.java(), *HEAP, "-XX:-UsePerfData", f"-Djava.io.tmpdir={out / 'tmp'}", "-cp", cp,
           "repro.perfbench.Main", *args, "--out", str(out), "--source-hash", digest, "--git-sha", git_sha(root)]

    proc = subprocess.Popen(cmd)
    started = time.monotonic()
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s, stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        print(f"perfbench: JVM ran {time.monotonic() - started:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
