"""Build of the pipeline benchmark.

Compiles the program (src/main/scala and jobs) together with the benchmark
(perfbench/src) using the Scala compiler that ships among Spark's jars, so
no dependency resolution is needed. Output goes to <out>/classes and is
rebuilt only when a source file changes.

    python3 perfbench/build.py        # from the repository root
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SOURCE_DIRS = ["src/main/scala", "jobs", "perfbench/src"]


def spark_jars() -> Path:
    """The jars directory of the Spark installation: $SPARK_HOME, else the
    one whose bin/ holds the spark-submit found on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            raise SystemExit("perfbench: SPARK_HOME is not set and spark-submit is not on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        raise SystemExit(f"perfbench: no Spark jars directory at {jars}")
    return jars


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    return str(Path(home) / "bin" / "java") if home else "java"


def sources(root: Path) -> list:
    found = []
    for d in SOURCE_DIRS:
        base = root / d
        if not base.is_dir():
            raise SystemExit(f"perfbench: source directory {d} is missing; run from the repository root")
        found += sorted(base.rglob("*.scala"))
    return found


def source_hash(root: Path, files: list) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(root)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
        h.update(b"\0")
    return h.hexdigest()[:16]


def build(root: Path, out: Path) -> tuple:
    """Returns (classes directory, source hash); compiles when stale."""
    files = sources(root)
    digest = source_hash(root, files)
    classes = out / "classes"
    stamp = classes / ".source-hash"
    if stamp.is_file() and stamp.read_text() == digest:
        return classes, digest
    jars = spark_jars()
    staging = out / "classes.staging"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    cmd = [java(), "-Xss8m", "-Xmx1g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-nowarn", "-d", str(staging), "-cp", f"{jars}/*"] + [str(f) for f in files]
    print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: compilation failed")
    (staging / ".source-hash").write_text(digest)
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    return classes, digest


if __name__ == "__main__":
    build(Path.cwd(), Path.cwd() / ".bench_build")
