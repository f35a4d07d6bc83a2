#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Every build and run artifact stays inside the build directory
($CARGO_TARGET_DIR, else .bench_build): the Go build cache and temporary
files, the binary, the serve workload's data directories and the Chrome
trace of a traced run. The benchmark's arguments are passed through; the result is the last
line of standard output. Exits non-zero without a result when the build
or the run fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_revision():
    """The git commit when the checkout has one, else a hash of the Go sources."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                ref = f.read().strip()
        if ref:
            return ref[:12]
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("go.mod", "internal", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns
            if n.endswith((".go", ".mod")))
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOTMPDIR=os.path.join(build, "tmp"), TMPDIR=os.path.join(build, "tmp"),
               GOPATH=os.path.join(build, "gopath"),
               GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
               GOENV="off", GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local",
               GOTELEMETRY="off", HOME=os.path.join(build, "home"),
               XDG_CONFIG_HOME=os.path.join(build, "home", ".config"))
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "--outdir", os.path.join(build, "out"),
            "--expected", os.path.join(HERE, "expected"),
            "--commit", source_revision()] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
