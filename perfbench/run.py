#!/usr/bin/env python3
"""Build the yewpar benchmark from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload clique-seq --seed 1 --seconds 30 --trace 0

The Go toolchain's cache, temporary files and the binary all stay under
.bench_build/ in the checkout, and no module is fetched. The benchmark's
own output (a report, then one JSON verdict line) goes to stdout; build
output goes to stderr. The exit code is the benchmark's, or the build's
when the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def source_digest():
    """The git commit when there is one, else a digest of the Go sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            return git.stdout.strip()
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; the benchmark "
              "builds the program from source", file=sys.stderr)
        return 2
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOTMPDIR=os.path.join(BUILD, "tmp"),
               GOPATH=os.path.join(BUILD, "gopath"),
               XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
               GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off",
               GOFLAGS="", CGO_ENABLED="0")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                           env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    args = sys.argv[1:] + ["--commit", source_digest()]
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
