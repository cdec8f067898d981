#!/usr/bin/env python3
"""Regenerate the pinned checkpoint and prompt set the benchmark runs on.

The `calibrate` and `sweep` workloads start from a trained checkpoint.
Training it at the default config (seed 0, 2,500 epochs) takes over a
minute, so the result is kept in ``bench/fixture`` with its sha256 in
``bench/fixture/SHA256SUMS``, and ``bench/run.py`` checks the hashes before
every run.  This script rebuilds both files with the repo's own ``prompts``
and ``train`` commands, exactly as the test suite's shared fixture trains
them, and compares the hashes:

    python3 bench/make_fixture.py            # rebuild and compare
    python3 bench/make_fixture.py --write    # rebuild and replace the fixture

Run from the root of the repository.  BLAS is pinned to one thread, as in
the benchmark, so the float summation order is the one the hashes record.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import shutil
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
FIXTURE_DIR = os.path.join("bench", "fixture")
FILES = ("model.json", "prompts.tsv")
SUMS = os.path.join(FIXTURE_DIR, "SHA256SUMS")


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_sums(path: str = SUMS) -> dict:
    sums = {}
    with open(path) as fh:
        for line in fh:
            digest, name = line.split()
            sums[name] = digest
    return sums


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace the fixture and its recorded hashes")
    args = parser.parse_args()
    os.chdir(ROOT)
    sys.path.insert(0, "src")
    from ptqkit.cli import main as ptqkit_main

    work = os.path.join(".bench_out", "fixture")
    shutil.rmtree(work, ignore_errors=True)
    for command in ("prompts", "train"):
        rc = ptqkit_main([command, "--out", work, "--seed", "0"])
        if rc != 0:
            print(f"ptqkit {command} exited with {rc}", file=sys.stderr)
            return 1
    fresh = {name: sha256_file(os.path.join(work, name)) for name in FILES}
    if args.write:
        for name in FILES:
            shutil.copyfile(os.path.join(work, name), os.path.join(FIXTURE_DIR, name))
        with open(SUMS, "w") as fh:
            fh.writelines(f"{fresh[name]}  {name}\n" for name in FILES)
        print(f"wrote {SUMS}")
        return 0
    recorded = read_sums()
    same = True
    for name in FILES:
        ok = fresh[name] == recorded.get(name)
        same &= ok
        verdict = "matches" if ok else "DIFFERS from"
        print(f"{name}: {verdict} the recorded sha256 {recorded.get(name)}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
