"""A/B benchmark of two source trees in alternating pairs.

    python3 tools/ab.py --base REV --workload W --pairs N --out BENCH_<n>.json
                        [--change REV] [--seed S]

``--base`` (and ``--change``, when given) is any revision git can name; it
is exported with ``git archive`` into a temporary directory, which is
removed at exit, so nothing is fetched and the checkout is left as it was.
Without ``--change`` the change is this checkout's working tree, recorded
as its ``HEAD`` commit and the blob id of every file that differs from it.

Pair k runs each tree's own benchmark command (``BENCHMARK.json``
``command``, i.e. ``python3 bench/run.py``) with ``--workload W --seed S+k
--seconds`` ``BENCHMARK.json`` ``run_seconds``.  The tree that runs first
alternates from pair to pair, because a fixed order favours one side.

For every end-to-end metric of the change's ``BENCHMARK.json`` the
comparison records both medians and quartiles, the change's win count
(ties count for neither) and a verdict:

- ``gain``: the change wins at least 90% of the pairs, and its median is
  better than the base's by more than the base's interquartile range;
- ``unresolved``: the base's interquartile range is wider than the metric's
  ``bound`` (a fraction of the base median), so a change inside the bound
  cannot be told from noise, and not every change run beats every base run;
- ``regression``: the change's median is worse than the base's by more
  than the metric's ``bound`` (a fraction of the base median);
- ``within noise``: anything else.

The comparison is appended to ``--out`` (a JSON object with a
``comparisons`` list), so one file can hold several workloads and a
base-against-base noise floor.  Each run's ``correct`` flag and its
``attempted`` and ``failed`` operation counts are recorded too; after
writing ``--out`` the script exits 1, saying why, if any run reports
``correct: false`` or the change fails a larger share of its attempted
operations than the base.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # the share of pairs the change must win for a gain
HOST_FIELDS = ("python", "numpy", "machine", "nproc", "blas_threads", "src_lines")
RUN_FIELDS = ("seed", "repetitions", "stream_sessions", "gauge_median_s", "unscaled")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated as ``numpy.percentile``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Summary and verdict of one metric over paired runs; ``base[k]`` and
    ``change[k]`` come from pair k."""
    if len(base) != len(change) or not base:
        raise ValueError("compare needs one base and one change value per pair")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0  # sign * (base - change) > 0 is an improvement
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    improvement = sign * (b_med - c_med)
    dominates = min(sign * b for b in base) > max(sign * c for c in change)
    if wins >= GAIN_SHARE * len(base) and improvement > b_q3 - b_q1:
        verdict = "gain"
    elif b_q3 - b_q1 > bound * abs(b_med) and not dominates:
        verdict = "unresolved"
    elif -improvement > bound * abs(b_med):
        verdict = "regression"
    else:
        verdict = "within noise"
    return {
        "better": better,
        "bound": bound,
        "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "runs": base},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": change},
        "ratio": c_med / b_med if b_med else None,
        "wins": wins,
        "pairs": len(base),
        "verdict": verdict,
    }


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    """Per-metric comparisons of the runs' results, for the end-to-end
    metrics ``spec`` (a ``BENCHMARK.json``) declares."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                  for side in ("base", "change")}
        out[name] = {"unit": metric["unit"],
                     **compare(values["base"], values["change"], metric["better"], metric["bound"])}
    return out


def broken(comparison: dict) -> list[str]:
    """Why the comparison's runs cannot stand: each side with a run that
    reports ``correct: false``, and a change that fails a larger share of
    its attempted operations than the base."""
    reasons = [f"{side} run(s) {[k for k, ok in enumerate(flags) if not ok]} report correct: false"
               for side, flags in comparison["correct"].items() if not all(flags)]
    share = {side: sum(comparison["failed"][side]) / max(sum(comparison["attempted"][side]), 1)
             for side in ("base", "change")}
    if share["change"] > share["base"]:
        reasons.append(f"the change fails {share['change']:.3g} of its operations, "
                       f"the base {share['base']:.3g}")
    return reasons


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def export(rev: str, into: Path) -> dict:
    """Write the files of ``rev`` into ``into``; returns its commit id as
    ``{"commit": id}``."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return {"commit": commit}


def working_tree() -> dict:
    """The source this checkout runs: its ``HEAD`` and the blob id of every
    file, untracked ones included, that differs from it (None if deleted)."""
    paths = set(git("diff", "HEAD", "--name-only", "-z").split("\0"))
    paths |= set(git("ls-files", "--others", "--exclude-standard", "-z").split("\0"))
    paths.discard("")
    changed = {path: git("hash-object", "--", path).strip() if (ROOT / path).exists() else None
               for path in sorted(paths)}
    return {"commit": git("rev-parse", "HEAD").strip(), "changed": changed}


def run_bench(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its run record and result."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--change", help="a revision; default: this checkout's working tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=611, help="seed of pair 0; pair k uses seed + k")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    work = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        trees, revs = {}, {}
        for side, rev in (("base", args.base), ("change", args.change)):
            if rev is None:
                trees[side], revs[side] = ROOT, working_tree()
            else:
                trees[side] = work / side
                revs[side] = export(rev, trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = float(spec["run_seconds"])
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        order = []
        for k in range(args.pairs):
            sides = ("base", "change") if k % 2 == 0 else ("change", "base")
            order.append(sides[0])
            for side in sides:
                run = run_bench(trees[side], spec["command"], args.workload, args.seed + k, seconds)
                runs[side].append(run)
                print(f"pair {k} {side}: correct={run['result']['correct']} "
                      f"failed={run['result']['failed']}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    comparison = {
        "workload": args.workload,
        "base": revs["base"],
        "change": revs["change"],
        "pairs": args.pairs,
        "seconds": seconds,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "first": order,
        "host": {side: {key: runs[side][0]["record"][key] for key in HOST_FIELDS}
                 for side in ("base", "change")},
        "correct": {side: [r["result"]["correct"] for r in runs[side]] for side in runs},
        "attempted": {side: [r["result"]["attempted"] for r in runs[side]] for side in runs},
        "failed": {side: [r["result"]["failed"] for r in runs[side]] for side in runs},
        "runs": {side: [{key: r["record"][key] for key in RUN_FIELDS} for r in runs[side]]
                 for side in runs},
        "metrics": summarize(runs, spec),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"comparisons": []}
    doc["comparisons"].append(comparison)
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, m in comparison["metrics"].items():
        print(f"{name:16s} {m['base']['median']:10.4g} -> {m['change']['median']:10.4g} "
              f"wins {m['wins']}/{m['pairs']}  {m['verdict']}")
    reasons = broken(comparison)
    for reason in reasons:
        print(f"broken run: {reason}", file=sys.stderr)
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main())
