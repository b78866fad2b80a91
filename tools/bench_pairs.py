"""Run the benchmark in alternating pairs: a base commit against the working tree.

    python3 tools/bench_pairs.py --workload grid-1024 --seed 7 --seconds 45 \
        --pairs 6 --out BENCH_grid1024_rss.json

Each pair runs `perfbench/run.py` once in a temporary `git archive` export of
the base commit (default HEAD, the parent of uncommitted changes) and once in
the working tree, the order swapping from pair to pair so that drift on a
shared host falls on both sides.  The output file holds every run's metrics
and check counts, the per-metric medians and quartiles of each side, the
number of pairs in which the working tree was better, and the machine record
`run.py` writes.  Standard library only; run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def _export(rev: str, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest)


def _run(tree: Path, args) -> dict:
    """One `run.py` in ``tree``: its result line and its full record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = tree / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace0.json"
    record = json.loads(record_path.read_text())
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "iteration_s": record["iteration_s"], "machine": record["machine"]}


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--base", default="HEAD", help="git revision to compare against")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    base_commit = _git("rev-parse", args.base).decode().strip()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        _export(base_commit, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                run = _run(trees[side], args)
                run.update(side=side, pair=pair)
                runs.append(run)
                print(f"pair {pair} {side}: failed {run['failed']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items()),
                      flush=True)

    by_side = {s: [r for r in runs if r["side"] == s] for s in ("base", "change")}
    metrics = {}
    for name in runs[0]["metrics"]:
        base = [r["metrics"][name] for r in by_side["base"]]
        change = [r["metrics"][name] for r in by_side["change"]]
        wins = sum(c < b for b, c in zip(base, change))
        metrics[name] = {"base": _summary(base), "change": _summary(change),
                         "change_over_base": statistics.median(change) / statistics.median(base),
                         "pairs_change_lower": wins}
    out = {
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "pairs": args.pairs,
        "base_commit": base_commit,
        "change_src_sha256": by_side["change"][0]["machine"]["src_sha256"],
        "base_src_sha256": by_side["base"][0]["machine"]["src_sha256"],
        "machine": {k: v for k, v in by_side["change"][0]["machine"].items()
                    if k not in ("git_commit", "src_sha256")},
        "failed_checks": {s: sum(r["failed"] for r in rs) for s, rs in by_side.items()},
        "metrics": metrics,
        "runs": [{k: r[k] for k in ("pair", "side", "correct", "attempted", "failed",
                                    "metrics", "iteration_s")} for r in runs],
    }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print(f"{name}: base {m['base']['median']:.4g} -> change {m['change']['median']:.4g} "
              f"({m['change_over_base'] - 1:+.1%}), change lower in "
              f"{m['pairs_change_lower']} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
