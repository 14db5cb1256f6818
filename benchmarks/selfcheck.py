"""Self-check of the benchmark: tiny runs of every workload.

    python3 benchmarks/selfcheck.py

For each workload, an untraced run of a few ops must print every
end-to-end metric of BENCHMARK.json with its unit and fail no op. Two
traced runs must print every per-layer metric with its unit and agree
exactly on every count; each layer's self time must be non-negative, and
their sum must stay within the traced op time. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY_OPS = 6
TIMED_UNITS = ("s", "ms")


def run(workload: str, trace: int, record: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--ops", str(TINY_OPS), "--record", record],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited "
                             f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(record, encoding="utf-8") as fh:
        return result, json.load(fh)


def check_metrics(result: dict, wanted: list, where: str) -> list:
    errors = []
    got = result["metrics"]
    for m in wanted:
        if m["name"] not in got:
            errors.append(f"{where}: {m['name']} missing")
        elif got[m["name"]]["unit"] != m["unit"]:
            errors.append(f"{where}: {m['name']} has unit "
                          f"{got[m['name']]['unit']}, not {m['unit']}")
    if result["failed"] or not result["correct"]:
        errors.append(f"{where}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selfcheck-", dir=work)
    errors = []
    try:
        for wl in (w["name"] for w in bench["workloads"]):
            result, _ = run(wl, 0, os.path.join(tmp, f"{wl}.json"))
            errors += check_metrics(result, bench["end_to_end"], wl)
            traced = [run(wl, 1, os.path.join(tmp, f"{wl}-t{i}.json"))
                      for i in (1, 2)]
            for i, (result, record) in enumerate(traced, start=1):
                where = f"{wl} traced run {i}"
                errors += check_metrics(result, bench["per_layer"], where)
                selfs = {}
                for name, row in record["layers"].items():
                    layer = name.split(".", 1)[0]
                    selfs[layer] = selfs.get(layer, 0.0) + row["self_s"]
                errors += [f"{where}: {layer} self time {s} < 0"
                           for layer, s in selfs.items() if s < -1e-9]
                if sum(selfs.values()) > record["traced_s"] + 1e-9:
                    errors.append(f"{where}: layer self times exceed the "
                                  f"traced op time")
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] not in TIMED_UNITS} for r, _ in traced]
            errors += [f"{wl}: {k} differs between traced runs "
                       f"({counts[0][k]} vs {counts[1].get(k)})"
                       for k in counts[0] if counts[0][k] != counts[1].get(k)]
            print(f"{wl}: checked", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck: " + ("ok" if not errors else f"{len(errors)} failures"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
