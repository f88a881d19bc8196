"""Self-tests for the benchmark.

Run from the root of a checkout:

    python3 bench/selftest.py

Checks that BENCHMARK.json and the code name the same metrics, that a
tiny run of every workload prints every metric with its unit, that the
tracer restores every wrapped function, that a planted wrong answer is
counted as wrong and as failed, that two traced runs on one seed give the
same counts, and that the benchmark refuses to run without the sources.
Exits non-zero when a check fails.
"""

import json
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import lagidx  # noqa: E402

import loop  # noqa: E402
import metrics  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = (".calls_per_op", ".errors_per_op", "_per_call", "_per_path")


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=200)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]}
        assert declared == table, f"{key} in BENCHMARK.json differs from bench/metrics.py"


def test_tiny_runs_print_every_metric():
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, trace, lines[:-1])
            for spec in SPEC[key]:
                got = result["metrics"][spec["name"]]
                assert got["unit"] == spec["unit"] and isinstance(got["value"], float)
                assert any(line.split()[:1] == [spec["name"]] and f" {spec['unit']}" in line
                           for line in lines[:-1]), f"{spec['name']} not printed with its unit"
            assert len(result["metrics"]) == len(SPEC[key])


def test_tracer_restores_every_function():
    def namespaces():
        return {(name, attr): value for name, mod in sys.modules.items()
                if name == "lagidx" or name.startswith("lagidx.")
                for attr, value in vars(mod).items() if callable(value)}

    for name in ("triples-small", "maslov-paths"):
        workload = WORKLOADS[name]()
        pool = workload.setup(3)[:24]
        before_ns = namespaces()
        _, before = loop.run_pass(workload, pool, loop.Outcomes())
        tracer = tr.Tracer()
        with tracer.installed():
            _, traced = loop.run_pass(workload, pool, loop.Outcomes(), tracer)
        calls = tracer.wrapper_calls
        assert calls > 0 and tracer.spans
        _, after = loop.run_pass(workload, pool, loop.Outcomes())
        assert tracer.wrapper_calls == calls, "a wrapper ran after the tracer was removed"
        assert before == traced == after
        now = namespaces()
        assert all(now[key] is value for key, value in before_ns.items())


def test_planted_wrong_answer_is_wrong_and_failed():
    workload = WORKLOADS["triples-small"]()
    pool = workload.setup(4)[:12]
    original = lagidx.kashiwara
    lagidx.kashiwara = lambda *args, **kwargs: original(*args, **kwargs) + 2
    try:
        res = loop.timed_loop(workload, pool, 0.0)
    finally:
        lagidx.kashiwara = original
    assert res["attempted"] == len(pool)
    assert res["wrong"] == res["failed"] == len(pool)
    assert res["wrong_frac"] == res["failed_frac"] == 1.0
    assert sorted(entry["seed"] for entry in res["listed"]) == sorted(item.seed for item in pool)
    assert all(entry["kind"] == "wrong" for entry in res["listed"])


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        proc = run_bench("triples-small", 1, seed=9)
        assert proc.returncode == 0, proc.stderr
        values = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in values.items() if k.endswith(COUNT_SUFFIXES)})
    assert counts[0] == counts[1]


def test_refuses_to_run_without_sources():
    bare = OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("triples-small", 0, cwd=bare)
        assert proc.returncode != 0
        assert not proc.stdout.strip(), "printed a result without the sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
