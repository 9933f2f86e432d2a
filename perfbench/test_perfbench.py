"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import (CATALOG, DEFAULT_PASS, GENERATORS, IDS, REPORT, Op,  # noqa: E402
                       execute, stated_form)

def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def _one_point_per_id():
    first = {}
    for op in DEFAULT_PASS:
        first.setdefault(op.args[0], op)
    return [first[i] for i in IDS]


def _traced(ops):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        results = [execute(op) for op in ops]
    return tracer, results


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_one_seed_gives_one_op_sequence(workload):
    a = list(itertools.islice(GENERATORS[workload](11), 600))
    b = list(itertools.islice(GENERATORS[workload](11), 600))
    assert a == b
    if workload != "audit_default":
        assert a != list(itertools.islice(GENERATORS[workload](12), 600))


def test_audit_wide_never_repeats_a_tuple():
    ops = list(itertools.islice(GENERATORS["audit_wide"](3), 5000))
    assert len({op.key() for op in ops}) == len(ops)
    assert [op.args[0] for op in ops[:14]] == list(IDS) * 2


def test_default_pass_is_the_paper_grid():
    counts = {i: sum(op.args[0] == i for op in DEFAULT_PASS) for i in IDS}
    assert counts == {"T1": 120, "T2": 36, "C1": 24, "C2": 24, "C3": 24, "T3": 24, "T4": 24}
    ops = list(itertools.islice(GENERATORS["audit_default"](0), 277))
    assert ops[-1] is REPORT


def test_self_time_on_a_synthetic_span_tree():
    # 0: root [0, 10] with 0.5 s of leaf calls
    # 1: child [1, 4]; 2: child [3, 6] overlapping it; 3: child [8, 12] past
    # the root's end; 4: grandchild [2, 3] under span 1
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    leaf = [0.5, 0.0, 0.0, 0.0, 0.25]
    got = tracing.self_times(start, end, parent, leaf)
    # root: 10 - |[1,6] u [8,10]| - 0.5 = 2.5
    assert list(got) == pytest.approx([2.5, 2.0, 3.0, 4.0, 0.75])


@pytest.mark.parametrize("form", ["T1", "T1-derived", "C1", "C2", "C3", "T3", "T4"])
def test_reference_transcribes_each_stated_form(form):
    # the reference builds its forms without the library; both must agree,
    # and the library's float prefactor must match the mpmath one
    ident = "T1" if form == "T1-derived" else form
    alpha = CATALOG[ident].fixed_alpha
    args = (form, 0.8, 2.3, 1.7, -2.9, 0.4 if alpha is None else alpha)
    lib = stated_form(*args)
    pref, upper, lower, z = reference._stated(*args)
    assert float(pref) == pytest.approx(lib.prefactor, rel=1e-13)
    assert float(z) == pytest.approx(lib.z, rel=1e-15)
    lib_params = (lib.spec.upper + lib.spec.lower if form != "C2"
                  else lib.upper + lib.lower)
    flat = [float(v) for p in upper + lower for v in (p if isinstance(p, tuple) else (p,))]
    want = [v for p in lib_params for v in (p if isinstance(p, tuple) else (p,))]
    assert flat == pytest.approx(want, rel=1e-15)


def test_check_sample_finds_each_sampled_op(monkeypatch):
    # the sample keeps stream positions and values only; the check must
    # regenerate the same ops and reach the same verdicts as on the results
    from reference import check

    monkeypatch.setattr(run, "CHECK_RATE", 0.5)
    ops = list(itertools.islice(GENERATORS["series_wide"](4), 60))
    tally = run.Tally("series_wide", 4)
    direct = []
    for op in ops:
        result = execute(op)
        before = len(tally.sample_at)
        tally.add(op, result)
        if len(tally.sample_at) > before:
            parts = result if isinstance(result, tuple) else (result,)
            direct.append(check(op, [(p.value, p.converged) for p in parts]))
    checked = [v for v in direct if v is not None]
    assert 10 < len(direct) < 50
    assert tally.check_sample() == (len(checked), checked.count(False))


def test_series_eval_ops_pass_the_reference_check():
    # series_eval stops its series arguments at -6, where the library is
    # accurate; series_wide reaches the ranges where ROADMAP 3a/3b fail
    from reference import check

    for op in itertools.islice(GENERATORS["series_eval"](6), 150):
        result = execute(op)
        parts = result if isinstance(result, tuple) else (result,)
        assert all(p.converged for p in parts), op
        assert check(op, [(p.value, p.converged) for p in parts]) is True, op
    wide = list(itertools.islice(GENERATORS["series_wide"](6), 150))
    assert min(op.args[4] / op.args[3] for op in wide if op.kind == "pfq") < -10


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail_percentile(list(range(2000)))
    assert (value, pct, beyond) == (1979, 99.0, 20)
    value, pct, beyond = run.tail_percentile(list(range(100)))
    assert (value, beyond) == (89, 10)


def test_default_sweep_latency_is_each_points_median_over_passes():
    n = len(DEFAULT_PASS)
    lat = [1.0] * n + [3.0] * n + [2.0] * n
    lat[5] = 0.5                          # one noisy execution of point 5
    assert run.op_latencies("audit_default", lat) == [2.0] * (3 * n)
    assert run.op_latencies("series_eval", lat) is lat


def test_wrappers_leave_audit_records_bit_identical():
    ops = _one_point_per_id()
    plain = [execute(op) for op in ops]
    tracer, traced = _traced(ops)
    assert [repr(r) for r in plain] == [repr(r) for r in traced]
    assert tracer.counts["gammakit.calls"] > 0
    assert set(tracing.summarize(tracer)) >= {m["name"] for m in _declared("per_layer")
                                              if not m["name"].startswith(("audit.verdict",
                                                                           "audit.errors",
                                                                           "audit.raised",
                                                                           "cli.", "trace."))}
    # the wrappers are gone again
    import besselstruve.audit as audit_mod
    assert not hasattr(audit_mod.quad_lhs, "__wrapped__")


@pytest.mark.parametrize("workload,n", [("audit_default", 14), ("series_eval", 60),
                                        ("audit_wide", 7)])
def test_exact_counts_repeat_between_traced_runs(workload, n):
    ops = [op for op in itertools.islice(GENERATORS[workload](5), n) if isinstance(op, Op)]
    first, _ = _traced(ops)
    second, _ = _traced(ops)
    assert first.counts == second.counts
    a, b = tracing.summarize(first), tracing.summarize(second)
    assert {k: a[k] for k in tracing.WORK_COUNTS} == {k: b[k] for k in tracing.WORK_COUNTS}


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "audit_default", "--seed", "1", "--seconds", "0.5", "--trace", "0"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in _declared("end_to_end")}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series_eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
