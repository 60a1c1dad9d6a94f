"""The benchmark's output checkers accept the program's output and reject
tampered copies of it; the per-layer self-time arithmetic is exact."""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from worker import run_op


def program_output(workload, seed=5):
    inp = workloads.make_inputs(workload, seed)[0]
    op = workloads.make_op(workload, inp)
    workloads.prepare(workload, inp, op)
    codes, outs, _ = run_op(op)
    assert workloads.check(workload, op.expect, codes, outs) == []
    return op.expect, codes, outs


@pytest.fixture(scope="module")
def roundtrip():
    return program_output("roundtrip-dense")


def flip_sign(dump, x):
    lines = dump.splitlines()
    lines[1 + x] = lines[1 + x][:-1] + ("+" if lines[1 + x].endswith("-") else "-")
    return "\n".join(lines) + "\n"


def test_roundtrip_rejects_flipped_sign_at_a_sampled_label(roundtrip):
    expect, codes, (dump, extracted) = roundtrip
    x = next(iter(expect["labels"]))
    problems = workloads.check("roundtrip-dense", expect, codes, [flip_sign(dump, x), extracted])
    assert any(f"dump line '{x} " in p for p in problems)


def test_roundtrip_rejects_flipped_sign_at_any_label(roundtrip):
    expect, codes, (dump, extracted) = roundtrip
    x = next(x for x in range(1 << expect["n"]) if x not in expect["labels"])
    problems = workloads.check("roundtrip-dense", expect, codes, [flip_sign(dump, x), extracted])
    assert problems and "subset-parity" in problems[0]


def test_roundtrip_rejects_missing_final_newline(roundtrip):
    expect, codes, (dump, extracted) = roundtrip
    problems = workloads.check("roundtrip-dense", expect, codes, [dump[:-1], extracted])
    assert problems == ["dump text differs outside its label lines"]


def test_roundtrip_rejects_dropped_edge(roundtrip):
    expect, codes, (dump, extracted) = roundtrip
    lines = extracted.splitlines()
    tampered = "\n".join(lines[:5] + lines[6:]) + "\n"
    problems = workloads.check("roundtrip-dense", expect, codes, [dump, tampered])
    assert problems and "edges" in problems[0]


def test_roundtrip_accepts_reordered_edges(roundtrip):
    expect, codes, (dump, extracted) = roundtrip
    lines = extracted.splitlines()
    reordered = "\n".join([lines[0]] + lines[:0:-1]) + "\n"
    assert workloads.check("roundtrip-dense", expect, codes, [dump, reordered]) == []


def test_roundtrip_rejects_nonzero_exit(roundtrip):
    expect, _, outs = roundtrip
    assert workloads.check("roundtrip-dense", expect, [0, 1], outs) == ["call 1 exited 1"]


def test_malformed_output_is_a_problem_not_a_crash(roundtrip):
    expect, codes, (dump, _) = roundtrip
    problems = workloads.check("roundtrip-dense", expect, codes, [dump, "n 14\n\ne 1 x\n"])
    assert problems == ["malformed extract output"]
    problems = workloads.check("entangle-tables", {"cuts": [1]}, [0], ["cut 1 lambda x\nE2 0\n"])
    assert problems and problems[0].startswith("malformed output")


def test_verify_rejects_dropped_tuple_and_failed_lines():
    expect, codes, (out,) = program_output("verify-random")
    lines = out.splitlines()
    n = expect["n"]
    dropped = lines.copy()
    dropped[2] = dropped[2].rsplit(" ", 1)[0]
    commutator = lines.copy()
    commutator[2 * n] = commutator[2 * n].rsplit(" ", 1)[0] + " 2.2e-16"
    unique = lines[:-1] + ["uniqueness fail"]
    for tampered in (dropped, commutator, unique):
        text = "\n".join(tampered) + "\n"
        assert workloads.check("verify-random", expect, codes, [text]) != []


def test_entangle_rejects_lambda_off_by_1e6():
    expect, codes, (out,) = program_output("entangle-tables")
    cut = expect["cuts"][500]
    lines = out.splitlines()
    j = expect["cuts"].index(cut)
    lam = float(lines[j].split()[3])
    lines[j] = f"cut {cut} lambda {lam + 1e-6:.12g}"
    problems = workloads.check("entangle-tables", expect, codes, ["\n".join(lines) + "\n"])
    assert problems and f"cut {cut}" in problems[0]


def test_entangle_rejects_e2_not_one_minus_max_lambda():
    expect, codes, (out,) = program_output("entangle-tables")
    lines = out.splitlines()
    e2 = float(lines[-1].split()[1])
    lines[-1] = f"E2 {e2 + 1e-6:.12g}"
    assert workloads.check("entangle-tables", expect, codes, ["\n".join(lines) + "\n"]) != []


def test_orbit_rejects_changed_orbit_count():
    expect, codes, (out,) = program_output("orbit-report")
    tampered = out.replace("orbit-max 128", "orbit-max 127", 1)
    assert tampered != out
    assert workloads.check("orbit-report", expect, codes, [tampered]) != []


def test_dense_orbit_report_counts_uniform_states():
    lines = workloads.dense_orbit_report(3).splitlines()
    assert lines[1:4] == [
        "uniform 1 states 7 orbit-min 8 orbit-max 8",
        "uniform 2 states 7 orbit-min 8 orbit-max 8",
        "uniform 3 states 1 orbit-min 64 orbit-max 64",
    ]
    assert lines[-1] == "total violations 0"


def test_svd_lambda_of_product_and_ghz_like_states():
    plus = workloads.pm1(0, 3)
    assert workloads.svd_lambda(plus, 3, 0b001) == pytest.approx(1.0, abs=1e-12)
    ccz = workloads.pm1(1 << 7, 3)  # one minus sign at |111>
    assert workloads.svd_lambda(ccz, 3, 0b001) == pytest.approx(0.75, abs=1e-12)


def test_self_time_is_span_minus_direct_children():
    t = tracing.Tracer()
    t.names = ["a.outer", "a.inner"]
    # outer [0, 10] holds inner [1, 4] and inner [5, 6]; inner [5, 6] holds nothing
    t.fid, t.parent = [0, 1, 1], [-1, 0, 0]
    t.start, t.end = [0.0, 1.0, 5.0], [10.0, 4.0, 6.0]
    summary = t.op_summary()
    assert summary["a.outer.calls"] == 1 and summary["a.inner.calls"] == 2
    assert summary["a.outer.self_ms"] == pytest.approx(6000.0)
    assert summary["a.inner.self_ms"] == pytest.approx(4000.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
