"""Self-tests of the benchmark: generator, checker, determinism and output shape.

The end-to-end tests run the benchmark's own code on small tiles of
the same generator, so they stay fast; the gated workloads are only run
by `perfbench/run.py`.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
for _path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import checker  # noqa: E402  (needs the path above)
import run  # noqa: E402
from workloads import WORKLOADS, Workload, tiled  # noqa: E402

# Small tiles of the chain and wide generators, one per partition mode.
SMALL = [
    Workload("tiny_chain", "hash_label", 4, False, copies=2, links=14, seeded=True),
    Workload("tiny_wide", "fm_mincut", 4, False, copies=4, links=1),
]


def _lut_count(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith(".names"))


def _python(code: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), BENCH_DIR]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=True)
    return proc.stdout


def test_generator_sizes():
    (stem, text), = WORKLOADS["chain"].inputs(5)
    assert _lut_count(text) == 904
    assert len(text.split(".inputs", 1)[1].split("\n", 1)[0].split()) == 14
    assert _lut_count(tiled("i2c", 64, 6, 1, 0)) == 64 * 113
    assert len(WORKLOADS["suite"].inputs(0)) == 44


def test_seed_picks_chain_wiring_only():
    a, = WORKLOADS["chain"].inputs(1)
    b, = WORKLOADS["chain"].inputs(2)
    assert a != b and a == WORKLOADS["chain"].inputs(1)[0]
    assert WORKLOADS["wide"].inputs(1) == WORKLOADS["wide"].inputs(2)


def test_generated_blif_identical_under_any_hash_seed():
    code = ("import hashlib, workloads\n"
            "for name in ('chain', 'wide', 'suite'):\n"
            "    for stem, text in workloads.WORKLOADS[name].inputs(3):\n"
            "        print(stem, hashlib.md5(text.encode()).hexdigest())\n")
    assert _python(code, "0") == _python(code, "1")


def test_qor_identical_under_any_hash_seed(tmp_path):
    code = ("import json, run\n"
            "from sllresub.flow import run_flow\n"
            "from workloads import Workload\n"
            "for fields in %r:\n"
            "    w = Workload(**fields)\n"
            "    files = run.write_inputs(w, 7, %r)\n"
            "    rep = run.run_pass(w, files, 7, %r, run_flow)\n"
            "    print(w.name, rep.failed, json.dumps(rep.qor, sort_keys=True),\n"
            "          json.dumps(sorted(rep.audit.items())))\n"
            % ([dataclasses.asdict(w) for w in SMALL], str(tmp_path), str(tmp_path / "out")))
    first = _python(code, "0")
    assert first == _python(code, "1")
    assert all(line.split()[1] == "0" for line in first.splitlines())


def _flip_first_po_row(text: str) -> str:
    """Flip the first literal of the first cover row of the first PO's LUT."""
    lines = text.splitlines()
    pos = set(next(l for l in lines if l.startswith(".outputs")).split()[1:])
    for i, line in enumerate(lines):
        if line.startswith(".names") and line.split()[-1] in pos and len(line.split()) > 2:
            cube, bit = lines[i + 1].split()
            j = next(j for j, c in enumerate(cube) if c in "01")
            lines[i + 1] = "%s%s%s %s" % (cube[:j], "10"[int(cube[j])], cube[j + 1:], bit)
            return "\n".join(lines) + "\n"
    raise AssertionError("no PO LUT with inputs")


def test_checker_accepts_flow_output_and_rejects_a_flipped_row(tmp_path):
    from sllresub.flow import run_flow

    suite = WORKLOADS["suite"]
    text = dict(suite.inputs(0))["cavlc_k4"]
    path = tmp_path / "cavlc_k4.blif"
    path.write_text(text)
    result = run_flow(suite.flow_config(str(path), str(tmp_path / "out")))
    assert result.exit_code == 0 and result.resyn.report.commits > 0
    post = open(result.artifacts["post_blif"]).read()
    assert checker.check(text, post, 6, "0:cavlc_k4") is None
    reason = checker.check(text, _flip_first_po_row(post), 6, "0:cavlc_k4")
    assert reason is not None and "differs" in reason


def test_checker_rejects_growth_and_wide_luts():
    before = ".model m\n.inputs a b c\n.outputs y\n.names a b c y\n111 1\n.end\n"
    grown = (".model m\n.inputs a b c\n.outputs y\n.names a b t\n11 1\n"
             ".names t c y\n11 1\n.end\n")
    assert checker.check(before, before, 3, 1) is None
    assert "LUT count grew" in checker.check(before, grown, 3, 1)
    assert "more than 2 fanins" in checker.check(before, before, 2, 1)
    assert checker.check(before, before.replace(".outputs y", ".outputs z"), 3, 1) \
        == "interface changed"


def test_checker_cuts_latches():
    text = (".model m\n.inputs a\n.outputs y\n.latch d q 0\n"
            ".names a q d\n10 1\n01 1\n.names q y\n1 1\n.end\n")
    wrong = text.replace("10 1\n01 1", "11 1\n00 1")
    assert checker.check(text, text, 6, 1) is None
    assert "'d' differs" in checker.check(text, wrong, 6, 1)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(trace, monkeypatch, capsys):
    import workloads

    monkeypatch.setitem(workloads.WORKLOADS, "tiny_wide", SMALL[1])
    assert run.main(["--workload", "tiny_wide", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == \
        {name: m["unit"] for name, m in out["metrics"].items()}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
