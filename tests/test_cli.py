"""Exit codes of every CLI subcommand: 0 ok, 1 counterexample, 2 usage or stage error."""

import filecmp
import json
import os

import pytest

from sllresub import cli, flow
from sllresub.equiv import EquivVerdict

from conftest import BAD_CARE, LATCH_MISMATCH_BLIF, LATCH_PAIR_BLIF, NO_LOGIC_BLIF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO = os.path.join(REPO, "demo", "twodie_xor.blif")
DIES = os.path.join(REPO, "demo", "twodie_xor.dies")
CARE = os.path.join(REPO, "demo", "twodie_xor_care.blif")


def run(*argv) -> int:
    """`sllresub <argv>` in this process; argparse's own usage errors exit 2."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def mutated(tmp_path):
    """The demo circuit with F's function complemented."""
    with open(DEMO, encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "mutated.blif"
    path.write_text(text.replace(".names a d F\n10 1\n01 1\n", ".names a d F\n00 1\n11 1\n"))
    return path


@pytest.fixture
def bad_dies(tmp_path):
    path = tmp_path / "bad.dies"
    path.write_text("# dies 2\nnot_a_node 0\n")
    return path


def test_partition_exit_codes(tmp_path):
    assert run("partition", DEMO, "-o", tmp_path / "p.txt") == 0
    assert (tmp_path / "p.txt").read_text().startswith("# dies 2\n")
    assert run("partition", tmp_path / "missing.blif", "-o", tmp_path / "q.txt") == 2
    assert run("partition", DEMO, "-o", tmp_path / "q.txt", "--dies", "two") == 2


def test_partition_counts_the_cut_only_for_its_verbose_message(tmp_path, monkeypatch,
                                                               capsys):
    calls = []
    count_sll = cli.count_sll

    def counted(*args):
        calls.append(args[2:])
        return count_sll(*args)

    monkeypatch.setattr(cli, "count_sll", counted)
    assert run("partition", DEMO, "-o", tmp_path / "quiet.txt") == 0
    assert calls == [] and capsys.readouterr().err == ""
    assert run("partition", DEMO, "-o", tmp_path / "verbose.txt", "--verbose") == 0
    assert calls == [("raw-net",)]
    assert capsys.readouterr().err.startswith("cut=")
    assert (tmp_path / "quiet.txt").read_text() == (tmp_path / "verbose.txt").read_text()


def test_resynth_exit_codes(tmp_path, bad_dies):
    out = tmp_path / "post.blif"
    assert run("resynth", "--in", DEMO, "--partition", DIES, "--out", out,
               "--inject-care", CARE, "--report", tmp_path / "r.json") == 0
    assert ".names d Y F" in out.read_text()
    # the flow's report.json shape: a `skipped` count and no skipped rows
    assert filecmp.cmp(tmp_path / "r.json", os.path.join(REPO, "demo", "golden", "report.json"),
                       shallow=False)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["skipped"] == 1
    assert [row["outcome"] for row in report["audit"]] == ["committed", "no-candidate"]
    assert run("resynth", "--in", DEMO, "--partition", bad_dies, "--out", out) == 2
    assert run("resynth", "--in", DEMO, "--partition", DIES, "--out", out,
               "--d2", "0") == 2


def test_equiv_exit_codes(tmp_path, mutated, capsys):
    assert run("equiv", DEMO, DEMO) == 0
    assert capsys.readouterr().out.startswith("EQUIVALENT")
    assert run("equiv", DEMO, mutated) == 1
    assert capsys.readouterr().out.startswith("MISMATCH on F")
    assert run("equiv", DEMO, CARE) == 2           # interfaces differ
    assert run("equiv", DEMO, DEMO, "--exhaustive", "--random", 5) == 2
    assert "not allowed with argument --exhaustive" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(LATCH_MISMATCH_BLIF))
def test_equiv_refuses_other_latches(tmp_path, capsys, kind):
    seq, other = tmp_path / "seq.blif", tmp_path / "other.blif"
    seq.write_text(LATCH_PAIR_BLIF)
    other.write_text(LATCH_MISMATCH_BLIF[kind])
    assert run("equiv", seq, other) == 2
    assert "latch sets differ" in capsys.readouterr().err
    assert run("equiv", seq, seq) == 0
    assert capsys.readouterr().out == "EQUIVALENT (exhaustive, 8 vectors)\n"


def test_vector_budget_below_one_is_a_usage_error(tmp_path, capsys):
    for n in (0, -1):
        assert run("equiv", DEMO, DEMO, "--random", n) == 2
        assert "vector budget" in capsys.readouterr().err
    # --random is passed through as given, not replaced by a default
    assert run("equiv", DEMO, DEMO, "--random", 7) == 0
    assert capsys.readouterr().out == "EQUIVALENT (random, 7 vectors)\n"
    args = ("flow", "--in", DEMO, "--partition-mode", "file", "--partition-file", DIES,
            "--vectors", "0")
    assert run(*args, "--outdir", tmp_path / "auto") == 2
    assert run(*args, "--verify", "random", "--outdir", tmp_path / "random") == 2
    assert "vector budget" in capsys.readouterr().err
    # refused before any stage runs: no artifact, not even the directory
    assert not (tmp_path / "auto").exists() and not (tmp_path / "random").exists()


def test_metrics_exit_codes(tmp_path, bad_dies):
    assert run("metrics", "--in", DEMO, "--partition", DIES,
               "--json", tmp_path / "m.json") == 0
    assert run("metrics", "--in", DEMO, "--partition", bad_dies) == 2
    assert run("metrics", "--in", DEMO, "--partition", DIES, "--sll-count", "x") == 2


def test_baseline_partition_without_baseline_is_a_usage_error(tmp_path, capsys):
    args = ("metrics", "--in", DEMO, "--partition", DIES, "--json", tmp_path / "m.json")
    assert run(*args, "--baseline-partition", tmp_path / "missing.dies") == 2
    assert capsys.readouterr().err == "error: --baseline-partition needs --baseline\n"
    assert not (tmp_path / "m.json").exists()
    assert run(*args, "--baseline", DEMO, "--baseline-partition", DIES) == 0


def test_split_exit_codes(tmp_path, bad_dies):
    assert run("split", "--in", DEMO, "--partition", DIES, "--outdir", tmp_path / "d") == 0
    assert sorted(os.listdir(tmp_path / "d")) == ["die0.blif", "die1.blif"]
    assert run("split", "--in", DEMO, "--partition", bad_dies, "--outdir", tmp_path / "e") == 2


def test_split_refusal_leaves_no_outdir(tmp_path, capsys):
    src = tmp_path / "reserved.blif"
    with open(DEMO, encoding="utf-8") as fh:
        src.write_text(fh.read().replace("X", "__sll_X"))
    dies = tmp_path / "reserved.dies"
    with open(DIES, encoding="utf-8") as fh:
        dies.write_text(fh.read().replace("X", "__sll_X"))
    assert run("split", "--in", src, "--partition", dies, "--outdir", tmp_path / "out") == 2
    assert capsys.readouterr().err \
        == "error: input netlist already uses the reserved '__sll_' prefix\n"
    assert not (tmp_path / "out").exists()


def test_flow_exit_codes(tmp_path, monkeypatch):
    args = ("flow", "--in", DEMO, "--partition-mode", "file", "--partition-file", DIES,
            "--inject-care", CARE)
    assert run(*args, "--outdir", tmp_path / "ok") == 0
    assert run("flow", "--in", tmp_path / "missing.blif", "--outdir", tmp_path / "x") == 2

    def refuted(*_args, **_kwargs):
        return EquivVerdict(False, "exhaustive", 16, {"a": 1}, "F")

    monkeypatch.setattr(flow, "check_equivalence", refuted)
    assert run(*args, "--outdir", tmp_path / "bad") == 1


@pytest.mark.parametrize("mode", ["fm", "hash", "file"])
def test_netlist_without_logic_is_a_partition_stage_error(tmp_path, capsys, mode):
    src = tmp_path / "t.blif"
    src.write_text(NO_LOGIC_BLIF)
    dies = tmp_path / "t.dies"
    dies.write_text("# dies 2\na 0\n")
    assert run("flow", "--in", src, "--partition-mode", mode, "--partition-file", dies,
               "--outdir", tmp_path / "out") == 2
    assert "[partition] cannot partition an empty netlist" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_post_assignment_reproduces_metrics_and_split(tmp_path):
    """`partition_post.txt` is the assignment of `post.blif`: with it,
    `metrics` gives `metrics.json`'s after section and `split` gives the
    flow's die files, where the input assignment names swept nodes."""
    src, labels, out = tmp_path / "i2c.blif", tmp_path / "hash.dies", tmp_path / "out"
    assert run("bench", "i2c", "--lut-k", 6, "-o", src) == 0
    assert run("partition", src, "-o", labels, "--dies", 3, "--partition-mode", "hash") == 0
    assert run("flow", "--in", src, "--outdir", out, "--dies", 3, "--partition-mode", "file",
               "--partition-file", labels) == 0
    assert filecmp.cmp(out / "partition.txt", labels, shallow=False)
    post = ("--in", out / "post.blif", "--partition")
    assert run("metrics", *post, out / "partition.txt") == 2
    assert run("metrics", *post, out / "partition_post.txt", "--json", tmp_path / "m.json") == 0
    got = json.loads((tmp_path / "m.json").read_text())["after"]
    assert got == json.loads((out / "metrics.json").read_text())["after"]
    assert run("split", *post, out / "partition_post.txt", "--outdir", tmp_path / "split") == 0
    dies = sorted(os.listdir(tmp_path / "split"))
    assert dies == ["die0.blif", "die1.blif", "die2.blif"]
    for name in dies:
        assert filecmp.cmp(tmp_path / "split" / name, out / name, shallow=False), name


@pytest.mark.parametrize("kind", sorted(BAD_CARE))
def test_bad_care_predicate_is_a_stage_error(tmp_path, capsys, kind):
    care = tmp_path / "care.blif"
    care.write_text(BAD_CARE[kind])
    assert run("flow", "--in", DEMO, "--partition-mode", "file", "--partition-file", DIES,
               "--inject-care", care, "--outdir", tmp_path / "out") == 2
    assert "care predicate" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert run("resynth", "--in", DEMO, "--partition", DIES, "--out", tmp_path / "post.blif",
               "--inject-care", care) == 2
    assert "care predicate" in capsys.readouterr().err
    assert not (tmp_path / "post.blif").exists()


def test_bench_exit_codes(tmp_path):
    assert run("bench", "voter", "-o", tmp_path / "v.blif") == 0
    assert (tmp_path / "v.blif").read_text().startswith(".model")
    assert run("bench", "no_such_circuit") == 2


def wide_and_flow(tmp_path, width: int) -> tuple:
    """`flow` on `width` LUTs over 4 PIs on die 0 and their AND `F` on
    die 1, a LUT with `width` cross-die fanins."""
    pairs = ["a b", "a c", "a d", "b c", "b d", "c d"]
    covers = ["11 1\n", "1- 1\n-1 1\n", "10 1\n01 1\n"]
    gates = ["g%d" % i for i in range(width)]
    blif = ".model wide_and\n.inputs a b c d\n.outputs F\n"
    for i, g in enumerate(gates):
        blif += ".names %s %s\n%s" % (pairs[i % 6], g, covers[i // 6 % 3])
    blif += ".names %s F\n%s 1\n.end\n" % (" ".join(gates), "1" * width)
    (tmp_path / "w.blif").write_text(blif)
    (tmp_path / "w.dies").write_text(
        "# dies 2\n" + "".join("%s 0\n" % n for n in ["a", "b", "c", "d"] + gates) + "F 1\n")
    return ("flow", "--in", tmp_path / "w.blif", "--partition-mode", "file",
            "--partition-file", tmp_path / "w.dies")


@pytest.mark.parametrize("k_max", [17, 18])
def test_k_max_above_the_tabulation_width_is_a_parse_error(tmp_path, capsys, k_max):
    """A LUT as wide as k_max allows is never left for resynthesis to refuse."""
    out = tmp_path / "out"
    assert run(*wide_and_flow(tmp_path, 18), "--outdir", out, "--k-max", k_max) == 2
    assert capsys.readouterr().err == (
        "error: [parse] k_max must be <= 16 (got %d): wider supports are not tabulated\n"
        % k_max)
    assert not out.exists()
    assert run("bench", "i2c", "--lut-k", k_max, "-o", tmp_path / "i2c.blif") == 2
    assert "k_max must be <= 16" in capsys.readouterr().err
    assert not (tmp_path / "i2c.blif").exists()


def test_widest_k_max_runs_the_flow(tmp_path):
    assert run(*wide_and_flow(tmp_path, 16), "--outdir", tmp_path / "out", "--k-max", 16) == 0


def test_environment_does_not_change_the_flow(tmp_path, monkeypatch, capsys):
    """Settings come from the command line only: variables named after
    flags change no artifact and print nothing."""
    src = tmp_path / "i2c.blif"
    assert run("bench", "i2c", "--lut-k", 6, "-o", src) == 0
    assert run("flow", "--in", src, "--outdir", tmp_path / "plain") == 0
    for var, value in [("SLLRESUB_D2", "2"), ("SLLRESUB_SEED", "3"), ("SLLRESUB_DIES", "3"),
                       ("SLLRESUB_VERBOSE", "yes")]:
        monkeypatch.setenv(var, value)
    assert run("flow", "--in", src, "--outdir", tmp_path / "env") == 0
    err = capsys.readouterr().err
    names = sorted(os.listdir(tmp_path / "plain"))
    assert names == sorted(os.listdir(tmp_path / "env"))
    assert "die2.blif" not in names
    _same, mismatch, errors = filecmp.cmpfiles(tmp_path / "plain", tmp_path / "env", names,
                                                shallow=False)
    assert (mismatch, errors) == ([], [])
    assert err == ""


@pytest.mark.parametrize("header", ["# dies \n", "# dies x\n"])
def test_malformed_dies_header_is_a_stage_error(tmp_path, capsys, header):
    bad = tmp_path / "bad.dies"
    bad.write_text(header + "X 0\nY 1\nF 1\n")
    assert run("resynth", "--in", DEMO, "--partition", bad,
               "--out", tmp_path / "o.blif") == 2
    assert run("flow", "--in", DEMO, "--outdir", tmp_path / "o", "--partition-mode", "file",
               "--partition-file", bad) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("line 1: expected '# dies <count>'") == 2
    assert not (tmp_path / "o").exists()


def test_dies_header_disagreeing_with_dies_is_a_stage_error(tmp_path, capsys):
    three = tmp_path / "three.dies"
    with open(DIES, encoding="utf-8") as fh:
        three.write_text(fh.read().replace("# dies 2", "# dies 3"))
    args = ("flow", "--in", DEMO, "--partition-mode", "file", "--partition-file", three)
    assert run(*args, "--outdir", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "[partition] line 1: '# dies 3' disagrees with the 2 dies asked for" in err
    assert not (tmp_path / "o").exists()
    assert run(*args, "--outdir", tmp_path / "o3", "--dies", "3") == 0
    assert sorted(os.listdir(tmp_path / "o3"))[:3] == ["die0.blif", "die1.blif", "die2.blif"]


@pytest.mark.parametrize("die", ["7", "2", "-1"])
def test_freeze_die_out_of_range_is_a_stage_error(tmp_path, capsys, die):
    args = ("flow", "--in", DEMO, "--outdir", tmp_path / "o", "--partition-mode", "file",
            "--partition-file", DIES, "--freeze-die=%s" % die)
    assert run(*args) == 2
    assert "freeze_die" in capsys.readouterr().err
    assert run("resynth", "--in", DEMO, "--partition", DIES, "--out", tmp_path / "p.blif",
               "--freeze-die=%s" % die) == 2
    assert run("flow", "--in", DEMO, "--outdir", tmp_path / "ok", "--partition-mode", "file",
               "--partition-file", DIES, "--freeze-die", "1") == 0


@pytest.mark.parametrize("command", ["flow", "partition"])
@pytest.mark.parametrize("ub", ["inf", "nan"])
def test_non_finite_ub_is_a_stage_error(tmp_path, capsys, command, ub):
    out = tmp_path / "out"
    if command == "flow":
        args = ("flow", "--in", DEMO, "--outdir", out)
    else:
        args = ("partition", DEMO, "-o", out)
    assert run(*args, "--ub", ub) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "imbalance upper bound must be finite and >= 1.0 (got %s)" % ub in err
    assert not out.exists()


@pytest.mark.parametrize("dies", ["0", "-2"])
def test_die_count_below_one_is_a_stage_error(tmp_path, capsys, dies):
    """A headerless file with every entity on die 0 took any --dies."""
    labels = tmp_path / "zero.dies"
    with open(DIES, encoding="utf-8") as fh:
        labels.write_text("".join(line[:-2] + "0\n" for line in fh.readlines()[1:]))
    assert run("flow", "--in", DEMO, "--outdir", tmp_path / "out", "--partition-mode", "file",
               "--partition-file", labels, "--dies", dies) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "die count must be >= 1 (got %s)" % dies in err
    assert not (tmp_path / "out").exists()
    assert run("flow", "--in", DEMO, "--outdir", tmp_path / "one", "--partition-mode", "file",
               "--partition-file", labels, "--dies", "1") == 0
    assert (tmp_path / "one" / "partition.txt").read_text().startswith("# dies 1\n")


@pytest.mark.parametrize("argv, flag", [
    (("resynth", "--in", DEMO, "--partition", DIES, "--out", "post.blif"), ("--seed", "1")),
    (("metrics", "--in", DEMO, "--partition", DIES), ("--seed", "1")),
    (("split", "--in", DEMO, "--partition", DIES, "--outdir", "dies"), ("--seed", "1")),
    (("bench", "voter"), ("--seed", "1")),
    (("equiv", DEMO, DEMO), ("--verbose",)),
    (("metrics", "--in", DEMO, "--partition", DIES), ("--verbose",)),
    (("bench", "voter"), ("--verbose",)),
    (("bench", "voter"), ("--k-max", "4")),
])
def test_flag_a_subcommand_does_not_read_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                          argv, flag):
    monkeypatch.chdir(tmp_path)
    assert run(*argv, *flag) == 2
    assert "unrecognized arguments: %s" % " ".join(flag) in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert run(*argv) == 0


CONFIG_REFUSALS = [
    ("--ub=inf", "partition", "imbalance upper bound must be finite and >= 1.0 (got inf)"),
    ("--ub=nan", "partition", "imbalance upper bound must be finite and >= 1.0 (got nan)"),
    ("--ub=0.5", "partition", "imbalance upper bound must be finite and >= 1.0 (got 0.5)"),
    ("--dies=0", "partition", "die count must be >= 1 (got 0)"),
    ("--d1=-1", "resynth", "d1 must be >= 0"),
    ("--passes=0", "resynth", "passes must be >= 1 (or -1 for run-to-fixpoint)"),
    ("--max-augment=0", "resynth", "max_augment must be >= 1"),
    ("--window-pi-cap=19", "resynth",
     "window_pi_cap must be <= 18 (windows are simulated exhaustively)"),
    ("--freeze-die=-1", "resynth", "freeze_die must be >= 0"),
]


@pytest.mark.parametrize("flag, stage, text", CONFIG_REFUSALS,
                         ids=[flag for flag, _stage, _text in CONFIG_REFUSALS])
def test_flow_config_refusal_names_its_stage(tmp_path, capsys, flag, stage, text):
    out = tmp_path / "out"
    assert run("flow", "--in", DEMO, "--outdir", out, flag) == 2
    assert capsys.readouterr().err == "error: [%s] %s\n" % (stage, text)
    assert not out.exists()


def test_flow_flag_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    seen = []

    def fake_run_flow(config):
        seen.append(config)
        return flow.FlowResult(0, {})

    monkeypatch.setattr(cli, "run_flow", fake_run_flow)
    out = str(tmp_path / "out")
    assert run("flow", "--in", DEMO, "--outdir", out) == 0
    assert seen == [flow.FlowConfig(DEMO, out)]


@pytest.mark.parametrize("flag, value", [
    ("--lsll", "nan"), ("--lsll", "inf"), ("--q-table", "nan.json"),
])
def test_non_finite_placement_value_is_refused(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.chdir(tmp_path)
    with open(DIES, encoding="utf-8") as fh:
        blocks = [line.split() for line in fh.readlines()[1:]]
    (tmp_path / "demo.place").write_text(
        "".join("%s %d 0 %s\n" % (name, x, die) for x, (name, die) in enumerate(blocks)))
    (tmp_path / "nan.json").write_text('{"2": NaN, "3": NaN}')
    (tmp_path / "one.json").write_text('{"2": 1.0, "3": 1.0}')
    args = ("metrics", "--in", DEMO, "--partition", DIES, "--placement", "demo.place")
    assert run(*args, "--q-table", "one.json", "--json", "ok.json") == 0
    with open("ok.json", encoding="utf-8") as fh:
        assert "bbox_md" in json.load(fh)["after"]
    capsys.readouterr()
    assert run(*args, flag, value, "--json", "bad.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert not (tmp_path / "bad.json").exists()
