"""Exit codes of every CLI subcommand: 0 ok, 1 counterexample, 2 usage or stage error."""

import filecmp
import json
import os

import pytest

from sllresub import cli, flow
from sllresub.equiv import EquivVerdict

from conftest import BAD_CARE, NO_LOGIC_BLIF

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


@pytest.fixture(autouse=True)
def no_env_overrides(monkeypatch):
    for var in [v for v in os.environ if v.startswith("SLLRESUB_")]:
        monkeypatch.delenv(var)


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


def test_split_exit_codes(tmp_path, bad_dies):
    assert run("split", "--in", DEMO, "--partition", DIES, "--outdir", tmp_path / "d") == 0
    assert sorted(os.listdir(tmp_path / "d")) == ["die0.blif", "die1.blif"]
    assert run("split", "--in", DEMO, "--partition", bad_dies, "--outdir", tmp_path / "e") == 2


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


def test_env_override_sets_the_flag_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SLLRESUB_VERBOSE", "yes")
    monkeypatch.setenv("SLLRESUB_DIES", "3")
    assert run("partition", DEMO, "-o", tmp_path / "p.txt", "--partition-mode", "hash") == 0
    assert (tmp_path / "p.txt").read_text().startswith("# dies 3\n")
    assert "cut=" in capsys.readouterr().err
    # the command line still wins over the environment
    assert run("partition", DEMO, "-o", tmp_path / "q.txt", "--dies", "2") == 0
    assert (tmp_path / "q.txt").read_text().startswith("# dies 2\n")


@pytest.mark.parametrize("var, value", [
    ("SLLRESUB_SEED", "abc"),
    ("SLLRESUB_UB", "high"),
    ("SLLRESUB_FREEZE_DIE", "x"),
    ("SLLRESUB_PARTITION_MODE", "bogus"),
    ("SLLRESUB_VERBOSE", "flase"),
])
def test_bad_env_value_is_a_usage_error(tmp_path, monkeypatch, capsys, var, value):
    monkeypatch.setenv(var, value)
    assert run("partition", DEMO, "-o", tmp_path / "p.txt") == 2
    assert "%s=%s" % (var, value) in capsys.readouterr().err
    assert not (tmp_path / "p.txt").exists()


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
