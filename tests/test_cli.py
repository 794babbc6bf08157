import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import grt2
from grt2.cli import main
from grt2.graphs.core import graph_from_text, graph_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_dims_text(capsys):
    code, out = run_cli(capsys, "dims", "--max-weight", "13", "--degree", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["weight", "degree", "dim",
                                "closed_form", "match"]
    nonzero = [ln for ln in lines[1:] if ln.split()[2] != "0"]
    assert [ln.split()[0] for ln in nonzero] == ["7", "9", "11", "13"]
    assert all(ln.endswith("ok") for ln in lines[1:])


def test_dims_degree0_all_zero(capsys):
    code, out = run_cli(capsys, "dims", "--max-weight", "6", "--degree", "0")
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        assert line.split()[2] == "0"


def test_dims_degree2_csv(capsys):
    code, out = run_cli(capsys, "dims", "--max-weight", "12",
                        "--degree", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "weight,degree,dim,closed_form,match"
    dims = {int(ln.split(",")[0]): int(ln.split(",")[2])
            for ln in lines[1:]}
    assert {k: v for k, v in dims.items() if v} == {6: 1, 8: 1, 10: 1, 12: 2}


def test_dims_json(capsys):
    code, out = run_cli(capsys, "dims", "--max-weight", "7",
                        "--degree", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["rows"][-1]["dim"] == 1


def test_relations_all_oracles(capsys):
    code, out = run_cli(capsys, "relations", "--weight", "12",
                        "--oracle", "all")
    assert code == 0
    assert out.count("(1, -3)") == 3
    assert "oracles agree" in out


# sha256 of the stdout of `relations --max-weight 40 --oracle all`,
# recorded before coefficients became ints where integral; the text must
# not change with the coefficient representation
RELATIONS_40_SHA256 = \
    "f238243319103f2bab1f8438387b1776882321852eafeb620cd9c2d26121b1bc"


def test_relations_output_pinned(capsys):
    code, out = run_cli(capsys, "relations", "--max-weight", "40",
                        "--oracle", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_40_SHA256


# sha256 of the stdout of every `graphs --check` suite at the default
# cap and, where the suite takes one, at `--size-cap 9`, recorded while
# graph-sum coefficients were still `Fraction`s; the text must not
# change with the coefficient representation or the connectivity code
GRAPHS_SHA256 = {
    ("d-squared", None):
        "fb7a7ea1dea33cff3d26254af193a14958262c28b01c6aa2dd5835ee618e5278",
    ("encoding", None):
        "2e0223c0574b7030007dea1692e314fae5467b4b4eb2d52664b8ac7bcbfdcd18",
    ("bowtie", None):
        "aed8da31f36fc400750846c1180009b10c1cbd7ec23ed4827240df1aa74256d1",
    ("filtration", None):
        "1f2047aedca838b0135dd2775b2ac2fb566b3ccc55c3fa0999e71049edfa10c4",
    ("theta-identity", None):
        "a4eb73dbaae1922210b5671898c4290373981c748834d6c21c7c20e652a0489e",
    ("d-squared", "9"):
        "5a991beb333926abb57e7ab20b18a5006a8cbe2d6efd8fc5c346b6e50d7a208f",
    ("encoding", "9"):
        "a5a933f7db3018e75dbb7eda6e327cab4df3dc0acaed300526498ca10829f27a",
    ("filtration", "9"):
        "736fccdd09d126ce8a1a156f3eb81c5ce70e3107119690330cf1e8347153736e",
}


def test_graphs_output_pinned(capsys):
    for (check, cap), digest in GRAPHS_SHA256.items():
        argv = ["graphs", "--check", check]
        if cap is not None:
            argv += ["--size-cap", cap]
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_oracle_disagreement_prints_witness(capsys, monkeypatch):
    # a psi oracle that returns a vector outside the true span, which
    # also fails the symmetry criterion
    from grt2 import cli
    from grt2.theta import RelationVector

    monkeypatch.setitem(cli.ORACLES, "psi",
                        lambda k: [RelationVector(k, (1, 0))])
    code, out = run_cli(capsys, "relations", "--weight", "12")
    assert code == 1
    fails = [ln for ln in out.splitlines() if "FAIL" in ln]
    assert fails == [
        "weight 12  FAIL: oracles rank and psi disagree: (1, 0) lies in "
        "the psi span, not in the rank span",
        "weight 12  FAIL: symmetry criterion fails for psi vector (1, 0)",
    ]
    assert "oracles agree" not in out


def test_missing_relation_prints_witness(capsys, monkeypatch):
    from grt2 import cli

    monkeypatch.setitem(cli.ORACLES, "ihara", lambda k: [])
    code, out = run_cli(capsys, "relations", "--max-weight", "12")
    assert code == 1
    fails = [ln for ln in out.splitlines() if "FAIL" in ln]
    assert fails == [
        "weight 12  FAIL: oracles rank and ihara disagree: (1, -3) lies in "
        "the rank span, not in the ihara span",
    ]
    # the weights where the spans agree still pass
    assert out.count("oracles agree") == 2


def test_relations_empty_weight(capsys):
    code, out = run_cli(capsys, "relations", "--weight", "10")
    assert code == 0
    assert "(none)" in out


def test_relations_rejects_odd_weight(capsys):
    code, _ = run_cli(capsys, "relations", "--weight", "11")
    assert code == 2


def test_relations_empty_range_is_usage_error(capsys):
    code = main(["relations", "--max-weight", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--max-weight 6" in captured.err


def test_dims_empty_range_is_usage_error(capsys):
    code = main(["dims", "--degree", "1", "--max-weight", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--max-weight" in captured.err


def test_export_relations_odd_weight_is_usage_error(tmp_path, capsys):
    assert main(["relations", "--weight", "7"]) == 2
    relations_err = capsys.readouterr().err
    out_path = tmp_path / "k7.json"
    code = main(["export", "--what", "relations", "--weight", "7",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == relations_err != ""
    assert not out_path.exists()


def test_graphs_checks(capsys):
    code, out = run_cli(capsys, "graphs", "--check", "theta-identity")
    assert code == 0
    assert out.count("pass") == 3
    code, out = run_cli(capsys, "graphs", "--check", "d-squared",
                        "--size-cap", "7")
    assert code == 0
    assert "FAIL" not in out
    code, _ = run_cli(capsys, "graphs", "--check", "filtration",
                      "--size-cap", "13")
    assert code == 2


@pytest.mark.parametrize("check", ["d-squared", "encoding"])
@pytest.mark.parametrize("cap", ["2", "-5"])
def test_graphs_cap_without_theta_shape_is_usage_error(capsys, check, cap):
    code = main(["graphs", "--check", check, "--size-cap", cap])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--size-cap %s" % cap in captured.err
    # the smallest cap that leaves a shape runs its one case
    code, out = run_cli(capsys, "graphs", "--check", check,
                        "--size-cap", "3")
    assert code == 0
    assert out.count("pass") == 1 and "FAIL" not in out


@pytest.mark.parametrize("check, cap, message", [
    ("filtration", "8", "--size-cap 8 is below 9"),
    ("filtration", "-5", "--size-cap -5 is below 9"),
    ("bowtie", "9", "takes no --size-cap"),
    ("bowtie", "12", "takes no --size-cap"),
    ("theta-identity", "-5", "takes no --size-cap"),
    ("theta-identity", "12", "takes no --size-cap"),
])
def test_graphs_cap_the_check_cannot_honour_is_usage_error(
        capsys, check, cap, message):
    code = main(["graphs", "--check", check, "--size-cap", cap])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_deterministic_output(capsys):
    _, first = run_cli(capsys, "relations", "--weight", "16")
    _, second = run_cli(capsys, "relations", "--weight", "16")
    assert first == second


def test_output_independent_of_hash_seed(tmp_path):
    # Two fresh interpreters with different string-hash seeds print the
    # same bytes.  The child imports the same grt2 as this process,
    # whether it is installed or reached through PYTHONPATH, and never
    # the working tree.
    import_root = str(Path(grt2.__file__).resolve().parents[1])
    for argv in (["dims", "--max-weight", "15", "--degree", "2",
                  "--format", "csv"],
                 ["relations", "--weight", "16"]):
        outputs = []
        for seed in ("0", "1"):
            result = subprocess.run(
                [sys.executable, "-m", "grt2.cli"] + argv,
                capture_output=True, text=True, cwd=tmp_path,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": import_root},
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] != ""


def test_export_relations(tmp_path, capsys):
    out_path = tmp_path / "k12.json"
    code, _ = run_cli(capsys, "export", "--what", "relations",
                      "--weight", "12", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload == {
        "schema": 1,
        "weight": 12,
        "vectors": [[[1, 1], [-3, 1]]],
    }


def test_export_dims_csv(tmp_path, capsys):
    out_path = tmp_path / "dims.csv"
    code, _ = run_cli(capsys, "export", "--what", "dims",
                      "--max-weight", "8", "--format", "csv",
                      "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "weight,degree,dim,closed_form,match"
    assert len(lines) == 1 + 3 * 8


def test_export_graph_round_trip(tmp_path, capsys):
    out_path = tmp_path / "theta.graph"
    code, _ = run_cli(capsys, "export", "--what", "graph",
                      "--graph", "theta:1:2,4,0",
                      "--format", "graphtext", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert graph_to_text(graph_from_text(text)) == text


def test_export_missing_flag(tmp_path, capsys):
    code, _ = run_cli(capsys, "export", "--what", "relations",
                      "--out", str(tmp_path / "x.json"))
    assert code == 2


def test_export_bad_path(capsys):
    code, _ = run_cli(capsys, "export", "--what", "relations",
                      "--weight", "12", "--out",
                      "/nonexistent-dir/deep/k12.json")
    assert code == 1


@pytest.mark.parametrize("spec", ["wheel:4", "wheel:abc", "theta:1:2,3",
                                  "cube"])
def test_export_bad_graph_spec_is_usage_error(tmp_path, capsys, spec):
    out_path = tmp_path / "out.graph"
    code = main(["export", "--what", "graph", "--graph", spec,
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert repr(spec) in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("what, argv, flag", [
    ("relations", ["--weight", "8", "--max-weight", "3", "--degree", "1"],
     "--max-weight"),
    ("dims", ["--max-weight", "8", "--graph", "wheel:3"], "--graph"),
    ("graph", ["--graph", "wheel:3", "--weight", "8"], "--weight"),
], ids=["relations", "dims", "graph"])
def test_export_foreign_flag_is_usage_error(tmp_path, capsys, what, argv,
                                            flag):
    out_path = tmp_path / "out"
    code = main(["export", "--what", what, "--out", str(out_path)] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: export --what %s takes no %s\n" % (
        what, flag)
    assert not out_path.exists()


def assert_export_format_rejected(tmp_path, capsys, *argv):
    out_path = tmp_path / "out"
    code = main(["export", "--out", str(out_path)] + list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--what" in captured.err
    assert not out_path.exists()


def test_export_relations_rejects_csv(tmp_path, capsys):
    assert_export_format_rejected(tmp_path, capsys, "--what", "relations",
                                  "--weight", "12", "--format", "csv")


def test_export_dims_rejects_graphtext(tmp_path, capsys):
    assert_export_format_rejected(tmp_path, capsys, "--what", "dims",
                                  "--max-weight", "8",
                                  "--format", "graphtext")


def test_export_graph_rejects_json(tmp_path, capsys):
    assert_export_format_rejected(tmp_path, capsys, "--what", "graph",
                                  "--graph", "wheel:3", "--format", "json")


def test_export_graph_defaults_to_graphtext(tmp_path, capsys):
    out_path = tmp_path / "wheel.graph"
    code, _ = run_cli(capsys, "export", "--what", "graph",
                      "--graph", "wheel:3", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith("V 4 E 6\n")
