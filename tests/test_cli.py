import gc
import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import grt2
from grt2 import cli
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


# sha256 of the stdout of `relations --weight 200 --oracle all`, recorded
# while the psi oracle built five rows per monomial and the Ihara oracle
# took its kernel over the alpha, beta, gamma monomials
RELATIONS_200_SHA256 = \
    "93d8b36213591ecf5d596cdb36fd5e0cb12e1304e6c6ebf1d8c52a8dc50e2527"


def test_relations_weight_200_pinned(capsys):
    code, out = run_cli(capsys, "relations", "--weight", "200",
                        "--oracle", "all")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_200_SHA256


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
    # a psi oracle that returns a vector outside the true span; the span
    # rule names it once, and no vector is checked on its own
    from grt2.theta import RelationVector

    monkeypatch.setitem(cli.ORACLES, "psi",
                        lambda k: [RelationVector(k, (1, 0))])
    code, out = run_cli(capsys, "relations", "--weight", "12")
    assert code == 1
    fails = [ln for ln in out.splitlines() if "FAIL" in ln]
    assert fails == [
        "weight 12  FAIL: oracles rank and psi disagree: (1, 0) lies in "
        "the psi span, not in the rank span",
    ]
    assert "oracles agree" not in out


def test_cross_check_never_runs_the_per_vector_criterion(monkeypatch):
    # `relations --oracle all` compares spaces; the per-vector test
    # schneps_check is a library function it does not call, under
    # either name
    from grt2 import liealg

    def refuse(rv):
        raise AssertionError("schneps_check called on %r" % (rv,))

    monkeypatch.setattr(liealg, "schneps_check", refuse)
    monkeypatch.setattr(cli, "schneps_check", refuse, raising=False)
    for k in range(8, 61, 2):
        assert cli.relations_report(k, "all")["failures"] == [], k


def test_missing_relation_prints_witness(capsys, monkeypatch):
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


@pytest.mark.parametrize("argv", [
    ["graphs", "--check", "d-squared", "--size-cap", "7"],
    ["graphs", "--check", "encoding", "--size-cap", "7"],
    ["graphs", "--check", "filtration", "--size-cap", "9"],
    ["graphs", "--check", "bowtie"],
    ["graphs", "--check", "theta-identity"],
    ["dims", "--degree", "1", "--max-weight", "20"],
    ["relations", "--max-weight", "16", "--oracle", "all"],
], ids=lambda argv: " ".join(argv[:3]))
def test_commands_leave_no_cyclic_garbage(capsys, argv):
    # what a command builds is freed by reference counting alone: the
    # labeling search keeps no reference cycle
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert code == 0, capsys.readouterr().err
    assert garbage == 0
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [
    ("graphs", "--check", "filtration", "--size-cap", "9"),
    ("graphs", "--check", "bowtie"),
    ("graphs", "--check", "d-squared", "--size-cap", "5"),
    ("graphs", "--check", "encoding", "--size-cap", "4"),
    ("graphs", "--check", "theta-identity"),
])
def test_zero_wheel_bracket_fails(capsys, monkeypatch, argv):
    # Every graph check fails loudly, with a FAIL line and exit status 1,
    # when one graph operation it runs is broken.  "Every term at
    # filtration level >= 2" holds vacuously for a zero bracket, so a
    # bracket that came out zero must fail, and its zero level-2 part is
    # no nonzero multiple of the bowtie difference; so must a bracket
    # with a nonzero level-1 part, a zero bowtie
    # difference, a differential whose square is not zero, an image term
    # of no theta shape, and a marking that lost its terms.
    from grt2.graphs import ops
    from grt2.graphs.build import wheel
    from grt2.graphs.core import GraphSum

    raw = ops.icg_differential_raw
    above_1 = "[w3,w5] every term at filtration level >= 2"
    multiple = ("level-2 part of [w3,w5] is a nonzero multiple of the "
                "bowtie difference")
    level = ops.level_bracket

    def level_1_nonzero(s1, s2, p):
        return ops.wheel_class(3) if p == 1 else level(s1, s2, p)

    cases = {
        "filtration": [("level_bracket", lambda s1, s2, p: GraphSum(),
                        [above_1]),
                       ("level_bracket", level_1_nonzero, [above_1])],
        "bowtie": [("level_bracket", lambda s1, s2, p: GraphSum(),
                    [above_1, multiple]),
                   ("bowtie_difference", lambda i, j: GraphSum(),
                    [multiple])],
        "d-squared": [("icg_differential", lambda gs: ops.wheel_class(3),
                       ["d0^2 theta grade 0 (1, 1, 0)"])],
        "encoding": [("icg_differential_raw",
                      lambda g: raw(g) + ops.mark_one_external_raw(wheel(3)),
                      ["encode d0 = d0 encode, grade 0 (1, 1, 0)"])],
        "theta-identity": [("two_loop_marking", lambda gs: GraphSum(),
                            ["d0 E(2,4) = D(3,5) + 4 theta(2,4)"])],
    }[argv[2]]
    for name, stand_in, failures in cases:
        with monkeypatch.context() as patch:
            patch.setattr(ops, name, stand_in)
            code, out = run_cli(capsys, *argv)
        assert code == 1, name
        for failure in failures:
            assert "FAIL  %s\n" % failure in out


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


def test_startup_does_not_import_dataclasses(tmp_path):
    # The cli imports the graph modules inside the commands that use
    # them, so importing it alone loads no grt2.graphs module.  The value
    # classes are plain __slots__ classes, so loading the graph commands
    # pulls in neither dataclasses nor inspect (nor what inspect loads),
    # and Fraction is imported only where a rational value is built, so
    # neither fractions nor the decimal and numbers modules it loads.
    # -S keeps site hooks from importing them instead.
    import_root = str(Path(grt2.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); import grt2.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('grt2.graphs'))); "
            "import grt2.graphs.ops; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal', "
            "'numbers'} & set(sys.modules)))"
            % import_root)
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n[]\n"


def test_dims_and_graph_commands_never_load_fractions(tmp_path):
    # The dimension table and the graph identities are integer
    # computations, bowtie's ratio included, so none of these commands
    # loads fractions.  -S keeps site hooks from importing it instead.
    commands = [
        ["dims", "--degree", "1", "--max-weight", "14"],
        ["graphs", "--check", "d-squared", "--size-cap", "5"],
        ["graphs", "--check", "encoding", "--size-cap", "5"],
        ["graphs", "--check", "theta-identity"],
        ["graphs", "--check", "bowtie"],
        ["graphs", "--check", "filtration", "--size-cap", "9"],
    ]
    import_root = str(Path(grt2.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); from grt2.cli import main; "
            "codes = [main(argv) for argv in %r]; "
            "print(codes, 'fractions' in sys.modules)"
            % (import_root, commands))
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"


def test_relations_never_loads_fractions(tmp_path):
    # The elimination engine hands back primitive int bases, so the
    # three relation oracles, the symmetry check and the export build no
    # rational value.  -S keeps site hooks from importing one instead.
    commands = [
        ["relations", "--max-weight", "24", "--oracle", "all"],
        ["export", "--what", "relations", "--weight", "12",
         "--out", str(tmp_path / "k12.json")],
    ]
    import_root = str(Path(grt2.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); from grt2.cli import main; "
            "codes = [main(argv) for argv in %r]; "
            "print(codes, sorted({'fractions', 'decimal', 'numbers'} "
            "& set(sys.modules)))"
            % (import_root, commands))
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0] []"


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


def test_export_missing_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out_path = tmp_path / "out"
    for what, flag in (("relations", "--weight"), ("dims", "--max-weight"),
                       ("graph", "--graph")):
        code = main(["export", "--what", what, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: export %s needs %s\n" % (what, flag)
    # a format the export cannot write is named before a missing option
    code = main(["export", "--what", "relations", "--format", "csv",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == \
        "error: export --what relations writes json, not csv\n"
    # an empty --out names no file; nothing is written
    code = main(["export", "--what", "relations", "--weight", "12",
                 "--out", ""])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --out is empty; it must name a file\n"
    assert list(tmp_path.iterdir()) == []


def test_export_bad_path(capsys):
    code, _ = run_cli(capsys, "export", "--what", "relations",
                      "--weight", "12", "--out",
                      "/nonexistent-dir/deep/k12.json")
    assert code == 1


def test_export_writes_through_a_link(tmp_path, capsys):
    # the file behind the link is replaced; the link stays a link
    target = tmp_path / "k12.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, out = run_cli(capsys, "export", "--what", "relations",
                        "--weight", "12", "--out", str(link))
    assert code == 0
    assert out == "wrote %s\n" % link
    assert link.is_symlink() and link.resolve() == target
    assert json.loads(target.read_text())["weight"] == 12
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "k12.json", "link.json"]


@pytest.mark.parametrize("kind", ["fifo", "directory", "link to a fifo"])
def test_export_refuses_what_is_no_regular_file(tmp_path, capsys, kind):
    out_path = tmp_path / "out"
    if kind == "directory":
        out_path.mkdir()
        is_kind = stat.S_ISDIR
    elif kind == "fifo":
        os.mkfifo(out_path)
        is_kind = stat.S_ISFIFO
    else:
        os.mkfifo(tmp_path / "fifo")
        out_path.symlink_to(tmp_path / "fifo")
        is_kind = stat.S_ISLNK
    before = sorted(tmp_path.rglob("*"))
    code = main(["export", "--what", "relations", "--weight", "12",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        "error: --out %s names no regular file\n" % out_path
    assert is_kind(out_path.lstat().st_mode)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                    reason="no /dev/stdout")
@pytest.mark.parametrize("sink", ["pipe", "file"])
@pytest.mark.parametrize("name, stream", [("stdout", "output"),
                                          ("stderr", "error")])
def test_export_refuses_its_own_standard_stream(tmp_path, name, stream,
                                                sink):
    # Through a pipe, /dev/stdout resolves to no path; through a
    # redirect, it is the file itself, and renaming a new file over it
    # would lose what the shell writes to the redirect afterwards.  The
    # redirected file keeps its text, followed by the error line when
    # it is the command's stderr.
    import_root = str(Path(grt2.__file__).resolve().parents[1])
    redirect = tmp_path / "redirect.txt"
    redirect.write_text("before\n")
    with open(redirect, "a") as fh:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        if sink == "file":
            streams[name] = fh
        result = subprocess.run(
            [sys.executable, "-m", "grt2.cli", "export", "--what", "graph",
             "--graph", "wheel:3", "--out", "/dev/" + name],
            text=True, cwd=tmp_path, env={"PYTHONPATH": import_root},
            **streams)
    assert result.returncode == 2
    before, _, appended = redirect.read_text().partition("\n")
    assert before == "before"
    printed = (result.stdout or "") + (result.stderr or "") + appended
    assert printed == "error: --out /dev/%s is this command's standard %s\n" \
        % (name, stream)
    assert [p.name for p in tmp_path.iterdir()] == ["redirect.txt"]


def test_export_failed_rename_leaves_no_partial_file(
        tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    code = main(["export", "--what", "relations", "--weight", "12",
                 "--out", str(tmp_path / "k12.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "rename refused" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_export_never_follows_a_link_at_the_partial_path(tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text("keep\n")
    partial = tmp_path / "out.json.partial"
    partial.symlink_to(other)
    out_path = tmp_path / "out.json"
    code = main(["export", "--what", "relations", "--weight", "12",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert str(partial) in captured.err
    assert other.read_text() == "keep\n"
    assert partial.is_symlink() and partial.resolve() == other
    assert not os.path.lexists(out_path)


def test_export_leaves_a_stale_partial_file(tmp_path, capsys):
    partial = tmp_path / "out.json.partial"
    partial.write_text("stale\n")
    out_path = tmp_path / "out.json"
    code = main(["export", "--what", "relations", "--weight", "12",
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert str(partial) in captured.err
    assert partial.read_text() == "stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json.partial"]


BAD_GRAPH_SPECS = {
    "wheel:4": "odd number of spokes",
    "wheel:abc": "invalid literal",
    "wheel:1_1": "invalid literal",
    "wheel: 3": "invalid literal",
    "theta:1:2,+3,4": "invalid literal",
    "figure-eight:2,\u0664": "invalid literal",
    "theta:1:2,3": "three hair counts",
    "cube": "it must be wheel:",
    "figure-eight:2": "two loop lengths",
    "figure-eight:1,3": "at least two interior vertices",
}


@pytest.mark.parametrize("spec", list(BAD_GRAPH_SPECS))
def test_export_bad_graph_spec_is_usage_error(tmp_path, capsys, spec):
    out_path = tmp_path / "out.graph"
    code = main(["export", "--what", "graph", "--graph", spec,
                 "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert repr(spec) in captured.err
    assert BAD_GRAPH_SPECS[spec] in captured.err
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


@pytest.mark.parametrize("argv", [
    [],
    ["spectral"],
    ["dims", "--degree", "1", "--bogus", "5"],
    ["dims", "--degree", "1", "--max", "5"],
    ["dims", "--degree", "1", "--max-weight"],
    ["dims", "--max-weight", "--degree", "1"],
    ["dims", "--degree", "1", "--max-weight", "x"],
    ["dims", "--degree", "3"],
    ["graphs", "--check", "nope"],
    ["relations", "--oracle", "x"],
    ["dims", "--max-weight", "5"],
    ["graphs", "--size-cap", "9"],
    ["export", "--out", "out.json", "--weight", "12"],
    ["export", "--what", "relations", "--weight", "12"],
    ["dims", "--degree", "1", "--max-weight", "3", "--max-weight", "4"],
    ["relations", "--weight", "8", "--max-weight", "10"],
], ids=["no-command", "unknown-command", "unknown-option", "abbreviation",
        "missing-value-at-end", "missing-value-before-option", "not-an-int",
        "bad-choice-degree", "bad-choice-check", "bad-choice-oracle",
        "dims-without-degree", "graphs-without-check", "export-without-what",
        "export-without-out", "repeated-option", "weight-and-max-weight"])
def test_usage_error_prints_one_line(tmp_path, capsys, monkeypatch, argv):
    # Every rejected command line returns 2, prints nothing to stdout
    # and one "error: " line to stderr, and writes no file.
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["relations", "--weight", "1_2"], "--weight takes an int, got '1_2'"),
    (["relations", "--weight", " 12"], "--weight takes an int, got ' 12'"),
    (["relations", "--weight", "12 "], "--weight takes an int, got '12 '"),
    (["relations", "--weight", "+12"], "--weight takes an int, got '+12'"),
    (["relations", "--weight", "\u0661\u0662"],
     "--weight takes an int, got '\u0661\u0662'"),
    (["relations", "--weight=-"], "--weight takes an int, got '-'"),
    (["relations", "--weight", "--12"], "--weight needs a value"),
    (["relations", "--weight", "-12"],
     "relation weights are even and >= 8, got -12"),
    (["dims", "--degree", "1", "--max-weight", "-5"],
     "--max-weight must be >= 1, got -5"),
    (["dims", "--degree", "1", "--max-weight=-5"],
     "--max-weight must be >= 1, got -5"),
], ids=["underscore", "leading-space", "trailing-space", "plus-sign",
        "arabic-indic-digits", "bare-minus", "double-minus", "negative-weight",
        "negative-max-weight", "negative-max-weight-joined"])
def test_int_options_take_ascii_digits_only(capsys, argv, message):
    # an int option reads an optional minus and ASCII digits, nothing
    # else that int() would accept; a negative value reaches the range
    # check of its command
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


def test_commands_load_no_argument_parser(tmp_path):
    # The command line is parsed from cli.COMMANDS, so no command loads
    # argparse, nor the gettext and locale modules it translates its
    # messages with, the shutil it asks for the terminal width, or re.
    # -S keeps site hooks from importing them instead.
    commands = [
        ["dims", "--degree", "1", "--max-weight", "14"],
        ["relations", "--max-weight", "12"],
        ["graphs", "--check", "d-squared", "--size-cap", "5"],
        ["export", "--what", "dims", "--max-weight", "4", "--format", "csv",
         "--out", str(tmp_path / "dims.csv")],
    ]
    import_root = str(Path(grt2.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, %r); from grt2.cli import main; "
            "codes = [main(argv) for argv in %r]; "
            "print(codes, sorted({'argparse', 'gettext', 'locale', 'shutil', "
            "'re'} & set(sys.modules)))"
            % (import_root, commands))
    result = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


COMMAND_NAMES = ["dims", "relations", "graphs", "export"]


@pytest.mark.parametrize("argv", [["--help"], ["-h"]]
                         + [[name, "--help"] for name in COMMAND_NAMES])
def test_help_lists_every_option(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    names = COMMAND_NAMES if len(argv) == 1 else argv[:1]
    for name in names:
        assert "grt2 %s: " % name in captured.out
        for option in cli.COMMANDS[name][2]:
            assert "\n  %s " % option in captured.out


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == grt2.__version__ + "\n"
