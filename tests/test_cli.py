from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strongedge
from strongedge import (InstanceFile, TheoremViolationError, build_graph,
                        parse_coloring, parse_instance, run_command,
                        serialize_instance)

C5 = "e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 0 4\n"

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's console-script wrapper does with an entry point "module:attr":
# import the module, look up the attribute, exit with what calling it returns.
ENTRY_POINT_RUNNER = (
    "import importlib, sys\n"
    "module, _, attr = sys.argv[1].partition(':')\n"
    "target = getattr(importlib.import_module(module), attr)\n"
    "sys.argv = ['strongedge', *sys.argv[2:]]\n"
    "sys.exit(target())\n"
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_gen_color_verify_chain(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    assert run_command(["gen", "sparse-mad3", "20", "--seed", "3",
                        "-o", str(inst)]) == 0
    out = tmp_path / "coloring.txt"
    assert run_command(["color", str(inst), "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "pipeline mad3" in err and "certified" in err
    assert run_command(["verify", str(inst), str(out)]) == 0
    assert "valid strong edge coloring" in capsys.readouterr().err


def test_color_writes_parseable_coloring(tmp_path, capsys):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["color", inst]) == 0
    out = capsys.readouterr().out
    g = parse_instance(C5).graph
    coloring = parse_coloring(out, g)
    assert len(coloring) == 5


def test_verify_flags_conflict(tmp_path, capsys):
    inst = write(tmp_path, "c5.txt", C5)
    bad = write(tmp_path, "bad.txt",
                "c 0 1 1\nc 1 2 2\nc 2 3 1\nc 3 4 3\nc 0 4 4\n")
    assert run_command(["verify", inst, bad]) == 1
    assert "violation" in capsys.readouterr().err


def test_verify_flags_list_breach(tmp_path, capsys):
    inst = write(tmp_path, "p2.txt", "e 0 1\ne 1 2\nl 0 1 : 5\n")
    bad = write(tmp_path, "bad.txt", "c 0 1 1\nc 1 2 2\n")
    assert run_command(["verify", inst, bad]) == 1
    assert "violation (list)" in capsys.readouterr().err


def test_verify_output_is_pinned(tmp_path, capsys):
    # the coloring file lists edges out of id order; the uncolored edge and
    # the conflict come first, then the list breaches in file order, and
    # edge 4-5, which has no list, may take any color
    inst = write(tmp_path, "p6.txt",
                 "e 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n"
                 "l 0 1 : 1 2\nl 2 3 : 0 1\nl 3 4 : 7\n")
    bad = write(tmp_path, "bad.txt", "c 3 4 5\nc 0 1 3\nc 2 3 3\nc 4 5 9\n")
    assert run_command(["verify", inst, bad]) == 1
    assert capsys.readouterr().err == (
        "violation (uncolored): edges 1-2\n"
        "violation (conflict): edges 0-1, 2-3 share color 3\n"
        "violation (list): edge 3-4 uses 5, not in its allowed list\n"
        "violation (list): edge 0-1 uses 3, not in its allowed list\n"
        "violation (list): edge 2-3 uses 3, not in its allowed list\n")


def test_girth7_pipeline_rejects_short_cycles(tmp_path, capsys):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["color", inst, "--pipeline", "girth7"]) == 1
    assert "girth 5" in capsys.readouterr().err


def test_too_few_colors_rejected(tmp_path, capsys):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["color", inst, "--colors", "2"]) == 1
    assert "rejected" in capsys.readouterr().err


def test_rejection_exit_code_on_nonplanar_girth7(tmp_path, capsys):
    # the McGee graph: cubic, girth 7, so mad 3 >= 14/5 proves it is not
    # planar once the detector misses
    lcf = [12, 7, -7]
    edges = [(i, (i + 1) % 24) for i in range(24)]
    edges += [(i, (i + lcf[i % 3]) % 24) for i in range(24)
              if i < (i + lcf[i % 3]) % 24]
    text = "".join(f"e {u} {v}\n" for u, v in sorted(set(edges)))
    inst = write(tmp_path, "mcgee.txt", text)
    code = run_command(["color", inst, "--pipeline", "girth7"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"rejected: maximum average degree is 3 >= 14/5 "
                            f"on vertices {list(range(24))}\n")


def test_messages_name_labels_not_ids(tmp_path, capsys):
    # a K4 on labels 10..40 with a pendant: the density rejection names
    # the labels, as "mad" does; so does a girth-7 miss on the McGee graph
    k4 = [(a, b) for a in (10, 20, 30, 40) for b in (10, 20, 30, 40) if a < b]
    text = "".join(f"e {u} {v}\n" for u, v in k4 + [(40, 50)])
    inst = write(tmp_path, "k4.txt", text)
    assert run_command(["color", inst]) == 1
    assert "on vertices [10, 20, 30, 40]" in capsys.readouterr().err
    assert run_command(["mad", inst]) == 0
    assert "(achieved by [10, 20, 30, 40])" in capsys.readouterr().err
    lcf = [12, 7, -7]
    edges = [(i, (i + 1) % 24) for i in range(24)]
    edges += [(i, (i + lcf[i % 3]) % 24) for i in range(24)
              if i < (i + lcf[i % 3]) % 24]
    text = "".join(f"e {100 + 3 * u} {100 + 3 * v}\n" for u, v in edges)
    inst = write(tmp_path, "mcgee.txt", text)
    assert run_command(["color", inst, "--pipeline", "girth7"]) == 1
    labels = [100 + 3 * i for i in range(24)]
    assert f"3 >= 14/5 on vertices {labels}" in capsys.readouterr().err


def test_color_has_no_fallback_option(tmp_path):
    inst = write(tmp_path, "c5.txt", C5)
    with pytest.raises(SystemExit) as info:
        run_command(["color", inst, "--pipeline", "girth7",
                     "--fallback", "3"])
    assert info.value.code == 2


@pytest.mark.parametrize("pipeline", [[], ["--pipeline", "mad3"]])
@pytest.mark.parametrize("cap", ["0", "3", "99"])
def test_color_delta_cap_is_girth7_only(tmp_path, capsys, pipeline, cap):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["color", inst, *pipeline, "--delta-cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: --delta-cap applies only to "
                            "--pipeline girth7\n")


C7 = "".join(f"e {i} {(i + 1) % 7}\n" for i in range(7))


@pytest.mark.parametrize("argv, message", [
    (["--pipeline", "girth7", "--delta-cap", "0"],
     "error: delta_cap must be >= 4, got 0"),
    (["--pipeline", "girth7", "--delta-cap", "3"],
     "error: delta_cap must be >= 4, got 3"),
    (["--colors", "0"], "rejected: every edge needs a nonempty color list"),
    (["--colors", "-5"], "rejected: every edge needs a nonempty color list"),
    (["--pipeline", "girth7", "--colors", "0"],
     "rejected: every edge needs a nonempty color list"),
])
def test_color_zero_option_values_are_checked(tmp_path, capsys, argv,
                                               message):
    # 0 is a value like any other: it reaches the library's own checks
    inst = write(tmp_path, "c7.txt", C7)
    assert run_command(["color", inst, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def _labelled_path(sizes):
    """Edges 10-20, 20-30 and 30-40, with a color list of each given size
    (``None`` for no list) on each."""
    text = "e 10 20\ne 20 30\ne 30 40\n"
    for (u, v), size in zip(((10, 20), (20, 30), (30, 40)), sizes):
        if size is not None:
            text += f"l {u} {v} : {' '.join(map(str, range(size)))}\n"
    return text


MISSING = "edges without a color list: [(20, 30), (30, 40)]"


@pytest.mark.parametrize("pipeline, sizes, message", [
    ("mad3", (12, None, None), MISSING),
    ("girth7", (12, None, None), MISSING),
    ("mad3", (5, 7, 7), "lists must have at least 3*max_degree+1 = 7 "
                        "colors; too short on edges [(10, 20)]"),
    ("girth7", (5, 7, 7), "lists must have at least 3*delta_cap = 12 "
                          "colors; too short on edges [(10, 20), (20, 30), "
                          "(30, 40)]"),
])
def test_color_list_rejections_name_labels(tmp_path, capsys, pipeline,
                                           sizes, message):
    inst = write(tmp_path, "labels.txt", _labelled_path(sizes))
    assert run_command(["color", inst, "--pipeline", pipeline]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rejected: {message}\n"


def test_color_exit_3_on_a_violated_guarantee(tmp_path, capsys,
                                              monkeypatch):
    def broken(g, lists, delta_cap):
        raise TheoremViolationError("no reducible configuration found")

    monkeypatch.setattr(strongedge.cli, "solve_girth7", broken)
    inst = write(tmp_path, "c7.txt", C7)
    assert run_command(["color", inst, "--pipeline", "girth7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal guarantee violated: no reducible "
                            "configuration found\n")


def test_color_exit_3_from_the_mad3_solve(tmp_path, capsys, monkeypatch):
    # the CLI looks each solve up when it runs, so a swapped one is called
    def broken(g, lists):
        raise TheoremViolationError("no reducible configuration found")

    monkeypatch.setattr(strongedge.cli, "solve_mad3", broken)
    inst = write(tmp_path, "c7.txt", C7)
    assert run_command(["color", inst, "--pipeline", "mad3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal guarantee violated: no reducible "
                            "configuration found\n")


def test_color_exit_3_on_a_miss_below_the_density_threshold(
        tmp_path, capsys, monkeypatch):
    # with the G table cut to G1, C_7 misses at density 2 < 14/5
    monkeypatch.setattr(strongedge.colorer, "GIRTH7_MATCHERS",
                        strongedge.colorer.GIRTH7_MATCHERS[:1])
    inst = write(tmp_path, "c7.txt", C7)
    assert run_command(["color", inst, "--pipeline", "girth7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal guarantee violated: no "
                                   "reducible configuration found")


def test_exact_on_cycle(tmp_path, capsys):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["exact", inst]) == 0
    assert "strong chromatic index = 5" in capsys.readouterr().err


def test_exact_refuses_oversized(tmp_path, capsys):
    inst = write(tmp_path, "big.txt", C5)
    assert run_command(["exact", inst, "--edge-cap", "3"]) == 1
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, low", [
    ("--max-nodes", "-1", 1), ("--max-nodes", "0", 1),
    ("--edge-cap", "-3", 0)])
def test_exact_refuses_nonsense_budgets_as_usage_errors(tmp_path, capsys,
                                                        option, value, low):
    # a budget no search can use is a bad argument (exit 2), not a search
    # that gave up or a graph above the cap (exit 1)
    inst = write(tmp_path, "c5.txt", C5)
    with pytest.raises(SystemExit) as info:
        run_command(["exact", inst, option, value])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: strongedge exact")
    assert captured.err.endswith(
        f"error: argument {option}: must be at least {low}, got {value}\n")


def test_exact_gives_up_past_its_node_budget(tmp_path, capsys):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["exact", inst, "--max-nodes", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gave up: ")


def test_mad_and_threshold(tmp_path, capsys):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["mad", inst]) == 0
    assert "maximum average degree = 2" in capsys.readouterr().err
    assert run_command(["mad", inst, "--threshold", "5/2"]) == 0
    assert "does not exceed 5/2" in capsys.readouterr().err
    assert run_command(["mad", inst, "--threshold", "1"]) == 0
    assert "> 1 on vertices" in capsys.readouterr().err
    assert run_command(["mad", inst, "--threshold", "2.5"]) == 0
    assert "does not exceed 5/2" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["1/0", "x", "-1", ""])
def test_mad_rejects_bad_threshold(tmp_path, capsys, threshold):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["mad", inst, "--threshold", threshold]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("zero denominator" in err) == (threshold == "1/0")


def test_mad_on_a_long_path(tmp_path, capsys):
    path = str(tmp_path / "path.txt")
    assert run_command(["gen", "tree", "700", "--delta", "2",
                        "-o", path]) == 0
    assert run_command(["mad", path]) == 0
    assert "maximum average degree = 699/350" in capsys.readouterr().err


def test_girth_output(tmp_path, capsys):
    assert run_command(["girth", write(tmp_path, "c5.txt", C5)]) == 0
    assert "girth = 5" in capsys.readouterr().err
    tree = write(tmp_path, "t.txt", "e 0 1\ne 1 2\n")
    assert run_command(["girth", tree]) == 0
    assert "girth = infinite" in capsys.readouterr().err


def test_girth_of_a_large_tree_is_fast(tmp_path, capsys):
    # a search from every vertex took minutes on this input; CPU time, so
    # a busy host does not count against the bound
    inst = str(tmp_path / "tree.txt")
    assert run_command(["gen", "tree", "20000", "-o", inst]) == 0
    start = time.process_time()
    assert run_command(["girth", inst]) == 0
    assert time.process_time() - start < 2.0
    assert "girth = infinite" in capsys.readouterr().err


def test_girth_of_a_long_cycle_is_fast(tmp_path, capsys):
    # a search from every vertex would take about 40 minutes on this input
    inst = str(tmp_path / "cycle.txt")
    assert run_command(["gen", "cycle", "100000", "-o", inst]) == 0
    start = time.process_time()
    assert run_command(["girth", inst]) == 0
    assert time.process_time() - start < 5.0
    assert "girth = 100000" in capsys.readouterr().err


def test_audit_mad_output(tmp_path, capsys):
    inst = tmp_path / "sp.txt"
    assert run_command(["gen", "sparse-mad3", "16", "--seed", "1",
                        "-o", str(inst)]) == 0
    assert run_command(["audit", str(inst)]) == 0
    err = capsys.readouterr().err
    assert "scheme mad" in err and "identity total" in err
    assert "detector" in err


def test_audit_girth7_needs_rotations(tmp_path, capsys):
    inst = write(tmp_path, "c7.txt",
                 "".join(f"e {i} {(i + 1) % 7}\n" for i in range(7)))
    assert run_command(["audit", inst, "--scheme", "girth7"]) == 1
    assert "needs rotation records" in capsys.readouterr().err


def test_audit_girth7_on_generated(tmp_path, capsys):
    inst = tmp_path / "pl.txt"
    assert run_command(["gen", "planar-girth7", "18", "--seed", "2",
                        "-o", str(inst)]) == 0
    assert run_command(["audit", str(inst), "--scheme", "girth7"]) == 0
    err = capsys.readouterr().err
    assert "identity total: -14" in err


@pytest.mark.parametrize("scheme", [[], ["--scheme", "mad"]])
@pytest.mark.parametrize("cap", ["3", "99"])
def test_audit_delta_cap_is_girth7_only(tmp_path, capsys, scheme, cap):
    inst = write(tmp_path, "c5.txt", C5)
    assert run_command(["audit", inst, *scheme, "--delta-cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: --delta-cap applies only to "
                            "--scheme girth7\n")


def test_audit_is_linear_in_negative_elements(tmp_path, capsys):
    # the caterpillar of test_discharge.py: all 6666 spine vertices end
    # negative, so a per-negative cost linear in their number is seconds
    s = 6666
    tree = build_graph([(i, i + 1) for i in range(s - 1)]
                       + [(i, s + 2 * i + j) for i in range(s)
                          for j in range(2)])
    inst = write(tmp_path, "cat.txt", serialize_instance(
        InstanceFile(tree, rotation=tuple(tree.adj))))
    start = time.process_time()
    assert run_command(["audit", inst, "--scheme", "girth7"]) == 0
    assert time.process_time() - start < 3
    err = capsys.readouterr().err
    assert err.count("negative final charge") == s


def test_gen_is_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for target in (a, b):
        assert run_command(["gen", "tree", "23", "--seed", "9",
                            "-o", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_file_and_bad_syntax(tmp_path, capsys):
    assert run_command(["color", str(tmp_path / "nope.txt")]) == 1
    assert "io error" in capsys.readouterr().err
    bad = write(tmp_path, "bad.txt", "e 0 0\n")
    assert run_command(["color", bad]) == 1
    assert "bad input: line 1" in capsys.readouterr().err


def test_gen_argument_error(capsys):
    assert run_command(["gen", "cycle", "2"]) == 1
    assert "error:" in capsys.readouterr().err


def test_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(C5))
    assert run_command(["girth", "-"]) == 0
    assert "girth = 5" in capsys.readouterr().err


def test_back_to_back_commands_do_not_share_options(tmp_path, capsys):
    # one process, one parser: the options of one call must not become
    # the defaults of a later call, of the same subcommand or another
    from strongedge.cli import _parser
    assert _parser() is _parser()
    inst = write(tmp_path, "pl.txt", "")
    assert run_command(["gen", "planar-girth7", "30", "--seed", "4",
                        "-o", inst]) == 0
    c5 = write(tmp_path, "c5.txt", C5)
    coloring = tmp_path / "col.txt"
    assert run_command(["color", inst, "-o", str(coloring)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.txt")
    pairs = [
        (["gen", "planar-girth7", "30"],
         ["gen", "planar-girth7", "30", "--delta", "6", "--seed", "3",
          "-o", out]),
        (["color", inst],
         ["color", inst, "--pipeline", "girth7", "--delta-cap", "5",
          "--colors", "20", "-o", out]),
        (["verify", inst, str(coloring)], ["verify", c5, out]),
        (["exact", c5], ["exact", c5, "--max-nodes", "10", "--edge-cap",
                         "3", "--force", "-o", out]),
        (["mad", inst], ["mad", inst, "--threshold", "5/2"]),
        (["girth", inst], ["girth", c5]),
        (["audit", inst], ["audit", inst, "--scheme", "girth7",
                           "--delta-cap", "6"]),
    ]

    def run_all(which):
        got = []
        for argv in (pair[which] for pair in pairs):
            code = run_command(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    plain = run_all(0)
    assert [code for code, _, _ in plain] == [0] * len(pairs)
    flagged = run_all(1)
    assert plain != flagged
    assert run_all(0) == plain
    assert run_all(1) == flagged


INTS = st.integers(-1, 9)
COLORS = st.integers(-3, 20)
JUNK = st.sampled_from(["x", ":", "1.5", "--", "c", "v", "e", "l", "r"])


def _record(*parts):
    return " ".join(map(str, parts))


GARBAGE_LINES = st.one_of(
    st.builds(_record, st.just("v"), INTS),
    st.builds(_record, st.just("e"), INTS, INTS),
    st.builds(lambda u, nbrs: _record("r", u, ":", *nbrs),
              INTS, st.lists(INTS, max_size=4)),
    st.builds(lambda u, v, colors: _record("l", u, v, ":", *colors),
              INTS, INTS, st.lists(COLORS, max_size=14)),
    st.builds(_record, st.just("p"), st.sampled_from(["delta", "name"]),
              st.one_of(INTS, JUNK)),
    st.builds(_record, st.just("c"), INTS, INTS, COLORS),
    st.lists(st.one_of(JUNK, INTS.map(str)), min_size=1,
             max_size=4).map(" ".join),
)


@st.composite
def instance_and_coloring(draw):
    """Instance and coloring text: mostly well-formed records on a random
    graph (some lists, rotations and colors), shuffled together with a
    few records drawn from the whole alphabet, which may break the file."""
    pairs = draw(st.lists(st.tuples(INTS, INTS).filter(lambda p: p[0] != p[1]),
                          max_size=12, unique_by=frozenset))
    nbrs: dict[int, list[int]] = {}
    for u, v in pairs:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    lines = [_record("e", u, v) for u, v in pairs]
    lines += [_record("l", u, v, ":", *draw(st.lists(COLORS, max_size=14)))
              for u, v in pairs if draw(st.booleans())]
    lines += [_record("r", u, ":", *draw(st.permutations(around)))
              for u, around in nbrs.items() if draw(st.booleans())]
    lines += draw(st.lists(GARBAGE_LINES, max_size=2))
    colored = [_record("c", u, v, draw(COLORS))
               for u, v in pairs if draw(st.integers(0, 4))]
    colored += draw(st.lists(GARBAGE_LINES, max_size=1))
    return ("\n".join(draw(st.permutations(lines))) + "\n",
            "\n".join(draw(st.permutations(colored))) + "\n")


@settings(max_examples=200, deadline=None)
@given(instance_and_coloring())
def test_random_files_map_to_exit_codes(files):
    # random and broken files through every reading command: an exit code
    # from 0..3 (never 2 from color, as no argument is bad) and never a
    # traceback; a certified coloring verifies
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "inst.txt")
        col = os.path.join(tmp, "col.txt")
        Path(inst).write_text(files[0])
        Path(col).write_text(files[1])
        forms = [["color", inst], ["color", inst, "--pipeline", "girth7"],
                 ["verify", inst, col], ["exact", inst], ["girth", inst],
                 ["mad", inst], ["mad", inst, "--threshold", "5/2"],
                 ["audit", inst], ["audit", inst, "--scheme", "girth7"]]
        for argv in forms:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run_command(argv)
            assert code in ((0, 1, 3) if argv[0] == "color"
                            else (0, 1, 2, 3)), argv
            if argv[0] == "color" and code == 0:
                colored = os.path.join(tmp, "colored.txt")
                Path(colored).write_text(out.getvalue())
                with contextlib.redirect_stderr(io.StringIO()):
                    assert run_command(["verify", inst, colored]) == 0


def check_command(command, tmp_path):
    """Run the CLI as its own process, outside the source tree."""
    env = dict(os.environ)
    package_root = str(Path(strongedge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))

    def run(*args):
        return subprocess.run([*command, *args], capture_output=True,
                              text=True, cwd=tmp_path, env=env, timeout=60)

    proc = run("gen", "cycle", "7")
    assert proc.returncode == 0, proc.stderr
    assert "e 0 1" in proc.stdout
    proc = run()
    assert proc.returncode == 2  # argparse usage error
    assert "usage: strongedge" in proc.stderr
    proc = run("gen", "sparse-mad3", "0")
    assert proc.returncode == 1, proc.stderr
    assert "at least one vertex" in proc.stderr


def test_installed_entry_point(tmp_path):
    check_command([sys.executable, "-m", "strongedge"], tmp_path)


def test_console_script_target(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    check_command([sys.executable, "-c", ENTRY_POINT_RUNNER,
                   scripts["strongedge"]], tmp_path)


@pytest.mark.skipif(shutil.which("strongedge") is None,
                    reason="the strongedge script is not installed")
def test_installed_script_on_path(tmp_path):
    check_command(["strongedge"], tmp_path)


AUDIT_FORMS = ([], ["--scheme", "mad"], ["--scheme", "girth7"],
               *(["--scheme", "girth7", "--delta-cap", c]
                 for c in ("3", "4", "5", "7")),
               ["--delta-cap", "4"], ["--scheme", "mad", "--delta-cap", "7"])


def _audit_pin_instances():
    """Seeded instances for the audit pin; trees and blow-ups also get a
    rotation (the adjacency order), which is planar on a tree and not on
    a blow-up, so both the ledger and the embedding error are covered."""
    from strongedge import GenSpec, generate
    for n in (12, 30):
        for seed in (1, 2, 3, 4):
            yield generate(GenSpec("sparse-mad3", n, seed=seed))
    for delta in (4, 5, 6):
        for n in (20, 40):
            for seed in (1, 2, 3):
                yield generate(GenSpec("planar-girth7", n, delta=delta,
                                       seed=seed))
    for n in (5, 7, 9):
        yield generate(GenSpec("cycle", n))
    for family, n in (("tree", 15), ("tree", 40), ("c5-blowup", 10)):
        for seed in (1, 2):
            inst = generate(GenSpec(family, n, seed=seed))
            yield inst
            yield InstanceFile(inst.graph, rotation=tuple(inst.graph.adj))


def test_audit_output_is_pinned(tmp_path, capsys):
    # sha256 over the exit code, stdout and stderr of every audit form on
    # every instance; any change to what audit prints or returns shows here
    import hashlib
    digest = hashlib.sha256()
    for i, inst in enumerate(_audit_pin_instances()):
        path = write(tmp_path, f"a{i}.txt", serialize_instance(inst))
        for form in AUDIT_FORMS:
            code = run_command(["audit", path, *form])
            captured = capsys.readouterr()
            digest.update(f"{i} {form} -> {code}\n{captured.out}\0"
                          f"{captured.err}\0".encode())
    assert digest.hexdigest() == (
        "bc0cee4f1e7ea3c2c4dd847f5d1f3722ebe224feb5f8bd4285de28588ba02763")
