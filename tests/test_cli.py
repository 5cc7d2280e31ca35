"""Command-line interface: exit codes, file outputs, determinism."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leeyang import cli
from leeyang.cli import build_parser, main
from leeyang.gibbs import DiscretizedDistribution
from leeyang.gmc import load_field_snapshot
from leeyang.zeros import OFFAXIS_FACTOR, Rectangle

ROOT = Path(__file__).resolve().parents[1]

EDGE_GRAPH = json.dumps({
    "vertices": ["x", "y"], "edges": [["x", "y"]],
    "J": {"x|y": 1.0}, "lambda": {"x": 1.0, "y": 1.0},
})

THREE_ATOM_CSV = "x,w\n-2.0,0.1\n0.0,0.8\n2.0,0.1\n"


@pytest.fixture
def edge_graph(tmp_path):
    p = tmp_path / "edge.json"
    p.write_text(EDGE_GRAPH)
    return str(p)


def test_villain_verify_passes(edge_graph, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["villain-verify", "--graph", edge_graph, "--grid-n", "64",
                 "--out", out])
    assert code == 0
    assert "PIZ-in-region" in capsys.readouterr().out
    doc = json.loads((Path(out) / "zero_report.json").read_text())
    assert doc["format_version"] == 1
    assert doc["config"]["subcommand"] == "villain-verify"
    assert doc["results"]["verdict"] == "PIZ-in-region"
    assert doc["results"]["max_grid_displacement"] < 1e-9
    assert doc["results"]["evaluator"] == {"path": "direct", "K": None, "xval_ratio": None}


def test_spin_dist_then_zeros_pipeline(edge_graph, tmp_path):
    out1 = str(tmp_path / "d")
    assert main(["spin-dist", "--graph", edge_graph, "--model", "villain",
                 "--grid-n", "64", "--out", out1]) == 0
    csv_path = Path(out1) / "spin_dist.csv"
    assert csv_path.read_text().startswith("# config:")
    d = DiscretizedDistribution.from_csv(csv_path.read_text())
    assert abs(d.ws.sum() - 1.0) < 1e-12

    out2 = str(tmp_path / "z")
    assert main(["zeros", "--dist", str(csv_path), "--region", "-4", "4", "0", "8",
                 "--out", out2]) == 0
    rep = json.loads((Path(out2) / "zero_report.json").read_text())
    assert rep["results"]["verdict"] == "PIZ-in-region"

    # the written report feeds straight back into classification
    out3 = str(tmp_path / "c")
    assert main(["classify", "--dist", str(csv_path),
                 "--zeros", str(Path(out2) / "zero_report.json"),
                 "--out", out3]) == 0
    verdict = json.loads((Path(out3) / "class_verdict.json").read_text())
    assert verdict["results"]["verdict"] == "consistent-with-class"


def test_spin_dist_strong_coupling_builds_a_law(edge_graph, tmp_path):
    # e^{400 cos} overflows nothing now, and underflowed weights are dropped
    out = str(tmp_path / "d")
    assert main(["spin-dist", "--graph", edge_graph, "--model", "xy", "--beta", "400",
                 "--out", out]) == 0
    d = DiscretizedDistribution.from_csv((Path(out) / "spin_dist.csv").read_text(),
                                         symmetrized=True)
    assert abs(d.ws.sum() - 1.0) < 1e-12


def test_zeros_finds_off_axis(tmp_path):
    dist = tmp_path / "three.csv"
    dist.write_text(THREE_ATOM_CSV)
    out = str(tmp_path / "z")
    assert main(["zeros", "--dist", str(dist), "--region", "-2", "2", "0", "2",
                 "--out", out]) == 0
    rep = json.loads((Path(out) / "zero_report.json").read_text())
    assert rep["results"]["verdict"] == "off-axis-zero-found"


def test_classify_from_tail(tmp_path):
    out = str(tmp_path / "c")
    assert main(["classify", "--tail-a", "1.3889", "--out", out]) == 0
    doc = json.loads((Path(out) / "class_verdict.json").read_text())
    assert doc["results"]["verdict"] == "excluded-by-slow-tail"
    # a typed-in profile is not an estimate from tail probabilities
    assert doc["results"]["tail_method"] == "user_supplied"


@pytest.mark.parametrize("extra", [["--tail-b", "0"], ["--tail-b", "-1"], ["--tail-b", "inf"],
                                   ["--tail-residual", "-0.1"], ["--tail-residual", "nan"],
                                   ["--tail-residual", "inf"]],
                         ids=["zero-b", "negative-b", "infinite-b", "negative-residual",
                              "nan-residual", "infinite-residual"])
def test_classify_refuses_impossible_tail_profile(extra, tmp_path, capsys):
    # b = 0 is no sub-Gaussian bound, b < 0 none at all, and a negative
    # residual would read as a confident fit; an infinite b or residual, or a
    # NaN residual, is no fit either
    out = tmp_path / "c"
    assert main(["classify", "--tail-a", "2.5", *extra, "--out", str(out)]) == 2
    assert not out.exists()
    assert "tail coefficient > 0" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["inf", "nan"])
def test_classify_refuses_non_finite_tail_exponent(a, tmp_path, capsys):
    # a usage error, not a NaN or infinity in the report
    out = tmp_path / "c"
    assert main(["classify", "--tail-a", a, "--out", str(out)]) == 2
    assert not out.exists()
    assert "tail exponent must be finite" in capsys.readouterr().err


def test_classify_without_tail_b_writes_unknown_b(tmp_path):
    out = str(tmp_path / "c")
    assert main(["classify", "--tail-a", "2.5", "--out", out]) == 0
    doc = json.loads((Path(out) / "class_verdict.json").read_text())
    assert doc["results"]["subgaussian_evidence"] == "yes"
    assert doc["results"]["subgaussian_b"] is None
    assert main(["classify", "--tail-a", "2.5", "--tail-b", "0.5", "--out", out]) == 0
    doc = json.loads((Path(out) / "class_verdict.json").read_text())
    assert doc["results"]["subgaussian_b"] == 0.5


def test_classify_needs_evidence(tmp_path, capsys):
    assert main(["classify", "--out", str(tmp_path)]) == 2


def test_chain_limit_csv(tmp_path):
    out = str(tmp_path / "cl")
    assert main(["chain-limit", "--n-list", "16,32", "--grid-n", "128",
                 "--out", out]) == 0
    text = (Path(out) / "chain_limit.csv").read_text()
    assert text.startswith("# config:")
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert rows[0] == "n,b,sup_distance,l1_distance,ratio,limit_ratio"
    assert len(rows) == 3


def test_chain_limit_config_round_trips(tmp_path):
    # the output's own config, fed back through --config, reproduces the rows
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["chain-limit", "--n-list", "16,32", "--grid-n", "128", "--b", "0.7",
                 "--out", str(out1)]) == 0
    doc1 = json.loads((out1 / "chain_limit.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc1["config"]))
    assert main(["chain-limit", "--config", str(cfg), "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "chain_limit.json").read_text())
    assert doc2["config"]["n_list"] == "16,32" and doc2["config"]["b"] == 0.7
    assert doc2["results"]["rows"] == doc1["results"]["rows"]


def test_chain_limit_strong_coupling_is_finite(tmp_path):
    # n b up to 1536 > 709: the unscaled XY row overflowed and printed sup=nan
    out = str(tmp_path / "c")
    assert main(["chain-limit", "--b", "1.5", "--n-list", "512,1024",
                 "--out", out]) == 0
    rows = json.loads((Path(out) / "chain_limit.json").read_text())["results"]["rows"]
    for r in rows:
        assert all(math.isfinite(r[k]) for k in
                   ("sup_distance", "l1_distance", "ratio", "limit_ratio"))
    assert 1.6 <= rows[0]["sup_distance"] / rows[1]["sup_distance"] <= 2.4


@pytest.mark.parametrize("grid", ["1", "2", "3"])
def test_chain_limit_refuses_unresolved_grid(grid, tmp_path, capsys):
    # a grid of 1-3 points holds the grid's own kernel, not the chain's: the
    # distances it would report measure the grid
    out = tmp_path / "c"
    assert main(["chain-limit", "--n-list", "4,16", "--grid-n", grid, "--out", str(out)]) == 1
    assert not out.exists()
    assert f"grid size {grid} does not resolve" in capsys.readouterr().err


def test_dirichlet_ratio_unresolved_grid(tmp_path):
    # the one-edge closed form needs no grid; two edges on two points do
    assert main(["dirichlet-ratio", "--n", "1", "--grid-n", "1", "--out", str(tmp_path)]) == 0
    assert main(["dirichlet-ratio", "--n", "2", "--grid-n", "2", "--out", str(tmp_path)]) == 1


def test_dirichlet_ratio_output(tmp_path):
    out = str(tmp_path / "dr")
    assert main(["dirichlet-ratio", "--n", "16", "--grid-n", "128", "--out", out]) == 0
    doc = json.loads((Path(out) / "dirichlet_ratio.json").read_text())
    assert abs(doc["results"]["ratio"] - doc["results"]["limit_ratio"]) < 0.05


def test_gmc_moments_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["gmc-moments", "--beta-sq", "0.5", "--k-max", "4",
            "--samples", "20000", "--seed", "11"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    a = (Path(out1) / "gmc_moments.json").read_text()
    b = (Path(out2) / "gmc_moments.json").read_text()
    assert a.replace(out1, "") == b.replace(out2, "")
    doc = json.loads(a)
    assert len(doc["results"]["moments"]) == 4
    assert doc["results"]["slowtail_flagged"] is False


def test_gmc_moments_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gmc-moments", "--beta-sq", "1.0"])
    assert exc.value.code == 2


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_dgff_check(tmp_path):
    out = str(tmp_path / "dg")
    assert main(["dgff-check", "--side", "5", "--samples", "20000",
                 "--seed", "3", "--out", out]) == 0
    doc = json.loads((Path(out) / "dgff_check.json").read_text())
    assert doc["results"]["frobenius_relative_error"] < 0.1


def test_m_stat_with_field_dump(tmp_path):
    out = str(tmp_path / "ms")
    assert main(["m-stat", "--n", "3", "--r", "2.0", "--beta", "1.2",
                 "--samples", "2000", "--bins", "60", "--bootstrap", "20",
                 "--seed", "19", "--out", out, "--dump-field", "field.bin"]) == 0
    doc = json.loads((Path(out) / "m_stat.json").read_text())
    assert doc["results"]["exploratory"] is True
    assert abs(doc["results"]["mean"]) < 0.5
    snap = load_field_snapshot(Path(out) / "field.bin")
    assert snap["n"] == 3 and snap["beta"] == 1.2 and snap["seed"] == 19
    # the binned law is symmetrised: Re z of an axis zero is rounding noise,
    # so it has no error bar; the off-axis pair keeps one
    zs = doc["results"]["zeros"]
    on_axis = [z for z in zs if abs(z["re"]) <= OFFAXIS_FACTOR * 1e-10]
    assert on_axis
    for z in zs:
        assert z["bootstrap_se_im"] > 0
        if z in on_axis:
            assert z["bootstrap_se_re"] is None
        else:
            assert z["bootstrap_se_re"] > 0
    # a replicate counts only where it finds the same zero again: some
    # replicate moves 6.0743i past its neighbour, and the runs from the
    # mirror pair fail or succeed together
    (z6,) = [z for z in zs if abs(z["im"] - 6.0743) < 1e-4]
    assert z6["bootstrap_unconverged"] >= 1
    left, right = [z for z in zs if z not in on_axis]
    assert left["bootstrap_unconverged"] == right["bootstrap_unconverged"]
    for key in ("bootstrap_se_re", "bootstrap_se_im"):
        assert left[key] == pytest.approx(right[key], rel=1e-12)


M_STAT_SMALL = ["m-stat", "--n", "3", "--r", "2.0", "--beta", "1.2",
                "--samples", "2000", "--bins", "60", "--seed", "19"]


def test_m_stat_unconverged_bootstrap_is_counted(tmp_path, monkeypatch):
    # every replicate's Newton run reports unconverged: none may enter the
    # error bar, and with fewer than two converged replicates there is no
    # error bar at all
    newton_refine = cli.newton_refine

    def unconverged(*args, **kwargs):
        z, res, ok = newton_refine(*args, **kwargs)
        return z, res, np.zeros(len(ok), dtype=bool)

    monkeypatch.setattr(cli, "newton_refine", unconverged)
    out = str(tmp_path / "ms")
    assert main(M_STAT_SMALL + ["--bootstrap", "4", "--out", out]) == 0
    zeros = json.loads((Path(out) / "m_stat.json").read_text())["results"]["zeros"]
    assert zeros
    for z in zeros:
        assert z["bootstrap_unconverged"] == 4
        assert z["bootstrap_se_re"] is None and z["bootstrap_se_im"] is None


def test_m_stat_two_runs_on_one_zero_both_count_unconverged(tmp_path, monkeypatch):
    # in every replicate the runs from the two lowest zeros end, converged,
    # on the lowest one: the replicate cannot tell which of them it found
    newton_refine = cli.newton_refine

    def collide(f, starts, tol):
        z, res, ok = newton_refine(f, starts, tol)
        z[:2] = starts[0], starts[0] + 1e-9
        ok[:2] = True
        return z, res, ok

    monkeypatch.setattr(cli, "newton_refine", collide)
    out = str(tmp_path / "ms")
    assert main(M_STAT_SMALL + ["--bootstrap", "4", "--out", out]) == 0
    zeros = json.loads((Path(out) / "m_stat.json").read_text())["results"]["zeros"]
    assert [z["bootstrap_unconverged"] for z in zeros[:3]] == [4, 4, 0]
    assert zeros[0]["bootstrap_se_im"] is None and zeros[1]["bootstrap_se_im"] is None


def test_bootstrap_run_counts_only_where_it_finds_its_own_zero():
    starts = np.array([1j, 2j, 3j, 4j, -0.5 + 5j, 0.5 + 5j])
    ends = np.array([1j + 1e-6, 1.9j, 1.5 + 3j, 2.1j, 5j, 5j])
    ok = np.array([True, False, True, True, True, True])
    same = cli._same_zeros(ends, ok, starts, Rectangle(-1, 1, 0, 6))
    # found; unconverged; outside the region; nearer another zero; the mirror
    # pair's runs both on one axis point
    assert same.tolist() == [True, False, False, False, False, False]


def test_config_file_provides_defaults(edge_graph, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 64}))
    out = str(tmp_path / "o")
    assert main(["spin-dist", "--graph", edge_graph, "--config", str(cfg),
                 "--out", out]) == 0
    doc = json.loads((Path(out) / "spin_dist.json").read_text())
    assert doc["config"]["grid_n"] == 64  # file value honoured when flag absent
    # explicit flag wins over the file
    out2 = str(tmp_path / "o2")
    assert main(["spin-dist", "--graph", edge_graph, "--config", str(cfg),
                 "--grid-n", "32", "--out", out2]) == 0
    doc2 = json.loads((Path(out2) / "spin_dist.json").read_text())
    assert doc2["config"]["grid_n"] == 32
    # ... also when spelled --flag=value
    out3 = str(tmp_path / "o3")
    assert main(["spin-dist", "--graph", edge_graph, "--config", str(cfg),
                 "--grid-n=32", "--out", out3]) == 0
    doc3 = json.loads((Path(out3) / "spin_dist.json").read_text())
    assert doc3["config"]["grid_n"] == 32
    # a file value is parsed like the flag's: "64" gives the law of --grid-n 64
    cfg.write_text(json.dumps({"grid_n": "64"}))
    out4, out5 = str(tmp_path / "o4"), str(tmp_path / "o5")
    assert main(["spin-dist", "--graph", edge_graph, "--config", str(cfg),
                 "--out", out4]) == 0
    assert main(["spin-dist", "--graph", edge_graph, "--grid-n", "64", "--out", out5]) == 0
    law4, law5 = ((Path(o) / "spin_dist.csv").read_text().split("\n", 1)[1] for o in (out4, out5))
    assert law4 == law5
    assert json.loads((Path(out4) / "spin_dist.json").read_text())["config"]["grid_n"] == 64


@pytest.mark.parametrize("cfg_doc", [{"grid_n": "sixty"}, {"grid_n": 64.5}, {"model": "ising"},
                                     {"grid_n": [64, 128]}],
                         ids=["not-an-int", "float", "bad-choice", "list-for-one-value"])
def test_config_value_the_flag_rejects_is_usage_error(cfg_doc, edge_graph, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_doc))
    assert main(["spin-dist", "--graph", edge_graph, "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    key = next(iter(cfg_doc))
    assert repr(key) in capsys.readouterr().err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[64]")
    assert main(["classify", "--tail-a", "1.3889", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "not a JSON object" in capsys.readouterr().err


def test_config_lists_fill_multi_value_flags(tmp_path):
    three = tmp_path / "three.csv"
    three.write_text(THREE_ATOM_CSV)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"region": [-2, 2, 0, 2], "tol": "1e-10"}))
    out = tmp_path / "o"
    assert main(["zeros", "--dist", str(three), "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "zero_report.json").read_text())
    assert doc["config"]["region"] == [-2.0, 2.0, 0.0, 2.0] and doc["config"]["tol"] == 1e-10
    cfg.write_text(json.dumps({"region": [-2, 2, 0]}))
    assert main(["zeros", "--dist", str(three), "--config", str(cfg), "--out", str(out)]) == 2


# every subcommand at a small size: its flags (EDGE and THREE stand for input
# files) and the JSON report it writes
SMALL_RUNS = {
    "spin-dist": (["--graph", "EDGE", "--grid-n", "16"], "spin_dist.json"),
    "zeros": (["--dist", "THREE", "--region", "-2", "2", "0", "2"], "zero_report.json"),
    "classify": (["--dist", "THREE", "--tail-a", "1.3889"], "class_verdict.json"),
    "chain-limit": (["--n-list", "16,32", "--grid-n", "128", "--b", "0.7"], "chain_limit.json"),
    "dirichlet-ratio": (["--n", "16", "--grid-n", "128"], "dirichlet_ratio.json"),
    "gmc-moments": (["--beta-sq", "0.5", "--k-max", "2", "--samples", "10000", "--seed", "11"],
                    "gmc_moments.json"),
    "dgff-check": (["--side", "3", "--samples", "500", "--seed", "3"], "dgff_check.json"),
    "m-stat": (M_STAT_SMALL[1:] + ["--bootstrap", "3", "--dump-field", "field.bin"],
               "m_stat.json"),
    "villain-verify": (["--graph", "EDGE", "--grid-n", "32"], "zero_report.json"),
}


@pytest.mark.parametrize("sub", list(SMALL_RUNS))
def test_output_config_repeats_the_run(sub, edge_graph, tmp_path):
    # the recorded config holds every flag as parsed, required ones included;
    # fed back with only --out on the line, it gives the same results and files
    three = tmp_path / "three.csv"
    three.write_text(THREE_ATOM_CSV)
    flags, report = SMALL_RUNS[sub]
    argv = [sub] + [{"EDGE": edge_graph, "THREE": str(three)}.get(a, a) for a in flags]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out1)]) == 0
    doc1 = json.loads((out1 / report).read_text())
    parsed = vars(build_parser().parse_args(argv + ["--out", str(out1)]))
    assert set(doc1["config"]) == set(parsed) - {"func", "config"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc1["config"]))
    assert main([sub, "--config", str(cfg), "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / report).read_text())
    assert doc2["results"] == doc1["results"]
    assert doc2["config"] == {**doc1["config"], "out": str(out2)}
    assert sorted(f.name for f in out2.iterdir()) == sorted(f.name for f in out1.iterdir())
    if sub == "m-stat":
        assert doc1["config"]["dump_field"] == "field.bin"
        assert (out2 / "field.bin").read_bytes() == (out1 / "field.bin").read_bytes()


def test_abbreviated_flag_beats_the_config_file(edge_graph, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 64}))
    out = tmp_path / "o"
    assert main(["spin-dist", "--graph", edge_graph, "--config", str(cfg), "--grid", "32",
                 "--out", str(out)]) == 0
    assert json.loads((out / "spin_dist.json").read_text())["config"]["grid_n"] == 32


@pytest.mark.parametrize("spelling", [["--conf", "CFG"], ["--config=CFG"]],
                         ids=["abbreviated", "equals"])
def test_config_flag_is_honoured_in_every_spelling(spelling, edge_graph, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": edge_graph, "grid_n": 64}))
    out = tmp_path / "o"
    assert main(["spin-dist", *(a.replace("CFG", str(cfg)) for a in spelling),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "spin_dist.json").read_text())
    assert doc["config"]["grid_n"] == 64 and doc["config"]["graph"] == edge_graph


@pytest.mark.parametrize("argv, named", [
    (["dgff-check", "--side", "3", "--samples", "0", "--seed", "1"], "--samples"),
    (["m-stat", "--n", "3", "--r", "2", "--beta", "1.2", "--samples", "1",
      "--bootstrap", "2", "--seed", "1"], "--samples"),
    (["m-stat", "--n", "3", "--r", "2", "--beta", "1.2", "--samples", "100",
      "--bins", "0", "--bootstrap", "2", "--seed", "1"], "--bins"),
    (["gmc-moments", "--beta-sq", "0.5", "--k-max", "0", "--seed", "1"], "--k-max"),
    (["dgff-check", "--side", "0", "--samples", "10", "--seed", "1"], "interior site"),
    (["m-stat", "--n", "3", "--r", "2", "--beta", "1.2", "--samples", "100",
      "--bootstrap", "-1", "--seed", "1"], "--bootstrap"),
    (["gmc-moments", "--beta-sq", "0.5", "--k-max", "7", "--samples", "100000",
      "--seed", "1"], "--k-max"),
    (["chain-limit", "--n-list", "4", "--grid-n", "0"], "grid size"),
    (["chain-limit", "--n-list", "4", "--grid-n", "-4"], "grid size"),
    (["dirichlet-ratio", "--n", "1", "--grid-n", "0"], "grid size"),
], ids=["dgff-check-no-samples", "m-stat-one-sample", "m-stat-no-bins",
        "gmc-moments-no-moments", "dgff-check-no-interior", "m-stat-negative-bootstrap",
        "gmc-moments-above-cap", "chain-limit-empty-grid", "chain-limit-negative-grid",
        "dirichlet-ratio-one-edge-empty-grid"])
def test_too_few_samples_is_a_usage_error(argv, named, tmp_path, capsys):
    # meaningless counts are refused before any output is written: they
    # could only give a NaN statistic, an empty list or a point mass at 0
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("region", [["0", "inf", "0", "8"], ["-4", "4", "0", "nan"],
                                    ["1", "-1", "0", "8"]], ids=["inf", "nan", "empty"])
def test_region_must_be_a_finite_rectangle(region, edge_graph, tmp_path, capsys, monkeypatch):
    # refused as a usage error before any sampling, law or output
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a region that is no rectangle")

    monkeypatch.setattr(cli, "sample_m_statistics", no_work)
    monkeypatch.setattr(cli, "observable_distribution", no_work)
    three = tmp_path / "three.csv"
    three.write_text(THREE_ATOM_CSV)
    for argv in (["zeros", "--dist", str(three)],
                 ["m-stat", "--n", "3", "--r", "2", "--beta", "1.2", "--seed", "1"],
                 ["villain-verify", "--graph", edge_graph]):
        out = tmp_path / argv[0]
        assert main(argv + ["--region", *region, "--out", str(out)]) == 2
        assert not out.exists()
        assert "degenerate or non-finite rectangle" in capsys.readouterr().err


def test_m_stat_refuses_no_bins_before_sampling(monkeypatch, tmp_path, capsys):
    import leeyang.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("m-stat sampled before checking --bins")

    monkeypatch.setattr(cli, "sample_m_statistics", no_sampling)
    out = tmp_path / "o"
    assert main(["m-stat", "--n", "3", "--r", "2", "--beta", "1.2", "--bins", "0",
                 "--seed", "1", "--out", str(out)]) == 2
    assert "--bins" in capsys.readouterr().err


def test_gmc_moments_refuses_k_max_above_cap_before_sampling(monkeypatch, tmp_path, capsys):
    import leeyang.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("gmc-moments sampled before checking --k-max")

    monkeypatch.setattr(cli, "mc_moment", no_sampling)
    out = tmp_path / "o"
    assert main(["gmc-moments", "--beta-sq", "0.5", "--k-max", str(cli.DESK_MAX_K + 1),
                 "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "--k-max" in capsys.readouterr().err


def test_non_finite_report_is_a_numerical_failure(monkeypatch, tmp_path, capsys):
    import leeyang.cli as cli

    def nan_fields(domain, seed, size):
        return np.full((size, domain.n_interior), np.nan)

    monkeypatch.setattr(cli, "dgff_sample", nan_fields)
    out = tmp_path / "o"
    assert main(["dgff-check", "--side", "3", "--samples", "4", "--seed", "1",
                 "--out", str(out)]) == 1
    assert not (out / "dgff_check.json").exists()
    assert "NaN or infinity" in capsys.readouterr().err


def test_readme_commands_parse():
    # each README example names only flags the parser knows, and every
    # subcommand has one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("leeyang ")]
    subs = [build_parser().parse_args(shlex.split(ln)[1:]).subcommand for ln in lines]
    assert sorted(subs) == sorted(SMALL_RUNS)


@pytest.mark.parametrize("argv, named", [
    (["spin-dist", "--graph", "no_vertices.json"], "not an object with the key 'vertices'"),
    (["villain-verify", "--graph", "no_edges.json"], "not an object with the key 'edges'"),
    (["spin-dist", "--graph", "list.json"], "graph JSON: not an object"),
    (["classify", "--dist", "law.csv", "--zeros", "m_stat.json"],
     "not an object with the key 'region'"),
    (["zeros", "--dist", "spin_dist.json"], "not an x,w pair"),
    (["classify", "--dist", "law.csv", "--zeros", "no_residual.json"],
     "lacks one of the keys re, im, residual, refined"),
    (["classify", "--dist", "law.csv", "--zeros", "empty_region.json"],
     "region {} is not the four bounds"),
    (["spin-dist", "--graph", "one_ended_edge.json"], "'edges' [['x']]"),
    (["spin-dist", "--graph", "list_J.json"], "'J' [1]"),
])
def test_malformed_input_file_is_usage_error(argv, named, edge_graph, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("no_vertices.json").write_text('{"edges": []}')
    Path("no_edges.json").write_text('{"vertices": ["x"]}')
    Path("list.json").write_text("[1, 2]")
    Path("one_ended_edge.json").write_text('{"vertices": ["x", "y"], "edges": [["x"]]}')
    Path("list_J.json").write_text('{"vertices": ["x", "y"], "edges": [["x", "y"]], "J": [1]}')
    Path("law.csv").write_text(THREE_ATOM_CSV)
    # an m-stat report: its results carry zeros and a verdict, but no region
    Path("m_stat.json").write_text(json.dumps({"format_version": 1, "config": {}, "results": {
        "mean": 0.0, "std": 1.0, "second_moment": 1.0, "exploratory": True,
        "verdict": "PIZ-in-region", "zeros": []}}))
    region = {"re_min": -4.0, "re_max": 4.0, "im_min": 0.0, "im_max": 8.0}
    Path("no_residual.json").write_text(json.dumps({
        "region": region, "verdict": "PIZ-in-region",
        "zeros": [{"re": 0.0, "im": 1.5, "refined": True}]}))
    Path("empty_region.json").write_text(json.dumps({
        "region": {}, "verdict": "PIZ-in-region", "zeros": []}))
    assert main(["spin-dist", "--graph", edge_graph, "--grid-n", "16"]) == 0
    capsys.readouterr()
    assert main(argv + ["--out", "out"]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_villain_verify_failure_still_writes_the_report(tmp_path, capsys):
    # J = 200 is far too stiff for grid 16: the zeros move under grid doubling
    graph = tmp_path / "stiff.json"
    graph.write_text(json.dumps(json.loads(EDGE_GRAPH) | {"J": {"x|y": 200.0}}))
    out = tmp_path / "out"
    assert main(["villain-verify", "--graph", str(graph), "--grid-n", "16",
                 "--out", str(out)]) == 1
    assert "PIZ verification failed: verdict inconclusive" in capsys.readouterr().err
    doc = json.loads((out / "zero_report.json").read_text())
    assert doc["results"]["verdict"] == "inconclusive"


def test_missing_graph_file_is_usage_error(tmp_path):
    assert main(["spin-dist", "--graph", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_numerical_failure_maps_to_exit_1(monkeypatch, edge_graph, tmp_path, capsys):
    import leeyang.cli as cli
    from leeyang.errors import NumericalError

    def boom(args):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli, "_cmd_spin_dist", boom)
    assert main(["spin-dist", "--graph", edge_graph, "--out", str(tmp_path)]) == 1
    assert "numerical failure" in capsys.readouterr().err


def test_threads_default_ignores_environment(monkeypatch):
    monkeypatch.setenv("LEEYANG_THREADS", "3")
    args = build_parser().parse_args(["gmc-moments", "--beta-sq", "0.5", "--seed", "1"])
    assert args.threads == 1


def test_blas_threads_do_not_change_gmc_moments(tmp_path):
    # the Coulomb-gas sampler reduces in a fixed order without BLAS, so its
    # bits must not depend on the BLAS thread count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        proc = subprocess.run([sys.executable, "-m", "leeyang.cli", "gmc-moments",
                               "--beta-sq", "1.44", "--k-max", "3", "--samples", "20000",
                               "--seed", "7", "--out", str(out)],
                              env=env | {"OPENBLAS_NUM_THREADS": blas},
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        rows = [ln for ln in (out / "gmc_moments.csv").read_text().splitlines()
                if not ln.startswith("#")]
        outs.append((json.loads((out / "gmc_moments.json").read_text())["results"], rows))
    assert outs[0] == outs[1]


def test_threads_do_not_change_results(tmp_path):
    outs = []
    for i, threads in enumerate(("1", "3")):
        out = str(tmp_path / f"t{i}")
        assert main(["gmc-moments", "--beta-sq", "0.5", "--k-max", "4",
                     "--samples", "20000", "--seed", "11",
                     "--threads", threads, "--out", out]) == 0
        text = (Path(out) / "gmc_moments.csv").read_text()
        outs.append("\n".join(ln for ln in text.splitlines()
                              if not ln.startswith("#")))
    assert outs[0] == outs[1]
