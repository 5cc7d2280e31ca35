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
from leeyang.chain import dirichlet_ratio
from leeyang.cli import build_parser, main
from leeyang.gibbs import DiscretizedDistribution, distribution_from_atoms
from leeyang.zeros import OFFAXIS_FACTOR, EntireMGF, Rectangle, locate_zeros, newton_refine

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
    d = DiscretizedDistribution.from_csv((Path(out) / "spin_dist.csv").read_text())
    assert abs(d.ws.sum() - 1.0) < 1e-12
    assert d.is_symmetric()
    assert json.loads((Path(out) / "spin_dist.json").read_text())["results"]["symmetrized"] is True


def test_spin_dist_of_the_empty_graph_is_the_point_mass_at_0(tmp_path):
    graph = tmp_path / "empty.json"
    graph.write_text(json.dumps({"vertices": [], "edges": []}))
    out = tmp_path / "d"
    assert main(["spin-dist", "--graph", str(graph), "--out", str(out)]) == 0
    assert (out / "spin_dist.csv").read_text().split("\n", 1)[1] == "x,w\n0.0,1.0\n"


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


def test_dirichlet_ratio_output(tmp_path):
    # chain-limit's ratio columns are dirichlet_ratio's at the --pair angles
    out = str(tmp_path / "dr")
    assert main(["chain-limit", "--n-list", "16", "--grid-n", "128", "--pair", "0", "1",
                 "--pair-ref", "0", "0.5", "--out", out]) == 0
    (row,) = json.loads((Path(out) / "chain_limit.json").read_text())["results"]["rows"]
    want = dirichlet_ratio(16, 1.0, (0.0, 1.0), (0.0, 0.5), 128)
    assert (row["ratio"], row["limit_ratio"]) == (want["ratio"], want["limit_ratio"])
    assert abs(row["ratio"] - row["limit_ratio"]) < 0.05


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


def test_gmc_moments_has_no_domain_flag(tmp_path, capsys):
    # the moments are taken on the unit disk; another disk scales them
    for flag in (["--domain", "disk"], ["--radius", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["gmc-moments", "--beta-sq", "1.0", "--seed", "1", *flag,
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


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


def test_dgff_check_predicts_its_error_and_certifies_its_factor(tmp_path):
    # at side 5 the Laplacian's eigenvalues are 4 - 2 cos(j pi/6) - 2 cos(k pi/6),
    # so ||G||_F^2 and tr G of the Wishart prediction need no Green's solve
    out = tmp_path / "dg"
    assert main(["dgff-check", "--side", "5", "--samples", "4000", "--seed", "3",
                 "--out", str(out)]) == 0
    res = json.loads((out / "dgff_check.json").read_text())["results"]
    c = 2.0 * np.cos(np.arange(1, 6) * np.pi / 6)
    inv = 1.0 / (4.0 - c[:, None] - c[None, :])
    norm_sq, trace = np.sum(inv**2), np.sum(inv)
    assert res["predicted_relative_error"] == pytest.approx(
        math.sqrt((norm_sq + trace**2) / 4000) / math.sqrt(norm_sq), rel=1e-12)
    assert res["error_ratio"] == res["frobenius_relative_error"] / res["predicted_relative_error"]
    assert 0.5 < res["error_ratio"] < 1.5
    assert 0.0 <= res["cholesky_residual"] < 1e-15
    assert 0.0 <= res["green_residual"] < 1e-13


def test_m_stat_with_field_dump(tmp_path):
    out = str(tmp_path / "ms")
    assert main(["m-stat", "--n", "3", "--r", "2.0", "--beta", "1.2",
                 "--samples", "2000", "--bins", "60", "--bootstrap", "20",
                 "--seed", "37", "--out", out]) == 0
    doc = json.loads((Path(out) / "m_stat.json").read_text())
    assert doc["results"]["exploratory"] is True
    assert abs(doc["results"]["mean"]) < 0.5
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
    # replicate moves 6.0851i past its neighbour 6.5233i, and the runs from
    # the mirror pair fail or succeed together
    (z6,) = [z for z in zs if abs(z["im"] - 6.0851) < 1e-4]
    assert z6["bootstrap_unconverged"] >= 1
    left, right = [z for z in zs if z not in on_axis]
    assert left["bootstrap_unconverged"] == right["bootstrap_unconverged"]
    for key in ("bootstrap_se_re", "bootstrap_se_im"):
        assert left[key] == pytest.approx(right[key], rel=1e-12)


M_STAT_SMALL = ["m-stat", "--n", "3", "--r", "2.0", "--beta", "1.2",
                "--samples", "2000", "--bins", "60", "--seed", "19"]


def test_m_stat_linearised_se_matches_the_bootstrap(tmp_path):
    # test_m_stat_with_field_dump's run: the 200-replicate bootstrap is the
    # reference wherever the linearisation gives an error bar
    assert main(["m-stat", "--n", "3", "--r", "2.0", "--beta", "1.2", "--samples", "2000",
                 "--bins", "60", "--bootstrap", "200", "--seed", "37",
                 "--out", str(tmp_path)]) == 0
    zs = json.loads((tmp_path / "m_stat.json").read_text())["results"]["zeros"]
    with_se = [z for z in zs if z["se_im"] is not None]
    assert len(with_se) == 6
    for z in with_se:
        assert z["re"] == 0.0 and z["se_re"] == 0.0  # on the axis dz is imaginary
        assert 0.8 <= z["se_im"] / z["bootstrap_se_im"] <= 1.25
    # se over the gap to the nearest other zero: 0.39 and 0.49 at 6.085i and
    # 6.523i, and the pair's se_re 0.44 against 0.32 to its mirror
    nulls = [z for z in zs if z["se_im"] is None]
    assert [round(z["im"], 3) for z in nulls] == [6.085, 6.523, 7.828, 7.828]
    assert all(z["se_re"] is None for z in nulls)
    left, right = nulls[2:]
    assert left["re"] == -right["re"] < 0
    assert ({k: v for k, v in left.items() if k != "re" and not k.startswith("bootstrap")}
            == {k: v for k, v in right.items() if k != "re" and not k.startswith("bootstrap")})


def test_linearised_se_of_an_off_axis_pair_matches_multinomial_resampling():
    # the symmetrised law of 5000 draws from five atoms has the zeros
    # +-1.2095 + 1.9943i; redrawing the counts moves them by the spread the
    # delta method gives, in Re and in Im, and the mirror rows are equal
    xs, p, n = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), np.array([0.05, 0.15, 0.6, 0.15, 0.05]), 5000
    f = EntireMGF(distribution_from_atoms(np.c_[xs, p], symmetrize=True))
    locs = np.array([z.location for z in locate_zeros(f, Rectangle(-4, 4, 0, 4), 1e-12).zeros])
    assert np.allclose(locs, [-1.2095 + 1.9943j, 1.2095 + 1.9943j], atol=1e-4)
    (re_l, im_l), (re_r, im_r) = cli._linearised_se(f, locs, n)
    assert (re_l, im_l) == pytest.approx((re_r, im_r), rel=1e-12)
    redrawn = (distribution_from_atoms(np.c_[xs, c], symmetrize=True)
               for c in np.random.default_rng(5).multinomial(n, p, size=500))
    ends = np.array([newton_refine(EntireMGF(law), locs, 1e-12)[0] for law in redrawn])
    assert 0.9 <= np.std(ends.real[:, 1], ddof=1) / re_r <= 1.1
    assert 0.9 <= np.std(ends.imag[:, 1], ddof=1) / im_r <= 1.1


def test_linearised_se_is_null_where_the_slope_is_rounding():
    # f = (1 + cosh 2z) / 2 = cosh^2 z: a double zero at i pi/2, where f' is 0
    # up to rounding; it is the only zero given, so no gap can null it
    double = EntireMGF(distribution_from_atoms([(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)]))
    assert cli._linearised_se(double, np.array([0.5j * np.pi]), 1000) == [(None, None)]
    # f'(0) of a symmetric law is exactly 0: no division by it, and no warning
    assert cli._linearised_se(double, np.array([0j]), 1000) == [(None, None)]


def test_m_stat_linearised_se_covers_the_spread_across_seeds(tmp_path):
    # 60 seeded small runs, each locating only the lowest zero: its spread
    # across seeds is within 0.75-1.33 times its median linearised se_im
    ims, ses = [], []
    for seed in range(60):
        assert main(M_STAT_SMALL[:-1] + [str(seed), "--region", "-1", "1", "0", "1.2",
                                         "--out", str(tmp_path)]) == 0
        (z,) = json.loads((tmp_path / "m_stat.json").read_text())["results"]["zeros"]
        ims.append(z["im"])
        ses.append(z["se_im"])
    assert 0.75 <= np.std(ims, ddof=1) / np.median(ses) <= 1.33


def test_m_stat_writes_bootstrap_keys_only_when_it_ran(tmp_path, capsys):
    # with --bootstrap 0, the default, no replicate ran: no row may read
    # bootstrap_unconverged 0 as if every replicate had converged
    assert main(M_STAT_SMALL + ["--out", str(tmp_path / "a")]) == 0
    assert main(M_STAT_SMALL + ["--bootstrap", "3", "--out", str(tmp_path / "b")]) == 0
    runs = [json.loads((tmp_path / d / "m_stat.json").read_text()) for d in "ab"]
    assert runs[0]["config"]["bootstrap"] == 0
    boot_keys = {"bootstrap_se_re", "bootstrap_se_im", "bootstrap_unconverged"}
    rows_a, rows_b = (r["results"]["zeros"] for r in runs)
    assert rows_a and all(not boot_keys & set(z) for z in rows_a)
    assert all(boot_keys < set(z) for z in rows_b)
    # the bootstrap adds keys and changes nothing else
    assert [{k: v for k, v in z.items() if k not in boot_keys} for z in rows_b] == rows_a
    with pytest.raises(SystemExit):
        main(["m-stat", "--help"])
    assert "only when it ran" in " ".join(capsys.readouterr().out.split())


def test_m_stat_records_what_its_verdict_rests_on(tmp_path, monkeypatch):
    # the zero report's contour count, notes and evaluator record go into
    # m_stat.json beside its verdict
    reports, locate = [], cli.locate_zeros

    def spy(*args, **kwargs):
        reports.append(locate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "locate_zeros", spy)
    assert main(M_STAT_SMALL + ["--bootstrap", "0", "--out", str(tmp_path)]) == 0
    (report,) = reports
    results = json.loads((tmp_path / "m_stat.json").read_text())["results"]
    assert results["verdict"] == report.piz_verdict
    assert results["total_count"] == report.total_count == len(results["zeros"])
    assert results["notes"] == list(report.notes)
    assert results["evaluator"] == report.evaluator and results["evaluator"]["path"] == "direct"


def test_m_stat_off_axis_verdict_needs_two_se_re(tmp_path, monkeypatch):
    # seed 37 of the small run: the zero report finds the pair +-0.1595 + 7.8281i,
    # whose se_re is null (over a quarter of the gap to its mirror), so the
    # error bars cannot tell it from the axis and the verdict is inconclusive
    reports, locate = [], cli.locate_zeros

    def spy(*args, **kwargs):
        reports.append(locate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "locate_zeros", spy)
    assert main(M_STAT_SMALL[:-1] + ["37", "--out", str(tmp_path)]) == 0
    (report,) = reports
    results = json.loads((tmp_path / "m_stat.json").read_text())["results"]
    assert report.piz_verdict == "off-axis-zero-found"
    assert results["verdict"] == "inconclusive"
    assert results["notes"] == list(report.notes) + [
        "off-axis pair +-0.1595 + 7.828i has se_re null: not 2 se_re from the axis"]


def test_m_stat_keeps_an_off_axis_verdict_its_error_bars_support(tmp_path, monkeypatch):
    # 2000 draws of the five-atom law with the zeros +-1.2095 + 1.9943i: the
    # binned law's pairs lie about 30 se_re from the axis, so the verdict stands
    xs, p = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), np.array([0.05, 0.15, 0.6, 0.15, 0.05])
    monkeypatch.setattr(cli, "sample_m_statistics", lambda domain, n, beta, nsamples, seed:
                        np.random.default_rng(seed).choice(xs, size=nsamples, p=p))
    assert main(M_STAT_SMALL[:-1] + ["1", "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "m_stat.json").read_text())["results"]
    assert results["verdict"] == "off-axis-zero-found" and results["notes"] == []
    off = [z for z in results["zeros"] if z["re"] != 0.0]
    assert off and all(abs(z["re"]) > 20 * z["se_re"] for z in off)


def test_supported_verdict_reads_only_refined_off_axis_rows():
    def row(re, se_re, refined=True):
        return {"re": re, "im": 3.0, "se_re": se_re, "refined": refined}

    tol, off = 1e-10, "off-axis-zero-found"
    assert cli._supported_verdict("PIZ-in-region", [row(0.5, None)], tol) == ("PIZ-in-region", [])
    assert cli._supported_verdict(off, [row(-0.2, 0.1), row(0.2, 0.1)], tol) == (off, [])
    # one pair 2 se_re from the axis is enough; an unrefined zero is no evidence
    assert cli._supported_verdict(off, [row(0.3, 0.1), row(1.0, None)], tol) == (off, [])
    assert cli._supported_verdict(off, [row(0.19, 0.1), row(1.0, 0.1, refined=False)], tol) == (
        "inconclusive", ["off-axis pair +-0.19 + 3i has se_re 0.1: not 2 se_re from the axis"])


def test_m_stat_zero_rows_say_which_zero_is_unrefined(tmp_path):
    # no Newton run meets tol 1e-30: the contour count matches the listed
    # zeros and the report has no note, so only the rows explain the verdict
    assert main(M_STAT_SMALL + ["--tol", "1e-30", "--bootstrap", "0",
                                "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "m_stat.json").read_text())["results"]
    assert results["verdict"] == "inconclusive" and results["notes"] == []
    rows = results["zeros"]
    assert results["total_count"] == sum(z["multiplicity"] for z in rows) == 9
    assert [z["refined"] for z in rows] == [False] * 9


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
    "gmc-moments": (["--beta-sq", "0.5", "--k-max", "2", "--samples", "10000", "--seed", "11"],
                    "gmc_moments.json"),
    "dgff-check": (["--side", "3", "--samples", "500", "--seed", "3"], "dgff_check.json"),
    "m-stat": (M_STAT_SMALL[1:] + ["--bootstrap", "3"], "m_stat.json"),
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


def test_m_stat_config_with_a_dropped_flag_repeats_the_run(tmp_path):
    # an m-stat config written while the flag --dump-field existed still holds
    # "dump_field"; a key that names no flag is ignored, so the run repeats
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(M_STAT_SMALL + ["--bootstrap", "3", "--out", str(out1)]) == 0
    doc1 = json.loads((out1 / "m_stat.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**doc1["config"], "dump_field": "field.bin"}))
    assert main(["m-stat", "--config", str(cfg), "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "m_stat.json").read_text())
    assert doc2["results"] == doc1["results"]
    assert doc2["config"] == {**doc1["config"], "out": str(out2)}
    assert [f.name for f in out2.iterdir()] == ["m_stat.json"]


def test_gmc_moments_config_with_a_radius_replays_on_the_unit_disk(tmp_path):
    # a config written while gmc-moments --radius existed still holds "radius";
    # a key that names no flag is ignored, so the moments are the unit disk's
    argv = ["gmc-moments", "--beta-sq", "0.5", "--k-max", "2", "--samples", "10000",
            "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out1)]) == 0
    doc1 = json.loads((out1 / "gmc_moments.json").read_text())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**doc1["config"], "radius": 2.0}))
    assert main(["gmc-moments", "--config", str(cfg), "--out", str(out2)]) == 0
    doc2 = json.loads((out2 / "gmc_moments.json").read_text())
    assert doc2["results"] == doc1["results"]
    assert doc2["config"] == {**doc1["config"], "out": str(out2)}


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
    (["gmc-moments", "--beta-sq", "2", "--k-max", "1", "--samples", "10000", "--seed", "1"],
     "beta^2 must lie in (0, 2), got 2.0"),
    (["m-stat", "--n", "3", "--r", "2", "--beta", "1.5", "--samples", "100", "--seed", "1"],
     "beta must lie in (0, sqrt 2), got 1.5"),
    (["m-stat", "--n", "3", "--r", "inf", "--beta", "1.2", "--seed", "1"],
     "lattice disk radius must be positive and finite, got inf"),
    (["m-stat", "--n", "3", "--r", "nan", "--beta", "1.2", "--seed", "1"],
     "lattice disk radius must be positive and finite, got nan"),
    (["m-stat", "--n", "10", "--r", "1e300", "--beta", "1.2", "--seed", "1"],
     "lattice disk radius 1e+301 has a square beyond the float range"),
], ids=["dgff-check-no-samples", "m-stat-one-sample", "m-stat-no-bins",
        "gmc-moments-no-moments", "dgff-check-no-interior", "m-stat-negative-bootstrap",
        "gmc-moments-above-cap", "chain-limit-empty-grid", "chain-limit-negative-grid",
        "gmc-moments-beta-sq-2",
        "m-stat-beta-above-sqrt2", "m-stat-infinite-r", "m-stat-nan-r",
        "m-stat-overflowing-r"])
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


@pytest.mark.parametrize("tol", ["0", "nan", "inf"])
def test_m_stat_refuses_a_bad_tol_before_sampling(tol, monkeypatch, tmp_path, capsys):
    import leeyang.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("m-stat sampled before checking --tol")

    monkeypatch.setattr(cli, "sample_m_statistics", no_sampling)
    out = tmp_path / "o"
    assert main(["m-stat", "--n", "3", "--r", "2", "--beta", "1.2", "--tol", tol,
                 "--seed", "1", "--out", str(out)]) == 2
    assert "--tol" in capsys.readouterr().err


def test_m_stat_refuses_more_sites_than_the_dense_cap(monkeypatch, tmp_path, capsys):
    import leeyang.gmc as gmc

    def no_solve(*args, **kwargs):
        raise AssertionError("m-stat solved for Green's entries before checking the cap")

    # D_100 has 31,417 sites: its dense Green's block alone would take 7.9 GB
    monkeypatch.setattr(gmc.LatticeDomain, "green_matrix", no_solve)
    out = tmp_path / "o"
    assert main(["m-stat", "--n", "100", "--r", "1.5", "--beta", "1.2", "--samples", "200",
                 "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert (f"D_100 holds more than {gmc.DENSE_SAMPLING_CAP} summation sites"
            in capsys.readouterr().err)


def test_m_stat_refuses_an_oversized_disk_before_building_the_field_domain(monkeypatch, tmp_path,
                                                                          capsys):
    import leeyang.gmc as gmc

    def no_domain(*args, **kwargs):
        raise AssertionError("m-stat built the field domain before checking the cap")

    # D_200 has 125,629 sites; its field domain D_300 would hold 282,697
    monkeypatch.setattr(gmc.LatticeDomain, "disk", no_domain)
    out = tmp_path / "o"
    assert main(["m-stat", "--n", "200", "--r", "1.5", "--beta", "1.2", "--samples", "200",
                 "--seed", "1", "--out", str(out)]) == 2
    assert not out.exists()
    assert (f"D_200 holds more than {gmc.DENSE_SAMPLING_CAP} summation sites"
            in capsys.readouterr().err)


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

    def nan_covariance(domain, seed, size):
        return np.full((domain.n_interior, domain.n_interior), np.nan)

    monkeypatch.setattr(cli, "dgff_covariance", nan_covariance)
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
    (["spin-dist", "--graph", "string_vertices.json"], "'vertices' 'xy' is not a list"),
    (["spin-dist", "--graph", "number_vertices.json"], "'vertices' 3 is not a list"),
    (["spin-dist", "--graph", "null_J.json"], "'J' value None at 'x|y' is not a number"),
    (["classify", "--dist", "law.csv", "--zeros", "string_im.json"],
     "zero {'re': 0.0, 'im': 'a',"),
    (["classify", "--dist", "law.csv", "--zeros", "string_refined.json"],
     "'refined': 'false'} needs numbers re, im, residual and a boolean refined"),
    (["classify", "--dist", "law.csv", "--zeros", "half_multiplicity.json"],
     "'multiplicity': 1.5} needs a positive integer multiplicity"),
    (["classify", "--dist", "law.csv", "--zeros", "zero_multiplicity.json"],
     "'multiplicity': 0} needs a positive integer multiplicity"),
    (["classify", "--dist", "law.csv", "--zeros", "boolean_bound.json"],
     "region {'re_min': True, "),
    (["classify", "--dist", "law.csv", "--zeros", "number_verdict.json"],
     "verdict 7 is not one of"),
    (["classify", "--dist", "law.csv", "--zeros", "string_total.json"],
     "'total_count' 'x' is not an integer"),
    (["classify", "--dist", "law.csv", "--zeros", "number_evaluator.json"],
     "'evaluator' 5 is not an object or null"),
    (["classify", "--dist", "law.csv", "--zeros", "number_notes.json"],
     "'notes' 3 is not a list"),
    (["spin-dist", "--graph", "infinite_J.json", "--model", "villain"],
     "non-finite coupling J=inf on edge 'x|y'"),
    (["spin-dist", "--graph", "infinite_J.json", "--model", "xy"],
     "non-finite coupling J=inf on edge 'x|y'"),
    (["spin-dist", "--graph", "infinite_lambda.json"], "non-finite weight lambda=inf on vertex 'x'"),
    (["spin-dist", "--graph", "edge.json", "--beta", "0"], "inverse temperature must be positive"),
    (["spin-dist", "--graph", "duplicate_vertex.json"], "duplicate vertex 'x'"),
    (["spin-dist", "--graph", "unknown_lambda.json"], "weight given for unknown vertex 'z'"),
    (["classify", "--dist", "law.csv", "--zeros", "object_zeros.json"],
     "zeros {} is not a list"),
    (["spin-dist", "--graph", "edge.json", "--model", "xy", "--beta", "inf"],
     "inverse temperature must be positive and finite, got inf"),
    (["spin-dist", "--graph", "edge.json", "--model", "villain", "--beta", "inf"],
     "inverse temperature must be positive and finite, got inf"),
    (["zeros", "--dist", "law.csv", "--tol", "inf"], "tol must be positive and finite, got inf"),
    (["villain-verify", "--graph", "edge.json", "--tol", "inf"],
     "tol must be positive and finite, got inf"),
    (["zeros", "--dist", "header_only.csv"], "a law needs at least one atom, got no atoms"),
    (["zeros", "--dist", "short_mass.csv"],
     "atom weights sum to 0.8999999999999999, not 1 within 1e-12"),
])
def test_malformed_input_file_is_usage_error(argv, named, edge_graph, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("no_vertices.json").write_text('{"edges": []}')
    Path("no_edges.json").write_text('{"vertices": ["x"]}')
    Path("list.json").write_text("[1, 2]")
    Path("one_ended_edge.json").write_text('{"vertices": ["x", "y"], "edges": [["x"]]}')
    Path("list_J.json").write_text('{"vertices": ["x", "y"], "edges": [["x", "y"]], "J": [1]}')
    Path("string_vertices.json").write_text('{"vertices": "xy", "edges": [["x", "y"]]}')
    Path("number_vertices.json").write_text('{"vertices": 3, "edges": []}')
    Path("null_J.json").write_text(
        '{"vertices": ["x", "y"], "edges": [["x", "y"]], "J": {"x|y": null}}')
    Path("infinite_J.json").write_text(EDGE_GRAPH.replace('"x|y": 1.0', '"x|y": Infinity'))
    Path("infinite_lambda.json").write_text(EDGE_GRAPH.replace('"x": 1.0', '"x": Infinity'))
    Path("duplicate_vertex.json").write_text('{"vertices": ["x", "y", "x"], "edges": []}')
    Path("unknown_lambda.json").write_text(EDGE_GRAPH.replace('"y": 1.0', '"z": 1.0'))
    Path("law.csv").write_text(THREE_ATOM_CSV)
    Path("header_only.csv").write_text("x,w\n")
    Path("short_mass.csv").write_text("x,w\n-1.0,0.3\n0.0,0.3\n1.0,0.3\n")
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
    Path("string_im.json").write_text(json.dumps({
        "region": region, "verdict": "PIZ-in-region",
        "zeros": [{"re": 0.0, "im": "a", "residual": 0.0, "refined": True}]}))
    Path("string_refined.json").write_text(json.dumps({
        "region": region, "verdict": "PIZ-in-region",
        "zeros": [{"re": 0.0, "im": 1.5, "residual": 0.0, "refined": "false"}]}))
    # one well-formed report, each file with one value of the wrong kind
    zero = {"re": 0.0, "im": 1.5, "residual": 0.0, "refined": True}
    report = {"region": region, "verdict": "PIZ-in-region", "zeros": [zero]}
    for name, edit in (("half_multiplicity", {"zeros": [zero | {"multiplicity": 1.5}]}),
                       ("zero_multiplicity", {"zeros": [zero | {"multiplicity": 0}]}),
                       ("boolean_bound", {"region": region | {"re_min": True}}),
                       ("number_verdict", {"verdict": 7}),
                       ("string_total", {"total_count": "x"}),
                       ("number_evaluator", {"evaluator": 5}),
                       ("number_notes", {"notes": 3}),
                       ("object_zeros", {"zeros": {}})):
        Path(f"{name}.json").write_text(json.dumps(report | edit))
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


def run_at_blas_threads(argv, out, blas):
    """The results of ``leeyang argv --out out`` in a child process whose BLAS
    runs on ``blas`` threads, and the CSV rows it wrote, if any."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "leeyang.cli", *argv, "--out", str(out)],
                          env=env | {"OPENBLAS_NUM_THREADS": blas},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    (doc,) = out.glob("*.json")
    rows = [ln for csv in out.glob("*.csv") for ln in csv.read_text().splitlines()
            if not ln.startswith("#")]
    return json.loads(doc.read_text())["results"], rows


def test_blas_threads_do_not_change_gmc_moments(tmp_path):
    # the Coulomb-gas sampler reduces in a fixed order without BLAS, so its
    # bits must not depend on the BLAS thread count
    outs = [run_at_blas_threads(["gmc-moments", "--beta-sq", "1.44", "--k-max", "3",
                                 "--samples", "20000", "--seed", "7"],
                                tmp_path / f"blas{blas}", blas) for blas in ("1", "2")]
    assert outs[0] == outs[1]


def assert_equal_but_rounding(a, b, path="results"):
    """a and b hold the same keys, strings, integers, flags and nulls, and
    floats within 1e-12 relative of each other."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            assert_equal_but_rounding(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            assert_equal_but_rounding(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert isinstance(b, float) and b == pytest.approx(a, rel=1e-12, abs=0.0), path
    else:
        assert type(a) is type(b) and a == b, path


@pytest.mark.parametrize("argv", [
    ["dgff-check", "--side", "11", "--samples", "20000", "--seed", "7"],
    M_STAT_SMALL,
    M_STAT_SMALL[:-1] + ["37"],
    ["m-stat", "--n", "4", "--r", "2.0", "--beta", "1.2", "--samples", "5000", "--seed", "7"],
], ids=["dgff-check", "m-stat-19", "m-stat-37", "m-stat-n4"])
def test_blas_threads_move_only_rounding(argv, tmp_path):
    # the lattice samplers multiply and solve through BLAS, whose blocking
    # depends on its thread count: that may move the last bits, but no
    # verdict, count or flag, and no value by more than 1e-12 relative.  A
    # zero's residual |f| is itself rounding, and so are the two residuals
    # of dgff-check, which need only stay below their bounds
    outs = [run_at_blas_threads(argv, tmp_path / f"blas{blas}", blas)[0] for blas in ("1", "2")]
    for res in outs:
        for z in res.get("zeros", []):
            assert 0.0 <= z.pop("residual") < 1e-12
        if "green_residual" in res:
            assert 0.0 <= res.pop("cholesky_residual") < 1e-15
            assert 0.0 <= res.pop("green_residual") < 1e-13
    assert_equal_but_rounding(*outs)


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
