import csv
import hashlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fcctrig import claims, cli
from fcctrig.indexsets import generate_Hn_star, lambda_nodes
from fcctrig.interpolation import dodeca_grid, from_node_values, node_set
from fcctrig.kernels import dirichlet


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_samples(path, rows):
    """A --samples file with one (index, complex value) pair per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j1", "j2", "j3", "j4", "re", "im"])
        for k, v in rows:
            w.writerow([*(int(x) for x in k), repr(v.real), repr(v.imag)])
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_nodes_default_table(capsys):
    code, out, _ = run(capsys, "nodes", "--n", "2")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:4] == ["j1", "j2", "j3", "j4"]
    assert header[-3:] == ["stratum", "weight", "weight_float"]
    assert len(rows) == 3**4 - 2**4
    total = sum(Fraction(r[-2]) for r in rows)
    assert total == 4 * 2**3
    for r in rows:
        k = np.array([int(v) for v in r[:4]])
        t = np.array([float(v) for v in r[4:8]])
        assert np.abs(t - k / 8.0).max() < 1e-15
        assert float(r[-1]) == pytest.approx(float(Fraction(r[-2])))


def test_nodes_lambda_table(capsys):
    code, out, _ = run(capsys, "nodes", "--set", "lambda", "--n", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == len(lambda_nodes(3))
    strata = {r[-3] for r in rows}
    assert strata <= {"interior", "face", "edge1", "edge2", "vertex"}
    assert sum(int(r[-2]) for r in rows) == 4 * 3**3


def test_nodes_json_is_canonical(capsys):
    code, out, _ = run(capsys, "nodes", "--n", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    assert obj["n"] == 1
    assert len(obj["nodes"]) == 2**4 - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("node_set_name", ["hn", "hstar", "hcirc", "lambda"])
def test_nodes_csv_and_json_carry_the_same_table(capsys, node_set_name, n):
    argv = ("nodes", "--set", node_set_name, "--n", str(n))
    _, text, _ = run(capsys, *argv)
    _, js, _ = run(capsys, *argv, "--format", "json")
    header, rows = parse_csv(text)
    recs = json.loads(js)["nodes"]
    assert len(rows) == len(recs) > 0
    for row, rec in zip(rows, recs):
        cell = dict(zip(header, row))
        assert [int(cell[f"j{i}"]) for i in range(1, 5)] == rec["index"]
        assert [float(cell[f"t{i}"]) for i in range(1, 5)] == rec["point"]
        assert [float(cell[f"x{i}"]) for i in range(1, 4)] == rec["cartesian"]
        assert cell["stratum"] == rec["stratum"]
        assert cell["weight"] == rec["weight"]
        assert float(cell["weight_float"]) == float(Fraction(cell["weight"]))


def test_interpolate_csv_and_json_carry_the_same_table(capsys):
    argv = ("interpolate", "--kind", "lnstar", "--f", "expsin", "--n", "3", "--grid", "4")
    _, text, _ = run(capsys, *argv)
    _, js, _ = run(capsys, *argv, "--format", "json")
    header, rows = parse_csv(text)
    recs = json.loads(js)["values"]
    assert len(rows) == len(recs) > 0
    for row, rec in zip(rows, recs):
        cell = dict(zip(header, row))
        assert [float(cell[f"t{i}"]) for i in range(1, 5)] == rec["point"]
        assert float(cell["approx_re"]) == rec["re"]
        assert float(cell["approx_im"]) == rec["im"]
        for key in ("f_re", "f_im", "abs_err"):
            assert float(cell[key]) == rec[key]


def test_nodes_deterministic(capsys):
    _, a, _ = run(capsys, "nodes", "--n", "2", "--set", "hn")
    _, b, _ = run(capsys, "nodes", "--n", "2", "--set", "hn")
    assert a == b


def test_kernel_values_match_library(capsys):
    code, out, _ = run(
        capsys, "kernel", "--f", "dirichlet", "--n", "2", "--grid", "3"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 27
    grid = dodeca_grid(3)
    want = dirichlet(2, grid)
    got = np.array([float(r[4]) for r in rows])
    assert np.abs(got - np.real(want)).max() < 1e-12


def test_kernel_phi_needs_k(capsys):
    code, _, err = run(capsys, "kernel", "--f", "phi", "--n", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("n", ["0", "-1"])
@pytest.mark.parametrize("f", ["phi", "theta", "dirichlet", "phin", "phistar"])
def test_kernel_rejects_degree_below_one(capsys, f, n):
    # phistar used to print NaN rows and dirichlet -1 everywhere, with exit 0
    code, out, err = run(capsys, "kernel", "--f", f, "--k", "0,0,0,0", "--n", n)
    assert code == 1
    assert out == ""
    assert "degree must be >= 1" in err


def test_cubature_phi_delta(capsys):
    code, out, _ = run(
        capsys, "cubature", "--f", "phi", "--k", "0,0,0,0", "--n", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value_re"] == pytest.approx(1.0, abs=1e-12)
    code, out, _ = run(
        capsys, "cubature", "--f", "phi", "--k", "4,0,0,-4", "--n", "2",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value_re"] == pytest.approx(0.0, abs=1e-12)


def test_cubature_lambda_one(capsys):
    code, out, _ = run(
        capsys, "cubature", "--set", "lambda", "--f", "one", "--n", "3",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value_re"] == pytest.approx(1.0, abs=1e-12)


def test_cubature_bad_k_usage(capsys):
    code, _, err = run(capsys, "cubature", "--f", "phi", "--k", "1,2,3")
    assert code == 1
    code, _, err = run(capsys, "cubature", "--f", "phi", "--k", "1,1,1,-1")
    assert code == 1
    code, _, err = run(capsys, "cubature", "--f", "nosuch")
    assert code == 1


def test_interpolate_builtin_reports_error(capsys):
    code, out, err = run(
        capsys, "interpolate", "--kind", "lnstar", "--f", "expsin", "--n", "2",
        "--grid", "4", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert "max_error" in obj
    assert obj["max_error"] < 1.0
    assert "max_error=" in err


def test_interpolate_polynomial_exact(capsys):
    # a cosine of tetrahedral degree <= n is reproduced exactly on the grid
    code, out, _ = run(
        capsys, "interpolate", "--kind", "lnstar", "--f", "tc", "--k",
        "3,-1,-1,-1", "--n", "2", "--grid", "5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["max_error"] < 1e-10


def test_interpolate_needs_input(capsys):
    code, _, err = run(capsys, "interpolate", "--kind", "in", "--n", "2")
    assert code == 1
    assert "error" in err


def test_interpolate_samples_round_trip(tmp_path, capsys):
    n = 1
    nodes = node_set("instar", n)
    rng = np.random.default_rng(70)
    vals = rng.standard_normal(len(nodes))
    path = tmp_path / "samples.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j1", "j2", "j3", "j4", "re", "im"])
        for k, v in zip(nodes, vals):
            w.writerow([int(k[0]), int(k[1]), int(k[2]), int(k[3]), repr(float(v)), "0.0"])
    code, out, _ = run(
        capsys, "interpolate", "--kind", "instar", "--n", "1", "--samples",
        str(path), "--grid", "4", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    data = {tuple(int(x) for x in k): complex(v) for k, v in zip(nodes, vals)}
    I = from_node_values("instar", n, data)
    want = I(dodeca_grid(4))
    got = np.array([row["re"] + 1j * row["im"] for row in obj["values"]])
    assert np.abs(got - want).max() < 1e-12


def test_interpolate_samples_mismatch(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j1", "j2", "j3", "j4", "re", "im"])
        w.writerow([0, 0, 0, 0, "1.0", "0.0"])
    code, _, err = run(
        capsys, "interpolate", "--kind", "instar", "--n", "2", "--samples",
        str(path),
    )
    assert code == 1
    assert "node set" in err


def test_interpolate_samples_rejects_a_repeated_node(tmp_path, capsys):
    nodes = node_set("lnstar", 2)
    rows = [(k, 1.0 + 0j) for k in nodes] + [(nodes[2], 5.0 + 0j)]
    path = write_samples(tmp_path / "dup.csv", rows)
    code, out, err = run(capsys, "interpolate", "--kind", "lnstar", "--n", "2",
                         "--samples", path)
    assert code == 1
    assert out == ""
    assert f"node {tuple(int(v) for v in nodes[2])} twice" in err


def test_interpolate_samples_rejects_nan(tmp_path, capsys):
    nodes = node_set("lnstar", 2)
    rows = [(k, complex(np.nan if i == 4 else 1.0, 0.0)) for i, k in enumerate(nodes)]
    path = write_samples(tmp_path / "nan.csv", rows)
    code, out, err = run(capsys, "interpolate", "--kind", "lnstar", "--n", "2",
                         "--samples", path)
    assert code == 1
    assert out == ""
    assert f"node value at {tuple(int(v) for v in nodes[4])} is not finite" in err


def test_interpolate_samples_bad_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    code, _, err = run(
        capsys, "interpolate", "--kind", "instar", "--n", "1", "--samples",
        str(path),
    )
    assert code == 1
    assert "j1" in err


def test_lebesgue_json(capsys):
    code, out, _ = run(
        capsys, "lebesgue", "--kind", "sn", "--n", "2", "--quad", "8", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["estimate"] > 1.0
    assert obj["quad"] == 8 and obj["grid"] is None
    assert obj["ratio_log3"] == pytest.approx(obj["estimate"] / math.log(2) ** 3)


def test_lebesgue_sn_degree_zero_usage(capsys):
    code, _, err = run(capsys, "lebesgue", "--kind", "sn", "--n", "0")
    assert code == 1
    assert "degree" in err


def test_lebesgue_ratio_null_at_degree_one(capsys):
    # no ratio to (log n)^3 at n = 1: JSON null and an empty CSV cell, as for quad
    for kind in ("instar", "in"):
        argv = ("lebesgue", "--kind", kind, "--n", "1", "--grid", "5")
        code, js, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        obj = json.loads(js)
        assert obj["ratio_log3"] is None and obj["quad"] is None
        assert obj["estimate"] > 0.0
        header, rows = parse_csv(run(capsys, *argv)[1])
        cell = dict(zip(header, rows[0]))
        assert cell["ratio_log3"] == cell["quad"] == ""
        assert float(cell["estimate"]) == obj["estimate"]


def test_lebesgue_ln_degree_one_usage(capsys):
    code, out, err = run(capsys, "lebesgue", "--kind", "ln", "--n", "1", "--grid", "2")
    assert code == 1
    assert out == ""
    assert "sine interpolation needs degree >= 2" in err


def test_lebesgue_interp_kind(capsys):
    code, out, _ = run(
        capsys, "lebesgue", "--kind", "lnstar", "--n", "2", "--grid", "4",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kind", "n", "grid", "quad", "estimate", "ratio_log3"]
    assert rows[0][0] == "lnstar"
    assert float(rows[0][4]) >= 1.0 - 1e-9


def test_out_file_matches_stdout(tmp_path, capsys):
    for argv in [
        ("nodes", "--n", "1"),
        ("nodes", "--set", "lambda", "--n", "3"),
        ("nodes", "--set", "hstar", "--n", "2", "--format", "json"),
        ("interpolate", "--kind", "lnstar", "--f", "expsin", "--n", "2", "--grid", "3"),
        ("interpolate", "--kind", "in", "--f", "expsin", "--n", "2", "--grid", "3",
         "--format", "json"),
    ]:
        _, direct, _ = run(capsys, *argv)
        path = tmp_path / "table.out"
        code, out, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_bytes() == direct.encode()


def test_out_unwritable_is_io_error(tmp_path, capsys):
    path = tmp_path / "missing" / "deep" / "nodes.csv"
    code, _, err = run(capsys, "nodes", "--n", "1", "--out", str(path))
    assert code == 3
    assert "i/o error" in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[-1] == "all checks passed"
    assert all(l.startswith("PASS") for l in lines[:-1])
    assert any("compact vs direct" in l for l in lines)
    assert any("interpolation condition" in l for l in lines)


@pytest.mark.parametrize("n", ["0", "-1"])
def test_verify_rejects_degree_below_one(capsys, n):
    code, out, err = run(capsys, "verify", "--n", n)
    assert code == 1
    assert out == ""
    assert "degree must be >= 1" in err


def test_verify_reports_a_failing_claim(capsys, monkeypatch):
    # a kernel off by a relative 1e-7 must fail its 1e-9 check, and only it
    exact = claims.kernels.phi_n_star
    monkeypatch.setattr(claims.kernels, "phi_n_star", lambda n, t: exact(n, t) * (1 + 1e-7))
    code, out, _ = run(capsys, "verify", "--n", "2")
    fails = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert code == 2
    assert len(fails) == 1
    assert fails[0].startswith("FAIL symmetric kernel compact vs direct (max err ")
    assert out.splitlines()[-1] == "1 check(s) failed"
    t = np.random.default_rng(5).uniform(-1.0, 1.0, size=(50, 4))
    t -= t.mean(axis=1, keepdims=True)
    assert claims.compact_kernels(2, t)["symmetric kernel"] >= 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        ("kernel", "--grid", "0"),
        ("lebesgue", "--kind", "instar", "--grid", "-3"),
    ],
    ids=" ".join,
)
def test_bad_grid_is_named_in_the_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "grid must have at least 2 points per axis" in err


@pytest.mark.parametrize("kind", ["instar", "lnstar"])
def test_lebesgue_grid_zero_is_rejected(capsys, kind):
    # 0 is a grid size, not "use the default"
    code, out, err = run(capsys, "lebesgue", "--kind", kind, "--n", "2", "--grid", "0")
    assert code == 1
    assert out == ""
    assert "grid must have at least" in err


@pytest.mark.parametrize("argv", [
    ("sn", "--grid", "1"), ("sn", "--grid", "0"), ("sn", "--grid", "17"),
    *((k, "--quad", "64") for k in ("in", "instar", "ln", "lnstar")),
], ids=" ".join)
def test_lebesgue_flag_that_does_not_apply_is_rejected(capsys, argv):
    # sn is a convolution with nothing to scan; the interpolation scans have
    # no quadrature
    kind, flag, value = argv
    code, out, err = run(capsys, "lebesgue", "--kind", kind, "--n", "2", flag, value)
    assert code == 1
    assert out == ""
    assert f"error: {flag} does not apply to --kind {kind}" in err


def test_lebesgue_sn_default(capsys):
    # the mean of |D_2| on the 64^3 cell grid
    code, out, _ = run(capsys, "lebesgue", "--kind", "sn", "--n", "2")
    assert code == 0
    header, [row] = parse_csv(out)
    rec = dict(zip(header, row))
    assert (rec["kind"], rec["n"], rec["grid"], rec["quad"]) == ("sn", "2", "", "64")
    assert abs(float(rec["estimate"]) - 4.244733549032469) < 1e-12 * 4.244733549032469


def test_lebesgue_quad_zero_is_rejected(capsys):
    code, out, err = run(capsys, "lebesgue", "--kind", "sn", "--n", "2", "--quad", "0")
    assert code == 1
    assert out == ""
    assert "quadrature order must be at least 2" in err


def test_bad_subcommand_usage(capsys):
    code, _, _ = run(capsys, "nosuch")
    assert code == 1


def test_parser_is_built_once_and_calls_do_not_leak(capsys, monkeypatch, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setattr(cli.transforms, "lebesgue_Sn",
                        lambda n, quad_order: seen.append(quad_order) or 2.0)
    monkeypatch.setattr(cli.interpolation, "lebesgue_interp",
                        lambda n, kind, grid_per_axis: seen.append(grid_per_axis) or 2.0)
    for kinds in (("sn", "in", "sn"), ("in", "sn", "in")):
        seen.clear()
        objs = [json.loads(run(capsys, "lebesgue", "--kind", k, "--format", "json")[1])
                for k in kinds]
        sizes = [obj["quad" if k == "sn" else "grid"] for obj, k in zip(objs, kinds)]
        want = [64 if k == "sn" else 25 for k in kinds]
        assert sizes == seen == want
    nodes = node_set("lnstar", 2)
    path = write_samples(tmp_path / "samples.csv",
                         [(k, complex(i, -i)) for i, k in enumerate(nodes)])
    samples = ("interpolate", "--kind", "lnstar", "--samples", path, "--n", "2", "--grid", "3")
    builtin = ("interpolate", "--kind", "lnstar", "--f", "expsin", "--n", "2", "--grid", "3")
    alone = {argv: run(capsys, *argv) for argv in (samples, builtin)}
    for first, second in ((samples, builtin), (builtin, samples), (samples, samples)):
        assert run(capsys, *first) == alone[first]
        assert run(capsys, *second) == alone[second]
    assert "f_re" not in alone[samples][1] and alone[samples][2] == ""
    assert "f_re" in alone[builtin][1] and "max_error=" in alone[builtin][2]


def canonical(out):
    return json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("argv", [
    *(("nodes", "--set", s, "--n", str(n)) for s in ("hn", "hstar", "hcirc", "lambda")
      for n in (1, 2, 3, 4)),
    *(("kernel", "--f", f, "--k", "4,0,0,-4", "--n", "2", "--grid", "3")
      for f in ("phi", "theta", "dirichlet", "phin", "phistar")),
    *(("interpolate", "--kind", k, "--f", "expsin", "--n", "2", "--grid", "3")
      for k in ("in", "instar", "ln", "lnstar")),
    ("cubature", "--f", "phi", "--k", "4,0,0,-4", "--n", "2"),
    ("lebesgue", "--kind", "lnstar", "--n", "2", "--grid", "3"),
], ids=" ".join)
def test_json_tables_are_canonical(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == canonical(out)


def test_json_samples_table_is_canonical(tmp_path, capsys):
    nodes = node_set("instar", 2)
    path = write_samples(tmp_path / "samples.csv",
                         [(k, complex(i / 3, -0.0)) for i, k in enumerate(nodes)])
    code, out, _ = run(capsys, "interpolate", "--kind", "instar", "--samples", path,
                       "--n", "2", "--grid", "3", "--format", "json")
    assert code == 0
    assert out == canonical(out)


def test_negative_zero_is_printed_in_both_formats(capsys):
    # the tetrahedral grid's first point is (0, 0, 0, -0.0)
    argv = ("interpolate", "--kind", "lnstar", "--f", "one", "--n", "1", "--grid", "2")
    _, text, _ = run(capsys, *argv)
    _, js, _ = run(capsys, *argv, "--format", "json")
    header, rows = parse_csv(text)
    assert header[3] == "t4" and rows[0][3] == "-0.0"
    assert js.startswith('{"grid":2,"kind":"lnstar","max_error":0.0,"n":1,'
                         '"values":[{"abs_err":0.0,"f_im":0.0,"f_re":1.0,"im":0.0,'
                         '"point":[0.0,0.0,0.0,-0.0],')
    assert math.copysign(1.0, json.loads(js)["values"][0]["point"][3]) == -1.0


# sha256 of stdout: any change to node order, strata labels, weights or
# float printing changes a digest
OUTPUT_SHA256 = {
    ("nodes", "--set", "hn", "--n", "3"):
        "ab128bfbf1e4ef46c83e1231cd726dda486572aa410ef3f035bacfcce0701494",
    ("nodes", "--set", "hn", "--n", "3", "--format", "json"):
        "fc0ba08ce7d3c3f55555424dead3f91cc3fd709b2c812631391ede34b9b73db4",
    ("nodes", "--set", "hstar", "--n", "3"):
        "c704e2328d4a97f27cb91951a4bb2b7b6b944ed49d70bc4378d13bb8c018880d",
    ("nodes", "--set", "hstar", "--n", "3", "--format", "json"):
        "cbad3d268c3c723febdea03bc0cf28da451604a8886716edead4d826fa336498",
    ("nodes", "--set", "hcirc", "--n", "3"):
        "502d10ce8d342b1ec847ff5a3d28a18a95fdfb14e478a6dc2d569461717b3eb0",
    ("nodes", "--set", "hcirc", "--n", "3", "--format", "json"):
        "932cc98504aa6d2385b7ddd067a45fd6c716e1ba7b7b899f2c333b51b0e97ecb",
    ("nodes", "--set", "lambda", "--n", "3"):
        "bb9a83c91470f8704a88ea7d361507d26ee23539a2506bb731c0909bb19f6904",
    ("nodes", "--set", "lambda", "--n", "3", "--format", "json"):
        "b91b55a16bc7eaeff978a2280852589d0c94facb51851ad11da57b243e4d84ba",
    ("verify", "--n", "1"):
        "5c233f180a482241d0e1dfcc7bd45ac2821b8188c9b6aeffc1de67873a7706db",
    ("verify", "--n", "2"):
        "eaed9ac75057f8c777d865864ed443260db7afa4349992541a6be73ca3390c4c",
    ("verify", "--n", "3"):
        "447c98033b045676a4a94cd0eeb23b076ccafce97295aace694b3f61376e7890",
    ("kernel", "--f", "dirichlet", "--n", "2", "--grid", "4"):
        "573b80ee537c2f840a88479171eab64817cadb6bc87f1c575fab4d0c9d494870",
    ("kernel", "--f", "dirichlet", "--n", "2", "--grid", "4", "--format", "json"):
        "480b656f13874ffffb10295be9e085ab34b2df110989ac5cd28bf008dd4c9b2b",
    ("interpolate", "--kind", "lnstar", "--f", "expsin", "--n", "3", "--grid", "4"):
        "a35a431d14d94446df73e5d377721c16ec6d609bda381a17dc46e8464bc08b3a",
    ("interpolate", "--kind", "lnstar", "--f", "expsin", "--n", "3", "--grid", "4",
     "--format", "json"):
        "d7d98aa9f0f71a5b9737e2644b822073a96aa1ea9fad2fbb0b9e862de7277b01",
    ("nodes", "--set", "hstar", "--n", "10", "--format", "json"):
        "6f620cff38ab2940b91a3f9747fe3ebb5d6100070dcb65487a498f09acca8172",
    ("nodes", "--set", "lambda", "--n", "24"):
        "500e3cb0d792ce4a0c522adf64c979d471c2e135333f792f5f332d4a955262de",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_SHA256), ids=" ".join)
def test_output_bytes_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_SHA256[argv]


# interpolate --samples on the lnstar n=2 nodes with values re = i/4 - 1,
# im = 1/2 - i/8 for the i-th node
SAMPLES_SHA256 = {
    "csv": "e8b6c6d1d3b60b966c037b375fca8dc530e3b6d127c7c037055b8c42737371cf",
    "json": "86549be478c8d3e74a945d4113c6c07e05765211003ded0919ea1995f850c545",
}


@pytest.mark.parametrize("fmt", sorted(SAMPLES_SHA256))
def test_samples_output_bytes_pinned(tmp_path, capsys, fmt):
    nodes = node_set("lnstar", 2)
    path = write_samples(tmp_path / "samples.csv",
                         [(k, complex(i / 4 - 1.0, 0.5 - i / 8)) for i, k in enumerate(nodes)])
    code, out, _ = run(capsys, "interpolate", "--kind", "lnstar", "--samples", path,
                       "--n", "2", "--grid", "3", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLES_SHA256[fmt]
