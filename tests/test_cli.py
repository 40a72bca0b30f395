import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli

QUIVER_DIR = Path(__file__).resolve().parents[1] / "src/dynkin_coha/data/quivers"


def test_qpoly_golden_output():
    result = run_cli("qpoly", "--quiver", "a2", "--orbit", "1,0,1")
    assert result.returncode == 0
    assert result.stdout == "w[1,1] - w[2,1]\n"


def test_roots_by_path_and_by_name():
    by_name = run_cli("roots", "--quiver", "a2")
    by_path = run_cli("roots", "--quiver", str(QUIVER_DIR / "a2.json"))
    assert by_name.returncode == by_path.returncode == 0
    assert by_name.stdout == by_path.stdout == "0 1\n1 1\n1 0\n"


def test_roots_e6_line_count():
    result = run_cli("roots", "--quiver", "e6")
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 36


def test_vertex_map_echoed_on_stderr():
    result = run_cli("roots", "--quiver", "a2_rev")
    assert "vertex map: 1->2, 2->1" in result.stderr


def test_json_output_round_trips():
    result = run_cli("--format", "json", "roots", "--quiver", "a2_rev")
    obj = json.loads(result.stdout)
    assert obj["status"] == "ok"
    assert obj["dynkin_type"] == "A2"
    assert obj["vertex_map"] == {"1": 2, "2": 1}
    assert obj["roots"] == [[0, 1], [1, 1], [1, 0]]


def test_orbits_and_codim():
    result = run_cli("orbits", "--quiver", "a2", "--gamma", "1,1")
    assert result.stdout == "0,1,0 codim=0\n1,0,1 codim=1\n"
    codim = run_cli("codim", "--quiver", "a2", "--orbit", "1,0,1")
    assert codim.stdout == "1\n"


def test_homtable_shape():
    result = run_cli("--format", "json", "homtable", "--quiver", "a3")
    obj = json.loads(result.stdout)
    assert len(obj["hom"]) == 6 and len(obj["ext"]) == 6


def test_mul_command():
    result = run_cli(
        "mul", "--quiver", "a2", "--gamma1", "0,1", "--gamma2", "1,0",
        "--f1", "1", "--f2", "1",
    )
    assert result.returncode == 0
    assert result.stdout == "w[1,1] - w[2,1]\n"


def test_restrict_and_euler():
    euler = run_cli("euler", "--quiver", "a2", "--orbit", "1,0,1")
    assert euler.stdout == "-u[1,1] + u[3,1]\n"
    restrict = run_cli(
        "restrict", "--quiver", "a2", "--orbit", "1,0,1",
        "--f", "w[1,1] - w[2,1]",
    )
    assert restrict.stdout == euler.stdout


def test_residue_mul_command():
    result = run_cli(
        "residue-mul", "--quiver", "a2", "--gamma1", "0,1", "--gamma2", "1,0",
        "--g", "1", "--f2", "1",
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "residue: w[1,1] - w[2,1]"
    assert lines[1] == "shuffle: w[1,1] - w[2,1]"
    assert lines[2] == "match: yes"


@pytest.mark.parametrize("optimize", [False, True])
def test_non_symmetric_mul_exits_two(optimize):
    # block symmetry is checked by code that python -O keeps
    result = run_cli(
        "mul", "--quiver", "a2", "--gamma1", "2,0", "--gamma2", "1,0",
        "--f1", "w[1,1]^2", "--f2", "1", optimize=optimize,
    )
    assert result.returncode == 2
    assert result.stderr == "error: element is not block-symmetric\n"
    assert result.stdout == ""


def test_verify_all_passes_under_optimize():
    result = run_cli("verify-all", optimize=True)
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "PASS"


PLANTED_EULER_DEFECT = """
import sys
from dynkin_coha import coha, verify
from dynkin_coha.cli import load_quiver
honest = coha.euler_class
coha.euler_class = lambda q, m: honest(q, m) * 2
result = verify.verify_euler_factorization(load_quiver("a2")[0], 3)
print(sys.flags.optimize, result.status(), result.counterexample)
"""


def test_planted_defect_fails_under_optimize():
    # a doubled Euler class must break the factor-image split even when
    # assert statements are stripped
    result = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_EULER_DEFECT],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("1 FAIL ")
    assert "factor image does not split off the Euler class" in result.stdout


PLANTED_CLAIM_DEFECT = """
import sys
from dynkin_coha import modrep, qalg, verify
from dynkin_coha.cli import load_quiver
q = load_quiver("a2")[0]
modrep.root_data(q)  # the Hom/Ext tables are built before the defect
if sys.argv[1] == "codim":
    honest = modrep.euler_form
    modrep.euler_form = lambda q, a, b: 2 * honest(q, a, b)
else:
    honest = qalg.vec_add
    qalg.vec_add = lambda a, b: honest(honest(a, b), (1, 0))
result = verify.verify_codim_lemma(q, 2)
print(sys.flags.optimize, result.status(), result.counterexample)
"""


@pytest.mark.parametrize("defect,message", [
    ("codim", "admissible order violated in codimension formulas"),
    ("sign", "sign disagrees with the closed formula"),
])
def test_planted_claim_defect_fails_under_optimize(defect, message):
    # the codimension formulas of modrep.codim and the normal-form sign of
    # qalg.normal_form_exponent are checked by code that python -O keeps
    result = subprocess.run(
        [sys.executable, "-O", "-c", PLANTED_CLAIM_DEFECT, defect],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("1 FAIL ")
    assert message in result.stdout


def test_verify_reineke_pass_exit_zero():
    result = run_cli(
        "verify-reineke", "--quiver", "a2", "--cap", "3,3", "--precision", "20"
    )
    assert result.returncode == 0
    assert result.stdout.startswith("PASS")


def test_verify_json_schema():
    result = run_cli(
        "--format", "json", "verify-betti", "--quiver", "a2",
        "--max-total", "3", "--precision", "20",
    )
    obj = json.loads(result.stdout)
    assert obj["status"] == "PASS"
    assert obj["instances_checked"] > 0
    assert obj["counterexample"] is None


def test_verify_structure_e8_exits_input_error():
    result = run_cli("verify-structure", "--quiver", "e8", "--degree-cap", "2")
    assert result.returncode == 2
    assert "NoUnitCoordinate" in result.stderr


@pytest.mark.parametrize("optimize", [False, True])
def test_exponent_range_is_refused_without_a_traceback(optimize):
    # an exponent past the packed field range is an input error
    too_large = run_cli(
        "residue-mul", "--quiver", "a2", "--gamma1", "1,0", "--gamma2", "0,1",
        "--g", "a[1,1]^40000", "--f2", "1", optimize=optimize,
    )
    assert too_large.returncode == 2
    assert too_large.stderr.startswith("error: polynomial: monomials may reach exponent sum 40000")
    # an input that fits, whose product does not, fails its range check
    product_too_large = run_cli(
        "mul", "--quiver", "a2", "--gamma1", "1,0", "--gamma2", "0,1",
        "--f1", "w[1,1]^32767", "--f2", "w[2,1]", optimize=optimize,
    )
    assert product_too_large.returncode == 1
    assert product_too_large.stderr.startswith("error: CheckFailed: monomials may reach")
    assert product_too_large.stdout == ""


def test_input_errors_exit_two(tmp_path):
    missing = run_cli("roots", "--quiver", str(tmp_path / "nope.json"))
    assert missing.returncode == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"vertices": 2, "edges": [[1,2],]}')
    broken = run_cli("roots", "--quiver", str(bad_json))
    assert broken.returncode == 2
    assert "line" in broken.stderr and "column" in broken.stderr

    cycle = tmp_path / "cycle.json"
    cycle.write_text('{"vertices": 3, "edges": [[1,2],[2,3],[3,1]]}')
    assert run_cli("roots", "--quiver", str(cycle)).returncode == 2

    for name, text in [
        ("string_vertices.json", '{"vertices": "2", "edges": [[1,2]]}'),
        ("int_edges.json", '{"vertices": 2, "edges": 5}'),
    ]:
        wrong_type = tmp_path / name
        wrong_type.write_text(text)
        typed = run_cli("roots", "--quiver", str(wrong_type))
        assert typed.returncode == 2
        assert typed.stderr.startswith("error:")

    bad_poly = run_cli(
        "mul", "--quiver", "a2", "--gamma1", "1,0", "--gamma2", "0,1",
        "--f1", "w[1,1] +", "--f2", "1",
    )
    assert bad_poly.returncode == 2
    assert "column" in bad_poly.stderr


def test_outputs_are_byte_identical():
    first = run_cli("--format", "json", "orbits", "--quiver", "a3", "--gamma", "1,1,1")
    second = run_cli("--format", "json", "orbits", "--quiver", "a3", "--gamma", "1,1,1")
    assert first.stdout == second.stdout
    third = run_cli("qpoly", "--quiver", "a2", "--orbit", "1,0,1")
    fourth = run_cli("qpoly", "--quiver", "a2", "--orbit", "1,0,1")
    assert third.stdout == fourth.stdout


def test_order_and_verify_codim_lemma():
    order = run_cli("order", "--quiver", "a2")
    assert order.stdout == "1: 0 1\n2: 1 1\n3: 1 0\n"
    lemma = run_cli("verify-codim-lemma", "--quiver", "a2", "--max-total", "4")
    assert lemma.returncode == 0
    assert lemma.stdout.startswith("PASS")


def test_fail_exit_code_contract(capsys):
    # exercise the reporting path with a synthetic failing check
    from dynkin_coha.cli import FAIL, _emit_verify, build_parser
    from dynkin_coha.verify import VerifyResult

    args = build_parser().parse_args(["verify-betti", "--quiver", "a2"])
    failing = VerifyResult("synthetic", False, 3, "gamma=(1,1)")
    assert _emit_verify(args, [failing]) == FAIL
    out = capsys.readouterr().out
    assert out.startswith("FAIL synthetic")
    assert "gamma=(1,1)" in out


def test_verify_all_single_quiver():
    result = run_cli(
        "verify-all", "--quiver", "a2", "--max-total", "3",
        "--precision", "15", "--trials", "4",
    )
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[-1] == "PASS"
    assert all(line.startswith(("PASS", "FAIL", " ")) for line in lines[:-1])
