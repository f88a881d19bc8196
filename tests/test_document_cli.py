import json
import os
import subprocess
import sys

import numpy as np
import pytest

import lagidx
from lagidx import (
    NotLagrangian,
    ValidationError,
    graph_plane,
    horizontal_plane,
    planes_equal,
    random_plane,
    vertical_plane,
)
from lagidx import document as doc
from lagidx.cli import RELATION_NAMES, main
from lagidx.indices import METHODS


@pytest.fixture
def sample_doc(tmp_path):
    objects = {
        "L0": doc.plane_entry(horizontal_plane(1)),
        "L1": doc.plane_entry(graph_plane(np.array([[1.0]]))),
        "L2": doc.plane_entry(graph_plane(np.array([[2.0]]))),
        "Lhalf": doc.plane_entry(graph_plane(np.array([[0.5]]))),
        "Linf": doc.plane_entry(vertical_plane(1)),
        "A": doc.hermitian_entry(np.array([[2.0, 1.0], [1.0, -1.0]])),
        "P": doc.hermitian_entry(np.diag([1.0, 0.0])),
        "seg": {"type": "path", "kind": "graph_segment",
                "a": doc.encode_matrix(np.zeros((1, 1))),
                "b": doc.encode_matrix(np.ones((1, 1)))},
        "const": {"type": "path", "kind": "graph_segment",
                  "a": doc.encode_matrix(np.zeros((1, 1))),
                  "b": doc.encode_matrix(np.zeros((1, 1)))},
    }
    path = tmp_path / "sample.json"
    doc.save(doc.new_document(objects), str(path))
    return str(path)


def test_round_trip_bit_identical(sample_doc):
    with open(sample_doc) as fh:
        text = fh.read()
    assert doc.dumps(doc.loads(text)) == text


def test_loader_rejects_duplicate_names():
    text = ('{"schema_version": "1", "objects": {'
            '"L": {"type": "hermitian", "entries": [[[1.0, 0.0]]]}, '
            '"L": {"type": "hermitian", "entries": [[[2.0, 0.0]]]}}}')
    with pytest.raises(ValidationError):
        doc.loads(text)


def custom_path_document(grid, frames) -> dict:
    return doc.new_document({"p": {"type": "path", "kind": "custom", "grid": grid, "frames": frames}})


def malformed_documents() -> list:
    """Documents whose structure, not whose numbers, is wrong."""
    eye = {"x": doc.encode_matrix(np.eye(1)), "y": doc.encode_matrix(np.zeros((1, 1)))}
    eye2 = {"x": doc.encode_matrix(np.eye(2)), "y": doc.encode_matrix(np.zeros((2, 2)))}
    return [
        doc.new_document({"A": [1, 2]}),                       # entry is not an object
        custom_path_document([0.0, 1.0], [[1], [2]]),          # frames are not objects
        custom_path_document([0.0, "half", 1.0], [eye] * 3),   # grid is not numeric
        custom_path_document([0.0, 1.0], [eye, eye2]),         # knots differ in size
        custom_path_document([False, True], [eye] * 2),        # grid holds booleans
        doc.new_document({"L": {"type": "plane", "x": [[[True, False]]],  # booleans as numbers
                                "y": doc.encode_matrix(np.zeros((1, 1)))}}),
        doc.new_document({"A": {"type": "hermitian", "entries": [[["one", 0.0]]]}}),  # a string entry
        doc.new_document({"A": {"type": "hermitian", "entries": [[1.0, 0.0]]}}),  # rows are not pairs
        doc.new_document({"A": {"type": "hermitian", "entries": [[[float("nan"), 0.0]]]}}),  # NaN
        [doc.new_document({})],                                # root is a list
        {"schema_version": doc.SCHEMA_VERSION, "objects": []},  # objects is a list
        doc.new_document({"A": {"type": "tensor"}}),           # unknown object type
        doc.new_document({"p": {"type": "path", "kind": "spiral"}}),  # unknown path kind
        doc.new_document({"p": {"type": "path", "kind": "custom", "frames": [eye] * 2}}),  # no grid
    ]


def test_loader_validates_planes():
    bad = {"schema_version": "1",
           "objects": {"L": {"type": "plane",
                             "x": doc.encode_matrix(np.eye(1)),
                             "y": doc.encode_matrix(1j * np.eye(1))}}}
    with pytest.raises(NotLagrangian):
        doc.loads(json.dumps(bad))
    with pytest.raises(ValidationError):
        doc.loads(json.dumps({"schema_version": "99", "objects": {}}))
    with pytest.raises(ValidationError):
        doc.loads("not json at all {")
    for raw in malformed_documents():
        with pytest.raises(ValidationError):
            doc.loads(json.dumps(raw))


def test_document_accessors(sample_doc, tol):
    d = doc.load(sample_doc, tol)
    assert planes_equal(d.plane("L0"), horizontal_plane(1))
    assert d.hermitian("A").shape == (2, 2)
    assert d.names("plane") == ["L0", "L1", "L2", "Lhalf", "Linf"]
    with pytest.raises(ValidationError):
        d.plane("missing")
    with pytest.raises(ValidationError):
        d.plane("A")  # wrong type


def test_document_builds_each_object_once(sample_doc, monkeypatch):
    # Load validates and builds every entry; the accessors return those
    # objects and do not validate again.
    # Counted at the frame check itself, which validate_frame and the
    # midpoints of custom_path both call.
    calls = []
    check = lagidx.planes._check_frames

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(lagidx.planes, "_check_frames", counted)
    monkeypatch.setattr(lagidx.maslov, "_check_frames", counted)
    d = doc.load(sample_doc)
    assert len(calls) == 5  # the five plane entries
    for name in d.names("plane"):
        assert d.plane(name) is d.plane(name)
    raw = off_grassmannian_document()
    raw["objects"]["p"]["frames"][1] = raw["objects"]["p"]["frames"][0]
    calls.clear()
    d = doc.Document(raw)
    assert len(calls) == 4  # two knots, one midpoint and the plane M
    d.path("p")
    d.plane("M")
    assert len(calls) == 4


def frame_symplectic_projector_document(matrix) -> dict:
    """A frame, a symplectic map, a scaled-projector path and a reference
    plane; ``matrix`` is stored as the symplectic entry."""
    return doc.new_document({
        "F": {"type": "frame", "x": doc.encode_matrix(2.0 * np.eye(2)),
              "y": doc.encode_matrix(np.diag([1.0, -3.0]))},
        "S": {"type": "symplectic", "matrix": doc.encode_matrix(matrix)},
        "proj": {"type": "path", "kind": "scaled_projector",
                 "q": doc.encode_matrix(np.diag([1.0, 0.0]))},
        "M": doc.plane_entry(graph_plane(np.diag([0.5, -1.0]))),
    })


def test_frame_symplectic_and_projector_entries(tmp_path, capsys):
    s = lagidx.random_symplectic(2, 4)
    d = doc.Document(frame_symplectic_projector_document(s))
    x, y = d.frame("F")
    assert np.array_equal(x, 2.0 * np.eye(2)) and np.array_equal(y, np.diag([1.0, -3.0]))
    assert np.array_equal(d.symplectic("S"), s)
    path = d.path("proj")
    assert path.kind == "scaled_projector"
    assert lagidx.maslov_index(path, d.plane("M")) == 1
    good = tmp_path / "good.json"
    good.write_text(json.dumps(frame_symplectic_projector_document(s)))
    assert main(["maslov", "--input", str(good), "--path", "proj", "--reference", "M"]) == 0
    assert "maslov index: 1" in capsys.readouterr().out
    # S* J S = 4 J for S = 2I: not symplectic, refused on load.
    raw = frame_symplectic_projector_document(2.0 * np.eye(4))
    with pytest.raises(ValidationError, match="not symplectic"):
        doc.loads(json.dumps(raw))
    raw["objects"]["L"] = doc.plane_entry(horizontal_plane(2))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["index", "--input", str(bad), "--planes", "L", "M", "L"]) == 2


def test_custom_path_document(tmp_path):
    frames = []
    for t in (0.0, 0.5, 1.0):
        frames.append({"x": doc.encode_matrix(np.eye(1)),
                       "y": doc.encode_matrix(np.array([[t]]))})
    raw = doc.new_document({
        "p": {"type": "path", "kind": "custom", "grid": [0.0, 0.5, 1.0], "frames": frames},
        "M": doc.plane_entry(graph_plane(np.array([[0.25]]))),
    })
    d = doc.Document(raw)
    from lagidx import maslov_index
    assert maslov_index(d.path("p"), d.plane("M")) == 1


def off_grassmannian_document() -> dict:
    """Custom path from (I; A) to (B; I) with Hermitian A and B that do not
    commute: both knots are Lagrangian, the midpoint has residual
    |AB - BA| / 4."""
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    frames = [{"x": doc.encode_matrix(np.eye(2)), "y": doc.encode_matrix(a)},
              {"x": doc.encode_matrix(b), "y": doc.encode_matrix(np.eye(2))}]
    raw = custom_path_document([0.0, 1.0], frames)
    raw["objects"]["M"] = doc.plane_entry(graph_plane(np.diag([0.3, -0.2])))
    return raw


def test_custom_path_must_stay_lagrangian_between_knots(tmp_path):
    raw = off_grassmannian_document()
    with pytest.raises(ValidationError, match="between knots 0 and 1"):
        doc.loads(json.dumps(raw))
    bad = tmp_path / "off.json"
    bad.write_text(json.dumps(raw))
    assert main(["maslov", "--input", str(bad), "--path", "p", "--reference", "M"]) == 2


def test_cli_maslov_does_not_load_scipy_linalg(tmp_path):
    # A fresh interpreter, so modules imported by other tests do not count.
    frames = [{"x": doc.encode_matrix(np.eye(2)), "y": doc.encode_matrix(t * np.eye(2))}
              for t in (0.0, 0.5, 1.0)]
    raw = custom_path_document([0.0, 0.5, 1.0], frames)
    raw["objects"]["M"] = doc.plane_entry(graph_plane(np.diag([0.25, 0.75])))
    path = tmp_path / "custom.json"
    doc.save(raw, str(path))
    src = os.path.dirname(os.path.dirname(lagidx.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from lagidx.cli import main; "
            f"code = main(['maslov', '--input', {str(path)!r}, '--path', 'p', '--reference', 'M']); "
            "print(code, 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    lines = out.stdout.strip().splitlines()
    assert "maslov index: 2" in lines
    assert lines[-1] == "0 False"


def test_cli_index_and_cross_check(sample_doc, capsys):
    assert main(["index", "--input", sample_doc, "--planes", "L0", "L2", "L1",
                 "--method", "omega", "--cross-check"]) == 0
    out = capsys.readouterr().out
    assert "value: 1" in out and "agree" in out


def test_cli_index_machine_output(sample_doc, capsys):
    assert main(["index", "--input", sample_doc, "--planes", "L0", "L1", "L2",
                 "--method", "robin", "--output", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0
    assert payload["method"] == "robin"
    assert payload["epsilon"] is not None


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": "1",
        "objects": {"L": {"type": "plane",
                          "x": doc.encode_matrix(np.eye(1)),
                          "y": doc.encode_matrix(1j * np.eye(1))}},
    }))
    assert main(["index", "--input", str(bad), "--planes", "L", "L", "L"]) == 2
    assert main(["index", "--input", str(tmp_path / "missing.json"),
                 "--planes", "a", "b", "c"]) == 2
    for i, raw in enumerate(malformed_documents()):
        bad = tmp_path / f"malformed{i}.json"
        bad.write_text(json.dumps(raw))
        assert main(["maslov", "--input", str(bad), "--path", "p", "--reference", "M"]) == 2
    # A matrix and a projector of different sizes.
    bad = tmp_path / "compress.json"
    bad.write_text(json.dumps(doc.new_document({"a": doc.hermitian_entry(np.eye(2)),
                                                "p": doc.hermitian_entry(np.eye(3))})))
    assert main(["relation", "--input", str(bad), "--op", "compress", "--names", "a", "p"]) == 2
    assert "differ" in capsys.readouterr().err
    # A dimension range with a part that is not an integer.
    for n_text in ("x", "1..x", "1,,2"):
        assert main(["verify", "--suite", "graphs", "--n", n_text, "--trials", "1"]) == 2
        assert "bad dimension range" in capsys.readouterr().err
    # Zero or negative trials would run nothing and still report "ok";
    # run_suite refuses them.
    for trials in ("0", "-3"):
        assert main(["verify", "--suite", "graphs", "--trials", trials]) == 2
        assert "run_suite: trials must be an integer of at least 1" in capsys.readouterr().err


def test_cli_refuses_a_negative_seed(sample_doc, capsys):
    # np.random.SeedSequence refuses a negative seed; run_suite must refuse
    # it first, with the validation exit code and no traceback.
    argv = ["verify", "--suite", "graphs", "--n", "1", "--trials", "1"]
    assert main([*argv, "--seed", "-1"]) == 2
    assert "run_suite: seed must be an integer of at least 0, got -1" in capsys.readouterr().err
    assert main([*argv, "--seed", "0"]) == 0
    capsys.readouterr()
    # The index algorithms draw nothing, so `index` has no --seed at all.
    with pytest.raises(SystemExit) as exc:
        main(["index", "--input", sample_doc, "--planes", "L0", "L1", "L2",
              "--method", "robin", "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_cli_index_has_no_forced_epsilon(tmp_path, capsys):
    # One epsilon near a zero of X + eps Y can give a wrong index with no
    # error: on this triple, the Robin maps at -0.42761069109144906, 1e-7
    # rad from a singular X + eps Y of L1, give 1.  So `index` takes no
    # --eps, and the two selected epsilons give 2, as every method does.
    triple = tmp_path / "triple.json"
    triple.write_text(json.dumps(doc.new_document(
        {f"L{i}": doc.plane_entry(random_plane(2, [1, i])) for i in range(3)})))
    argv = ["index", "--input", str(triple), "--planes", "L0", "L1", "L2", "--method", "robin"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--eps", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps 0.5" in capsys.readouterr().err
    assert main([*argv, "--cross-check", "--output", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 2
    assert set(payload["cross_check"].values()) == {2}


def test_cli_relation_round_trip(sample_doc, tmp_path, capsys):
    out_file = str(tmp_path / "out.json")
    assert main(["relation", "--input", sample_doc, "--op", "difference",
                 "--names", "L2", "L1", "--out", out_file]) == 0
    produced = doc.load(out_file)
    assert planes_equal(produced.plane("result"), graph_plane(np.array([[1.0]])))
    # output documents load back through the same loader (round trip)
    with open(out_file) as fh:
        text = fh.read()
    assert doc.dumps(doc.loads(text)) == text


def test_cli_relation_inverse_and_decompose(sample_doc, capsys):
    assert main(["relation", "--input", sample_doc, "--op", "inverse", "--names", "L0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    produced = doc.Document(payload)
    assert planes_equal(produced.plane("result"), vertical_plane(1))

    assert main(["relation", "--input", sample_doc, "--op", "decompose", "--names", "Linf"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["info"]["mul_dim"] == 1
    produced = doc.Document(payload)
    assert np.allclose(produced.hermitian("result_dom_projector"), np.zeros((1, 1)))


def test_cli_relation_compress(sample_doc, capsys):
    assert main(["relation", "--input", sample_doc, "--op", "compress",
                 "--names", "A", "P"]) == 0
    payload = json.loads(capsys.readouterr().out)
    produced = doc.Document(payload)
    assert np.allclose(produced.hermitian("result"), np.diag([2.0, 0.0]))


def test_cli_maslov(sample_doc, capsys):
    assert main(["maslov", "--input", sample_doc, "--path", "seg",
                 "--reference", "Lhalf"]) == 0
    out = capsys.readouterr().out
    assert "maslov index: 1" in out
    assert "t=0.5" in out


def test_cli_maslov_degenerate_exit(sample_doc, tmp_path, capsys):
    assert main(["maslov", "--input", sample_doc, "--path", "const",
                 "--reference", "L0"]) == 4
    # A tangency whose restricted crossing form has a kernel.
    tangent = tmp_path / "tangent.json"
    tangent.write_text(json.dumps(doc.new_document({
        "seg": {"type": "path", "kind": "graph_segment",
                "a": doc.encode_matrix(np.array([[0.0, -0.5], [-0.5, 1.0]])),
                "b": doc.encode_matrix(np.array([[0.0, 0.5], [0.5, 1.0]]))},
        "H": doc.plane_entry(horizontal_plane(2))})))
    capsys.readouterr()
    assert main(["maslov", "--input", str(tangent), "--path", "seg", "--reference", "H"]) == 4
    assert "has nullity 1" in capsys.readouterr().err


def test_cli_cross_check_disagreement_exit(sample_doc, capsys, monkeypatch):
    import lagidx.cli
    from lagidx.indices import IndexReport, duistermaat as real_duistermaat

    def broken(*planes, tol=None, method="omega", seed=None):
        if method == "reduce":
            return IndexReport(99, "reduce")
        return real_duistermaat(*planes, tol=tol, method=method, seed=seed)

    monkeypatch.setattr(lagidx.cli, "duistermaat", broken)
    code = main(["index", "--input", sample_doc, "--planes", "L0", "L1", "L2",
                 "--cross-check"])
    assert code == 3
    assert "DISAGREE" in capsys.readouterr().out


def test_cli_epsilon_disagreement_exit(sample_doc, capsys, monkeypatch):
    # Robin values that differ between its two epsilons.
    monkeypatch.setattr(lagidx.indices, "_robin_values", lambda r, tol: [0, 1])
    code = main(["index", "--input", sample_doc, "--planes", "L0", "L1", "L2",
                 "--method", "robin"])
    assert code == 3
    assert "gave 0 but epsilon" in capsys.readouterr().err


def test_cli_verify_ok_and_deterministic(capsys):
    args = ["verify", "--suite", "graphs", "--n", "1..2", "--trials", "2",
            "--seed", "5", "--output", "machine"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["reports"][0]["suite"] == "graphs"
    assert payload["reports"][0]["failures"] == []


def test_cli_tolerance_comes_from_the_flags_alone(sample_doc, capsys, monkeypatch):
    argv = ["index", "--input", sample_doc, "--planes", "L0", "L1", "L2"]
    assert main([*argv, "--tol-rank", "1e-7", "--tol-residual", "1e-6"]) == 0
    capsys.readouterr()
    for flag, value, field in (("--tol-rank", "2", "rank_rel_tol"), ("--tol-residual", "0", "residual_tol")):
        assert main([*argv, flag, value]) == 2
        assert f"{field} must lie strictly between 0 and 1" in capsys.readouterr().err
    # No environment variable sets a tolerance.
    assert main(argv) == 0
    plain = capsys.readouterr().out
    monkeypatch.setenv("LAGIDX_TOL_RANK", "abc")
    assert main(argv) == 0
    assert capsys.readouterr().out == plain


def test_cli_cross_check_follows_the_method_table(sample_doc, capsys):
    argv = ["index", "--input", sample_doc, "--cross-check", "--output", "machine"]
    for method in METHODS:
        assert main([*argv, "--planes", "L0", "L2", "L1", "--method", method.replace("_", "-")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1
        assert list(payload["cross_check"]) == [m.replace("_", "-") for m in METHODS if m != method]
    # Linf is not a graph, so the closed form does not apply and is left out of the comparison.
    assert main([*argv, "--planes", "L0", "L1", "Linf"]) == 0
    assert json.loads(capsys.readouterr().out)["cross_check"]["closed-form"] is None
    assert main(["index", "--input", sample_doc, "--planes", "L0", "L1", "Linf", "--cross-check"]) == 0
    assert "closed-form=n/a" in capsys.readouterr().out


def test_cli_relation_refuses_a_wrong_number_of_names(sample_doc, capsys):
    for op, (count, refusal) in RELATION_NAMES.items():
        names = ["L0", "L1", "L2"][:3 - count]  # one name for a binary op, two for a unary one
        assert main(["relation", "--input", sample_doc, "--op", op, "--names", *names]) == 2
        assert refusal in capsys.readouterr().err
