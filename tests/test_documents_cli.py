import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import privhist
import privhist.roundness
from privhist.cli import main
from privhist.datagen import DistributionSpec, TruncatedGaussian, UniformBall, UniformCube, sample, single
from privhist.documents import (
    dataset_from_doc,
    dataset_to_doc,
    encode,
    histogram_from_doc,
    histogram_to_doc,
    read_json,
    spec_from_doc,
    spec_to_doc,
    write_json_atomic,
)
from privhist.geometry import Ball, Dataset
from privhist.sanitizer import build_shifted_grid, build_voronoi, certify_nodes


class TestRoundTrips:
    def test_dataset_round_trip_bit_exact(self):
        data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 50, seed=1)
        doc = dataset_to_doc(data)
        again = dataset_from_doc(json.loads(json.dumps(doc)))
        assert np.array_equal(again.points, data.points)

    def test_spec_round_trip(self):
        spec = DistributionSpec(components=(
            (0.25, UniformCube(np.array([1.0, -1.0]), 0.5)),
            (0.5, UniformBall(np.zeros(2), 2.0)),
            (0.25, TruncatedGaussian(np.array([0.1, 0.2]), 0.3)),
        ))
        doc = json.loads(json.dumps(spec_to_doc(spec)))
        again = spec_from_doc(doc)
        assert spec_to_doc(again) == spec_to_doc(spec)

    def test_histogram_round_trip_including_voronoi(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 90, seed=2)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=10, max_depth=2,
                             method="greedy", probe_samples=6_000, seed=3)
        doc = json.loads(json.dumps(histogram_to_doc(hist)))
        again = histogram_from_doc(doc)
        assert histogram_to_doc(again) == histogram_to_doc(hist)
        # membership semantics survive the round trip
        for p in data.points[:20]:
            orig = [n.count for n in hist.root.walk() if n.is_leaf() and n.region.contains(p)]
            back = [n.count for n in again.root.walk() if n.is_leaf() and n.region.contains(p)]
            assert orig == back

    def test_grid_histogram_round_trip(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 150, seed=4)
        hist = build_shifted_grid(data, t=2, max_depth=5, seed=5)
        doc = histogram_to_doc(hist)
        assert histogram_to_doc(histogram_from_doc(json.loads(json.dumps(doc)))) == doc


class TestAtomicWrites:
    def test_write_and_read(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"kind": "x", "v": 1.5})
        assert read_json(path) == {"kind": "x", "v": 1.5}

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_output_mode_follows_umask(self, tmp_path, umask, mode):
        path = str(tmp_path / "doc.json")
        old = os.umask(umask)
        try:
            write_json_atomic(path, {"kind": "x"})
        finally:
            os.umask(old)
        assert os.stat(path).st_mode & 0o777 == mode

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        with pytest.raises(TypeError):
            write_json_atomic(path, {"bad": object()})
        assert not os.path.exists(path)
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".privhist-")]


@pytest.fixture
def workspace(tmp_path):
    old = os.getcwd()
    os.chdir(tmp_path)
    spec = single(UniformCube(np.zeros(2), 1.0))
    write_json_atomic("spec.json", spec_to_doc(spec))
    yield tmp_path
    os.chdir(old)


class TestCli:
    def test_generate_rerun_byte_identical(self, workspace):
        argv = ["generate", "--dist", "spec.json", "--n", "80", "--seed", "7",
                "--out", "d.json"]
        assert main(argv) == 0
        first = open("d.json", "rb").read()
        assert main(argv) == 0
        assert open("d.json", "rb").read() == first

    def test_threads_flag_is_rejected_and_manifest_is_argv(self, workspace):
        base = ["generate", "--dist", "spec.json", "--n", "40", "--seed", "3",
                "--out", "t.json"]
        assert main(["--threads", "4"] + base) == 1
        assert not os.path.exists("t.json")
        assert main(base) == 0
        assert read_json("t.json")["manifest"]["command"] == base

    def test_sanitize_attack_pipeline(self, workspace):
        assert main(["generate", "--dist", "spec.json", "--n", "120", "--seed", "1",
                     "--out", "d.json"]) == 0
        assert main(["sanitize", "--method", "grid", "--t", "2", "--max-depth", "5",
                     "--seed", "2", "--in", "d.json", "--out", "h.json"]) == 0
        hist_doc = read_json("h.json")
        assert hist_doc["kind"] == "sanitized_histogram"
        assert hist_doc["parameters"]["t"] == 2
        assert "seed_commitment" in hist_doc["parameters"]
        assert main(["attack", "--hist", "h.json", "--data", "d.json", "--c", "4",
                     "--t", "2", "--strategy", "uniform-in-leaf", "--queries", "500",
                     "--seed", "3", "--out", "a.json"]) == 0
        report = read_json("a.json")
        assert report["kind"] == "isolation_report"
        assert 0.0 <= report["rate"] <= 1.0
        assert report["manifest"]["inputs"].keys() == {"h.json", "d.json"}

    def test_point_outside_root_exits_one_naming_index(self, workspace, capsys):
        bad = Dataset(np.array([[0.0, 0.0], [3.0, 0.0]]))
        write_json_atomic("bad.json", dataset_to_doc(bad))
        code = main(["sanitize", "--method", "cube", "--t", "2", "--seed", "1",
                     "--in", "bad.json", "--out", "h.json"])
        assert code == 1
        assert "index 1" in capsys.readouterr().err
        assert not os.path.exists("h.json")

    @pytest.mark.parametrize("points,method", [
        ([[0.0, 0.0], [0.5, 0.1], [0.2, 0.3]], "cube"),     # a dyadic corner
        ([[0.0, 0.0], [0.5, 0.1], [0.2, 0.3]], "voronoi"),  # the unit ball's center
        ([[-1.0, -1.0], [0.5, 0.1], [0.2, 0.3]], "cube"),   # the root box's low corner
    ])
    def test_row_on_a_fixed_published_vector_exits_one(self, workspace, capsys, points,
                                                       method):
        write_json_atomic("atom.json", dataset_to_doc(Dataset(np.array(points))))
        code = main(["sanitize", "--method", method, "--t", "1", "--in", "atom.json",
                     "--out", "h.json"])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 0" in err and "no atoms" in err
        assert not os.path.exists("h.json")

    def test_a_row_on_a_voronoi_center_redraws_the_split(self, workspace):
        # the root's 4th greedy center, added as row 150, is on draw 0 of the
        # root split's centers, so the split draws its centers again
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 150, seed=0)
        argv = ["sanitize", "--method", "voronoi", "--centers", "greedy", "--t", "4",
                "--max-depth", "2", "--probe-samples", "2000", "--support", "unit-ball",
                "--seed", "5"]
        write_json_atomic("d0.json", dataset_to_doc(data))
        assert main(argv + ["--in", "d0.json", "--out", "h0.json"]) == 0
        first = histogram_from_doc(read_json("h0.json")).root.split.centers
        write_json_atomic("d.json", dataset_to_doc(Dataset(np.vstack([data.points, first[3]]))))
        assert main(argv + ["--in", "d.json", "--out", "h.json"]) == 0
        hist = histogram_from_doc(read_json("h.json"))
        assert hist.leaf_count_sum() == 151
        assert not np.array_equal(hist.root.split.centers, first)
        published = np.vstack([node.split.centers for node in hist.root.walk() if node.split])
        assert not (published == first[3]).all(axis=1).any()

    @pytest.mark.parametrize("argv", [
        ["sanitize", "--method", "cube", "--t", "2", "--max-depth", "0",
         "--in", "d.json", "--out", "h.json"],
        ["sanitize", "--method", "grid", "--t", "2", "--max-depth", "0",
         "--in", "d.json", "--out", "h.json"],
        ["measure-diameters", "--data", "d.json", "--method", "grid", "--t", "2",
         "--trials", "1", "--max-depth", "0", "--out", "h.json"],
    ])
    def test_max_depth_zero_exits_one(self, workspace, capsys, argv):
        assert main(["generate", "--dist", "spec.json", "--n", "30", "--seed", "1",
                     "--out", "d.json"]) == 0
        assert main(argv) == 1
        assert "max_depth must be positive" in capsys.readouterr().err
        assert not os.path.exists("h.json")

    @pytest.mark.parametrize("exc,code", [(MemoryError, 2), (RuntimeError, 3)])
    def test_unexpected_exceptions_map_to_exit_codes(self, workspace, monkeypatch,
                                                      capsys, exc, code):
        def explode(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr("privhist.sanitizer.build_recursive_cube", explode)
        assert main(["generate", "--dist", "spec.json", "--n", "30", "--seed", "1",
                     "--out", "d.json"]) == 0
        assert main(["sanitize", "--method", "cube", "--t", "2", "--in", "d.json",
                     "--out", "h.json"]) == code
        err = capsys.readouterr().err
        assert ("internal error: RuntimeError: boom" in err) == (code == 3)
        assert ("out of memory" in err) == (code == 2)
        assert not os.path.exists("h.json")

    @staticmethod
    def _broken_files():
        """d.json and h.json, plus malformed variants of each."""
        assert main(["generate", "--dist", "spec.json", "--n", "40", "--seed", "1",
                     "--out", "d.json"]) == 0
        assert main(["sanitize", "--method", "grid", "--t", "2", "--max-depth", "4",
                     "--seed", "1", "--in", "d.json", "--out", "h.json"]) == 0
        with open("text.json", "w") as handle:
            handle.write("points: 1, 2\n")
        with open("list.json", "w") as handle:
            handle.write("[1, 2]\n")
        data = read_json("d.json")
        data["n"] += 1
        write_json_atomic("bad_n.json", data)
        hist = read_json("h.json")
        del hist["root"]["children"]
        write_json_atomic("no_children.json", hist)

    @pytest.mark.parametrize("argv,message", [
        (["sanitize", "--method", "cube", "--t", "2", "--in", "missing.json",
          "--out", "o.json"], "cannot read missing.json"),
        (["sanitize", "--method", "cube", "--t", "2", "--in", "text.json",
          "--out", "o.json"], "text.json is not a JSON document"),
        (["sanitize", "--method", "cube", "--t", "2", "--in", "list.json",
          "--out", "o.json"], "list.json holds a JSON list"),
        (["sanitize", "--method", "cube", "--t", "2", "--in", "bad_n.json",
          "--out", "o.json"], "malformed dataset document"),
        (["attack", "--hist", "no_children.json", "--data", "d.json", "--c", "4", "--t", "2",
          "--strategy", "uniform-in-leaf", "--queries", "10", "--out", "o.json"],
         "malformed sanitized_histogram document: missing key 'children'"),
        (["check-privacy", "--in", "no_children.json", "--c", "8", "--out", "o.json"],
         "malformed sanitized_histogram document: missing key 'children'"),
        (["mst-compare", "--hist", "no_children.json", "--data", "d.json", "--out", "o.json"],
         "malformed sanitized_histogram document: missing key 'children'"),
        (["sanitize", "--method", "cube", "--t", "2", "--in", "d.json",
          "--out", "nowhere/o.json"], "cannot write nowhere/o.json"),
    ], ids=["missing-in", "not-json", "top-level-list", "n-mismatch", "attack-no-children",
            "check-privacy-no-children", "mst-compare-no-children", "out-dir-missing"])
    def test_bad_inputs_and_outputs_exit_one(self, workspace, capsys, argv, message):
        self._broken_files()
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not os.path.exists("o.json")

    def test_unknown_flag_exits_one(self, workspace):
        assert main(["generate", "--nonsense", "1"]) == 1

    def test_uniform_centers_high_dimension_needs_override(self, workspace):
        spec6 = single(UniformCube(np.zeros(6), 1.0))
        write_json_atomic("spec6.json", spec_to_doc(spec6))
        assert main(["generate", "--dist", "spec6.json", "--n", "30", "--seed", "1",
                     "--out", "d6.json"]) == 0
        code = main(["sanitize", "--method", "voronoi", "--centers", "uniform",
                     "--t", "2", "--seed", "1", "--in", "d6.json", "--out", "h6.json"])
        assert code == 1
        assert main(["sanitize", "--method", "voronoi", "--centers", "uniform",
                     "--t", "2", "--max-depth", "1", "--seed", "1", "--override-m",
                     "64", "--in", "d6.json", "--out", "h6.json"]) == 0
        doc = read_json("h6.json")
        assert doc["extra"]["uniform_center_guarantee_voided"] is True

    def test_dimension_mismatch_exits_one(self, workspace):
        assert main(["generate", "--dist", "spec.json", "--n", "10", "--d", "5",
                     "--seed", "1", "--out", "x.json"]) == 1

    def test_exhausted_center_budget_exits_two(self, workspace):
        assert main(["generate", "--dist", "spec.json", "--n", "30", "--seed", "2",
                     "--out", "d.json"]) == 0
        code = main(["sanitize", "--method", "voronoi", "--centers", "uniform",
                     "--t", "2", "--max-depth", "1", "--seed", "1",
                     "--override-m", "2000001", "--in", "d.json", "--out", "h.json"])
        assert code == 2
        assert not os.path.exists("h.json")

    def test_manifest_replay(self, workspace):
        assert main(["generate", "--dist", "spec.json", "--n", "25", "--seed", "9",
                     "--out", "r.json"]) == 0
        first = open("r.json", "rb").read()
        os.unlink("r.json")
        assert main(["repro", "--manifest-missing"]) == 1
        write_json_atomic("r2.json", json.loads(first.decode()))
        assert main(["repro", "--manifest", "r2.json"]) == 0
        assert open("r.json", "rb").read() == first

    @pytest.mark.parametrize("manifest,message", [
        ("oops", "r.json carries no manifest to replay"),
        ({"inputs": ["spec.json"], "command": ["generate"]},
         "r.json carries no manifest to replay"),
        ({"inputs": {"gone.json": "0" * 64}, "command": ["generate"]}, "cannot read gone.json"),
        ({"inputs": {}, "command": "generate --n 3"},
         "r.json carries no manifest to replay"),
        ({"inputs": {}, "command": ["repro", "--manifest", "r.json"]},
         "a replayed manifest command cannot replay a manifest"),
        ({"inputs": {}, "command": ["sanitize", "--method", "cube", "--t", "2",
                                    "--in", "missing.json", "--out", "o.json"]},
         "cannot read missing.json"),
    ], ids=["not-an-object", "inputs-list", "input-missing", "command-string", "self-replay",
            "replay-fails"])
    def test_bad_manifest_replay_exits_one(self, workspace, capsys, manifest, message):
        write_json_atomic("r.json", {"kind": "x", "manifest": manifest})
        capsys.readouterr()
        assert main(["repro", "--manifest", "r.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and "completed" not in err
        assert not os.path.exists("o.json")

    def test_manifest_replay_rejects_modified_inputs(self, workspace):
        assert main(["generate", "--dist", "spec.json", "--n", "25", "--seed", "9",
                     "--out", "r.json"]) == 0
        spec_doc = read_json("spec.json")
        spec_doc["components"][0]["shape"]["half_side"] = 0.9
        write_json_atomic("spec.json", spec_doc)
        assert main(["repro", "--manifest", "r.json"]) == 1

    @pytest.mark.parametrize("exc,code,message", [(MemoryError, 2, "out of memory"),
                                                  (RuntimeError, 3, "RuntimeError: boom")])
    def test_an_exception_in_a_probe_thread_maps_to_exit_codes(self, workspace, monkeypatch,
                                                                capsys, exc, code, message):
        raised, pooled = [], threading.Event()

        def explode(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                pooled.wait(10)  # a pool thread takes a probe and raises
                pooled.set()
                return ratio(*args, **kwargs)
            raised.append(exc)
            pooled.set()
            raise exc("boom")

        ratio = privhist.roundness.intersection_volume_ratio
        monkeypatch.setattr(privhist.roundness, "intersection_volume_ratio", explode)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        assert main(["generate", "--dist", "spec.json", "--n", "60", "--seed", "2",
                     "--out", "d.json"]) == 0
        assert main(["sanitize", "--method", "cube", "--t", "3", "--max-depth", "3",
                     "--seed", "1", "--in", "d.json", "--out", "h.json"]) == 0
        capsys.readouterr()
        assert main(["check-privacy", "--in", "h.json", "--c", "8", "--q-probes", "2",
                     "--r-grid", "3", "--vol-samples", "2000", "--seed", "4",
                     "--max-cells", "4", "--out", "p.json"]) == code
        assert raised and message in capsys.readouterr().err
        assert not os.path.exists("p.json")

    def test_certify_and_check_privacy(self, workspace):
        assert main(["generate", "--dist", "spec.json", "--n", "60", "--seed", "2",
                     "--out", "d.json"]) == 0
        assert main(["sanitize", "--method", "cube", "--t", "3", "--max-depth", "3",
                     "--seed", "1", "--in", "d.json", "--out", "h.json"]) == 0
        assert main(["certify", "--in", "h.json", "--samples", "64", "--seed", "1",
                     "--out", "c.json"]) == 0
        certs = read_json("c.json")["cells"]
        assert len(certs) >= 1 and all(c["k"] >= 1.0 for c in certs)
        assert main(["check-privacy", "--in", "h.json", "--c", "8", "--q-probes", "2",
                     "--r-grid", "3", "--vol-samples", "2000", "--seed", "4",
                     "--max-cells", "4", "--out", "p.json"]) == 0
        rep = read_json("p.json")
        total = rep["containment_count"] + rep["ratio_count"] + rep["degenerate_count"]
        assert total == rep["cells_checked"] * rep["probes_per_cell"]

    @pytest.mark.parametrize("flag,value", [("--q-probes", "0"), ("--vol-samples", "0"),
                                            ("--r-grid", "0"), ("--max-cells", "0"),
                                            ("--max-cells", "-1")])
    def test_check_privacy_needs_positive_counts(self, workspace, capsys, flag, value):
        # each of these once reported a privacy pass with nothing checked
        assert main(["generate", "--dist", "spec.json", "--n", "60", "--seed", "2",
                     "--out", "d.json"]) == 0
        assert main(["sanitize", "--method", "cube", "--t", "3", "--max-depth", "3",
                     "--seed", "1", "--in", "d.json", "--out", "h.json"]) == 0
        argv = ["check-privacy", "--in", "h.json", "--c", "8", "--q-probes", "2",
                "--r-grid", "3", "--vol-samples", "2000", "--max-cells", "4",
                "--out", "p.json"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        assert "must be at least 1" in capsys.readouterr().err
        assert not os.path.exists("p.json")

    @pytest.mark.parametrize("flag,value", [("--m", "0"), ("--trials", "0"),
                                            ("--trials", "-1"), ("--r-list", "0.01,nan"),
                                            ("--support", "auto")])
    def test_cut_prob_rejects_invalid_arguments(self, workspace, flag, value):
        argv = ["cut-prob", "--support", "unit-ball", "--x", "0,0", "--r-list", "0.01,0.03",
                "--m", "16", "--trials", "5", "--seed", "1", "--out", "cut.json"]
        assert main(argv) == 0
        os.remove("cut.json")
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 1
        assert not os.path.exists("cut.json")

    def test_certify_is_seed_free_and_matches_node_certificates(self, workspace):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 80, seed=5)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=6, max_depth=2,
                             method="greedy", probe_samples=3_000, seed=6)
        write_json_atomic("h.json", histogram_to_doc(hist))
        for seed in ("1", "2"):
            assert main(["certify", "--in", "h.json", "--seed", seed,
                         "--out", f"c{seed}.json"]) == 0
        cells = read_json("c1.json")["cells"]
        assert cells == read_json("c2.json")["cells"]
        nodes = list(histogram_from_doc(read_json("h.json")).root.walk())
        assert [(c["k"], c["radius"], c["witness"]) for c in cells] == [
            (cert.k, cert.radius, cert.witness.tolist()) for cert in certify_nodes(nodes)]

    def test_repro_reaches_greedy_split_roundness(self, workspace, monkeypatch):
        calls = []

        def fake_suite(name, seed):
            calls.append((name, seed))
            return {"suite": name, "summary": "faked", "pass": True}

        monkeypatch.setattr("privhist.cli.run_suite", fake_suite)
        assert main(["repro", "--suite", "greedy-split-roundness", "--seed", "2",
                     "--out", "suite.json"]) == 0
        assert calls == [("greedy-split-roundness", 2)]
        assert read_json("suite.json")["suite"] == "greedy-split-roundness"

    def test_stdout_and_file_outputs_are_compact(self, workspace, capsys):
        assert main(["generate", "--dist", "spec.json", "--n", "40", "--seed", "2",
                     "--out", "d.json"]) == 0
        assert main(["sanitize", "--method", "grid", "--t", "2", "--max-depth", "3",
                     "--seed", "1", "--in", "d.json", "--out", "h.json"]) == 0
        capsys.readouterr()
        assert main(["certify", "--in", "h.json", "--samples", "16", "--seed", "1"]) == 0
        printed = capsys.readouterr().out
        assert main(["certify", "--in", "h.json", "--samples", "16", "--seed", "1",
                     "--out", "c.json"]) == 0
        written = open("c.json").read()
        for text in (printed, written, open("h.json").read()):
            assert text == encode(json.loads(text))
            assert "\n" not in text[:-1] and ", " not in text
        body = json.loads(printed)
        body["manifest"]["command"] = json.loads(written)["manifest"]["command"]
        assert encode(body) == written

    def test_repro_suite_runs(self, workspace, capsys):
        # the document goes to stdout, the test's verdict line to stderr
        assert main(["repro", "--suite", "lemma21-decay", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["kind"] == "repro_suite"
        assert doc["pass"] is True
        line = f"criterion 03 [lemma21-decay]: PASS ({doc['summary']})"
        assert captured.err.startswith(line + "\n")


@pytest.fixture
def region_files(workspace):
    """d.json, 40 rows uniform in [-0.9, 0.9]^2 (some outside the unit ball),
    and box.json, the region [-0.95, 0.95]^2, which no method takes by default."""
    data, _ = sample(single(UniformCube(np.zeros(2), 0.9)), 40, seed=11)
    write_json_atomic("d.json", dataset_to_doc(data))
    write_json_atomic("box.json", {"kind": "box", "low": [-0.95, -0.95], "high": [0.95, 0.95],
                                   "closed_high": [True, True]})
    return workspace


def _body(path):
    doc = read_json(path)
    del doc["manifest"]
    return doc


SANITIZE_METHODS = {
    "cube": ["--method", "cube"],
    "grid": ["--method", "grid"],
    "voronoi-greedy": ["--method", "voronoi"],
    "voronoi-uniform": ["--method", "voronoi", "--centers", "uniform"],
}
# the centers option names the rule the base run does not use
SANITIZE_OPTIONS = {
    "support-box": ["--support", "box.json"],
    "support-unit-ball": ["--support", "unit-ball"],
    "centers": ["--centers", "uniform"],
    "override-m": ["--override-m", "24"],
    "probe-samples": ["--probe-samples", "2000"],
}
# the options each method reads; unit-ball reads as a support that the data
# leaves (Voronoi) or that is no box (meshes)
READS = {"cube": {"support-box"}, "grid": {"support-box"},
         "voronoi-greedy": {"support-box", "centers", "probe-samples"},
         "voronoi-uniform": {"support-box", "centers", "override-m"}}


def _guard(base, extra, reads, capsys):
    """Run ``base`` with and without ``extra``: an option the command reads
    changes the document, and any other exits 1 with one line and no file."""
    assert main(base + ["--out", "base.json"]) == 0
    capsys.readouterr()
    code = main(base + extra + ["--out", "o.json"])
    err = capsys.readouterr().err
    if reads:
        assert code == 0, err
        assert _body("o.json") != _body("base.json")
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not os.path.exists("o.json")


@pytest.mark.parametrize("option", SANITIZE_OPTIONS)
@pytest.mark.parametrize("method", SANITIZE_METHODS)
def test_no_sanitize_option_is_silently_ignored(region_files, capsys, method, option):
    extra = SANITIZE_OPTIONS[option]
    if option == "centers" and method == "voronoi-uniform":
        extra = ["--centers", "greedy"]
    base = ["sanitize", *SANITIZE_METHODS[method], "--t", "4", "--max-depth", "1",
            "--seed", "3", "--in", "d.json"]
    _guard(base, extra, option in READS[method], capsys)


@pytest.mark.parametrize("support,reads", [("box.json", True), ("unit-ball", False)])
def test_measure_diameters_grid_reads_its_support(region_files, capsys, support, reads):
    base = ["measure-diameters", "--data", "d.json", "--method", "grid", "--t", "2",
            "--trials", "2", "--seed", "1", "--max-depth", "4"]
    _guard(base, ["--support", support], reads, capsys)


@pytest.mark.parametrize("argv", [
    ["sanitize", "--method", "voronoi", "--t", "4", "--max-depth", "1", "--probe-samples",
     "2000", "--in", "d.json", "--support", "box.json"],
    ["sanitize", "--method", "grid", "--t", "2", "--in", "d.json", "--support", "box.json"],
    ["measure-diameters", "--data", "d.json", "--method", "grid", "--t", "2", "--trials", "1",
     "--support", "box.json"],
    ["cut-prob", "--support", "box.json", "--x", "0,0", "--r-list", "0.1", "--m", "8",
     "--trials", "3"],
], ids=["sanitize-voronoi", "sanitize-grid", "measure-diameters", "cut-prob"])
def test_manifest_digests_the_support_file(region_files, capsys, argv):
    assert main(argv + ["--out", "o.json"]) == 0
    manifest = read_json("o.json")["manifest"]
    assert "box.json" in manifest["inputs"]
    write_json_atomic("m.json", {"manifest": manifest})
    os.unlink("o.json")
    write_json_atomic("box.json", {"kind": "box", "low": [-0.96, -0.96], "high": [0.96, 0.96],
                                   "closed_high": [True, True]})
    capsys.readouterr()
    assert main(["repro", "--manifest", "m.json"]) == 1
    assert capsys.readouterr().err == (
        "error: input box.json no longer matches its manifest digest\n")
    assert not os.path.exists("o.json")


@pytest.mark.parametrize("method", SANITIZE_METHODS)
def test_empty_dataset_gives_a_root_only_histogram(workspace, method):
    write_json_atomic("e.json", {"schema_version": 2, "kind": "dataset", "d": 2, "n": 0,
                                 "points": []})
    assert main(["sanitize", *SANITIZE_METHODS[method], "--t", "2", "--in", "e.json",
                 "--out", "h.json"]) == 0
    root = read_json("h.json")["root"]
    assert (root["count"], root["children"]) == (0, [])
    assert root["region"] == ({"kind": "ball", "center": [0.0, 0.0], "radius": 1.0}
                              if method.startswith("voronoi") else
                              {"kind": "box", "low": [-1.0, -1.0], "high": [1.0, 1.0],
                               "closed_high": [True, True]})


@pytest.mark.parametrize("points,radius", [([[1.5, 0.2]], 2.0),
                                           ([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]], 8.0)])
def test_voronoi_auto_support_is_the_smallest_power_of_two_ball(workspace, points, radius):
    # the data's extent is published only to a factor of 2
    write_json_atomic("p.json", dataset_to_doc(Dataset(np.array(points))))
    assert main(["sanitize", "--method", "voronoi", "--t", "1", "--max-depth", "1",
                 "--probe-samples", "2000", "--in", "p.json", "--out", "h.json"]) == 0
    assert read_json("h.json")["root"]["region"] == {"kind": "ball", "center": [0.0, 0.0],
                                                     "radius": radius}


def test_voronoi_auto_support_refuses_a_row_at_its_center(workspace, capsys):
    write_json_atomic("p.json", dataset_to_doc(Dataset(np.array([[0.0, 0.0], [3.0, 0.5]]))))
    assert main(["sanitize", "--method", "voronoi", "--t", "1", "--in", "p.json",
                 "--out", "h.json"]) == 1
    err = capsys.readouterr().err
    assert "row 0" in err and "no atoms" in err
    assert not os.path.exists("h.json")


@pytest.fixture
def attack_inputs(workspace):
    assert main(["generate", "--dist", "spec.json", "--n", "60", "--seed", "1",
                 "--out", "d.json"]) == 0
    assert main(["sanitize", "--method", "grid", "--t", "2", "--max-depth", "4", "--seed", "2",
                 "--in", "d.json", "--out", "h.json"]) == 0
    return workspace


ATTACK = ["attack", "--hist", "h.json", "--data", "d.json", "--c", "4", "--t", "2",
          "--queries", "50", "--seed", "3"]


@pytest.mark.parametrize("strategy,frac,message", [
    ("uniform-in-leaf", "0.5", "aux_indices is only valid for the aux-informed strategy"),
    ("leaf-center-weighted", "0", "aux_indices is only valid for the aux-informed strategy"),
    ("aux-informed", "1.5", "--aux-frac 1.5 is not a fraction in [0, 1]"),
    ("aux-informed", "-0.1", "--aux-frac -0.1 is not a fraction in [0, 1]"),
    ("aux-informed", "nan", "--aux-frac nan is not a fraction in [0, 1]"),
])
def test_attack_refuses_an_aux_fraction_it_cannot_use(attack_inputs, capsys, strategy, frac,
                                                      message):
    capsys.readouterr()
    assert main(ATTACK + ["--strategy", strategy, "--aux-frac", frac, "--out", "a.json"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists("a.json")


def test_aux_informed_attack_reads_its_fraction(attack_inputs):
    aux = ATTACK + ["--strategy", "aux-informed"]
    assert main(aux + ["--out", "none.json"]) == 0
    assert main(aux + ["--aux-frac", "0", "--out", "zero.json"]) == 0
    assert main(aux + ["--aux-frac", "1", "--out", "all.json"]) == 0
    assert _body("none.json") == _body("zero.json")
    assert _body("none.json")["aux_subset_size"] == 0
    assert _body("all.json")["aux_subset_size"] == 60


def _break_split(doc, defect):
    """Give a grid histogram document one malformed split: a defect in the
    root's cuts on axis 0, or a Voronoi split on a leaf of the root's mesh."""
    cuts = doc["root"]["split"]["cuts"]
    if defect == "nan-cut":
        cuts[0][1] = float("nan")
    elif defect == "repeated-cut":
        cuts[0][1] = cuts[0][0]
    elif defect == "text-cut":
        cuts[0][1] = str(cuts[0][1])
    elif defect == "axis-count":
        cuts.pop()
    else:  # two centers inside the leaf's box, which hold all its rows
        k, leaf = next((k, kid) for k, kid in enumerate(doc["root"]["children"])
                       if "split" not in kid)
        digits = np.unravel_index(k, [len(c) - 1 for c in cuts])
        low = np.array([c[i] for c, i in zip(cuts, digits)])
        high = np.array([c[i + 1] for c, i in zip(cuts, digits)])
        centers = low + (high - low) * np.array([[0.25, 0.25], [0.75, 0.75]])
        leaf["split"] = {"kind": "voronoi", "centers": centers.tolist()}
        leaf["children"] = [{"count": leaf["count"], "level": leaf["level"] + 1, "children": []},
                            {"count": 0, "level": leaf["level"] + 1, "children": []}]


@pytest.mark.parametrize("defect,message", [
    ("nan-cut", "mesh cuts must be d strictly increasing arrays"),
    ("repeated-cut", "mesh cuts must be d strictly increasing arrays"),
    ("text-cut", "malformed sanitized_histogram document"),
    ("axis-count", "mesh cuts must be d strictly increasing arrays"),
    ("voronoi-under-mesh", "a VoronoiSplit cannot divide a cell of a MeshSplit"),
])
@pytest.mark.parametrize("command", ["attack", "mst-compare"])
def test_a_malformed_split_exits_one(attack_inputs, capsys, command, defect, message):
    doc = read_json("h.json")
    _break_split(doc, defect)
    write_json_atomic("h.json", doc)
    argv = ATTACK + ["--strategy", "uniform-in-leaf"] if command == "attack" else \
        ["mst-compare", "--hist", "h.json", "--data", "d.json"]
    capsys.readouterr()
    assert main(argv + ["--out", "o.json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not os.path.exists("o.json")


@pytest.mark.parametrize("flag,value", [("--x", "0,abc"), ("--r-list", "0.01,zz")])
def test_cut_prob_refuses_a_malformed_number_list(workspace, capsys, flag, value):
    argv = ["cut-prob", "--support", "unit-ball", "--x", "0,0", "--r-list", "0.01,0.03",
            "--m", "16", "--trials", "5", "--seed", "1", "--out", "cut.json"]
    argv[argv.index(flag) + 1] = value
    assert main(argv) == 1
    assert f"not a comma-separated list of numbers: '{value}'" in capsys.readouterr().err
    assert not os.path.exists("cut.json")


@pytest.mark.parametrize("x", ["-0.5,0.2", "-1e-1,0.2", "-0.5"])
def test_cut_prob_reads_a_negative_first_coordinate(workspace, x):
    # argparse reads "-0.5,0.2" as an option unless it is attached to --x;
    # the manifest records the command line as it was given
    tail = ["--r-list", "0.01,0.03", "--m", "16", "--trials", "5", "--seed", "1",
            "--out", "cut.json"]
    docs = []
    for given in (["--x=" + x], ["--x", x]):
        argv = ["cut-prob", "--support", "unit-ball"] + given + tail
        assert main(argv) == 0
        docs.append(read_json("cut.json"))
        assert docs[-1]["manifest"].pop("command") == argv
    assert docs[0] == docs[1]
    assert docs[0]["x"] == [float(v) for v in x.split(",")]
    with open("cut.json", "rb") as handle:
        written = handle.read()
    assert main(["repro", "--manifest", "cut.json"]) == 0  # the replay attaches again
    with open("cut.json", "rb") as handle:
        assert handle.read() == written


@pytest.mark.parametrize("extra", [[], ["--suite", "lemma21-decay"], ["--seed", "0"],
                                   ["--out", "r.json"]],
                         ids=["no-source", "suite", "seed", "out"])
def test_repro_refuses_suite_options_with_a_manifest(workspace, capsys, extra):
    assert main(["generate", "--dist", "spec.json", "--n", "5", "--seed", "9",
                 "--out", "g.json"]) == 0
    write_json_atomic("m.json", {"manifest": read_json("g.json")["manifest"]})
    os.unlink("g.json")
    capsys.readouterr()
    argv = ["repro"] + (["--manifest", "m.json"] + extra if extra else [])
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err
    assert not os.path.exists("g.json") and not os.path.exists("r.json")


def _fresh_output(code):
    """Standard output of ``code`` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(privhist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout.strip()


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats takes most of a cold import; only one repro suite uses it
    assert _fresh_output("import sys, privhist.cli; print('scipy.stats' in sys.modules)") == "False"


def test_cli_import_leaves_out_concurrent_futures():
    # only the privacy check's probe threads use it, about 10 ms of import
    code = "import sys, privhist.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh_output(code) == "False"


def test_cut_probability_leaves_out_scipy_spatial():
    # the cut rule needs only numpy; scipy.spatial is for triangulations and kd-trees
    code = ("import sys, numpy as np; from privhist.geometry import Ball; "
            "from privhist.metrics import cut_probability; "
            "cut_probability(Ball(np.zeros(3), 1.0), [0.1, 0, 0], [0.01, 0.1], m=64, trials=5); "
            "print('scipy.spatial' in sys.modules)")
    assert _fresh_output(code) == "False"
