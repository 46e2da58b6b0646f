"""Seeded output bytes, pinned.

``golden_digests.json`` holds the sha256 of every document and report that
the CLI writes for a fixed set of small seeded runs, each without its
manifest (which names temporary paths), of every pinned histogram read
back with ``histogram_from_doc`` and written again with
``histogram_to_doc`` (which must give its own bytes), and of every
acceptance suite's report without its ``summary`` line
(``tests/test_acceptance.py`` checks those).  A change that moves any
published byte fails here, and says so in CHANGES.md when it regenerates
the fixture:

    python tests/test_golden_digests.py

which prints the keys it added, removed and moved against the fixture it
replaces.

The fixture records the numpy and scipy versions and the BLAS thread count
it was made with; a run under others fails with a message naming the
difference, since the last bits of a float may then differ.
"""

import hashlib
import json
import os
from pathlib import Path

if __name__ == "__main__":
    import conftest  # noqa: F401  pins BLAS to one thread before numpy loads

import numpy as np
import scipy

from privhist.cli import main
from privhist.datagen import UniformBall, single
from privhist.documents import (encode, histogram_from_doc, histogram_to_doc, spec_to_doc,
                                write_json_atomic)

FIXTURE = Path(__file__).with_name("golden_digests.json")

# d = 2 histograms that every report command reads
HISTOGRAMS = {
    "cube": ("--method", "cube", "--t", "4", "--max-depth", "6"),
    "grid": ("--method", "grid", "--t", "4", "--max-depth", "6"),
    "voronoi-greedy": ("--method", "voronoi", "--centers", "greedy", "--t", "4",
                       "--max-depth", "2", "--probe-samples", "2000"),
    "voronoi-uniform": ("--method", "voronoi", "--centers", "uniform", "--t", "4",
                        "--max-depth", "2", "--override-m", "24"),
}
ATTACKS = {
    "uniform-in-leaf": (),
    "leaf-center-weighted": (),
    "aux-informed": ("--aux-frac", "0.2"),
}


def environment() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def digest(doc: dict, drop: str) -> str:
    """sha256 of a document's encoded bytes with one top-level key left out."""
    return hashlib.sha256(encode({k: v for k, v in doc.items() if k != drop}).encode()).hexdigest()


def load_fixture() -> dict:
    """The fixture, after checking that this run's environment is the one it
    was made in."""
    fixture = json.loads(FIXTURE.read_text())
    here = environment()
    differ = {k: (v, here.get(k)) for k, v in fixture["environment"].items() if here.get(k) != v}
    assert not differ, (
        "golden_digests.json was made under another environment "
        + ", ".join(f"{k}: fixture {a!r}, this run {b!r}" for k, (a, b) in differ.items())
        + "; regenerate it with `python tests/test_golden_digests.py`")
    return fixture


def _run(*argv):
    code = main([str(a) for a in argv])
    assert code == 0, f"exit {code}: privhist {' '.join(map(str, argv))}"


def document_digests(workdir: Path) -> dict:
    """Run every pinned command in ``workdir``; the digest of each output,
    by name."""
    path = {}

    def out(name):
        path[name] = workdir / f"{name}.json"
        return path[name]

    for d in (1, 2, 3, 4, 8):
        spec = workdir / f"spec{d}.json"
        write_json_atomic(str(spec), spec_to_doc(single(UniformBall(np.zeros(d), 1.0))))
        # at d = 8, 150 rows would leave every root child below 2t
        _run("generate", "--dist", spec, "--n", 1000 if d == 8 else 150, "--seed", 40 + d,
             "--out", out(f"data{d}"))
        for method in ("cube", "grid"):
            _run("sanitize", *HISTOGRAMS[method], "--seed", 50 + d,
                 "--in", path[f"data{d}"], "--out", out(f"sanitize-{method}-d{d}"))
        if d in (1, 3, 4):  # deep shifted-grid rebuilds
            _run("measure-diameters", "--data", path[f"data{d}"], "--method", "grid", "--t", 4,
                 "--trials", 2, "--max-depth", 8, "--seed", 60 + d,
                 "--out", out(f"diameters-grid-depth8-d{d}"))
        if d in (1, 3, 8):  # many grid trials, grown together
            _run("measure-diameters", "--data", path[f"data{d}"], "--method", "grid", "--t", 4,
                 "--trials", 12, "--seed", 80 + d, "--out", out(f"diameters-grid-trials12-d{d}"))
        if d in (4, 8):  # attacks and MSTs that reach divided children at many positions
            for method in ("cube", "grid"):
                hist = path[f"sanitize-{method}-d{d}"]
                for strategy, extra in ATTACKS.items():
                    _run("attack", "--hist", hist, "--data", path[f"data{d}"], "--c", 4,
                         "--t", 2, "--strategy", strategy, "--queries", 200, *extra,
                         "--seed", 66, "--out", out(f"attack-{strategy}-{method}-d{d}"))
                _run("mst-compare", "--hist", hist, "--data", path[f"data{d}"],
                     "--out", out(f"mst-{method}-d{d}"))
        # Voronoi trees off the d = 2 ball: other dimensions, and box supports
        supports = {1: ("",), 2: ("unit-cube",), 3: ("", "unit-cube"), 4: ("",)}.get(d, ())
        for support in supports:
            for centers in ("voronoi-greedy", "voronoi-uniform"):
                name = f"{centers}-{support}-d{d}" if support else f"{centers}-d{d}"
                where = ("--support", support) if support else ()
                _run("sanitize", *HISTOGRAMS[centers], *where, "--seed", 70 + d,
                     "--in", path[f"data{d}"], "--out", out(f"sanitize-{name}"))
                hist = path[f"sanitize-{name}"]
                for strategy, extra in ATTACKS.items():
                    _run("attack", "--hist", hist, "--data", path[f"data{d}"], "--c", 4,
                         "--t", 2, "--strategy", strategy, "--queries", 200, *extra,
                         "--seed", 66, "--out", out(f"attack-{strategy}-{name}"))
                _run("mst-compare", "--hist", hist, "--data", path[f"data{d}"],
                     "--out", out(f"mst-{name}"))
    data = path["data2"]
    for name, options in HISTOGRAMS.items():
        if name.startswith("voronoi"):
            _run("sanitize", *options, "--seed", 61, "--in", data, "--out", out(f"sanitize-{name}-d2"))
        hist = path[f"sanitize-{name}-d2"]
        _run("certify", "--in", hist, "--out", out(f"certify-{name}"))
        _run("check-privacy", "--in", hist, "--c", 8, "--q-probes", 2, "--r-grid", 3,
             "--vol-samples", 500, "--max-cells", 6, "--seed", 62, "--out", out(f"privacy-{name}"))
        for strategy, extra in ATTACKS.items():
            _run("attack", "--hist", hist, "--data", data, "--c", 4, "--t", 2,
                 "--strategy", strategy, "--queries", 200, *extra, "--seed", 63,
                 "--out", out(f"attack-{strategy}-{name}"))
        _run("mst-compare", "--hist", hist, "--data", data, "--out", out(f"mst-{name}"))
    for method in ("grid", "voronoi-greedy", "voronoi-uniform"):
        _run("measure-diameters", "--data", data, "--method", method, "--t", 4,
             "--trials", 2, "--max-depth", 2, "--seed", 64, "--out", out(f"diameters-{method}"))
    _run("cut-prob", "--support", "unit-ball", "--x", "-0.2,0.1", "--r-list", "0.05,0.2",
         "--m", 16, "--trials", 40, "--seed", 65, "--out", out("cut-prob"))
    digests = {name: digest(json.loads(p.read_text()), "manifest") for name, p in path.items()
               if not name.startswith("spec")}
    for name, p in path.items():
        if name.startswith("sanitize-"):  # the document read back and written again
            again = histogram_to_doc(histogram_from_doc(json.loads(p.read_text())))
            digests[f"round-trip-{name[9:]}"] = digest(again, "manifest")
    return digests


def test_cli_documents_match_the_fixture(tmp_path):
    expected = load_fixture()["documents"]
    got = document_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = sorted(name for name in got if got[name] != expected[name])
    assert not changed, f"these documents changed bytes: {changed}"
    moved = sorted(name for name in got if name.startswith("round-trip-")
                   and got[name] != got[f"sanitize-{name[11:]}"])
    assert not moved, f"these histograms do not re-encode to their own bytes: {moved}"


def test_older_histograms_with_a_component_index_read_to_the_pinned_bytes(tmp_path):
    # histograms once carried "component_index": null; such a document reads
    # and writes again as the pinned one, without the key
    expected = load_fixture()["documents"]
    spec, data = tmp_path / "spec.json", tmp_path / "data.json"
    write_json_atomic(str(spec), spec_to_doc(single(UniformBall(np.zeros(2), 1.0))))
    _run("generate", "--dist", spec, "--n", 150, "--seed", 42, "--out", data)  # as data2
    for name, seed in (("cube", 52), ("voronoi-greedy", 61)):  # as sanitize-{name}-d2
        out = tmp_path / f"{name}.json"
        _run("sanitize", *HISTOGRAMS[name], "--seed", seed, "--in", data, "--out", out)
        older = {**json.loads(out.read_text()), "component_index": None}
        again = histogram_to_doc(histogram_from_doc(older))
        assert "component_index" not in again
        assert digest(again, "manifest") == expected[f"sanitize-{name}-d2"]


if __name__ == "__main__":
    import tempfile

    from privhist.experiments import SUITES, run_suite

    with tempfile.TemporaryDirectory() as tmp:
        documents = document_digests(Path(tmp))
    suites = {name: digest(run_suite(name, seed=0), "summary") for name in SUITES}
    before = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    after = {"documents": documents, "suites": suites}
    FIXTURE.write_text(json.dumps({"environment": environment(), **after},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}: {len(documents)} documents, {len(suites)} suites")
    for part, new in after.items():
        old = before.get(part, {})
        for change, keys in (("added", sorted(new.keys() - old.keys())),
                             ("removed", sorted(old.keys() - new.keys())),
                             ("moved", sorted(k for k in new.keys() & old.keys()
                                              if new[k] != old[k]))):
            print(f"{part} {change}: {len(keys)}" + "".join(f"\n  {k}" for k in keys))
