import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

SCRIPT = str(Path(__file__).resolve().parents[1] / "tools" /
             "same_artifacts.py")
SAME_ARTIFACTS = runpy.run_path(SCRIPT)


def _write(directory: Path, files: dict):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def test_same_artifacts_lists_every_moved_cell_key_and_line(tmp_path):
    """Two hand-made artifact directories: each moved CSV cell with its row
    and column and the file's largest relative and absolute move, each
    moved key of ``constants.json``, each changed line of ``summary.txt``;
    a file only one side wrote is named, a CSV whose rows differ in number
    is reported as such, and files equal byte for byte are not listed.  Two
    spellings of zero move by 0, and a changed line that begins like a diff
    header is still listed."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    constants = {"C": {"phi": 2.0, "list": [1, 2]}, "kind": "orbital"}
    _write(parent, {
        "flow.csv": "j,eps,drift,status\n0,0.0,1e-16,ok\n1,0,2e-16,ok\n",
        "rows.csv": "a\n1\n",
        "same.csv": "a,b\n1,2\n",
        "constants.json": json.dumps(constants),
        "summary.txt": "[PASS] one\n[PASS] two\n",
        "old.csv": "a\n"})
    constants["C"]["list"][1] = 3.0
    _write(change, {
        "flow.csv": "j,eps,drift,status\n0,0.0,1.5e-16,ok\n1,0.0,2e-16,no\n",
        "rows.csv": "a\n1\n2\n",
        "same.csv": "a,b\n1,2\n",
        "constants.json": json.dumps(constants),
        "summary.txt": "[PASS] one\n[FAIL] two\n--- three\n",
        "new.csv": "a\n"})
    assert SAME_ARTIFACTS["differing"](parent, change) == {
        "constants.json": ["C.list.1: 2 -> 3.0",
                           "largest move: 3.33e-01 relative, "
                           "1.00e+00 absolute"],
        "flow.csv": ["row 1 [0] drift: 1e-16 -> 1.5e-16",
                     "row 2 [1] eps: 0 -> 0.0",
                     "row 2 [1] status: ok -> no",
                     "largest move: 3.33e-01 relative, 5.00e-17 absolute"],
        "new.csv": ["only in change"],
        "old.csv": ["only in parent"],
        "rows.csv": ["columns or rows differ: 1 rows in parent, 2 in change"],
        "summary.txt": ["-[PASS] two", "+[FAIL] two", "+--- three"]}
    assert SAME_ARTIFACTS["differing"](parent, parent) == {}


def test_same_artifacts_matches_csv_columns_by_name(tmp_path):
    """A CSV that gains a column, loses one and moves another keeps its
    rows: the columns only one side holds are named, and the moved cells
    of the shared columns are listed under their names, wherever each
    side puts them, with the largest move among them."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, {"ltqo.csv": "model,kind,value,old,status\n"
                                "aklt6,ascent,0.4,1,ok\n"
                                "aklt6,ascent,0.2,2,ok\n"})
    _write(change, {"ltqo.csv": "model,value,kind,status,upper\n"
                                "aklt6,0.5,bracket,ok,1.2\n"
                                "aklt6,0.2,bracket,ok,0.3\n"})
    assert SAME_ARTIFACTS["differing"](parent, change) == {
        "ltqo.csv": ["column only in parent: old",
                     "column only in change: upper",
                     "row 1 [aklt6] kind: ascent -> bracket",
                     "row 1 [aklt6] value: 0.4 -> 0.5",
                     "row 2 [aklt6] kind: ascent -> bracket",
                     "largest move: 2.00e-01 relative, 1.00e-01 absolute"]}


def test_same_artifacts_reports_a_run_that_writes_nothing(tmp_path, capsys,
                                                         monkeypatch):
    """A tree whose ``gaplab.cli`` exits 1 before writing an artifact stops
    the comparison with one line, the run, the tree, the exit code and the
    last line of its stderr, and exit code 1, not a traceback.  It follows
    the first line, which says the BLAS thread variables are unset."""
    for name in SAME_ARTIFACTS["THREAD_VARS"]:
        monkeypatch.delenv(name, raising=False)
    tree = tmp_path / "tree"
    (tree / "src" / "gaplab").mkdir(parents=True)
    (tree / "src" / "gaplab" / "__init__.py").write_text("", encoding="utf-8")
    (tree / "src" / "gaplab" / "cli.py").write_text(
        "import sys\nsys.exit('no pipeline here')\n", encoding="utf-8")
    assert SAME_ARTIFACTS["main"]([str(tree), str(tree)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "BLAS threads: unset",
        f"default: parent tree {tree} wrote no artifacts (exit 1): "
        "no pipeline here"]


def test_same_artifacts_names_the_blas_threads_it_ran_under(monkeypatch):
    """The first line names each BLAS thread variable that is set, in a
    fixed order, with its value."""
    for name in SAME_ARTIFACTS["THREAD_VARS"]:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert SAME_ARTIFACTS["threads_line"]() == \
        "BLAS threads: OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=2"


def test_same_artifacts_prints_each_runs_own_peak(tmp_path):
    """Each run's summary line gives each tree's own peak resident size:
    the parent tree's ``gaplab.cli`` holds a 64 MiB array and the change
    tree's 16 MiB, and the change's peak, read after the parent's, is
    below it by the 48 MiB between them, which a maximum over every child
    would not show.  Both write the same ``summary.txt``, so the exit code
    is 0 and no file differs.  The tool runs in a fresh process, since a
    child's peak starts at its parent's (Linux carries it across
    ``exec``)."""
    cli = ("import sys\n"
           "from pathlib import Path\n"
           "import numpy as np\n"
           "held = np.ones({mib} * 2 ** 20 // 8)\n"
           "out = Path(sys.argv[sys.argv.index('--out') + 1])\n"
           "out.mkdir()\n"
           "(out / 'summary.txt').write_text('[PASS] held\\n')\n")
    trees = []
    for tag, mib in (("parent", 64), ("change", 16)):
        tree = tmp_path / tag
        (tree / "src" / "gaplab").mkdir(parents=True)
        (tree / "src" / "gaplab" / "__init__.py").write_text(
            "", encoding="utf-8")
        (tree / "src" / "gaplab" / "cli.py").write_text(
            cli.format(mib=mib), encoding="utf-8")
        trees.append(str(tree))
    done = subprocess.run([sys.executable, SCRIPT, *trees],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()[1:]
    assert [line.split(":")[0] for line in lines] == [
        "default", "all-L10-seed7", "all-L10-seed11"]
    for line in lines:
        found = re.fullmatch(
            r"[\w-]+: 1 \[PASS\], 0 \[FAIL\] \(parent, peak ([\d.]+) MB\), "
            r"1 \[PASS\], 0 \[FAIL\] \(change, peak ([\d.]+) MB\), "
            r"0 differing file\(s\)", line)
        assert found, line
        parent, change = map(float, found.groups())
        assert parent >= 64 and 44 <= parent - change <= 52, line
