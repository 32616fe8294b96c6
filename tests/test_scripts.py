import importlib.util
import sys
from pathlib import Path

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *argv])
    module.main()
    return capsys.readouterr().out


def test_saddle_verification_without_a_matching_jammer(monkeypatch, capsys):
    """A Laplace source in Gaussian noise has no matching jammer: the script
    says why, simulates the Gaussian fallback and skips the encoder side."""
    out = _run_script("saddle_verification",
                      ["--source", "laplace", "--trials", "10000"],
                      monkeypatch, capsys)
    assert "no matching jammer (magnitude exceeds 1" in out
    assert "encoder deviations skipped" in out
    assert "jammer deviations" in out and "sign-parameter sweep" in out


def test_matching_gallery_prints_every_pair(monkeypatch, capsys):
    out = _run_script("matching_gallery", [], monkeypatch, capsys)
    rows = [line.split() for line in out.splitlines()[2:]]
    assert len(rows) == 16
    verdicts = {(r[0], r[1]): r[3] for r in rows}
    assert verdicts["gaussian", "gaussian"] == "matched"


def test_design_counts_on_a_small_package(monkeypatch, capsys, tmp_path):
    """Functions are defs (methods and nested ones included, lambdas not);
    options are the parameters with defaults, keyword-only ones included."""
    (tmp_path / "a.py").write_text(
        "def f(x, y=1, *args, z=2, w, **kw):\n"
        "    def g(k=0):\n"
        "        return k\n"
        "    return lambda q=3: q\n"
        "class C:\n"
        "    async def m(self, a, b=None):\n"
        "        pass\n")
    (tmp_path / "b.py").write_text("X = 1\n")
    (tmp_path / "notes.txt").write_text("def h(v=1): pass\n")
    out = _run_script("design_counts", [str(tmp_path)], monkeypatch, capsys)
    rows = [line.split() for line in out.splitlines()]
    assert rows[0] == ["module", "lines", "functions", "options"]
    assert rows[1:] == [["a.py", "7", "3", "4"], ["b.py", "1", "0", "0"],
                        ["total", "8", "3", "4"]]
