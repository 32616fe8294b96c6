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
