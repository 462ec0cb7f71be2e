import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "config_hashes.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("config_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_exits_1_on_a_tampered_listing_and_0_on_a_matching_one(
        tmp_path, monkeypatch, capsys):
    tool = _load_tool()
    lines = tool.config_hashes()
    assert len(lines) > 2 and len({line.split()[3] for line in lines}) > 2
    # --check recomputes the listing; reuse the one just made
    monkeypatch.setattr(tool, "config_hashes", lambda: list(lines))
    capsys.readouterr()

    saved = tmp_path / "before.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert tool.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out == ""

    name, workers, artifact, digest = lines[1].split()
    forged = f"{name} {workers} {artifact} {'0' * len(digest)}"
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("\n".join([lines[0], forged] + lines[2:]) + "\n")
    assert tool.main(["--check", str(tampered)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"-{forged}", f"+{lines[1]}"]
