import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "config_hashes.py"


def test_check_exits_1_on_a_tampered_listing_and_0_on_a_matching_one(
        tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("config_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = tool.config_hashes()
    assert len(lines) > 2 and len({line.split()[3] for line in lines}) > 2
    demo_files = [tuple(line.split()[:3]) for line in lines if line.split()[1] == "-"]
    # every demo only prints: each is listed by its stdout, and none writes a file
    assert {"overlap_identity.py", "ring_survival.py"} < set(tool.DEMOS)
    assert sorted(demo_files) == [(demo, "-", "stdout") for demo in tool.DEMOS]
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
    tampered.write_text("\n".join(lines[:1] + [forged] + lines[2:]) + "\n")
    assert tool.main(["--check", str(tampered)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"-{forged}", f"+{lines[1]}"]
