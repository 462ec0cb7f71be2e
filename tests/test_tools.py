import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_check_exits(tool, listing, lines, forged_index, forged, tmp_path, monkeypatch,
                        capsys):
    """--check exits 0 silently on a matching listing, 1 with the diff on a tampered one."""
    # --check recomputes the listing; reuse the one just made
    monkeypatch.setattr(tool, listing, lambda: list(lines))
    capsys.readouterr()

    saved = tmp_path / "before.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert tool.main(["--check", str(saved)]) == 0
    assert capsys.readouterr().out == ""

    tampered = tmp_path / "tampered.txt"
    listed = lines[:forged_index] + [forged] + lines[forged_index + 1:]
    tampered.write_text("\n".join(listed) + "\n")
    assert tool.main(["--check", str(tampered)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"-{forged}", f"+{lines[forged_index]}"]


def test_check_exits_1_on_a_tampered_listing_and_0_on_a_matching_one(
        tmp_path, monkeypatch, capsys):
    tool = _load_tool("config_hashes")
    lines = tool.config_hashes()
    assert len(lines) > 2 and len({line.split()[3] for line in lines}) > 2
    demo_files = [tuple(line.split()[:3]) for line in lines if line.split()[1] == "-"]
    # every demo only prints: each is listed by its stdout, and none writes a file
    assert {"overlap_identity.py", "ring_survival.py"} < set(tool.DEMOS)
    assert sorted(demo_files) == [(demo, "-", "stdout") for demo in tool.DEMOS]
    name, workers, artifact, digest = lines[1].split()
    forged = f"{name} {workers} {artifact} {'0' * len(digest)}"
    _assert_check_exits(tool, "config_hashes", lines, 1, forged, tmp_path, monkeypatch, capsys)


def test_exit_codes_check_exits_1_on_a_tampered_listing_and_0_on_a_matching_one(
        tmp_path, monkeypatch, capsys):
    tool = _load_tool("exit_codes")
    cases = [case for case in tool.fuzz.CASES if case[0] == "born"]
    monkeypatch.setattr(tool.fuzz, "CASES", cases)
    lines = tool.exit_codes()
    assert len(lines) == len(cases) * len(tool.fuzz.POOL)
    assert "born seed 0 0" in lines and "born seed -1 2" in lines
    assert "born parameters/shards MISSING 0" in lines
    base, path, value, code = lines[3].split()
    forged = f"{base} {path} {value} {3 if code == '2' else 2}"
    _assert_check_exits(tool, "exit_codes", lines, 3, forged, tmp_path, monkeypatch, capsys)


def test_every_exit_code_matches_the_committed_listing(capsys):
    # a change that moves an exit code updates tests/data/exit_codes.txt with it
    saved = Path(__file__).resolve().parent / "data" / "exit_codes.txt"
    code = _load_tool("exit_codes").main(["--check", str(saved)])
    assert code == 0, "exit codes differ from the listing:\n" + capsys.readouterr().out
