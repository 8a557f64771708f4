"""Smoke test of tools/sweep.py, the byte-identity sweep, on mininet alone."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sweep_tool", REPO / "tools" / "sweep.py")
sweep_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep_tool)


def test_sweep_hashes_every_artifact(tmp_path):
    out = tmp_path / "sweep"
    sweep_tool.sweep(sweep_tool.load_cli(REPO, None), out, ("mininet",))
    sweep_tool.write_sums(out)
    lines = (out / "SHA256SUMS").read_text().splitlines()
    listed = dict(reversed(line.split("  ", 1)) for line in lines)
    assert list(listed) == sorted(listed)
    assert set(listed) == {p.relative_to(out).as_posix() for p in out.rglob("*")
                           if p.is_file() and p.name != "SHA256SUMS"}
    assert all(hashlib.sha256((out / p).read_bytes()).hexdigest() == h for p, h in listed.items())
    # per seed: synth and calib.json (7), 8 lists with their meta (16) and two
    # metrics.csv, 9 quantize runs of 6 targets x (5 model files + report) plus
    # a recovery curve, and the fallback evaluate's image copy and report
    assert len(listed) == 2 * (7 + 16 + 2 + 9 * (6 * 6 + 1) + 2)
    for seed in (3, 106):
        d = out / f"mininet_{seed}"
        assert (d / "eval_images.bin.ref").is_file() and not (d / "no_ref/eval_images.bin.ref").exists()
        with_ref = d / "delta-mixup_fused/apply_fused/report60.json"
        assert (d / "no_ref/report60.json").read_bytes() == with_ref.read_bytes()


def test_existing_out_is_2(tmp_path):
    done = subprocess.run([sys.executable, str(REPO / "tools" / "sweep.py"), str(REPO), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "exists" in done.stderr


def test_diff_lists_paths_that_differ(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_text("11  x/model/manifest.json\n22  x/model/weights.bin\n33  y/model/manifest.json\n"
                 "44  gone.txt\n")
    b.write_text("1f  x/model/manifest.json\n22  x/model/weights.bin\n3f  y/model/manifest.json\n"
                 "55  new.txt\n")
    assert sweep_tool.diff_sums(a, b) == ["gone.txt", "new.txt", "x/model/manifest.json",
                                          "y/model/manifest.json"]
    assert sweep_tool.main(["--diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == sweep_tool.diff_sums(a, b)
    assert [line.split() for line in out[4:7]] == [["1", "gone.txt"], ["2", "manifest.json"],
                                                   ["1", "new.txt"]]
    assert sweep_tool.main(["--diff", str(a), str(a)]) == 0
