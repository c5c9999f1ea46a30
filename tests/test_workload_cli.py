"""Tests for ``quit-bench workload``: BoDS stream generation and
sortedness measurement."""

import numpy as np

from repro.bench.cli import main as bench_main
from repro.sortedness import kl_sortedness


def main(argv):
    return bench_main(["workload", *argv])


class TestGenerate:
    def test_writes_requested_stream(self, tmp_path, capsys):
        out = tmp_path / "stream.txt"
        code = main([
            "generate", str(out), "--n", "5000", "--k", "0.1",
            "--l", "0.5", "--seed", "3",
        ])
        assert code == 0
        keys = np.loadtxt(out, dtype=np.int64)
        assert sorted(keys.tolist()) == list(range(5000))
        measured = kl_sortedness(keys.tolist())
        assert abs(measured.k_fraction - 0.1) < 0.03
        assert "wrote 5,000 keys" in capsys.readouterr().out

    def test_rejects_bad_spec(self, tmp_path, capsys):
        out = tmp_path / "stream.txt"
        code = main(["generate", str(out), "--n", "100", "--k", "2.0"])
        assert code == 2
        assert "invalid workload spec" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["generate", str(a), "--n", "1000", "--k", "0.2"])
        main(["generate", str(b), "--n", "1000", "--k", "0.2"])
        assert a.read_text() == b.read_text()


class TestMeasure:
    def test_measures_generated_stream(self, tmp_path, capsys):
        out = tmp_path / "stream.txt"
        main(["generate", str(out), "--n", "2000", "--k", "0.05"])
        capsys.readouterr()
        code = main(["measure", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "K (min removals)" in text
        assert "5.00%" in text or "4.9" in text or "5.1" in text

    def test_full_metrics(self, tmp_path, capsys):
        out = tmp_path / "stream.txt"
        main(["generate", str(out), "--n", "500", "--k", "0.5"])
        capsys.readouterr()
        assert main(["measure", str(out), "--full"]) == 0
        text = capsys.readouterr().out
        assert "inversions" in text
        assert "Dis" in text

    def test_missing_file(self, tmp_path, capsys):
        code = main(["measure", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_single_key_stream(self, tmp_path, capsys):
        out = tmp_path / "one.txt"
        out.write_text("42\n")
        assert main(["measure", str(out)]) == 0
        assert "entries:               1" in capsys.readouterr().out
