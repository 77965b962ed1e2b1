import os
import subprocess
import sys
from pathlib import Path

import pytest

import contile
from contile import oracle
from contile.cli import _write_text, main
from contile.render import RenderSpec

from conftest import peak_bytes
from test_factorizer import SEPARATORS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynth:
    def test_blocks_to_file(self, tmp_path, capsys):
        out = tmp_path / "d.spm"
        code, _, err = run(capsys, "synth", "blocks", "--blocks", "6", "--size", "20",
                           "--overlap", "5", "--noise", "0.1", "--rng", "7", "-o", str(out))
        assert code == 0
        assert "95x95" in err
        assert out.read_text().startswith("95 95\n")

    def test_random_to_stdout(self, capsys):
        code, out, err = run(capsys, "synth", "random", "--n", "16", "--density", "0.24", "--rng", "1")
        assert code == 0
        assert out.startswith("16 16\n")
        assert "16x16" in err

    def test_dense_format(self, tmp_path, capsys):
        out = tmp_path / "d.dns"
        code, _, _ = run(capsys, "synth", "blocks", "--blocks", "2", "--size", "3",
                         "--overlap", "1", "-o", str(out))
        assert code == 0
        assert set(out.read_text().strip()) <= {"0", "1", "\n"}

    def test_bad_parameters(self, capsys):
        code, _, err = run(capsys, "synth", "blocks", "--overlap", "30")
        assert code == 2 and "error" in err

    def test_random_too_large_for_memory(self, capsys):
        # numpy refuses the 91 TiB result at once, without touching memory
        code, _, err = run(capsys, "synth", "random", "--n", "10000000", "--density", "0.1")
        assert code == 2 and "does not fit in memory" in err

    def test_blocks_too_large_for_memory(self, capsys):
        # a side of 15,000,005: numpy refuses the 205 TiB array at once
        code, _, err = run(capsys, "synth", "blocks", "--blocks", "1000000", "--size", "20", "--overlap", "5")
        assert code == 2 and "does not fit in memory" in err

    @pytest.mark.parametrize("noise", ["-0.1", "nan"])
    def test_bad_noise_rejected(self, capsys, noise):
        code, _, err = run(capsys, "synth", "blocks", "--blocks", "2", "--size", "3", "--overlap", "1", "--noise", noise)
        assert code == 2 and "flip rate" in err


@pytest.fixture
def blocks_file(tmp_path, capsys):
    path = tmp_path / "blocks.spm"
    assert main(["synth", "blocks", "--blocks", "3", "--size", "5", "--overlap", "1",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("argv", [
    ("synth", "blocks", "--noise", "0.1", "--rng", "-1"),
    ("factorize", "MATRIX", "-k", "1", "--seeds", "sample:0.5", "--rng", "-3"),
])
def test_negative_rng_is_refused_by_name(blocks_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:  # by argparse, not by numpy's "expected non-negative integer"
        main([str(blocks_file) if arg == "MATRIX" else arg for arg in argv])
    assert exc.value.code == 2
    assert "argument --rng: must be a non-negative integer, got -" in capsys.readouterr().err


class TestFactorize:
    def test_symmetric_exact(self, blocks_file, capsys):
        code, out, _ = run(capsys, "factorize", str(blocks_file), "-k", "3", "--variant", "sym")
        assert code == 0
        assert "ERROR 0 RELERR 0.0000" in out
        assert "NODE-ORDER" in out

    def test_sampled_seeds_deterministic(self, blocks_file, capsys):
        args = ("factorize", str(blocks_file), "-k", "2", "--seeds", "sample:0.5", "--rng", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0 and out1 == out2

    def test_zero_rank_usage_error(self, blocks_file, capsys):
        code, _, err = run(capsys, "factorize", str(blocks_file), "-k", "0")
        assert code == 2 and "rank" in err

    def test_symmetric_needs_square(self, tmp_path, capsys):
        p = tmp_path / "r.spm"
        p.write_text("2 3\n0 0\n1 2\n")
        code, _, err = run(capsys, "factorize", str(p), "-k", "1", "--variant", "sym")
        assert code == 2 and "square" in err

    @pytest.mark.parametrize("header", ["0 0", "3 0"])
    def test_empty_matrix_rejected(self, tmp_path, capsys, header):
        p = tmp_path / "e.spm"
        p.write_text(header + "\n")
        code, _, err = run(capsys, "factorize", str(p), "-k", "1")
        assert code == 2 and f"cannot factorize a {header.replace(' ', ' x ')} matrix" in err

    @pytest.mark.parametrize("text", ["1_0 3\n0 0\n", "3 3\n\u0661 2\n", "3 3\n+1 2\n"])
    def test_non_ascii_integers_rejected(self, tmp_path, capsys, text):
        p = tmp_path / "m.spm"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "factorize", str(p), "-k", "1")
        assert code == 2 and "integers" in err and out == ""

    @pytest.mark.parametrize("text", ["3 3\n1\x1c0\n", "3 3\n1\x850\n", "3 3\n1\u30000\n", "3\x1f3\n1 0\n"])
    def test_only_ascii_blanks_separate_tokens(self, tmp_path, capsys, text):
        p = tmp_path / "m.spm"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "factorize", str(p), "-k", "1")
        assert code == 2 and "must be" in err and out == ""

    def test_writes_factor_file(self, blocks_file, tmp_path, capsys):
        out = tmp_path / "f.txt"
        code, stdout, _ = run(capsys, "factorize", str(blocks_file), "-k", "3", "-o", str(out))
        assert code == 0 and out.read_text() == stdout

    @pytest.mark.parametrize("spec", ["sample:x", "sample:", "sample:0", "sample:1.5", "sample:nan", "bogus"])
    def test_bad_seeds_spec(self, tmp_path, capsys, spec):
        with pytest.raises(SystemExit) as exc:  # by argparse, before the (missing) matrix is read
            main(["factorize", str(tmp_path / "missing.spm"), "-k", "1", "--seeds", spec])
        assert exc.value.code == 2
        assert f"argument --seeds: must be 'all' or 'sample:FRACTION' with FRACTION in (0, 1], got {spec!r}" in capsys.readouterr().err

    def test_same_report_from_each_file_form(self, tmp_path, capsys):
        # one noisy matrix as an LF .spm, a CRLF .spm and a CRLF .dns
        synth = ("synth", "blocks", "--blocks", "3", "--size", "5", "--overlap", "1", "--noise", "0.1", "--rng", "1")
        lf_spm, crlf_spm, crlf_dns = tmp_path / "lf.spm", tmp_path / "crlf.spm", tmp_path / "crlf.dns"
        assert main([*synth, "-o", str(lf_spm)]) == 0 and main([*synth, "-o", str(crlf_dns)]) == 0
        crlf_spm.write_bytes(lf_spm.read_bytes().replace(b"\n", b"\r\n"))
        crlf_dns.write_bytes(crlf_dns.read_bytes().replace(b"\n", b"\r\n"))
        capsys.readouterr()
        runs = [run(capsys, "factorize", str(p), "-k", "3") for p in (lf_spm, crlf_spm, crlf_dns)]
        assert runs[0][0] == 0 and "ERROR" in runs[0][1]
        assert runs[1] == runs[2] == runs[0]


@pytest.fixture
def factor_file(blocks_file, tmp_path, capsys):
    path = tmp_path / "f.txt"
    assert main(["factorize", str(blocks_file), "-k", "3", "--variant", "sym",
                 "-o", str(path)]) == 0
    capsys.readouterr()
    return path


class TestEval:
    def test_exact_fit(self, blocks_file, factor_file, capsys):
        code, out, _ = run(capsys, "eval", "--factors", str(factor_file),
                           "--matrix", str(blocks_file))
        assert code == 0
        assert "ERROR 0 RELERR 0.0000" in out

    def test_multiple_matrices(self, blocks_file, factor_file, tmp_path, capsys):
        noisy = tmp_path / "noisy.spm"
        assert main(["synth", "blocks", "--blocks", "3", "--size", "5", "--overlap", "1",
                     "--noise", "0.1", "--rng", "1", "-o", str(noisy)]) == 0
        capsys.readouterr()
        code, out, _ = run(capsys, "eval", "--factors", str(factor_file),
                           "--matrix", str(blocks_file), "--matrix", str(noisy))
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_reconstruction_built_once_after_the_first_load(self, blocks_file, factor_file, monkeypatch, capsys):
        # the reconstruction never sits beside a load in progress, and one serves every matrix
        from contile import bitmat, cli

        calls = []
        for owner, name, label in ((cli, "_read_matrix", "load"), (bitmat, "reconstruct", "reconstruct")):
            monkeypatch.setattr(owner, name, lambda *a, fn=getattr(owner, name), label=label: calls.append(label) or fn(*a))
        code, out, _ = run(capsys, "eval", "--factors", str(factor_file),
                           "--matrix", str(blocks_file), "--matrix", str(blocks_file))
        assert code == 0 and out.count("ERROR 0 RELERR 0.0000") == 2
        assert calls == ["load", "reconstruct", "load"]

    def test_missing_factor_file(self, blocks_file, capsys):
        code, _, err = run(capsys, "eval", "--factors", "/nonexistent.txt",
                           "--matrix", str(blocks_file))
        assert code == 2

    def test_truncated_report(self, blocks_file, tmp_path, capsys):
        bad = tmp_path / "truncated.txt"
        bad.write_text("VARIANT plain\n")
        code, _, err = run(capsys, "eval", "--factors", str(bad), "--matrix", str(blocks_file))
        assert code == 2 and "line 2" in err

    @pytest.mark.parametrize("text,line", SEPARATORS)
    def test_report_separators(self, blocks_file, tmp_path, capsys, text, line):
        bad = tmp_path / "separated.txt"
        bad.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "eval", "--factors", str(bad), "--matrix", str(blocks_file))
        assert code == 2 and f"line {line}: " in err

    def test_shape_mismatch(self, factor_file, tmp_path, capsys):
        other = tmp_path / "other.spm"
        other.write_text("3 3\n0 0\n")
        code, _, err = run(capsys, "eval", "--factors", str(factor_file),
                           "--matrix", str(other))
        assert code == 2 and "shape" in err


class TestRender:
    def test_all_layouts(self, blocks_file, factor_file, tmp_path, capsys):
        for layout, extra in (("circular", []), ("linear", []),
                              ("heatmap", ["--matrix", str(blocks_file)])):
            out = tmp_path / f"{layout}.svg"
            code, _, err = run(capsys, "render", "--factors", str(factor_file),
                               "--layout", layout, *extra, "-o", str(out))
            assert code == 0, (layout, err)
            assert out.read_text().startswith("<?xml")

    def test_heatmap_needs_matrix(self, factor_file, capsys):
        code, _, err = run(capsys, "render", "--factors", str(factor_file),
                           "--layout", "heatmap")
        assert code == 2 and "matrix" in err

    def test_layout_variant_mismatch(self, blocks_file, tmp_path, capsys):
        plain = tmp_path / "plain.txt"
        assert main(["factorize", str(blocks_file), "-k", "2", "-o", str(plain)]) == 0
        capsys.readouterr()
        code, _, err = run(capsys, "render", "--factors", str(plain), "--layout", "circular")
        assert code == 2 and "symmetric" in err

    @pytest.mark.parametrize("opacity", ["nan", "inf", "-inf", "-1", "2", "1.01"])
    def test_bad_opacity(self, factor_file, tmp_path, capsys, opacity):
        out = tmp_path / "bad.svg"
        code, _, err = run(capsys, "render", "--factors", str(factor_file),
                           f"--opacity={opacity}", "-o", str(out))
        assert code == 2 and "opacity" in err and not out.exists()

    @pytest.mark.parametrize("opacity", ["0", "1", "0.5"])
    def test_opacity_bounds_accepted(self, factor_file, capsys, opacity):
        code, out, _ = run(capsys, "render", "--factors", str(factor_file), "--opacity", opacity)
        assert code == 0 and f'fill-opacity="{float(opacity):.2f}"' in out

    def test_labels(self, factor_file, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"node{i}\n" for i in range(13)))
        out = tmp_path / "labelled.svg"
        code, _, _ = run(capsys, "render", "--factors", str(factor_file),
                         "--labels", str(labels), "-o", str(out))
        assert code == 0 and "node12" in out.read_text()

    def test_heatmap_refuses_labels(self, blocks_file, factor_file, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("".join(f"node{i}\n" for i in range(13)))
        out = tmp_path / "labelled.svg"
        code, _, err = run(capsys, "render", "--factors", str(factor_file), "--layout", "heatmap",
                           "--matrix", str(blocks_file), "--labels", str(labels), "-o", str(out))
        assert code == 2 and "labels" in err and not out.exists()

    @pytest.mark.parametrize("opacity", ["0.35", "0.9"])
    def test_heatmap_refuses_opacity(self, blocks_file, factor_file, tmp_path, capsys, opacity):
        # the heatmap draws no ribbons, so an opacity would change nothing in its file
        out = tmp_path / "heatmap.svg"
        code, _, err = run(capsys, "render", "--factors", str(factor_file), "--layout", "heatmap",
                           "--matrix", str(blocks_file), "--opacity", opacity, "-o", str(out))
        assert code == 2 and "--opacity" in err and not out.exists()

    def test_default_opacity(self, factor_file, capsys):
        code, out, _ = run(capsys, "render", "--factors", str(factor_file))
        assert code == 0 and f'fill-opacity="{RenderSpec().opacity:.2f}"' in out

    @pytest.mark.parametrize("layout", ["circular", "linear"])
    @pytest.mark.parametrize("extra", [["--matrix", "nonexistent.spm"], ["--format", "dense"]])
    def test_drawings_refuse_matrix_and_format(self, factor_file, tmp_path, capsys, layout, extra):
        out = tmp_path / f"{layout}.svg"
        code, _, err = run(capsys, "render", "--factors", str(factor_file), "--layout", layout, *extra, "-o", str(out))
        assert code == 2 and extra[0] in err and not out.exists()


class TestCheck:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--cases", "25", "--rng", "1")
        assert code == 0
        assert "ok   [symmetric tiles vs brute-force orders] 25 cases" in out
        assert "all 100 cases passed" in out

    def test_failure_prints_the_counterexample(self, capsys, monkeypatch):
        batteries = list(oracle.BATTERIES)
        name = batteries[1][0]
        batteries[1] = (name, lambda rng, cases: "D=[[1]]")
        monkeypatch.setattr(oracle, "BATTERIES", tuple(batteries))
        code, out, _ = run(capsys, "check", "--cases", "5")
        assert code == 1
        assert out.splitlines() == [f"ok   [{batteries[0][0]}] 5 cases", f"FAIL [{name}]", "  counterexample: D=[[1]]"]

    def test_zero_cases_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--cases", "0")
        assert code == 2


def test_write_text_holds_no_second_copy(tmp_path):
    # the text is encoded a slice at a time, so writing 8 MB never holds a second 8 MB
    text = "0 1\n" * (2 << 20)  # 8 MB
    out = tmp_path / "big.txt"
    assert peak_bytes(lambda: _write_text(text, str(out))) < 2 * 1000 * 1000
    assert out.read_text(encoding="utf-8") == text


class TestEntryPoint:
    def test_console_script(self):
        # the child imports the same package as the tests, installed or not
        src = str(Path(contile.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-m", "contile.cli", "check", "--cases", "5"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_format_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.spm"
        bad.write_text("2 2\n5 5\n")
        code, _, err = run(capsys, "factorize", str(bad), "-k", "1")
        assert code == 2 and "line 2" in err

    def test_header_too_large_for_memory(self, tmp_path, capsys):
        # numpy refuses a 10^18-byte array at once, without touching memory
        bad = tmp_path / "huge.spm"
        for text in ("1000000000 1000000000\n0 0\n", "99999999999999999999 2\n99999999999999999998 0\n",
                     "9223372036854775808 1\n"):
            bad.write_text(text)
            code, _, err = run(capsys, "factorize", str(bad), "-k", "1")
            assert code == 2 and "line 1" in err, text
