import os
import subprocess
import sys
from pathlib import Path

import contile


def test_every_public_name_resolves():
    assert [name for name in contile.__all__ if not hasattr(contile, name)] == []
    namespace = {}
    exec("from contile import *", namespace)
    assert set(contile.__all__) <= namespace.keys()


def test_names_load_their_modules_on_first_use():
    # a fresh process, so no other test has imported the modules
    code = (
        "import sys\n"
        "from contile import bitmat, synth\n"
        "print(sorted(m for m in ('factorizer', 'optset', 'pqtree', 'render') if 'contile.' + m in sys.modules))\n"
        "import contile\n"
        "print(set(contile.__all__) <= set(dir(contile)))\n"
        "try:\n"
        "    contile.no_such_name\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n"
    )
    src = str(Path(contile.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "AttributeError"]


def test_sampled_factorize_loads_no_numpy_random(tmp_path):
    # every draw is philox's: a sampled factorize, both synth commands and an
    # in-process synth -> factorize run load neither numpy.random nor the
    # secrets and OpenSSL modules that numpy 2 loads with it; numpy < 2 loads
    # it with numpy, before any of them runs
    spm = tmp_path / "m.spm"
    spm.write_text("4 4\n0 0\n0 1\n1 1\n2 2\n3 3\n3 0\n")
    runs = [
        ["factorize", str(spm), "-k", "2", "--seeds", "sample:0.5", "--rng", "3", "-o", str(tmp_path / "f.txt")],
        ["synth", "blocks", "--blocks", "10", "--size", "30", "--noise", "0.1", "--rng", "1", "-o", str(tmp_path / "b.spm")],
        ["synth", "random", "--n", "40", "--density", "0.3", "--rng", "2", "-o", str(tmp_path / "r.spm")],
    ]
    code = (
        "import sys\n"
        "from contile import cli, factorizer, synth\n"
        "before, unwanted = set(sys.modules), {'numpy.random', 'secrets'}\n"
        f"for argv in {runs!r}:\n"
        "    print(argv[0], cli.main(argv), sorted(unwanted & (set(sys.modules) - before)))\n"
        "d = synth.flip_noise(synth.gen_blocks(synth.BlockSpec(10, 30, 5)), 0.1, 7)  # 255x255: the tail shuffle\n"
        "f = factorizer.factorize(d, 2, 'cyclic-sym')\n"
        "print('in-process', f.error > 0, sorted(unwanted & (set(sys.modules) - before)))\n"
    )
    src = str(Path(contile.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-4:] == ["factorize 0 []", "synth 0 []", "synth 0 []", "in-process True []"]


def test_names_the_benchmark_reads_resolve():
    # benchmarks/run.py calls these and wraps them for its trace; a name it
    # does not find is skipped without a word, so its loss shows only here
    from contile import bitmat, cli, factorizer, optset, render, synth
    from contile.pqtree import PQTree

    wanted = {
        contile: "factorize format_report parse_report reconstruct hamming_error",
        bitmat: "load_sparse dump_sparse reconstruct hamming_error is_unimodal_under is_cyclic_under",
        cli: "main factorize format_report parse_report render_heatmap",
        factorizer: "factorize format_report parse_report reconstruct hamming_error",
        render: "reconstruct",
        optset: "compute_counters",
        PQTree: "reduce admits copy",
        synth: "BlockSpec gen_blocks flip_noise",
    }
    assert [(owner.__name__, name) for owner, names in wanted.items() for name in names.split()
            if not callable(getattr(owner, name, None))] == []
    assert isinstance(optset.compute_counters(PQTree(3), [[1, -1, 1]]).ops, int)
