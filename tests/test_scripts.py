"""The scripts under scripts/ reproduce what the repository commits."""

import importlib.util

import pytest


def load_script(repo_root, name):
    spec = importlib.util.spec_from_file_location(
        "script_" + name, repo_root / "scripts" / (name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_make_corpus_reproduces_the_committed_corpus(repo_root, tmp_path, capsys):
    out = tmp_path / "fields.csv"
    load_script(repo_root, "make_corpus").main(out)
    assert "wrote 60 records" in capsys.readouterr().out
    assert out.read_bytes() == (repo_root / "corpus" / "fields.csv").read_bytes()


def test_gamma_census_verifies_the_valuation_identity(repo_root, capsys):
    census = load_script(repo_root, "gamma_census")
    assert census.main([str(repo_root / "corpus" / "fields.csv"), "--verify"]) == 0
    assert "valuation identity: 13 checks, 0 failures" in capsys.readouterr().out


@pytest.mark.parametrize(
    "target, summary",
    [
        (32009, "10 generators, 3 distinct splitting fingerprints"),
        (-3299, "42 generators, 4 distinct splitting fingerprints"),
    ],
)
def test_find_disc_siblings_counts_generators_and_fingerprints(repo_root, capsys, target, summary):
    assert load_script(repo_root, "find_disc_siblings").main(["--target", str(target)]) == 0
    assert summary in capsys.readouterr().out.splitlines()


def test_paired_fields_gives_equal_bytes_for_one_checkout_twice(repo_root, capsys):
    paired = load_script(repo_root, "paired_fields")
    argv = [str(repo_root), str(repo_root), "--workload", "corpus", "--repeats", "1"]
    assert paired.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert "canonical bytes: identical on 60 fields" in out
    assert [line.split()[0] for line in out[1:]] == ["A", "B", "B/A"]
