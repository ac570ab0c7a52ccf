"""CLI behavior: exit codes, JSON emission, cache semantics, scan summaries.

Everything runs in-process through main(argv) so the suite stays fast; a few
subprocess tests check the installed console script end to end and what
importing the package and running the CLI load.
"""

import argparse
import gc
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import tracegenus.cli as cli
from test_polys import MISREAD_NUMBERS
from tracegenus.polys import parse_poly
from tracegenus.report import canonical_bytes

PAIR_A = "x^6 - x^5 - 2*x^4 + x^3 + 7*x^2 - 6*x + 4"
PAIR_B = "x^6 - 3*x^5 + 10*x^4 - 15*x^3 + 19*x^2 - 12*x + 3"
KLEIN_A = "x^4 - 41*x^2 + 144"
KLEIN_B = "x^4 - x^3 - 46*x^2 - 115*x - 35"


@pytest.fixture(autouse=True)
def isolated_cache_env(monkeypatch, tmp_path):
    # keep every test away from the real user cache
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(capsys, text, *extra):
    code, out, _ = run_cli(capsys, "analyze", text, *extra)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes and document emission


def test_analyze_ok(capsys, tmp_path):
    code, doc = analyze_json(capsys, KLEIN_A, "--cache-dir", str(tmp_path / "c"))
    assert code == 0
    assert doc["schema"] == "tracegenus/analysis/v1"
    assert doc["disc"] == "1221025"
    assert doc["meta"]["elapsed_ms"] >= 0


def test_analyze_human_output(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "analyze", KLEIN_A, "--human", "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    assert "polynomial   x^4 - 41*x^2 + 144" in out
    assert "gamma" in out


def test_json_is_the_default_and_takes_no_flag(capsys):
    # JSON needs no flag, so there is none: --json is an unknown argument
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", KLEIN_A, "--json", "--no-cache"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


def test_analyze_parse_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "x^2 -", "--no-cache")
    assert code == 2
    doc = json.loads(out)
    assert doc["schema"] == "tracegenus/error/v1"
    assert doc["error"]["type"] == "ParseError"
    assert "error:" in err


def test_analyze_misread_numbers_exit_2(capsys):
    for text in MISREAD_NUMBERS:
        code, out, _ = run_cli(capsys, "analyze", text, "--no-cache")
        assert code == 2, text
        assert json.loads(out)["error"]["type"] == "ParseError", text


def test_analyze_reducible_exit_3(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x^2 - 1", "--no-cache")
    assert code == 3
    doc = json.loads(out)
    assert doc["error"]["type"] == "ReducibleInputError"
    assert sorted(doc["error"]["factors"]) == ["x + 1", "x - 1"] or sorted(
        doc["error"]["factors"]
    ) == ["x - 1", "x + 1"]


def test_analyze_nonmonic_exit_2(capsys):
    code, out, _ = run_cli(capsys, "analyze", "2*x^2 + 1", "--no-cache")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "NonMonicInputError"


def test_analyze_constant_exit_2(capsys):
    # 1 is monic but constant: degenerate, not non-monic
    code, out, _ = run_cli(capsys, "analyze", "1", "--no-cache")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "DegenerateInputError"


def test_compare_same_exit_0(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "compare", PAIR_A, PAIR_B, "--cache-dir", str(tmp_path / "c")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["comparison"]["verdict"] == "same-spinor-genus"
    assert doc["prediction"]["isometry_claim"] is True
    assert doc["cross_validation"] == {"consistent": True}


def test_compare_different_exit_1(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "compare", KLEIN_A, KLEIN_B, "--cache-dir", str(tmp_path / "c")
    )
    assert code == 1
    assert json.loads(out)["comparison"]["verdict"] == "different"


def test_compare_not_applicable_exit_4(capsys):
    code, out, _ = run_cli(capsys, "compare", "x^2 - 5", "x^2 + 1", "--no-cache")
    assert code == 4
    doc = json.loads(out)
    assert doc["comparison"]["verdict"] == "not-applicable"
    assert doc["comparison"]["reason"] == "degree-too-small"


def test_compare_parse_error_exit_2(capsys):
    code, out, _ = run_cli(capsys, "compare", "x^2 - 5", "garbage", "--no-cache")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


# a degree above the parse limit and a number longer than int() reads once
# crashed parse_poly, and the crash exited 1, which is compare's "different"
UNREADABLE = (
    "x^100000000000000000000 + 1",
    "x^2 + %s" % ("7" * 5000),
    "%s,0,1" % ("7" * 5000),
)


@pytest.mark.parametrize("text", UNREADABLE)
def test_unreadable_input_exits_2(capsys, text):
    for argv in (("analyze", text), ("compare", text, "x^2 + 1"), ("compare", "x^3 - 2", text)):
        code, out, _ = run_cli(capsys, *argv, "--no-cache")
        assert code == 2, argv[0]
        doc = json.loads(out)
        assert doc["schema"] == "tracegenus/error/v1"
        assert doc["error"]["type"] == "ParseError"


def test_scan_records_unreadable_input_and_goes_on(capsys, tmp_path):
    corpus = tmp_path / "unreadable.csv"
    rows = ["good,x^2 - 5"] + ["bad%d,%s" % (i, t) for i, t in enumerate(UNREADABLE)] + ["last,x^3 - 2"]
    corpus.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert (doc["count"], doc["ok"], doc["failed"]) == (5, 2, 3)
    assert [r["error"]["type"] for r in doc["records"] if not r["ok"]] == ["ParseError"] * 3


HARD_CUBIC = "x^3 + 117476*x^2 + 278917*x - 246171"  # composite cofactor 52348860508139741563


@pytest.mark.parametrize("argv", [("analyze", HARD_CUBIC), ("compare", "x^2 - 5", HARD_CUBIC)])
def test_failed_analysis_prints_its_error_and_exits_5(capsys, monkeypatch, argv):
    # with no rho factor, the disc's cofactor is beyond the schedule
    monkeypatch.setattr("tracegenus.arith._brent_rho", lambda n: None)
    code, out, err = run_cli(capsys, *argv, "--no-cache")
    assert code == cli.EXIT_FAILED == 5
    error = json.loads(out)["error"]
    assert error["type"] == "FactorizationLimitError"
    assert "52348860508139741563" in error["message"]
    assert err == "error: %s\n" % error["message"]


def test_compare_human_output(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "compare",
        PAIR_A,
        PAIR_B,
        "--human",
        "--cache-dir",
        str(tmp_path / "c"),
    )
    assert code == 0
    assert "verdict      same-spinor-genus" in out
    assert "cross-check  consistent: True" in out


@pytest.mark.parametrize(
    "left, right, exit_code, digest",
    [
        (KLEIN_A, KLEIN_B, 1, "0a358c03032ddb262e68a595a5b28d749a084e47f40cce51ccce7d1dd9098a55"),
        (PAIR_A, PAIR_B, 0, "15b57329e93b397f98fd49b7c772070d46b6fc11a4ae6a2a95b761c280a79bb9"),
        ("x^2 + 1", "x^3 - 2", 4, "177903620aa303ca33bbd8c9aac248958675a935500e6a2eec8deb3f1e6646ac"),
    ],
)
def test_compare_document_bytes_are_frozen(capsys, left, right, exit_code, digest):
    # pins every byte of the comparison and prediction objects, which only
    # the schema and the verdict would otherwise constrain
    import hashlib

    code, out, _ = run_cli(capsys, "compare", left, right, "--no-cache")
    assert code == exit_code
    assert hashlib.sha256(canonical_bytes(json.loads(out))).hexdigest() == digest


# ---------------------------------------------------------------------------
# scan


def test_scan_pairs_summary(capsys, repo_root, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "scan",
        str(repo_root / "corpus" / "pairs.csv"),
        "--pairs",
        "--cache-dir",
        str(tmp_path / "c"),
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["count"], doc["ok"], doc["failed"]) == (4, 4, 0)
    summary = doc["summary"]
    assert summary["tame_count"] == 4
    assert summary["gamma_count"] == 2
    assert summary["exceptional_histogram"] == [["107", 2]]
    assert summary["pairs"]["compared"] == 1
    assert summary["pairs"]["consistent"] == 1
    assert summary["pairs"]["inconsistent"] == 0
    detail = summary["pairs"]["details"][0]
    assert {detail["left"], detail["right"]} == {"sextic-pair-a", "sextic-pair-b"}
    assert detail["verdict"] == "same-spinor-genus"
    assert detail["consistent"] is True


def test_corpus_scan_bytes_are_frozen(capsys, repo_root):
    # pins every byte of the 60 corpus analysis documents and the 7 compared
    # pairs, on every Python version the tests run under
    import hashlib

    corpus = str(repo_root / "corpus" / "fields.csv")
    code, out, _ = run_cli(capsys, "scan", corpus, "--pairs", "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert (doc["ok"], doc["summary"]["pairs"]["compared"]) == (60, 7)
    digest = "6fcedeba5ec658d1d98b162eeff327a690da9bbfe3a61d44df458e19b642d9ef"
    assert hashlib.sha256(canonical_bytes(doc)).hexdigest() == digest


def test_scan_mixed_corpus_keeps_going(capsys, tmp_path):
    corpus = tmp_path / "mixed.csv"
    corpus.write_text(
        "good,x^2 - 5\nreducible,x^2 - 1\ngarbage,what even is this\n"
    )
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--no-cache")
    assert code == 0  # at least one record succeeded
    doc = json.loads(out)
    assert (doc["count"], doc["ok"], doc["failed"]) == (3, 1, 2)
    by_label = {r["label"]: r for r in doc["records"]}
    assert by_label["good"]["ok"] is True
    assert by_label["reducible"]["error"]["type"] == "ReducibleInputError"
    assert by_label["garbage"]["error"]["type"] == "ParseError"


@pytest.mark.parametrize("first", ["big,x^10001 + 1", "huge,x^2 + 1 2"])
def test_scan_reports_an_unparseable_first_row(capsys, tmp_path, first):
    corpus = tmp_path / "first.csv"
    corpus.write_text(first + "\ngood,x^2 - 5\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--no-cache")
    assert code == 0
    doc = json.loads(out)
    assert (doc["count"], doc["ok"], doc["failed"]) == (2, 1, 1)
    assert doc["records"][0]["error"]["type"] == "ParseError"


def test_scan_all_failed_exit_1(capsys, tmp_path):
    corpus = tmp_path / "broken.csv"
    corpus.write_text("a,x^2 - 1\nb,x^2 - 4\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--no-cache")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] == 0 and doc["failed"] == 2


def test_scan_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "scan", str(tmp_path / "nope.csv"), "--no-cache")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_scan_file_that_is_not_utf8_exit_2(capsys, tmp_path):
    corpus = tmp_path / "latin1.csv"
    corpus.write_bytes("a,x^2 - 5\nb\xe9,x^2 + 1\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "scan", str(corpus), "--no-cache")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "utf-8" in err


def test_scan_malformed_row_exit_2(capsys, tmp_path):
    corpus = tmp_path / "short.csv"
    corpus.write_text("a,x^2 - 5\nlonely-label\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--no-cache")
    assert code == 2
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_scan_human_output(capsys, repo_root, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "scan",
        str(repo_root / "corpus" / "pairs.csv"),
        "--human",
        "--cache-dir",
        str(tmp_path / "c"),
    )
    assert code == 0
    assert "records      4 (4 ok, 0 failed)" in out
    assert "gamma        2" in out


def test_scan_jobs_deterministic(capsys, repo_root, tmp_path):
    corpus = str(repo_root / "corpus" / "pairs.csv")
    _, out1, _ = run_cli(capsys, "scan", corpus, "--pairs", "--jobs", "1", "--no-cache")
    _, out2, _ = run_cli(capsys, "scan", corpus, "--pairs", "--jobs", "3", "--no-cache")
    assert canonical_bytes(json.loads(out1)) == canonical_bytes(json.loads(out2))


@pytest.mark.parametrize("jobs", ["0", "-1", "-5", "two"])
def test_scan_rejects_bad_jobs(capsys, repo_root, jobs):
    corpus = str(repo_root / "corpus" / "pairs.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", corpus, "--jobs", jobs, "--no-cache"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "jobs, cpus, expected",
    [
        ("8", 2, [2]),  # capped by the CPU count
        ("8", 64, [4]),  # capped by the 4 records of pairs.csv
        ("3", 64, [3]),
        ("8", 1, [1]),  # one CPU: serial
        ("8", None, [1]),  # unknown CPU count counts as one
    ],
)
def test_scan_caps_worker_count(capsys, repo_root, monkeypatch, jobs, cpus, expected):
    sizes = []
    fan_out = cli._fan_out
    # record the worker count, then run serially
    monkeypatch.setattr(cli, "_fan_out", lambda fn, tasks, w: sizes.append(w) or fan_out(fn, tasks, 1))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    corpus = str(repo_root / "corpus" / "pairs.csv")
    code, out, _ = run_cli(capsys, "scan", corpus, "--jobs", jobs, "--no-cache")
    assert code == 0
    assert len(json.loads(out)["records"]) == 4
    assert sizes == expected


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_fan_out_gives_the_serial_bytes_and_cache(capsys, repo_root, tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)  # fork even on a 1-CPU host
    corpus = str(repo_root / "corpus" / "fields.csv")
    serial, forked = str(tmp_path / "serial"), str(tmp_path / "forked")
    runs = [
        ("--jobs", "1", "--cache-dir", serial),
        ("--jobs", "2", "--cache-dir", forked),  # cold
        ("--jobs", "1", "--cache-dir", forked),  # warm
        ("--jobs", "3", "--no-cache"),
    ]
    outputs = []
    for argv in runs:
        code, out, _ = run_cli(capsys, "scan", corpus, "--pairs", *argv)
        assert code == 0
        outputs.append(canonical_bytes(json.loads(out)))
    assert json.loads(outputs[0])["count"] == 60
    assert outputs == [outputs[0]] * len(runs)
    entries = {
        name: {p.name: p.read_bytes() for p in (tmp_path / name).glob("*.json")}
        for name in ("serial", "forked")
    }
    assert len(entries["serial"]) == 60 and entries["forked"] == entries["serial"]
    _assert_no_child_left()


class _Broken(Exception):
    """Not a TraceGenusError, so scan does not turn it into a failed record."""


@pytest.mark.parametrize(
    "broken, error, match",
    [
        (1, RuntimeError, "scan worker 1 failed"),  # in a child's stride
        (2, RuntimeError, "scan worker 2 failed"),
        (0, _Broken, "record 0"),  # in this process's stride
        (3, KeyboardInterrupt, "record 3"),
    ],
)
def test_scan_worker_error_fails_loudly_and_leaves_no_child(
    capsys, repo_root, monkeypatch, broken, error, match
):
    # pairs.csv has 4 records: with 3 workers this process takes 0 and 3
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    corpus = repo_root / "corpus" / "pairs.csv"
    index = {r.text: i for i, r in enumerate(cli.read_corpus(corpus))}
    analyze, parent = cli.analyze_text, os.getpid()

    def analyze_text(text, cache_dir):
        if index[text] == broken:
            raise error("record %d" % broken)
        if os.getpid() != parent and broken % 3 == 0:
            time.sleep(60)  # children still busy when this process fails are killed
        return analyze(text, cache_dir)

    monkeypatch.setattr(cli, "analyze_text", analyze_text)
    t0 = time.monotonic()
    with pytest.raises(error, match=match):
        cli.main(["scan", str(corpus), "--jobs", "3", "--no-cache"])
    assert time.monotonic() - t0 < 30
    assert capsys.readouterr().out == ""
    _assert_no_child_left()


def test_scan_empty_corpus_with_jobs(capsys, tmp_path):
    corpus = tmp_path / "empty.csv"
    corpus.write_text("# comments only\n# no records\n")
    code, out, _ = run_cli(capsys, "scan", str(corpus), "--jobs", "2", "--no-cache")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_cli_import_leaves_out_process_pool(repo_root):
    # no command needs the pool machinery, so importing the CLI loads none
    code = "import sys, tracegenus.cli; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_analysis_imports_no_rational_arithmetic(repo_root):
    # the pipeline is integer-only; fractions (and the decimal it pulls in)
    # would cost every CLI start its import time
    code = (
        "import sys, tracegenus.cli\n"
        "assert tracegenus.cli.main(['analyze', 'x^6 - 2*x^5 + 3*x^4 - 9*x^3 + 8*x^2 - 7*x - 5',"
        " '--no-cache']) == 0\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def _loaded_by(code, repo_root, heavy=("dataclasses", "inspect", "hashlib"), flags=()):
    """Which of the `heavy` modules `code` loads beyond what the interpreter,
    started with `flags`, already has."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n" + code + "\n"
        "heavy = set(%r)\n"
        "print(sorted(heavy & (set(sys.modules) - before)), file=sys.stderr)" % (heavy,)
    )
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.strip().splitlines()[-1]


def test_cold_start_loads_no_dataclasses_inspect_or_hashlib(repo_root, tmp_path):
    assert _loaded_by("import tracegenus.cli", repo_root) == "[]"
    # this field's index is 48, so splitting takes Cantor-Zassenhaus
    # (split_blocks), which draws from its seeded random.Random
    analyze = (
        "import tracegenus.cli as cli, tracegenus.modp as modp\n"
        "split, calls = modp.split_blocks, []\n"
        "modp.split_blocks = lambda *a: calls.append(1) or split(*a)\n"
        "assert cli.main(['analyze', %r, %s]) == 0 and calls\n"
    )
    assert _loaded_by(analyze % (KLEIN_A, "'--no-cache'"), repo_root) == "[]"
    # a cached run still hashes the sources and the key
    cached = analyze % (KLEIN_A, "'--cache-dir', %r" % str(tmp_path / "cache"))
    assert _loaded_by(cached, repo_root) == "['hashlib']"


def test_cold_start_without_site_loads_no_tempfile(repo_root, tmp_path):
    # a site that imports tempfile and shutil would hide them, so run without
    assert _loaded_by("import tracegenus.cli", repo_root, ("shutil", "tempfile"), ["-S"]) == "[]"
    # build_parser gives argparse the terminal width, so its help formatter
    # does not import shutil for it
    analyze = "import tracegenus.cli as cli\nassert cli.main(['analyze', %r, %s]) == 0\n"
    uncached = analyze % (KLEIN_A, "'--no-cache'")
    assert _loaded_by(uncached, repo_root, ("shutil", "tempfile"), ["-S"]) == "[]"
    # a cached run writes its entry through a temp file
    cached = analyze % (KLEIN_A, "'--cache-dir', %r" % str(tmp_path / "cache"))
    assert _loaded_by(cached, repo_root, ("tempfile",), ["-S"]) == "['tempfile']"


def test_parallel_scan_loads_no_pool_pickle_or_threads(repo_root):
    scan = (
        "import os, tracegenus.cli as cli\n"
        "os.cpu_count = lambda: 2\n"
        "fan_out, sizes = cli._fan_out, []\n"
        "cli._fan_out = lambda fn, tasks, w: sizes.append(w) or fan_out(fn, tasks, w)\n"
        "assert cli.main(['scan', %r, '--jobs', '2', '--no-cache']) == 0 and sizes == [2]\n"
        % str(repo_root / "corpus" / "pairs.csv")
    )
    watched = ("concurrent.futures", "multiprocessing", "pickle", "threading")
    assert _loaded_by(scan, repo_root, watched, ["-S"]) == "[]"


# the package namespace


def _submodules():
    package = os.path.dirname(cli.__file__)
    return tuple(
        "tracegenus." + name[:-3]
        for name in os.listdir(package)
        if name.endswith(".py") and name != "__init__.py"
    )


def test_package_import_loads_only_what_the_caller_reaches(repo_root):
    assert _loaded_by("import tracegenus", repo_root, _submodules()) == "[]"
    parse = "from tracegenus.polys import parse_poly\nparse_poly('x^2 - 5')"
    loaded = "['tracegenus.errors', 'tracegenus.polys']"
    assert _loaded_by(parse, repo_root, _submodules()) == loaded
    # modp's seeded random.Random is not loaded for a parse
    assert _loaded_by(parse, repo_root, ("random",), ["-S"]) == "[]"


def test_every_public_name_resolves_to_its_home_module(repo_root):
    # in a fresh process, so that the star import is what loads the modules
    code = (
        "import importlib, tracegenus\n"
        "star = {}\n"
        "exec('from tracegenus import *', star)\n"
        "del star['__builtins__']\n"
        "assert sorted(star) == tracegenus.__all__ and len(star) == 48, sorted(star)\n"
        "for home, names in tracegenus._HOMES.items():\n"
        "    module = importlib.import_module('tracegenus.' + home)\n"
        "    for name in names:\n"
        "        assert star[name] is getattr(tracegenus, name) is getattr(module, name)\n"
        "        assert getattr(star[name], '__module__', module.__name__) == module.__name__\n"
    )
    assert _loaded_by(code, repo_root, ()) == "[]"


def test_package_dir_lists_the_public_names_and_unknown_names_raise():
    import tracegenus

    assert set(tracegenus.__all__) <= set(dir(tracegenus))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(tracegenus, "no_such_name")
    from tracegenus import modp  # no public name, so the submodule is imported

    assert modp.__name__ == "tracegenus.modp"


def test_patch_of_a_home_module_shows_through_the_package(monkeypatch):
    import tracegenus
    from tracegenus import arith

    original = arith.factor_integer
    monkeypatch.setattr(arith, "factor_integer", lambda n: None)
    assert tracegenus.factor_integer is arith.factor_integer is not original
    monkeypatch.undo()
    assert tracegenus.factor_integer is original
    assert "factor_integer" not in vars(tracegenus)


def _help_texts():
    parser = cli.build_parser()
    parsers = [parser, *parser._subparsers._group_actions[0].choices.values()]
    return [p.format_help() for p in parsers], parsers


@pytest.mark.parametrize("columns", ["60", "132", "", "0"])
def test_help_text_is_unchanged(monkeypatch, columns):
    # "" and "0" leave the width to the terminal or the fallback of 80
    monkeypatch.setenv("COLUMNS", columns)
    ours, parsers = _help_texts()
    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    assert ours == [p.format_help() for p in parsers]
    assert len(ours) == 4


def test_help_width_follows_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "60")
    narrow = _help_texts()[0][3]
    monkeypatch.setenv("COLUMNS", "200")
    wide = _help_texts()[0][3]
    assert max(map(len, narrow.splitlines())) <= 58 < max(map(len, wide.splitlines()))


# ---------------------------------------------------------------------------
# cache


def test_cache_populates_and_hits(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    code, doc1 = analyze_json(capsys, KLEIN_A, "--cache-dir", str(cache))
    assert code == 0
    key = cli.cache_key(parse_poly(KLEIN_A))
    entry = cache / (key + ".json")
    assert entry.exists()
    assert json.loads(entry.read_text())["schema"] == "tracegenus/analysis/v1"

    # a second run must be served from the entry: remove the computation
    def bomb(poly):
        raise AssertionError("cache miss: analyze_field should not run")

    monkeypatch.setattr(cli, "analyze_field", bomb)
    code, doc2 = analyze_json(capsys, KLEIN_A, "--cache-dir", str(cache))
    assert code == 0
    assert canonical_bytes(doc1) == canonical_bytes(doc2)


def test_cache_transparency(capsys, tmp_path):
    cache = tmp_path / "cache"
    _, cold = analyze_json(capsys, PAIR_A, "--cache-dir", str(cache))
    _, warm = analyze_json(capsys, PAIR_A, "--cache-dir", str(cache))
    _, uncached = analyze_json(capsys, PAIR_A, "--no-cache")
    assert canonical_bytes(cold) == canonical_bytes(warm) == canonical_bytes(uncached)


def test_cache_hit_restamps_input_echo(capsys, tmp_path):
    # the key is the coefficient sequence, so another spelling of the same
    # field hits the same entry; the echo must follow the current invocation
    cache = tmp_path / "cache"
    _, doc1 = analyze_json(capsys, KLEIN_A, "--cache-dir", str(cache))
    _, doc2 = analyze_json(capsys, "144,0,-41,0,1", "--cache-dir", str(cache))
    assert doc1["input"] == KLEIN_A
    assert doc2["input"] == "144,0,-41,0,1"
    _, fresh = analyze_json(capsys, "144,0,-41,0,1", "--no-cache")
    assert canonical_bytes(doc2) == canonical_bytes(fresh)


def test_leading_dash_csv_needs_separator(capsys):
    # "-5,0,1" looks like a flag to the option parser; `--` ends options
    code, out, _ = run_cli(capsys, "analyze", "--no-cache", "--", "-5,0,1")
    assert code == 0
    assert json.loads(out)["disc"] == "5"


def test_corrupt_cache_entry_warns_then_recovers(capsys, tmp_path):
    cache = tmp_path / "cache"
    _, _ = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
    key = cli.cache_key(parse_poly("x^2 - 5"))
    entry = cache / (key + ".json")
    for content in ("{not json at all", "[" * 100000):  # the second nests too deep to parse
        entry.write_text(content)
        code, doc = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
        assert code == 0
        assert any("corrupt cache entry" in w for w in doc["meta"]["warnings"])
        # the recomputation rewrote the entry, so the next run is clean
        code, doc = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
        assert code == 0
        assert "warnings" not in doc["meta"]


def test_stale_schema_entry_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    # mark the directory as this program's, so the entry is not pruned unread
    assert cli.prune_cache(str(cache)) == []
    key = cli.cache_key(parse_poly("x^2 - 5"))
    (cache / (key + ".json")).write_text('{"schema": "tracegenus/analysis/v0"}')
    code, doc = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
    assert code == 0
    assert doc["disc"] == "5"
    assert any("stale cache entry" in w for w in doc["meta"]["warnings"])


def test_unwritable_cache_dir_warns_and_proceeds(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, so nothing can be created beneath it")
    code, doc = analyze_json(
        capsys, "x^2 - 5", "--cache-dir", str(blocker / "cache")
    )
    assert code == 0
    assert doc["disc"] == "5"
    assert any("cache not writable" in w for w in doc["meta"]["warnings"])


def test_env_var_sets_cache_dir(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "from-env"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
    code, _ = analyze_json(capsys, "x^2 - 5")
    assert code == 0
    key = cli.cache_key(parse_poly("x^2 - 5"))
    assert (cache / (key + ".json")).exists()


def test_cache_dir_flag_beats_env(capsys, tmp_path, monkeypatch):
    env_cache = tmp_path / "from-env"
    flag_cache = tmp_path / "from-flag"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(env_cache))
    code, _ = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(flag_cache))
    assert code == 0
    key = cli.cache_key(parse_poly("x^2 - 5"))
    assert (flag_cache / (key + ".json")).exists()
    assert not env_cache.exists()


def test_no_cache_writes_nothing(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "never"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(cache))
    code, _ = analyze_json(capsys, "x^2 - 5", "--no-cache")
    assert code == 0
    assert not cache.exists()


def test_cache_key_tracks_coefficients_not_spelling():
    assert cli.cache_key(parse_poly("x^2 - 5")) == cli.cache_key(parse_poly("-5,0,1"))
    assert cli.cache_key(parse_poly("x^2 - 5")) != cli.cache_key(parse_poly("x^2 + 5"))


def test_cache_key_names_the_source(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    poly = parse_poly("x^2 - 5")
    old_key = cli.cache_key(poly)
    analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
    assert (cache / (old_key + ".json")).exists()

    # the same coefficients under other sources: another key, and the entry
    # stored under the old key is a miss, not a hit
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    new_key = cli.cache_key(poly)
    assert new_key != old_key
    assert cli.cache_load(str(cache), new_key, poly, "x^2 - 5") == (None, None)
    computed = []
    analyze_field = cli.analyze_field
    monkeypatch.setattr(cli, "analyze_field", lambda f: computed.append(f) or analyze_field(f))
    code, doc = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
    assert code == 0 and computed == [poly]
    assert "warnings" not in doc["meta"]
    assert (cache / (new_key + ".json")).exists()


def test_source_digest_reads_the_package_once():
    cli.source_digest.cache_clear()
    digest = cli.source_digest()
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert cli.source_digest() == digest
    assert cli.source_digest.cache_info().misses == 1


def _edit_entry(cache, text, **changes):
    poly = parse_poly(text)
    entry = cache / (cli.cache_key(poly) + ".json")
    doc = json.loads(entry.read_text())
    doc.update(changes)
    # canonical bytes, as cache_store writes them: only the changes differ
    entry.write_bytes(canonical_bytes(doc))
    return poly


def test_entry_rewritten_unchanged_is_still_a_hit(capsys, tmp_path):
    cache = tmp_path / "cache"
    _, fresh = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
    poly = _edit_entry(cache, "x^2 - 5")
    hit, warning = cli.cache_load(str(cache), cli.cache_key(poly), poly, "x^2  -  5")
    assert warning is None
    assert hit[1] == cli.report.analysis_document(hit[0], "x^2  -  5")
    assert canonical_bytes(hit[1]) == canonical_bytes(fresh | {"input": "x^2  -  5"})


def test_hand_edited_disc_is_rejected_and_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    analyze_json(capsys, KLEIN_A, "--cache-dir", str(cache))
    poly = _edit_entry(cache, KLEIN_A, disc="7")  # factors still say 5^2 * 13^2 * 17^2
    hit, warning = cli.cache_load(str(cache), cli.cache_key(poly), poly, KLEIN_A)
    assert hit is None and "corrupt cache entry" in warning

    code, out, _ = run_cli(capsys, "analyze", KLEIN_A, "--human", "--cache-dir", str(cache))
    assert code == 0
    assert "disc         1221025 = 5^2 * 13^2 * 17^2" in out
    assert "disc         7" not in out
    # the recomputation replaced the entry
    code, doc = analyze_json(capsys, KLEIN_A, "--cache-dir", str(cache))
    assert doc["disc"] == "1221025" and "warnings" not in doc["meta"]


_SPLITTING_AT_5 = {  # as the entry of x^2 - 5 holds it
    "p": "5", "pairs": [[2, 1]], "g": 1, "residue_degree_sum": 1, "tame": True, "homogeneous": True
}
_ALPHA_AT_5 = {"p": "5", "representative": "2", "nonresidue": "2", "unit_rep": "2", "legendre": -1}
_GAMMA_OF_X2_5 = {
    "is_tame": True,
    "is_gamma": True,
    "exceptional": None,
    "failing": [],
    "tests": [{"p": "5", "homogeneous": True, "g_odd": True, "quotient_odd": True, "passes": True}],
}


@pytest.mark.parametrize(
    "changes",
    [
        {"coefficients": ["5", "0", "1"]},
        {"disc_factorization": {"sign": -1, "factors": [["5", 1]]}},
        {"disc_factorization": {"sign": 5, "factors": []}},
        {"disc_factorization": {"sign": 1, "factors": [["5", 10**9]]}},
        {"disc_factorization": {"sign": 1, "factors": "5"}},
        {"disc": None},
        # entries that do not decode
        {"alphas": None},
        {"gamma": {}},
        # stored trace forms that field_analysis would not derive
        {"trace_form": {"gram": [["2", "1"], ["1", "3"]], "det": "7", "signature": [2, 0]}},
        {"trace_form": {"gram": [["2", "1"], ["1", "3"]], "det": "5", "signature": [1, 1]}},
        # values that decode and pass the arithmetic checks, but are not
        # what a fresh run prints
        {
            "disc": "05",
            "trace_form": {"gram": [["2", "1"], ["1", "3"]], "det": "+5", "signature": [2, 0]},
        },
        {"splittings": [_SPLITTING_AT_5 | {"tame": False}]},
        # a derived key that cannot be computed from the stored values
        {"splittings": [_SPLITTING_AT_5 | {"p": "0"}]},
        # counts and flags of another JSON type: equal in Python to what a
        # fresh run holds, but not the bytes it prints
        {"degree": 2.0},
        {"signature": [2.0, 0]},
        {"gamma": _GAMMA_OF_X2_5 | {"is_tame": 1}},
        {"disc_factorization": {"sign": 1.0, "factors": [["5", 1]]}},
        {"disc_factorization": {"sign": 1, "factors": [["5", 1.0]]}},
        {"splittings": [_SPLITTING_AT_5 | {"pairs": [[2, True]]}]},
        {"alphas": [_ALPHA_AT_5 | {"legendre": -1.0}]},
        # write-only derived keys of another JSON type: never decoded, so
        # only the bytes of the re-encoding see them
        {"splittings": [_SPLITTING_AT_5 | {"g": 1.0}]},
        {"splittings": [_SPLITTING_AT_5 | {"tame": 1}]},
        {"gamma": _GAMMA_OF_X2_5 | {"tests": [_GAMMA_OF_X2_5["tests"][0] | {"passes": 1}]}},
        # an input echo that is no text
        {"input": ["x^2 - 5"]},
        # derived keys edited with their own derived keys: field_analysis
        # derives them again from the primary keys
        {"gamma": _GAMMA_OF_X2_5 | {"is_gamma": False}},
        {"alphas": [_ALPHA_AT_5 | {"legendre": 1, "unit_rep": "1"}]},
        # keys edited consistently with each other, which only a cross-check
        # of field_analysis refuses
        {
            "signature": [0, 1],
            "trace_form": {"gram": [["2", "1"], ["1", "3"]], "det": "5", "signature": [1, 1]},
        },
        {
            "splittings": [
                _SPLITTING_AT_5 | {"pairs": [[1, 1], [1, 1]], "g": 2, "residue_degree_sum": 2}
            ]
        },
        {"index": "1"},  # derived from the basis: only the bytes differ
        # a composite "prime": no alpha class exists at 9
        {
            "disc": "9",
            "disc_factorization": {"sign": 1, "factors": [["9", 1]]},
            "splittings": [_SPLITTING_AT_5 | {"p": "9"}],
            "alphas": [_ALPHA_AT_5 | {"p": "9"}],
            "gamma": _GAMMA_OF_X2_5 | {"tests": [_GAMMA_OF_X2_5["tests"][0] | {"p": "9"}]},
            "trace_form": {"gram": [["2", "1"], ["1", "5"]], "det": "9", "signature": [2, 0]},
        },
        # bases that are not the canonical HNF order_from_rows makes
        {"basis": {"denominator": "-2", "matrix": [["2", "0"], ["1", "1"]]}},
        {"basis": {"denominator": "2", "matrix": [["2", "0"], ["3", "1"]]}},
        {"basis": {"denominator": "2", "matrix": [["2", "1"], ["1", "1"]]}},
        {"basis": {"denominator": "2", "matrix": [["2"], ["1", "1"]]}},
        {"basis": {"denominator": "2", "matrix": [["2", "0", "7"], ["1", "1"]]}},
        {"basis": {"denominator": "2", "matrix": []}},
        # a Gram matrix of the same det and inertia, not the basis's
        {"trace_form": {"gram": [["2", "-1"], ["-1", "3"]], "det": "5", "signature": [2, 0]}},
        # forged to disc 20 = 2^2 * 5, consistently but for the kept basis
        {
            "disc": "20",
            "disc_factorization": {"sign": 1, "factors": [["2", 2], ["5", 1]]},
            "splittings": [
                _SPLITTING_AT_5 | {"p": "2", "tame": False},
                _SPLITTING_AT_5,
            ],
            "gamma": _GAMMA_OF_X2_5 | {"is_tame": False, "is_gamma": False},
            "trace_form": {"gram": [["2", "0"], ["0", "10"]], "det": "20", "signature": [2, 0]},
        },
    ],
)
def test_inconsistent_cache_entry_warns_and_recomputes(capsys, tmp_path, changes):
    _assert_recomputed(capsys, tmp_path, "x^2 - 5", changes)


def test_inconsistent_trace_form_inertia_warns_and_recomputes(capsys, tmp_path):
    # a totally real quartic stored as (r, s) = (0, 2) with its form's
    # inertia edited to match; the sign of the disc allows both
    _, fresh = analyze_json(capsys, KLEIN_A, "--no-cache")
    form = fresh["trace_form"] | {"signature": [2, 2]}
    _assert_recomputed(capsys, tmp_path, KLEIN_A, {"signature": [0, 2], "trace_form": form})


def _assert_recomputed(capsys, tmp_path, text, changes):
    cache = tmp_path / "cache"
    analyze_json(capsys, text, "--cache-dir", str(cache))
    _edit_entry(cache, text, **changes)
    code, doc = analyze_json(capsys, text, "--cache-dir", str(cache))
    assert code == 0
    assert any("corrupt cache entry" in w for w in doc["meta"]["warnings"])
    _, fresh = analyze_json(capsys, text, "--no-cache")
    assert canonical_bytes(doc) == canonical_bytes(fresh)
    # the recomputation replaced the entry
    entry = cache / (cli.cache_key(parse_poly(text)) + ".json")
    assert entry.read_bytes() == canonical_bytes(fresh)


def test_compare_through_an_entry_without_alphas(capsys, tmp_path):
    # the entry keeps its disc and factors, so only decoding can reject it
    cache = tmp_path / "cache"
    left, right = "x^3 - x^2 - 52*x + 159", "x^3 - x^2 - 34*x - 24"
    analyze_json(capsys, left, "--cache-dir", str(cache))
    entry = cache / (cli.cache_key(parse_poly(left)) + ".json")
    doc = json.loads(entry.read_text())
    del doc["alphas"]
    entry.write_text(json.dumps(doc))

    code, out, _ = run_cli(capsys, "compare", left, right, "--cache-dir", str(cache))
    assert code == 0
    doc = json.loads(out)
    assert doc["comparison"]["verdict"] == "same-spinor-genus"
    assert doc["left"]["alphas"][0]["p"] == "32009"
    assert any("corrupt cache entry" in w for w in doc["meta"]["warnings"])


def test_compare_through_an_entry_with_a_flipped_alpha(capsys, tmp_path):
    # the stored alpha class at 32009 flipped, with its unit_rep: read back,
    # it would make the pair a counterexample to the gamma prediction
    cache = tmp_path / "cache"
    left, right = "x^3 - x^2 - 52*x + 159", "x^3 - x^2 - 34*x - 24"
    analyze_json(capsys, left, "--cache-dir", str(cache))
    alpha = {"p": "32009", "representative": "2", "nonresidue": "3", "unit_rep": "3", "legendre": -1}
    _edit_entry(cache, left, alphas=[alpha])

    code, out, _ = run_cli(capsys, "compare", left, right, "--cache-dir", str(cache))
    assert code == 0
    doc = json.loads(out)
    assert doc["comparison"]["verdict"] == "same-spinor-genus"
    assert doc["cross_validation"] == {"consistent": True}
    assert doc["left"]["alphas"][0]["legendre"] == 1
    assert any("corrupt cache entry" in w for w in doc["meta"]["warnings"])


def test_corpus_scan_hits_its_own_cache(capsys, repo_root, tmp_path):
    # a warm scan serves every entry that the cold one wrote, with the
    # frozen bytes and no warning
    import hashlib

    corpus = str(repo_root / "corpus" / "fields.csv")
    for _ in ("cold", "warm"):
        code, out, _ = run_cli(capsys, "scan", corpus, "--pairs", "--cache-dir", str(tmp_path / "c"))
        assert code == 0
        doc = json.loads(out)
        assert "warnings" not in doc["meta"]
        digest = "6fcedeba5ec658d1d98b162eeff327a690da9bbfe3a61d44df458e19b642d9ef"
        assert hashlib.sha256(canonical_bytes(doc)).hexdigest() == digest


def test_benchmark_counts_cache_load_outcomes(capsys, repo_root, tmp_path, monkeypatch):
    # perfbench counts hits, misses and rejects from the (hit, warning) pair
    # that cache_load returns; a change to that shape fails here
    monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
    from tracer import _cache_outcome

    cache, text = tmp_path / "cache", "x^2 - 5"
    poly = parse_poly(text)
    key = cli.cache_key(poly)
    assert _cache_outcome(cli.cache_load(str(cache), key, poly, text)) == "misses"
    analyze_json(capsys, text, "--cache-dir", str(cache))
    result = cli.cache_load(str(cache), key, poly, text)
    assert _cache_outcome(result) == "hits"
    analysis = cli.analyze_field(poly)
    assert result == ((analysis, cli.report.analysis_document(analysis, text)), None)
    (cache / (key + ".json")).write_text("{")
    assert _cache_outcome(cli.cache_load(str(cache), key, poly, text)) == "rejects"


def test_each_document_is_decoded_at_most_once(capsys, repo_root, tmp_path, monkeypatch):
    # a cache hit decodes its entry once and hands the analysis on; the pair
    # sweep decodes only records whose (disc, signature) another one shares
    decoded = []
    decode = cli.report.analysis_from_document
    monkeypatch.setattr(
        cli.report, "analysis_from_document", lambda doc: decoded.append(doc) or decode(doc)
    )

    def decodes(cache, *argv):
        decoded.clear()
        assert run_cli(capsys, *argv, "--cache-dir", str(tmp_path / cache))[0] == 0
        return len(decoded)

    assert decodes("analyze", "analyze", KLEIN_A, "--human") == 0
    assert decodes("analyze", "analyze", KLEIN_A, "--human") == 1
    assert decodes("compare", "compare", PAIR_A, PAIR_B) == 0
    assert decodes("compare", "compare", PAIR_A, PAIR_B) == 2
    corpus = str(repo_root / "corpus" / "fields.csv")
    assert decodes("scan", "scan", corpus, "--pairs") == 8
    assert decodes("scan", "scan", corpus, "--pairs") == 60 + 8


KLEIN_A_DISC = "disc         1221025 = 5^2 * 13^2 * 17^2\n"


@pytest.mark.parametrize(
    "text, factors, line",
    [
        # multiplies out to 5, but 1 is no prime factor
        ("x^2 - 5", [["1", 2], ["5", 1], ["1", 1]], "disc         5 = 5\n"),
        (KLEIN_A, [["17", 2], ["13", 2], ["5", 2]], KLEIN_A_DISC),  # descending
        (KLEIN_A, [["5", 1], ["5", 1], ["13", 2], ["17", 2]], KLEIN_A_DISC),  # a prime twice
    ],
)
def test_disc_factors_must_ascend_strictly_above_1(capsys, tmp_path, text, factors, line):
    cache = tmp_path / "cache"
    analyze_json(capsys, text, "--cache-dir", str(cache))
    poly = _edit_entry(cache, text, disc_factorization={"sign": 1, "factors": factors})
    # (None, warning) is what the cache counts as a reject
    hit, warning = cli.cache_load(str(cache), cli.cache_key(poly), poly, text)
    assert hit is None and "corrupt cache entry" in warning

    code, out, _ = run_cli(capsys, "analyze", text, "--human", "--cache-dir", str(cache))
    assert code == 0 and line in out


def _listing(cache):
    return {p.name: p.read_bytes() for p in cache.iterdir()}


def test_source_switch_prunes_old_entries(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    for text in ("x^2 - 5", KLEIN_A):
        analyze_json(capsys, text, "--cache-dir", str(cache))
    marker = cache / cli.CACHE_MARKER
    assert marker.read_text() == cli.source_digest()
    old = {p.name for p in cache.glob("*.json")}
    assert len(old) == 2
    # only <64 lowercase hex digits>.json names are entries
    others = ["notes.txt", "A" * 64 + ".json", "0" * 63 + ".json", min(old) + ".bak"]
    for name in others:
        (cache / name).write_text("not an entry")
    # the same program prunes nothing
    analyze_json(capsys, "x^2 + 1", "--cache-dir", str(cache))
    assert len(list(cache.glob("*.json"))) == 3 + 2

    monkeypatch.setattr(cli, "source_digest", lambda: "f" * 64)
    before = _listing(cache)
    code, doc = analyze_json(capsys, "x^2 - 5", "--no-cache", "--cache-dir", str(cache))
    assert code == 0 and "warnings" not in doc["meta"]
    assert _listing(cache) == before

    code, doc = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
    assert code == 0 and "warnings" not in doc["meta"]
    new = cli.cache_key(parse_poly("x^2 - 5")) + ".json"
    assert sorted(_listing(cache)) == sorted(others + [cli.CACHE_MARKER, new])
    assert marker.read_text() == "f" * 64


def test_prune_runs_once_per_command_before_the_scan(capsys, repo_root, tmp_path, monkeypatch):
    calls = []
    prune = cli.prune_cache
    monkeypatch.setattr(cli, "prune_cache", lambda d: calls.append(d) or prune(d))
    cache = str(tmp_path / "cache")
    corpus = str(repo_root / "corpus" / "pairs.csv")
    for argv in (["scan", corpus], ["compare", PAIR_A, PAIR_B], ["analyze", KLEIN_A]):
        assert run_cli(capsys, *argv, "--cache-dir", cache)[0] in (0, 1)
    assert calls == [cache] * 3
    run_cli(capsys, "scan", corpus, "--no-cache", "--cache-dir", cache)
    assert calls == [cache] * 3


def test_prune_error_is_a_meta_warning(capsys, tmp_path):
    cache = tmp_path / "cache"
    (cache / cli.CACHE_MARKER).mkdir(parents=True)  # no marker can replace a directory
    code, doc = analyze_json(capsys, "x^2 - 5", "--cache-dir", str(cache))
    assert code == 0 and doc["disc"] == "5"
    assert [w.startswith("cache not pruned") for w in doc["meta"]["warnings"]] == [True]


# ---------------------------------------------------------------------------
# console script


def test_module_run_freezes_gc_only_after_main(repo_root, capsys, tmp_path):
    # `python -m tracegenus.cli` runs entry(): main(), gc.freeze(), then
    # sys.exit with main's status; the piped JSON still arrives whole
    def module_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "tracegenus.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=repo_root,
            env={**os.environ, "PYTHONPATH": str(repo_root / "src")},
        )

    proc = module_run("scan", "corpus/fields.csv", "--pairs")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 60
    assert module_run("analyze", "x^2 - 1").returncode == cli.EXIT_REDUCIBLE
    # in-process callers keep a collectable heap
    assert run_cli(capsys, "analyze", KLEIN_A, "--cache-dir", str(tmp_path / "c"))[0] == 0
    assert gc.get_freeze_count() == 0


def test_console_script(tmp_path):
    exe = shutil.which("tracegenus")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "analyze", "x^2 - 5", "--no-cache"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["disc"] == "5"
