"""End-to-end and per-layer benchmark for tracegenus.

    python3 perfbench/run.py --workload hard-disc --seed 7 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 7

One closed-loop client drives the package: each call waits for the one
before it. `--trace 0` measures the end-to-end metrics with tracing off: the
in-process pipeline (analyze_field -> analysis_document -> canonical_bytes),
fresh `python -m tracegenus.cli` processes for analyze and compare, and
`scan --pairs` cold, warm and with `--jobs 2`. `--trace 1` wraps the
package's public functions (see tracer.py), runs one in-process pass and one
in-process `cli.main` session, and reports per-layer calls and self time,
the cache counters, import cost, the `--jobs 2` speed-up and the tracing
overhead. Both check every output against the committed digests and the
invariants in gate.py. The last line of standard output is one JSON object.
"""

import argparse
import csv
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3  # every end-to-end unit is timed at least this often
# fields_per_s rests on the whole-pass times, the noisiest unit; a round
# takes this many passes so that it gets more of them than the other units
PASSES_PER_ROUND = 2
IMPORT_PROBES = 5
OVERHEAD_PAIRS = 3  # untraced/traced pass pairs behind trace.overhead
RECORD_LIMIT_S = 30  # an in-process record slower than this counts as failed
CALL_LIMIT_S = 90  # a CLI process slower than this is killed and counts as failed

END_TO_END = (
    ("setup_s", "s"),
    ("analyze_ms.p50", "ms"),
    ("analyze_ms.tail", "ms"),
    ("fields_per_s", "1/s"),
    ("cli_analyze_s.p50", "s"),
    ("cli_compare_s.p50", "s"),
    ("scan_cold_s", "s"),
    ("scan_warm_s", "s"),
    ("scan_jobs2_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for t in tracer.TARGETS:
        base = "%s.%s" % (t.module, t.attr)
        names = [base + ".polynomial", base + ".algebra"] if t.route else [base]
        for name in names:
            out.append((name + ".calls", "count", "lower"))
            out.append((name + ".self_s", "s", "lower"))
        if t.attr == "mult_table":
            out += [(base + ".hits", "count", "higher"), (base + ".misses", "count", "lower")]
        if t.outcome:
            out += [(base + ".hits", "count", "higher"), (base + ".misses", "count", "lower"),
                    (base + ".rejects", "count", "lower")]
    out += [("cli.import_s", "s", "lower"), ("cli.jobs2_speedup", "ratio", "higher"),
            ("trace.overhead", "ratio", "lower")]
    return out


# -- checkout and processes ------------------------------------------------


def checkout_ok():
    return all(os.path.isfile(os.path.join(ROOT, *p)) for p in (
        ("src", "tracegenus", "__init__.py"), ("src", "tracegenus", "cli.py"),
        ("corpus", "fields.csv"), ("corpus", "pairs.csv")))


def child_env(work):
    """Environment for CLI processes: this checkout's package first, no
    cache directory inherited from the caller, and byte-compiled modules
    kept, as an installed package has them."""
    env = dict(os.environ)
    env.pop("TRACEGENUS_CACHE_DIR", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["XDG_CACHE_HOME"] = os.path.join(work, "xdg")
    return env


class Runner:
    def __init__(self, work):
        self.work = work
        self.env = child_env(work)
        self.dirs = 0

    def fresh_dir(self):
        self.dirs += 1
        return os.path.join(self.work, "cache-%d" % self.dirs)

    def python(self, *args):
        """(wall seconds, CompletedProcess or None on timeout)."""
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                                  capture_output=True, timeout=CALL_LIMIT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, proc

    def cli(self, *args):
        return self.python("-m", "tracegenus.cli", *args)


# -- the workload as the program sees it ------------------------------------


def prepare(name, seed):
    """Import the package, generate the workload and parse it: set-up."""
    from tracegenus.polys import parse_poly

    records = workloads.generate(name, seed)
    polys = [parse_poly(r.text) for r in records]
    pairs = workloads.compare_pairs(name, records)
    for left, right in pairs:
        parse_poly(left.text), parse_poly(right.text)
    return records, polys, pairs


def setup_probe(name, seed):
    t0 = time.perf_counter()
    prepare(name, seed)
    print(repr(time.perf_counter() - t0))


class RecordTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise RecordTimeout()


class Bench:
    """State shared by both modes: the workload, expected answers and the
    tally of attempted and failed records."""

    def __init__(self, name, seed, work):
        from tracegenus import orders, report, traceform
        from tracegenus.errors import TraceGenusError

        self.report, self.traceform = report, traceform
        self.TraceGenusError = TraceGenusError
        self.mult_table = orders.mult_table  # the lru_cache object, never the wrapper
        self.name, self.seed = name, seed
        self.records, self.polys, self.pairs = prepare(name, seed)
        self.scan_records = workloads.subset(name, self.records, workloads.WORKLOADS[name].scan_size)
        self.cli_records = workloads.subset(name, self.records, workloads.CLI_SAMPLE)
        self.runner = Runner(work)
        digests = gate.load_digests()
        self.expected = digests["records"][name]
        self.verdicts = digests["verdicts"]
        self.bytes = {}  # label -> canonical bytes from the in-process pass
        self.checked = set()  # texts whose documents passed gate.check_analysis
        self.attempted = 0
        self.failed = 0
        self.mult_hits = self.mult_misses = 0  # mult_table cache_info(), summed over clears
        self.problems = []
        self.scan_csv = os.path.join(work, "scan.csv")
        with open(self.scan_csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            for r in self.scan_records:
                w.writerow([r.label, r.text])

    def tally(self, ok, problem=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)

    # -- in-process pipeline ----------------------------------------------

    def flush_mult_table(self):
        """Add mult_table's hits and misses since the last flush to the
        tally and clear the cache; cache_clear() also zeroes cache_info()."""
        info = self.mult_table.cache_info()
        self.mult_hits += info.hits
        self.mult_misses += info.misses
        self.mult_table.cache_clear()

    def analyze_pass(self):
        """One pass over the records; returns per-record seconds."""
        times = []
        old = signal.signal(signal.SIGALRM, _alarm)
        try:
            for rec, poly in zip(self.records, self.polys):
                self.flush_mult_table()  # no reuse across fields
                signal.setitimer(signal.ITIMER_REAL, RECORD_LIMIT_S)
                t0 = time.perf_counter()
                try:
                    fa = self.traceform.analyze_field(poly)
                    doc = self.report.analysis_document(fa, rec.text)
                    out = self.report.canonical_bytes(doc)
                except self.TraceGenusError as exc:
                    doc, out = None, "error:" + type(exc).__name__
                except RecordTimeout:
                    doc, out = None, "error:timeout"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                times.append(time.perf_counter() - t0)
                self.check_inproc(rec, doc, out)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        return times

    def check_inproc(self, rec, doc, out):
        expected = self.expected.get(rec.text)
        if isinstance(out, str):  # an error: failed, and wrong unless committed
            self.tally(False, None if out == expected else "%s: %s" % (rec.label, out))
            return
        seen = self.bytes.setdefault(rec.label, out)
        if seen != out:
            self.tally(False, "%s: canonical bytes differ between passes" % rec.label)
            return
        problems = []
        if rec.text not in self.checked:
            problems = gate.check_record(doc, expected)
            if not problems:
                self.checked.add(rec.text)
        self.tally(not problems, "%s: %s" % (rec.label, problems) if problems else None)

    # -- CLI output checks ---------------------------------------------------

    def same_as_inproc(self, label, doc, where):
        want = self.bytes.get(label)
        if want is None:
            return "%s %s: no in-process result to compare" % (where, label)
        if gate.canonical(doc) != want:
            return "%s %s: canonical bytes differ from in-process" % (where, label)
        return None

    def failed_as_committed(self, rec, error_type):
        """A record that fails the way the committed digest says it does is
        failed but not wrong."""
        self.tally(False, None if self.expected.get(rec.text) == "error:" + error_type
                   else "%s: unexpected %s" % (rec.label, error_type))

    def check_analyze_output(self, rec, code, stdout):
        try:
            doc = json.loads(stdout)
        except ValueError:
            self.tally(False, "analyze %s: exit %s, output is not JSON" % (rec.label, code))
            return
        if code != 0:
            self.failed_as_committed(rec, doc.get("error", {}).get("type", "exit %s" % code))
            return
        problem = self.same_as_inproc(rec.label, doc, "analyze")
        self.tally(problem is None, problem)

    def check_compare_output(self, left, right, code, stdout):
        try:
            doc = json.loads(stdout)
        except ValueError:
            self.tally(False, "compare %s: output is not JSON" % left.label)
            return
        if self.name == "corpus":
            expected = self.verdicts.get("%s|%s" % (left.label, right.label))
            problems = gate.check_compare(doc, code, expected_verdict=expected)
            sides = ((left, "left"), (right, "right"))
        else:
            problems = gate.check_compare(doc, code, same_field=True)
            sides = ((left, "left"),)
        for rec, side in sides:
            p = self.same_as_inproc(rec.label, doc.get(side, {}), "compare")
            if p:
                problems.append(p)
        self.tally(not problems, "compare %s: %s" % (left.label, problems) if problems else None)

    def check_scan_output(self, code, stdout, what):
        n = len(self.scan_records)
        try:
            doc = json.loads(stdout)
        except ValueError:
            doc = None
        if code != 0 or doc is None:
            for _ in range(n):
                self.tally(False, "%s: exit %s" % (what, code))
            return
        self.problems.extend("%s: %s" % (what, p) for p in gate.check_scan_pairs(doc))
        by_label = {r["label"]: r for r in doc["records"]}
        for rec in self.scan_records:
            r = by_label.get(rec.label)
            if r is None:
                self.tally(False, "%s %s: record missing" % (what, rec.label))
            elif not r["ok"]:
                self.failed_as_committed(rec, r["error"]["type"])
            else:
                p = self.same_as_inproc(rec.label, r["analysis"], what)
                self.tally(p is None, p)

    # -- CLI processes -----------------------------------------------------

    def cli_analyze(self, rec):
        t, proc = self.runner.cli("analyze", "--no-cache", rec.text)
        if proc is None:
            self.tally(False, "analyze %s: timed out" % rec.label)
        else:
            self.check_analyze_output(rec, proc.returncode, proc.stdout)
        return t

    def cli_compare(self, left, right):
        t, proc = self.runner.cli("compare", "--no-cache", left.text, right.text)
        if proc is None:
            self.tally(False, "compare %s: timed out" % left.label)
        else:
            self.check_compare_output(left, right, proc.returncode, proc.stdout)
        return t

    def cli_scan(self, cache_dir, jobs, what):
        t, proc = self.runner.cli("scan", self.scan_csv, "--pairs", "--cache-dir", cache_dir,
                                  "--jobs", str(jobs))
        if proc is None:
            self.check_scan_output(None, b"", what + " (timed out)")
        else:
            self.check_scan_output(proc.returncode, proc.stdout, what)
        return t


def tail(values):
    """(value, percentile, samples above it) of the highest percentile with
    >= 10 samples above it, by nearest rank; the median when there are fewer
    than 21 samples."""
    xs = sorted(values)
    n = len(xs)
    k = max(n - 11, (n - 1) // 2)
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(bench, seconds):
    """Rounds of every end-to-end unit until `seconds` have passed (at
    least MIN_ROUNDS). Each unit (a process, a scan, set-up) is timed once
    a round, and each field and whole pass PASSES_PER_ROUND times; every unit
    is scored by the median of its repeats, except fields_per_s, which is
    every field of every pass over the time all passes took. A round is
    short, so the repeats are many and spread over the whole run; on a
    shared machine their median varies less from run to run than their
    minimum does. Whole-pass times fall into a fast and a slow group as
    other tenants come and go, and their median jumps between the two, so
    the throughput takes their sum."""
    reps = {}  # unit -> seconds of each repeat
    sample = bench.cli_records
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        t_round = time.perf_counter()
        reps.setdefault("setup", []).append(setup_probe_time(bench.runner, bench.name, bench.seed))
        for _ in range(PASSES_PER_ROUND):
            times = bench.analyze_pass()
            reps.setdefault("pass", []).append(sum(times))
            for rec, t in zip(bench.records, times):
                reps.setdefault(("field", rec.label), []).append(t)
        for rec in sample:
            reps.setdefault(("analyze", rec.label), []).append(bench.cli_analyze(rec))
        for left, right in bench.pairs:
            reps.setdefault(("compare", left.label), []).append(bench.cli_compare(left, right))
        cold_dir = bench.runner.fresh_dir()
        reps.setdefault("cold", []).append(bench.cli_scan(cold_dir, 1, "scan cold"))
        reps.setdefault("warm", []).append(bench.cli_scan(cold_dir, 1, "scan warm"))
        reps.setdefault("jobs2", []).append(bench.cli_scan(bench.runner.fresh_dir(), 2, "scan --jobs 2"))
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - t_round) > deadline:
            break
    unit = {k: statistics.median(v) for k, v in reps.items()}
    passes = reps["pass"]
    fields = [unit[("field", r.label)] for r in bench.records]
    tail_ms, tail_pct, above = tail(fields)
    metrics = {
        "setup_s": unit["setup"],
        "analyze_ms.p50": 1000 * statistics.median(fields),
        "analyze_ms.tail": 1000 * tail_ms,
        "fields_per_s": len(bench.records) * len(passes) / sum(passes),
        "cli_analyze_s.p50": statistics.median(unit[("analyze", r.label)] for r in sample),
        "cli_compare_s.p50": statistics.median(unit[("compare", left.label)] for left, _ in bench.pairs),
        "scan_cold_s": unit["cold"],
        "scan_warm_s": unit["warm"],
        "scan_jobs2_s": unit["jobs2"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        "%d rounds in %.1f s: %d repeats of each process, scan and set-up, %d of each field and pass"
        % (rounds, time.perf_counter() - deadline + seconds, rounds, len(passes)),
        "analyze_ms over %d distinct fields; tail is p%.1f (%d fields above it); passes took %.2f-%.2f s"
        % (len(fields), tail_pct, above, min(passes), max(passes)),
        "cli_analyze over %d fields, cli_compare over %d pairs, scans of %d records"
        % (len(sample), len(bench.pairs), len(bench.scan_records)),
    ]
    return metrics, notes


def setup_probe_time(runner, name, seed):
    """Set-up seconds of one fresh process, as it measures them itself."""
    _, proc = runner.python(os.path.join(HERE, "run.py"), "--setup-probe",
                            "--workload", name, "--seed", str(seed))
    if proc is None or proc.returncode != 0:
        raise SystemExit("set-up probe failed: %s" % (proc and proc.stderr.decode()))
    return float(proc.stdout.decode().strip().splitlines()[-1])


# -- traced run -------------------------------------------------------------


def run_cli_main(bench, argv):
    """tracegenus.cli.main in this process: (exit code, stdout text)."""
    from tracegenus import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def traced(bench):
    """Per-layer metrics from one traced in-process pass and one traced
    cli.main session, plus import cost, --jobs 2 speed-up and overhead."""
    runner = bench.runner
    plain = [bench.analyze_pass()]
    bench.flush_mult_table()
    hits0, misses0 = bench.mult_hits, bench.mult_misses
    tr = tracer.Tracer()
    with tracer.patched(tr):
        tr.segment = "inproc"
        with_trace = [bench.analyze_pass()]
        tr.segment = "cli-scan"
        cache_dir = runner.fresh_dir()
        for what in ("scan cold", "scan warm"):
            code, out = run_cli_main(bench, ["scan", bench.scan_csv, "--pairs", "--cache-dir", cache_dir])
            bench.check_scan_output(code, out, "traced " + what)
        tr.segment = "cli-compare"
        for left, right in bench.pairs:
            code, out = run_cli_main(bench, ["compare", "--no-cache", left.text, right.text])
            bench.check_compare_output(left, right, code, out)
        tr.segment = "cli-analyze"
        for rec in bench.cli_records:
            code, out = run_cli_main(bench, ["analyze", "--no-cache", rec.text])
            bench.check_analyze_output(rec, code, out)
    bench.flush_mult_table()
    hits, misses = bench.mult_hits - hits0, bench.mult_misses - misses0
    for _ in range(OVERHEAD_PAIRS - 1):  # more pairs for the overhead only
        plain.append(bench.analyze_pass())
        with tracer.patched(tracer.Tracer()):
            with_trace.append(bench.analyze_pass())

    start_up, imports = [], []
    for _ in range(IMPORT_PROBES):
        start_up.append(runner.python("-c", "pass")[0])
        imports.append(runner.python("-c", "import tracegenus.cli")[0])
    import_s = statistics.median(imports) - statistics.median(start_up)
    jobs1 = bench.cli_scan(runner.fresh_dir(), 1, "scan --jobs 1")
    jobs2 = bench.cli_scan(runner.fresh_dir(), 2, "scan --jobs 2")

    measured = {
        "orders.mult_table.hits": hits,
        "orders.mult_table.misses": misses,
        "cli.import_s": import_s,
        "cli.jobs2_speedup": jobs1 / jobs2,
        "trace.overhead": sum(map(min, zip(*with_trace))) / sum(map(min, zip(*plain))) - 1,
    }
    for kind in ("hits", "misses", "rejects"):
        measured["cli.cache_load." + kind] = tr.counters["cli.cache_load." + kind]
    agg = tracer.aggregate(tr.spans)
    metrics = {}
    for name, _, _ in per_layer_metrics():
        base, _, kind = name.rpartition(".")
        calls, self_s = agg.get(base, (0, 0.0))
        metrics[name] = measured[name] if name in measured else calls if kind == "calls" else self_s
    report = layer_report(bench.name, tr, sum(with_trace[0]), statistics.median(start_up), import_s)
    return metrics, report


def layer_report(name, tr, inproc_s, start_up_s, import_s):
    lines = []
    inproc = tracer.aggregate(tr.spans, "inproc")
    total = sum(s for _, s in inproc.values()) or 1.0
    lines.append("traced in-process pass: %.3f s; self time by layer:" % inproc_s)
    for layer, (calls, s) in sorted(inproc.items(), key=lambda kv: -kv[1][1])[:12]:
        lines.append("  %-36s %8d calls %9.4f s %5.1f%%" % (layer, calls, s, 100 * s / total))
    share = lambda *prefixes: sum(s for k, (_, s) in inproc.items() if k.startswith(prefixes)) / total
    top = max(inproc.items(), key=lambda kv: kv[1][1])[0] if inproc else None
    durations, calls = {}, 0
    for s in tr.spans:
        if s.segment == "cli-analyze" and s.parent < 0:
            durations[s.name] = durations.get(s.name, 0.0) + s.end - s.start
            calls += s.name == "traceform.analyze_field"
    compute = durations.get("traceform.analyze_field", 0.0) / max(calls, 1)
    rep = (durations.get("report.analysis_document", 0.0)
           + durations.get("report.dump_pretty", 0.0)) / max(calls, 1)
    lines.append("cli analyze per call: start-up %.1f ms, import %.1f ms, compute %.1f ms, report %.1f ms"
                 % (1000 * start_up_s, 1000 * import_s, 1000 * compute, 1000 * rep))
    lines.append("self-time shares: orders+linalg %.1f%%, arith %.1f%%"
                 % (100 * share("orders.", "linalg."), 100 * share("arith.")))
    if name == "hard-disc":
        lines.append("prediction: arith.factor_integer is the top layer; observed %s (%.1f%%): %s"
                     % (top, 100 * share("arith.factor_integer"),
                        "holds" if top == "arith.factor_integer" else "DOES NOT HOLD"))
    else:
        fixed = start_up_s + import_s + rep
        lines.append("prediction: start-up+import+report exceed compute in `analyze`; %.1f ms vs %.1f ms: %s"
                     % (1000 * fixed, 1000 * compute, "holds" if fixed > compute else "DOES NOT HOLD"))
    return lines


# -- entry point ------------------------------------------------------------


def result_line(correct, bench, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def single(args):
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("unknown workload %r" % args.workload)
    work = os.path.join(HERE, ".work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        Runner(work).python("-c", "import tracegenus.cli")  # byte-compile before timing
        bench = Bench(args.workload, args.seed, work)
        print("workload %s, seed %d, %d records, trace %d"
              % (args.workload, args.seed, len(bench.records), args.trace))
        if args.trace:
            metrics, notes = traced(bench)
            units = {n: u for n, u, _ in per_layer_metrics()}
        else:
            metrics, notes = end_to_end(bench, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    for line in notes:
        print(line)
    for k, v in metrics.items():
        print("  %-44s %14.6g %s" % (k, v, units[k]))
    frac = bench.failed / max(bench.attempted, 1)
    correct = not bench.problems
    print("failed_frac %.6f (%d of %d records)" % (frac, bench.failed, bench.attempted))
    print("correctness gate: %s" % ("pass" if correct else "FAIL"))
    for p in bench.problems:
        print("  " + p)
    print(result_line(correct, bench, metrics, units))
    return 0 if correct else 1


def run_all(args):
    """Every workload, untraced then traced, as separate processes."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
            print("=" * 72)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            status = status or proc.returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="|".join(list(workloads.WORKLOADS) + ["all"]))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not checkout_ok():
        print("error: %s holds no tracegenus checkout (src/tracegenus, corpus/)" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
