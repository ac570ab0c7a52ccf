"""Command-line surface: analyze / compare / scan with a content-addressed
on-disk cache.

`scan --jobs N` runs N workers (at most one per CPU and per record; one where
there is no os.fork): this process takes records 0, N, 2N, ... and N - 1
forked children the other strides, with the same output as `--jobs 1`.

Exit codes: 0 success (or verdict same), 1 verdict different (or every scan
record failed), 2 unparseable or ill-formed input, 3 reducible polynomial,
4 comparison not applicable, 5 an analysis that failed on valid input (a
factorization beyond the deterministic schedule, or a failed cross-check).
"""

import argparse
import functools
import gc
import json
import os
import re
import sys
import time

from . import report
from .corpus import read_corpus
from .errors import (
    DegenerateInputError,
    NonMonicInputError,
    ParseError,
    ReducibleInputError,
    TraceGenusError,
)
from .genus import NOT_APPLICABLE, SAME, cross_validate
from .polys import coeff_csv, parse_poly
from .traceform import analyze_field

EXIT_OK = 0
EXIT_DIFFERENT = 1
EXIT_PARSE = 2
EXIT_REDUCIBLE = 3
EXIT_NOT_APPLICABLE = 4
EXIT_FAILED = 5

CACHE_ENV_VAR = "TRACEGENUS_CACHE_DIR"
CACHE_MARKER = "source-digest"  # names the source_digest() the entries were written by
_ENTRY_NAME = re.compile(r"[0-9a-f]{64}\.json")


def default_cache_dir():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "tracegenus")


def open_cache(args):
    """(cache directory, warnings) of one command; the directory is None
    under --no-cache. Each command calls this once, so a cache is pruned
    before any scan worker starts."""
    if args.no_cache:
        return None, []
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV_VAR) or default_cache_dir()
    return cache_dir, prune_cache(cache_dir)


@functools.lru_cache(maxsize=None)
def source_digest():
    """sha256 of the package's .py sources, so that a changed program never
    reads entries written by another."""
    import hashlib  # loads OpenSSL, which only a cached run needs
    h = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def cache_key(poly):
    import hashlib
    payload = "\n".join((report.ANALYSIS_SCHEMA, source_digest(), coeff_csv(poly)))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def cache_load(cache_dir, key, poly, text):
    """((analysis, document), warning): None on a miss; the warning is set
    when an entry existed but was unusable and will be recomputed. The entry
    is decoded once, by report.analysis_from_document, whose field_analysis
    derives what the entry's primary keys imply and cross-checks them. It is
    usable when that succeeds, it is about poly, its input echo is a string
    and the canonical bytes of its re-encoding are the bytes read. The
    document returned is the re-encoding with text as the input echo."""
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None, None
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        return None, "corrupt cache entry %s ignored" % key
    if not isinstance(doc, dict) or doc.get("schema") != report.ANALYSIS_SCHEMA:
        return None, "stale cache entry %s ignored" % key
    try:
        # TraceGenusError: a failed cross-check, or an alpha class asked of
        # a composite "prime"
        fa = report.analysis_from_document(doc)
        if fa.poly == poly and isinstance(doc["input"], str):
            # one comparison of bytes covers spelling, JSON types, stray or
            # missing keys and every derived key
            document = report.analysis_document(fa, doc["input"])
            if report.canonical_bytes(document) == raw:
                document["input"] = text
                return (fa, document), None
    except (LookupError, TypeError, ValueError, ArithmeticError, TraceGenusError):
        pass
    return None, "corrupt cache entry %s ignored" % key


def _write_atomic(cache_dir, name, data):
    """Write cache_dir/name as a temp file, then rename it into place."""
    import tempfile  # loads shutil too, which only a cached run needs
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=cache_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, os.path.join(cache_dir, name))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_store(cache_dir, key, doc):
    """Atomic write (temp file then rename); returns a warning on failure."""
    try:
        _write_atomic(cache_dir, key + ".json", report.canonical_bytes(doc))
    except OSError as exc:
        return "cache not writable (%s); proceeding uncached" % exc
    return None


def prune_cache(cache_dir):
    """Delete the entries of other program versions unless the marker file
    already names this one's source_digest(); returns the warnings. Only
    names of the form <sha256>.json are entries; nothing else is touched."""
    digest = source_digest().encode("ascii")
    try:
        with open(os.path.join(cache_dir, CACHE_MARKER), "rb") as fh:
            if fh.read() == digest:
                return []
    except OSError:
        pass  # no marker yet, or an unreadable one: prune and rewrite it
    try:
        os.makedirs(cache_dir, exist_ok=True)
        for name in os.listdir(cache_dir):
            if _ENTRY_NAME.fullmatch(name):
                os.unlink(os.path.join(cache_dir, name))
        _write_atomic(cache_dir, CACHE_MARKER, digest)
    except OSError as exc:
        return ["cache not pruned (%s)" % exc]
    return []


def analyze_text(text, cache_dir):
    """(analysis, document, warnings) of one polynomial, with no cache when
    cache_dir is None. A cache hit skips all computation: the analysis is the
    entry decoded and the document its re-encoding with text as the input
    echo, byte-for-byte the one a fresh computation produces."""
    warnings = []
    poly = parse_poly(text)
    if cache_dir is not None:
        key = cache_key(poly)
        hit, warn = cache_load(cache_dir, key, poly, text)
        if warn:
            warnings.append(warn)
        if hit is not None:
            return (*hit, warnings)
    analysis = analyze_field(poly)
    doc = report.analysis_document(analysis, text)
    if cache_dir is not None:
        warn = cache_store(cache_dir, key, doc)
        if warn:
            warnings.append(warn)
    return analysis, doc, warnings


def _emit(doc, args, render):
    if args.human:
        sys.stdout.write(render(doc))
    else:
        sys.stdout.write(report.dump_pretty(doc))


def _emit_error(exc, args):
    """Print the error document of exc; returns the exit code of its kind."""
    doc = report.error_document(exc)
    if args.human:
        sys.stdout.write("error: %s\n" % doc["error"]["message"])
        for g in doc["error"].get("factors", []):
            sys.stdout.write("  factor: %s\n" % g)
    else:
        sys.stdout.write(report.dump_pretty(doc))
    print("error: %s" % exc, file=sys.stderr)
    if isinstance(exc, ReducibleInputError):
        return EXIT_REDUCIBLE
    if isinstance(exc, (ParseError, NonMonicInputError, DegenerateInputError)):
        return EXIT_PARSE
    return EXIT_FAILED


def cmd_analyze(args):
    t0 = time.monotonic()
    cache_dir, warnings = open_cache(args)
    try:
        analysis, doc, warns = analyze_text(args.polynomial, cache_dir)
    except TraceGenusError as exc:
        return _emit_error(exc, args)
    doc["meta"] = _meta(t0, warnings + warns)
    _emit(doc, args, lambda _: report.render_analysis(analysis))
    return EXIT_OK


def cmd_compare(args):
    t0 = time.monotonic()
    cache_dir, warnings = open_cache(args)
    analyses = []
    docs = []
    try:
        for text in (args.left, args.right):
            analysis, doc, warns = analyze_text(text, cache_dir)
            warnings.extend(warns)
            analyses.append(analysis)
            docs.append(doc)
    except TraceGenusError as exc:
        return _emit_error(exc, args)
    crossval = cross_validate(*analyses)
    doc = report.comparison_document(docs[0], docs[1], crossval)
    doc["meta"] = _meta(t0, warnings)
    _emit(doc, args, report.render_comparison)
    verdict = crossval.comparison.verdict
    if verdict == SAME:
        return EXIT_OK
    if verdict == NOT_APPLICABLE:
        return EXIT_NOT_APPLICABLE
    return EXIT_DIFFERENT


def _scan_one(task):
    """Worker for scan: analyze one corpus record."""
    label, text, cache_dir = task
    try:
        _, doc, warnings = analyze_text(text, cache_dir)
        record = {"label": label, "input": text, "ok": True, "analysis": doc}
    except TraceGenusError as exc:
        err = report.error_document(exc)
        record = {"label": label, "input": text, "ok": False, "error": err["error"]}
        warnings = []
    return record, warnings


def _fan_out(fn, tasks, workers):
    """[fn(t) for t in tasks] over `workers` processes: worker k takes tasks
    k, k + workers, ...; worker 0 is this process, the others are forked
    children (the CLI runs no threads) that each send their results back as
    one JSON text. Whatever raises, no child outlives the call."""
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # leaves only by os._exit, so that no inherited
                status = 1  # buffer, atexit hook or test teardown runs twice
                try:
                    with open(w, "wb") as out:
                        out.write(json.dumps([fn(t) for t in tasks[k::workers]]).encode())
                    status = 0
                except BaseException:
                    import traceback
                    traceback.print_exc()
                finally:
                    os._exit(status)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [None] * len(tasks)
        results[::workers] = [fn(t) for t in tasks[::workers]]
        for k in range(1, workers):
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status:
                raise RuntimeError("scan worker %d failed (wait status %d)" % (k, status))
            try:
                results[k::workers] = json.loads(payload)
            except ValueError:
                raise RuntimeError("scan worker %d sent an unreadable payload" % k) from None
        return results
    finally:
        for pid, pipe in children:  # only after something raised
            import signal
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _pair_sweep(records):
    """Cross-validate every applicable pair, bucketed by (disc, signature);
    only records that share a bucket are decoded."""
    buckets = {}
    for r in records:
        if r["ok"]:
            doc = r["analysis"]
            buckets.setdefault((int(doc["disc"]), tuple(doc["signature"])), []).append(r)
    details = []
    consistent = inconsistent = 0
    for key in sorted(buckets):
        if len(buckets[key]) < 2:
            continue
        group = [(r["label"], report.analysis_from_document(r["analysis"])) for r in buckets[key]]
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                la, fa = group[i]
                lb, fb = group[j]
                cv = cross_validate(fa, fb)
                if cv.consistent is None:
                    continue
                details.append(
                    {
                        "left": la,
                        "right": lb,
                        "verdict": cv.comparison.verdict,
                        "predicted_same": cv.prediction.predicted_same,
                        "consistent": cv.consistent,
                    }
                )
                if cv.consistent:
                    consistent += 1
                else:
                    inconsistent += 1
    return {
        "compared": consistent + inconsistent,
        "consistent": consistent,
        "inconsistent": inconsistent,
        "details": details,
    }


def cmd_scan(args):
    t0 = time.monotonic()
    try:
        corpus = read_corpus(args.corpus)
    except ParseError as exc:
        return _emit_error(exc, args)
    except (OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    cache_dir, warnings = open_cache(args)
    tasks = [(r.label, r.text, cache_dir) for r in corpus]
    records = []
    # every worker starts at once, so never more than there are CPUs or
    # records, and at least one, which an empty corpus needs
    jobs = args.jobs if hasattr(os, "fork") else 1
    workers = max(1, min(jobs, os.cpu_count() or 1, len(tasks)))
    for record, warns in _fan_out(_scan_one, tasks, workers):
        records.append(record)
        warnings.extend(warns)
    gamma_count = tame_count = 0
    histogram = {}
    for r in records:
        if not r["ok"]:
            continue
        g = r["analysis"]["gamma"]
        tame_count += g["is_tame"]
        gamma_count += g["is_gamma"]
        if g["exceptional"] is not None:
            p = g["exceptional"]
            histogram[p] = histogram.get(p, 0) + 1
    summary = {
        "tame_count": tame_count,
        "gamma_count": gamma_count,
        "exceptional_histogram": sorted(histogram.items(), key=lambda kv: int(kv[0])),
        "pairs": _pair_sweep(records) if args.pairs else None,
    }
    doc = report.scan_document(records, summary)
    doc["meta"] = _meta(t0, warnings)
    _emit(doc, args, report.render_scan)
    if records and not any(r["ok"] for r in records):
        return EXIT_DIFFERENT
    return EXIT_OK


def _meta(t0, warnings):
    meta = {"elapsed_ms": int((time.monotonic() - t0) * 1000)}
    if warnings:
        meta["warnings"] = warnings
    return meta


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _add_common_flags(sub):
    sub.add_argument("--human", action="store_true", help="human-readable output (default: JSON)")
    sub.add_argument("--no-cache", action="store_true", help="bypass the cache")
    sub.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory (default: $%s or %s)" % (CACHE_ENV_VAR, default_cache_dir()),
    )


def _help_formatter():
    """argparse's HelpFormatter at the width that shutil.get_terminal_size()
    gives; argparse would import shutil for it in every add_argument."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            pass
    return functools.partial(argparse.HelpFormatter, width=(columns if columns > 0 else 80) - 2)


def build_parser():
    fmt = _help_formatter()
    parser = argparse.ArgumentParser(
        prog="tracegenus",
        description="Integral trace forms of number fields: analysis and "
        "spinor-genus comparison.",
        formatter_class=fmt,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_analyze = subs.add_parser("analyze", help="analyze one field", formatter_class=fmt)
    p_analyze.add_argument("polynomial", help='e.g. "x^4 - 41*x^2 + 144" or "144,0,-41,0,1"')
    _add_common_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_compare = subs.add_parser("compare", help="compare two fields", formatter_class=fmt)
    p_compare.add_argument("left")
    p_compare.add_argument("right")
    _add_common_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_scan = subs.add_parser("scan", help="analyze a corpus CSV", formatter_class=fmt)
    p_scan.add_argument("corpus", help="CSV file: label,polynomial")
    p_scan.add_argument("--pairs", action="store_true", help="cross-validate applicable pairs")
    p_scan.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (at most one per CPU and per record)",
    )
    _add_common_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry():
    """The console script: main(), then gc.freeze(), so that interpreter
    teardown does not walk every object that site and the imports made."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
