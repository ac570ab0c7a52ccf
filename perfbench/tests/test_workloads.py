import json
import os
import pytest

import gate
import run
import workloads
from tracegenus.polys import parse_poly
from tracegenus.zfactor import is_irreducible


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_records(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_other_seed_other_order_or_records(name):
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_seed_runs_the_whole_pool(name):
    texts = sorted(r.text for r in workloads.pool(name))
    for seed in (0, 1, 99):
        assert sorted(r.text for r in workloads.generate(name, seed)) == texts


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_subsets_are_the_same_members_for_every_seed(name):
    for count in (workloads.CLI_SAMPLE, workloads.PAIRS, workloads.WORKLOADS[name].scan_size):
        picks = [workloads.subset(name, workloads.generate(name, seed), count) for seed in (0, 1, 99)]
        assert all(len(p) == count for p in picks)
        assert len({frozenset(r.label for r in p) for p in picks}) == 1
        assert picks[0] == [r for r in workloads.generate(name, 0) if r in picks[0]]


def test_hard_disc_cli_picks_mix_degrees():
    records = workloads.generate("hard-disc", 0)
    for count in (workloads.CLI_SAMPLE, workloads.PAIRS, workloads.WORKLOADS["hard-disc"].scan_size):
        degrees = {parse_poly(r.text).degree for r in workloads.subset("hard-disc", records, count)}
        assert len(degrees) >= 2


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_committed_digests_cover_exactly_the_pool(name):
    texts = {r.text for r in workloads.pool(name)}
    assert set(gate.load_digests()["records"][name]) == texts
    assert len(texts) == len(workloads.pool(name))


def test_generated_polynomials_are_irreducible_and_round_trip():
    for rec in workloads.pool("hard-disc")[::5]:
        f = parse_poly(rec.text)
        assert workloads.poly_text(list(f.coeffs)) == rec.text
        assert is_irreducible(f)


def test_hard_disc_respects_its_coefficient_bounds():
    for rec in workloads.pool("hard-disc"):
        f = parse_poly(rec.text)
        bound = workloads.hd_coeff_bound(f.degree)
        assert max(abs(c) for c in f.coeffs) <= bound


def test_taylor_shift_is_f_of_x_plus_one():
    coeffs = [144, 0, -41, 0, 1]
    shifted = workloads.taylor_shift(coeffs)
    f, g = parse_poly(workloads.poly_text(coeffs)), parse_poly(workloads.poly_text(shifted))
    for x in range(-3, 4):
        assert g(x) == f(x + 1)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def test_tail_keeps_ten_samples_above():
    assert run.tail(list(range(60))) == (49, 100 * 50 / 60, 10)
    assert run.tail(list(range(20)))[2] == 10
    assert run.tail(list(range(5)))[0] == 2  # the median when samples are few
