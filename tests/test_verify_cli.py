import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tancone.cli
import tancone.verify
from tancone.cli import build_parser, main
from tancone.grid import multiset_from_json
from tancone.indexsets import (
    MAX_BITABLEAU_WORK,
    MAX_BRSK_BOXES,
    MAX_TABLE_MONOMIALS,
    bruhat_leq,
    enumerate_indices,
    format_index,
)
from tancone.patch import FORM_LABEL, PatchMatrix, build_patch
from tancone.verify import (
    PRIME_BOUND,
    SCHEMA,
    CaseSpec,
    _up_sets,
    all_triples,
    case_json,
    is_prime,
    parse_field,
    report_csv,
    report_json,
    sample_triples,
    sweep,
    verify_case,
)


def test_parse_field():
    assert parse_field("Q") == 0
    assert parse_field("Fp:2") == 2
    assert parse_field("Fp:3") == 3
    with pytest.raises(ValueError):
        parse_field("Fp:4")
    with pytest.raises(ValueError):
        parse_field("GF(2)")
    with pytest.raises(ValueError, match="not prime"):
        parse_field("Fp:561")  # Carmichael number
    with pytest.raises(ValueError, match="not prime"):
        parse_field("Fp:3215031751")  # strong pseudoprime to bases 2, 3, 5, 7
    with pytest.raises(ValueError, match="not prime"):
        parse_field("Fp:318665857834031151167461")  # ... to the first 12 primes
    assert parse_field("Fp:18446744073709551557") == 2**64 - 59
    with pytest.raises(ValueError, match="too large"):
        parse_field("Fp:618970019642690137449562111")  # 2^89 - 1, prime
    with pytest.raises(ValueError, match="too large"):
        parse_field(f"Fp:{PRIME_BOUND}")  # strong pseudoprime to the first 13 primes
    # only ASCII decimal digits follow 'Fp:': what ``int`` would reject, or
    # accept (blanks, a sign, underscores, non-ASCII digits), gets the
    # message naming the form, not ``int``'s own
    for text in ("Fp:abc", "Fp:", "Fp:0x7", "Fp:7.0", "Fp: 7", "Fp:7 ", "Fp:+7", "Fp:7_1",
                 "Fp:\u0667"):
        with pytest.raises(ValueError, match=r"^field must be 'Q' or 'Fp:<p>', got "):
            parse_field(text)


def test_is_prime_matches_trial_division():
    for n in range(5000):
        trial = n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
        assert is_prime(n) == trial, n


def test_casespec_validation():
    with pytest.raises(ValueError):
        CaseSpec(2, (1, 4), (1, 4), (1, 4))  # not isotropic
    with pytest.raises(ValueError, match="max degree"):
        CaseSpec(2, (1, 2), (1, 3), (3, 4), max_degree=-1)
    case = CaseSpec.from_text(2, "1,2", "1,3", "3,4")
    assert case.p == 0
    # the highest degree each bound admits at each d: the bitableau work
    # bound, which includes d = 4 at degree 10 and d = 6 at degree 6, and
    # the degree-table bound, which is checked first
    work = {1: 1999, 2: 61, 3: 17, 4: 10, 5: 7, 6: 6, 7: 5, 8: 4}
    tables = {1: 1_499_999, 2: 206, 3: 28, 4: 13, 5: 9, 6: 7, 7: 6, 8: 5}
    for d, top in work.items():
        lowest = tuple(range(1, d + 1))
        CaseSpec(d, lowest, lowest, lowest, max_degree=top)
        for degree in (top + 1, tables[d]):
            with pytest.raises(ValueError, match="bitableau box pairs"):
                CaseSpec(d, lowest, lowest, lowest, max_degree=degree)
        with pytest.raises(ValueError, match="staircase monomials"):
            CaseSpec(d, lowest, lowest, lowest, max_degree=tables[d] + 1)


def test_casespec_refuses_a_triple_out_of_bruhat_order(capsys):
    """The CLI's one check of the triple's order: ``ideal`` builds its
    case through ``CaseSpec`` like every other case command."""
    with pytest.raises(ValueError, match="^need alpha <= beta <= gamma$"):
        CaseSpec(2, (3, 4), (1, 3), (1, 3))  # alpha > beta
    argv = ["ideal", "--d", "2", "--alpha", "3,4", "--beta", "1,3", "--gamma", "1,3"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: need alpha <= beta <= gamma\n"


def test_triple_counts():
    assert len(all_triples(1)) == 4
    assert len(all_triples(2)) == 20


def test_verify_point_case():
    v = verify_case(CaseSpec(2, (1, 3), (1, 3), (1, 3)))
    assert v.groebner_equal
    assert sorted(v.initial_ideal) == ["X(2,1)", "X(2,3)", "X(4,1)"]
    for m in range(1, 7):
        assert set(v.per_degree[m].values()) == {0}


def test_verify_free_case():
    v = verify_case(CaseSpec(2, (1, 2), (1, 3), (3, 4)))
    assert v.ok
    assert v.initial_ideal == [] and v.good_initial == []
    from math import comb

    for m in range(1, 7):
        assert set(v.per_degree[m].values()) == {comb(m + 2, 2)}


def test_verify_d1_cases():
    for a, b, g in all_triples(1):
        v = verify_case(CaseSpec(1, a, b, g))
        assert v.ok


def test_report_json_schema_and_determinism():
    verdicts = sweep(1, max_degree=2)
    text1 = report_json(verdicts, stable=True)
    verdicts2 = sweep(1, max_degree=2)
    text2 = report_json(verdicts2, stable=True)
    assert text1 == text2  # byte-identical under --stable
    payload = json.loads(text1)
    assert payload["schema"] == "tancone/1"
    assert payload["all_ok"] is True
    assert len(payload["cases"]) == 4
    case = payload["cases"][0]
    for key in (
        "d",
        "alpha",
        "beta",
        "gamma",
        "field",
        "groebner_equal",
        "counts_agree",
        "per_degree",
        "form",
        "runtime_ms",
    ):
        assert key in case


def test_report_csv_columns():
    verdicts = sweep(1, max_degree=1)
    text = report_csv(verdicts, stable=True)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "d,alpha,beta,gamma,field,groebner_equal,counts_agree,ok,max_degree,runtime_ms"
    )
    assert len(lines) == 5
    assert lines[1] == '1,"1","1","1",Q,true,true,true,1,0'
    verdicts[0].counts_agree = False  # a counting failure shows in the row
    assert report_csv(verdicts[:1], stable=True).split("\n")[1] == (
        '1,"1","1","1",Q,true,false,false,1,0'
    )


def verdict_json_oracle(v):
    """One case of the report as a dict, as ``Verdict.to_json`` once built
    it for ``json.dumps``."""
    return {
        "d": v.case.d,
        "alpha": format_index(v.case.alpha),
        "beta": format_index(v.case.beta),
        "gamma": format_index(v.case.gamma),
        "field": v.case.field,
        "max_degree": v.case.max_degree,
        "groebner_equal": v.groebner_equal,
        "counts_agree": v.counts_agree,
        "initial_ideal": v.initial_ideal,
        "good_initial": v.good_initial,
        "per_degree": {str(m): row for m, row in sorted(v.per_degree.items())},
        "form": FORM_LABEL,
        "runtime_ms": v.runtime_ms,
    }


def case_dump_oracle(v, stable=False, indent=0):
    """``case_json`` by ``json.dumps`` of the oracle dict."""
    case = verdict_json_oracle(v)
    if stable:
        case["runtime_ms"] = 0
    return json.dumps(case, indent=2, sort_keys=True).replace("\n", "\n" + " " * indent)


def report_json_oracle(verdicts, stable=False):
    """The JSON report built whole, as it once was: every case's dict, then
    one dump of them all."""
    payload = {
        "schema": SCHEMA,
        "all_ok": all(v.ok for v in verdicts),
        "cases": [verdict_json_oracle(v) for v in verdicts],
    }
    if stable:
        for case in payload["cases"]:
            case["runtime_ms"] = 0
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("d", [1, 2, 3])
def test_streamed_report_matches_the_whole_dump(d, tmp_path, monkeypatch, capsys):
    """The sweep command writes its JSON report case by case; the bytes are
    those of the whole dump, with and without --stable, to a file and to
    stdout.  The CLI reports fixed verdicts here, so that runtimes and a
    failing case show too."""
    verdicts = sweep(d, max_degree=6)
    verdicts[-1].counts_agree = False
    monkeypatch.setattr(tancone.cli, "sweep", lambda *args, **kwargs: verdicts)
    for flags in ([], ["--stable"]):
        expected = report_json_oracle(verdicts, stable=bool(flags))
        assert report_json(verdicts, stable=bool(flags)) == expected
        out = tmp_path / "report.json"
        assert main(["sweep", "--d", str(d), "--out", str(out)] + flags) == 1
        assert out.read_text() == expected
        capsys.readouterr()
        assert main(["sweep", "--d", str(d)] + flags) == 1
        assert capsys.readouterr().out == expected


def test_case_writer_matches_json_dumps_at_its_edges(capsys):
    """``case_json`` writes the bytes of ``json.dumps(case, indent=2,
    sort_keys=True)`` at base indents 0 and 4, with and without a zeroed
    runtime: degrees of two digits, whose keys sort as strings, degree 0
    with an empty ``per_degree``, empty and non-empty initial ideals,
    ``Fp:p`` labels, failing verdicts, a non-zero runtime, and strings
    that need escaping."""
    verdicts = [
        verify_case(CaseSpec(2, (1, 2), (1, 3), (3, 4), max_degree=11)),
        verify_case(CaseSpec(2, (1, 2), (1, 3), (3, 4), max_degree=0)),
        verify_case(CaseSpec(3, (1, 2, 3), (1, 2, 3), (1, 3, 5), field="Fp:3")),
        *sweep(3, max_degree=2, field="Fp:2", sample=5, seed=1),
    ]
    assert list(verdicts[0].per_degree) == list(range(1, 12))
    assert verdicts[1].per_degree == {}
    assert verdicts[0].initial_ideal == verdicts[0].good_initial == []
    assert verdicts[2].initial_ideal and verdicts[2].case.field == "Fp:3"
    failing = verify_case(CaseSpec(2, (1, 2), (2, 4), (3, 4), field="Fp:5", max_degree=3))
    failing.groebner_equal = failing.counts_agree = False
    failing.runtime_ms = 1234
    odd = verify_case(CaseSpec(1, (1,), (1,), (2,), max_degree=1))
    odd.initial_ideal = ['"quoted"\\', "tab\tand\nnewline", "é ∞ \U0001d11e", "\x00\x7f"]
    odd.runtime_ms = 7
    for v in (*verdicts, failing, odd):
        for stable in (False, True):
            for indent in (0, 4):
                assert case_json(v, stable, indent) == case_dump_oracle(v, stable, indent)
    assert '"runtime_ms": 1234' in case_json(failing)
    assert '"runtime_ms": 0' in case_json(failing, stable=True)
    # the count command writes the case alone, at indent 0
    argv = ["count", "--d", "2", "--alpha", "1,2", "--beta", "1,3", "--gamma", "3,4",
            "--max-degree", "11", "--field", "Fp:3"]
    for flags in ([], ["--stable"]):
        assert main(argv + flags) == 0
        out = capsys.readouterr().out
        v = verify_case(CaseSpec.from_text(2, "1,2", "1,3", "3,4", "Fp:3", 11))
        v.runtime_ms = json.loads(out)["runtime_ms"]
        assert out == case_dump_oracle(v, stable=bool(flags)) + "\n", flags


def test_cli_refuses_a_degree_past_the_bitableau_work_bound(capsys):
    """A case whose certificate would enumerate bitableaux with more than
    MAX_BITABLEAU_WORK box pairs at its fixed point is refused before any
    table is built, and the inputs the paper's sweeps need stay in."""
    argv = ["count", "--d", "2", "--alpha", "1,2", "--beta", "1,3", "--gamma", "3,4",
            "--max-degree", "120"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: max degree 120 at d=2 needs 27235890 bitableau box pairs, "
        f"more than {MAX_BITABLEAU_WORK}\n"
    )
    for d, degree in ((4, 10), (5, 6), (6, 6), *((d, 1) for d in range(1, 9))):
        lowest = tuple(range(1, d + 1))
        CaseSpec(d, lowest, lowest, lowest, max_degree=degree)


def test_report_empty_is_valid():
    assert report_json([]) == report_json_oracle([])
    payload = json.loads(report_json([]))
    assert payload["cases"] == []
    assert payload["all_ok"] is True
    assert report_csv([]).strip().split("\n") == [
        "d,alpha,beta,gamma,field,groebner_equal,counts_agree,ok,max_degree,runtime_ms"
    ]


def test_sampled_sweep_is_seed_deterministic():
    a = sweep(2, max_degree=1, sample=5, seed=42)
    b = sweep(2, max_degree=1, sample=5, seed=42)
    assert [v.case for v in a] == [v.case for v in b]
    c = sweep(2, max_degree=1, sample=5, seed=43)
    assert [v.case for v in a] != [v.case for v in c]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_up_sets_match_bruhat_leq(d):
    """The up-sets read off the per-d Bruhat masks are those of
    ``bruhat_leq``, keys and members in lex order."""
    iso = enumerate_indices(d)
    want = {v: [w for w in iso if bruhat_leq(v, w)] for v in iso}
    got = _up_sets(d)
    assert got == want and list(got) == list(want)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sample_triples_draws_what_sampling_the_list_draws(d):
    """Positions drawn from a range and mapped to triples by up-set counts
    are the triples that sampling the listed ``all_triples(d)`` gives, for
    samples of one case up to more than every case."""
    triples = all_triples(d)
    n = len(triples)
    for seed in range(6):
        for k in sorted({1, 2, 7, n // 3, n - 1, n, n + 4} - {0}):
            want = sorted(random.Random(seed).sample(triples, k)) if k < n else triples
            assert sample_triples(d, k, seed) == want, (d, seed, k)


def test_a_sampled_sweep_verifies_the_drawn_triples():
    verdicts = sweep(4, max_degree=1, sample=9, seed=5)
    want = sorted(random.Random(5).sample(all_triples(4), 9))
    assert [(v.case.alpha, v.case.beta, v.case.gamma) for v in verdicts] == want


def test_characteristic_agreement_spot():
    case_q = verify_case(CaseSpec(2, (1, 3), (2, 4), (3, 4), field="Q", max_degree=3))
    case_2 = verify_case(CaseSpec(2, (1, 3), (2, 4), (3, 4), field="Fp:2", max_degree=3))
    assert case_q.groebner_equal == case_2.groebner_equal
    assert case_q.per_degree == case_2.per_degree


# -- CLI ---------------------------------------------------------------


def test_cli_enum(capsys):
    assert main(["enum", "--d", "2", "--pairs"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["indices"] == ["1,2", "1,3", "2,4", "3,4"]
    assert len(payload["admissible_pairs"]) == 5


def test_cli_ideal(capsys):
    rc = main(
        ["ideal", "--d", "2", "--alpha", "1,3", "--beta", "1,3", "--gamma", "1,3"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["good"] == ["X(2,3)", "X(2,1)", "X(4,1)"]
    assert "form" in payload


def test_cli_ideal_takes_no_staircase_flags(capsys):
    """``ideal`` builds no staircase, so the degree-table bound does not
    apply to it (d = 8 at the default degree 6 would exceed it), and it
    accepts neither --max-degree nor --stable."""
    case = ["--alpha", "1,2,3,4,5,6,7,8", "--beta", "1,2,3,4,5,6,7,8",
            "--gamma", "9,10,11,12,13,14,15,16"]
    assert main(["ideal", "--d", "8", *case]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["generators"] == [] and payload["good"] == []
    for flag in (["--max-degree", "1"], ["--stable"]):
        with pytest.raises(SystemExit) as exc:
            main(["ideal", "--d", "8", *case, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_cli_ideal_output_is_pinned(capsys):
    """``ideal`` is the one command that prints full monic minors: its
    stdout over Q, F_2 and F_3, then d = 1, 2, 3, then every triple of
    ``all_triples(d)`` in order (408 runs), hashes to a pinned sha256."""
    digest = hashlib.sha256()
    runs = 0
    for field in ("Q", "Fp:2", "Fp:3"):
        for d in (1, 2, 3):
            for alpha, beta, gamma in all_triples(d):
                argv = ["ideal", "--d", str(d), "--alpha", format_index(alpha),
                        "--beta", format_index(beta), "--gamma", format_index(gamma),
                        "--field", field]
                assert main(argv) == 0, argv
                digest.update(capsys.readouterr().out.encode())
                runs += 1
    assert runs == 408
    assert digest.hexdigest() == (
        "2a57e6d12b8b5e96045b02afa527663bfb0273fdc1f86df790dc8d73775c69fa"
    )


def test_cli_gb_verify_exit_codes(capsys):
    rc = main(
        [
            "gb-verify",
            "--d",
            "2",
            "--alpha",
            "1,2",
            "--beta",
            "1,3",
            "--gamma",
            "3,4",
            "--max-degree",
            "2",
            "--stable",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_ok"] is True


def test_cli_brsk_round_trip(capsys):
    multiset = '[{"r":2,"c":1,"mult":1},{"r":4,"c":3,"mult":1}]'
    assert main(["brsk", "--d", "2", "--beta", "1,3", "--input", multiset]) == 0
    tableau = capsys.readouterr().out
    assert json.loads(tableau) == {
        "rows": [{"P": [2, 4], "Q": [1, 3], "sign": "pos"}]
    }
    assert (
        main(["brsk", "--d", "2", "--beta", "1,3", "--inverse", "--input", tableau])
        == 0
    )
    assert json.loads(capsys.readouterr().out) == [
        {"r": 2, "c": 1, "mult": 1},
        {"r": 4, "c": 3, "mult": 1},
    ]


def test_cli_brsk_rejects_more_boxes_than_the_bound(monkeypatch, capsys):
    """Up to MAX_BRSK_BOXES boxes the map runs both ways; one more, as the
    multiset's total multiplicity or as the bitableau's boxes or rows, is
    an error line and exit 2 before any insertion."""
    brsk = ["brsk", "--d", "2", "--beta", "1,3"]
    at_bound = json.dumps([{"r": 2, "c": 1, "mult": MAX_BRSK_BOXES}])
    assert main([*brsk, "--input", at_bound]) == 0
    image = json.loads(capsys.readouterr().out)
    assert sum(len(row["P"]) for row in image["rows"]) == MAX_BRSK_BOXES
    assert main([*brsk, "--inverse", "--input", json.dumps(image)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(at_bound)

    def no_insertion(*args):
        raise AssertionError("insertion started")

    monkeypatch.setattr(tancone.cli, "brsk_map", no_insertion)
    monkeypatch.setattr(tancone.cli, "brsk_inverse", no_insertion)
    past = json.dumps([{"r": 2, "c": 1, "mult": MAX_BRSK_BOXES + 1}])
    one_more_box = {"rows": image["rows"] + [{"P": [2], "Q": [1], "sign": "pos"}]}
    empty_rows = {"rows": [{"P": [], "Q": [], "sign": "neg"}] * (MAX_BRSK_BOXES + 1)}
    for flags, text in (
        ([], past),
        (["--inverse"], json.dumps(one_more_box)),
        (["--inverse"], json.dumps(empty_rows)),
    ):
        assert main([*brsk, *flags, "--input", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(MAX_BRSK_BOXES) in captured.err


def test_cli_sweep_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        [
            "sweep",
            "--d",
            "1",
            "--max-degree",
            "2",
            "--stable",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "tancone/1"
    assert len(payload["cases"]) == 4
    # a second run is byte-identical
    rc = main(
        ["sweep", "--d", "1", "--max-degree", "2", "--stable", "--out", str(out) + "2"]
    )
    assert rc == 0
    assert out.read_text() == (tmp_path / "report.json2").read_text()


def test_cli_reports_deep_recursion_as_error(capsys):
    """A degree deep enough to exhaust the recursion limit (about 980 at the
    default limit) is an error line and exit 2, not a traceback; the limit
    is lowered so that a small degree reaches it."""
    argv = ["count", "--d", "1", "--alpha", "1", "--beta", "1", "--gamma", "2",
            "--max-degree", "80"]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        rc = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "recursion" in err
    # JSON nested past the limit reaches the same handler through the parser
    nested = "[" * 100_000
    for flags in ([], ["--inverse"]):
        assert main(["brsk", "--d", "2", "--beta", "1,3", *flags, "--input", nested]) == 2
        assert capsys.readouterr().err == (
            "error: input too large: maximum recursion depth exceeded\n"
        ), flags


def test_unwritable_out_is_rejected_before_any_case_is_verified(
    tmp_path, monkeypatch, capsys
):
    """An --out that cannot be opened exits 2 before the first case is
    verified, and a rejected argument leaves no file behind and an
    existing one as it was."""

    def unreachable(*args, **kwargs):
        raise AssertionError("a case was verified")

    monkeypatch.setattr(tancone.cli, "verify_case", unreachable)
    monkeypatch.setattr(tancone.verify, "verify_case", unreachable)
    case = ["--alpha", "1,2", "--beta", "1,3", "--gamma", "3,4"]
    commands = (
        ["sweep", "--d", "2"],
        ["count", "--d", "2", *case],
        ["gb-verify", "--d", "2", *case],
    )
    for command in commands:
        for out in (tmp_path / "missing" / "r.json", tmp_path):
            assert main([*command, "--out", str(out)]) == 2, (command, out)
            assert capsys.readouterr().err.startswith("error: [Errno"), (command, out)
    assert not (tmp_path / "missing").exists()
    kept = tmp_path / "kept.json"
    kept.write_text("old report\n")
    for command in commands:
        for out in (tmp_path / "new.json", kept):
            assert main([*command, "--max-degree", "-1", "--out", str(out)]) == 2
            assert "max degree" in capsys.readouterr().err, command
    assert sorted(tmp_path.iterdir()) == [kept]
    assert kept.read_text() == "old report\n"


def test_cli_rejects_bad_input(capsys):
    assert main(["gb-verify", "--d", "2", "--alpha", "1,4", "--beta", "1,3", "--gamma", "3,4"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["sweep", "--d", "1", "--max-degree", "-1"]) == 2
    assert "max degree" in capsys.readouterr().err
    # d above MAX_D is refused before anything is enumerated, by every
    # subcommand, and by brsk before its input is read
    nine = ",".join(map(str, range(1, 10)))
    case = ["--alpha", nine, "--beta", nine, "--gamma", nine]
    point = '[{"r":10,"c":1,"mult":1}]'
    commands = {
        "enum": [],
        "ideal": case,
        "gb-verify": case,
        "count": case,
        "brsk": ["--beta", nine, "--input", point],
        "sweep": ["--max-degree", "1"],
    }
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(commands) == set(subparsers.choices)
    for command, rest in [*commands.items(), ("brsk", ["--beta", nine, "--input", "["])]:
        argv = [command, "--d", "9", *rest]
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: d must be <= 8, got 9\n", argv
    # a case whose degree tables would hold more than MAX_TABLE_MONOMIALS
    # monomials is refused before any table is built
    for argv, need in (
        (["count", "--d", "2", "--alpha", "1,2", "--beta", "1,3", "--gamma", "3,4",
          "--max-degree", "1000"], "max degree 1000 at d=2 needs 167668501"),
        (["gb-verify", "--d", "3", "--alpha", "1,2,3", "--beta", "1,2,3",
          "--gamma", "4,5,6", "--max-degree", "29"], "max degree 29 at d=3 needs 1623160"),
        (["sweep", "--d", "4", "--max-degree", "14"], "max degree 14 at d=4 needs 1961256"),
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == (
            f"error: {need} staircase monomials, more than {MAX_TABLE_MONOMIALS}\n"
        ), argv
    # an index is ASCII decimal digits between commas: no other digits,
    # signs, underscores or spaces
    for text in ("１,３", "١,٣", "+1,3", "0_1,3", " 1 , 3 "):
        assert main(["brsk", "--d", "2", "--beta", text, "--input", "[]"]) == 2, text
        assert capsys.readouterr().err == f"error: cannot parse index {text!r}\n", text
    assert main(["sweep", "--d", "1", "--max-degree", "1", "--field", "Fp:abc"]) == 2
    err = capsys.readouterr().err
    assert err == "error: field must be 'Q' or 'Fp:<p>', got 'Fp:abc'\n"
    for flag, value in (("--sample", "0"), ("--sample", "-1"), ("--jobs", "0")):
        argv = ["sweep", "--d", "1", "--max-degree", "1", flag, value]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"must be >= 1, got {value}" in err, argv
    malformed_json = [
        ([], '[{"r":2}]'),
        ([], '{"r":2}'),
        ([], "[3]"),
        (["--inverse"], "{}"),
        (["--inverse"], '{"rows":[{"P":[1]}]}'),
        (["--inverse"], "[1]"),
        # only JSON integers are integers: no float, boolean or numeric string
        ([], '[{"r":2.7,"c":1,"mult":1}]'),
        ([], '[{"r":2,"c":1,"mult":true}]'),
        ([], '[{"r":"2","c":1,"mult":1}]'),
        (["--inverse"], '{"rows":[{"P":[2.9],"Q":[1.2],"sign":"pos"}]}'),
    ]
    for flags, text in malformed_json:
        assert main(["brsk", "--d", "2", "--beta", "1,3", *flags, "--input", text]) == 2, text
        assert capsys.readouterr().err.startswith("error:"), text
    # points off the grid at beta = {1,3}: a row in beta, a column outside
    # beta, an out-of-range row; and the same from an inverse whose rows
    # decode to such points
    off_grid = [
        ([], '[{"r":1,"c":1,"mult":1}]', "(1, 1)"),
        ([], '[{"r":2,"c":2,"mult":1}]', "(2, 2)"),
        ([], '[{"r":99,"c":1,"mult":1}]', "(99, 1)"),
        (["--inverse"], '{"rows":[{"P":[1],"Q":[3],"sign":"neg"}]}', "(1, 3)"),
        (["--inverse"], '{"rows":[{"P":[0],"Q":[3],"sign":"neg"}]}', "(0, 3)"),
    ]
    for flags, text, point in off_grid:
        assert main(["brsk", "--d", "2", "--beta", "1,3", *flags, "--input", text]) == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{point} is not a grid point" in err, text
    for flags, text in (([], "[]"), (["--inverse"], '{"rows":[]}')):
        assert main(["brsk", "--d", "2", "--beta", "1,4", *flags, "--input", text]) == 2
        assert "not isotropic" in capsys.readouterr().err


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of the CLI, argparse usage errors included."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue()


_JSON_KEYS = st.sampled_from(["r", "c", "mult", "rows", "P", "Q", "sign"]) | st.text(max_size=2)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=12,
)
_multisets = st.lists(
    st.fixed_dictionaries(
        {"r": st.integers(-2, 6), "c": st.integers(-2, 6), "mult": st.integers(-1, 2)}
    ),
    max_size=3,
)
# multisets on the grid at beta = {1,3}, so the forward map succeeds
_grid_multisets = st.lists(
    st.fixed_dictionaries(
        {"r": st.sampled_from([2, 4]), "c": st.sampled_from([1, 3]), "mult": st.integers(1, 2)}
    ),
    max_size=4,
)
_bitableaux = st.fixed_dictionaries(
    {
        "rows": st.lists(
            st.fixed_dictionaries(
                {
                    "P": st.lists(st.integers(0, 5), max_size=3),
                    "Q": st.lists(st.integers(0, 5), max_size=3),
                    "sign": st.sampled_from(["neg", "pos"]),
                }
            ),
            max_size=3,
        )
    }
)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), _json_values | _multisets | _grid_multisets | _bitableaux)
def test_cli_brsk_any_json_exits_zero_or_two(inverse, value):
    flags = ["--inverse"] if inverse else []
    argv = ["brsk", "--d", "2", "--beta", "1,3", *flags, "--input", json.dumps(value)]
    rc, out = run_cli(argv)
    assert rc in (0, 2)
    if rc == 0 and not inverse:
        rc, back = run_cli(["brsk", "--d", "2", "--beta", "1,3", "--inverse", "--input", out])
        assert rc == 0
        assert multiset_from_json(json.loads(back)) == multiset_from_json(value)


@settings(deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.integers(-2, 8), max_size=4).map(lambda xs: ",".join(map(str, xs)))
    | st.text(max_size=10),
    st.booleans(),
)
def test_cli_brsk_any_beta_exits_zero_or_two(d, beta, inverse):
    flags, text = (["--inverse"], '{"rows":[]}') if inverse else ([], '[{"r":2,"c":1,"mult":1}]')
    rc, _ = run_cli(["brsk", "--d", str(d), "--beta", beta, *flags, "--input", text])
    assert rc in (0, 2)


def test_cli_gb_verify_over_large_prime_field(capsys):
    case = ["gb-verify", "--d", "2", "--alpha", "1,2", "--beta", "1,2", "--gamma", "2,4"]
    verdicts = []
    for field in ("Q", "Fp:18446744073709551557"):
        assert main([*case, "--field", field, "--stable"]) == 0
        verdicts += json.loads(capsys.readouterr().out)["cases"]
    rational, modular = verdicts
    assert modular["initial_ideal"] == rational["initial_ideal"] == ["X(4,1)*X(3,2)"]
    assert modular["good_initial"] == rational["good_initial"]
    assert modular["per_degree"] == rational["per_degree"]


def test_field_label_is_canonical(capsys):
    """A prime written with leading zeros names the same field, so the
    reports of both spellings are byte-identical."""
    assert CaseSpec(1, (1,), (1,), (1,), field="Fp:007").field == "Fp:7"
    case = ["gb-verify", "--d", "1", "--alpha", "1", "--beta", "1", "--gamma", "1"]
    reports = []
    for field in ("Fp:007", "Fp:7"):
        assert main([*case, "--field", field, "--stable"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["cases"][0]["field"] == "Fp:7"
    sweeps = []
    for field in ("Fp:0002", "Fp:2"):
        assert main(["sweep", "--d", "2", "--max-degree", "2", "--field", field,
                     "--format", "csv", "--stable"]) == 0
        sweeps.append(capsys.readouterr().out)
    assert sweeps[0] == sweeps[1] and ",Fp:2," in sweeps[0]


def test_cli_exit_one_on_failed_verdict(monkeypatch, capsys):
    import tancone.cli as cli_mod

    def broken(case):
        v = verify_case(case)
        v.groebner_equal = False
        return v

    monkeypatch.setattr(cli_mod, "verify_case", broken)
    rc = main(["gb-verify", "--d", "1", "--alpha", "1", "--beta", "1",
               "--gamma", "1", "--max-degree", "1", "--stable"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_ok"] is False


def test_sweep_parallel_matches_serial():
    for d, kwargs in (
        (1, dict(max_degree=2)),
        (2, dict(max_degree=2, field="Fp:3")),
        (3, dict(max_degree=1, sample=20)),
    ):
        serial = sweep(d, **kwargs)
        parallel = sweep(d, jobs=2, **kwargs)
        assert report_json(serial, stable=True) == report_json(parallel, stable=True)
        # input order is lex in (alpha, beta, gamma); at d >= 2 it interleaves
        # betas, so the per-beta verdicts must have been put back in order
        triples = [(v.case.alpha, v.case.beta, v.case.gamma) for v in parallel]
        betas = [beta for _, beta, _ in triples]
        assert triples == sorted(triples) and (d == 1 or betas != sorted(betas))


def test_parallel_sweep_hands_out_the_largest_fixed_points_first(monkeypatch):
    """With jobs > 1 the pool gets the betas with the most cases first;
    the verdicts still come back in the lex order of the triples.  The
    pool has at most one worker per fixed point, and one fixed point is
    verified without a pool."""
    import concurrent.futures

    sizes = []
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups):
            groups = list(groups)
            sizes.extend(len(group) for group in groups)
            return map(fn, groups)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    parallel = sweep(3, max_degree=1, jobs=2)
    assert sizes == sorted(sizes, reverse=True) and sizes != sorted(sizes)
    assert sum(sizes) == len(parallel) == 112
    serial = sweep(3, max_degree=1)
    assert report_json(parallel, stable=True) == report_json(serial, stable=True)
    assert workers == [2]
    assert len(sweep(2, max_degree=1, jobs=1000)) == 20 and workers == [2, 4]
    assert len(sweep(2, max_degree=1, sample=1, jobs=1000)) == 1 and workers == [2, 4]


def test_no_patch_outlives_a_sweep():
    def live_patches():
        gc.collect()
        return sum(isinstance(obj, PatchMatrix) for obj in gc.get_objects())

    before = live_patches()
    sweep(2, max_degree=2, field="Fp:5")
    assert live_patches() <= before


def test_verify_case_rejects_patch_of_another_fixed_point():
    case = CaseSpec(2, (1, 2), (1, 3), (3, 4))
    assert verify_case(case, build_patch((1, 3), 2)).ok
    for patch in (build_patch((1, 2), 2), build_patch((1, 3), 2, p=3)):
        with pytest.raises(ValueError, match="does not fit"):
            verify_case(case, patch)


def test_importing_the_cli_loads_no_dataclasses_machinery():
    """A fresh interpreter imports ``tancone.cli`` without loading
    ``dataclasses`` or ``inspect`` (with ``ast``, ``dis`` and ``tokenize``
    behind it): every CLI process pays its imports before any command
    runs, so the value types are plain slotted classes."""
    snippet = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tancone.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", snippet], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(done.stdout.split())
    assert "tancone.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
