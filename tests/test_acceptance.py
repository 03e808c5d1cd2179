"""Acceptance gate: one test per shipping criterion, at stated tolerance.

Each test carries a `criterion` marker; the terminal summary prints one
PASS or FAIL line per criterion id at the end of the run.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import serpchurn
from serpchurn.errors import RateLimited
from serpchurn.fitting import eval_model, fit_exponential
from serpchurn.metrics import (
    RateKind,
    avg_interval_rate,
    compute_report,
    new_story_rate,
    prob_seen,
    prob_seen_on_page,
    replacement_rate,
    transition_matrix,
)
from serpchurn.model import PAGES_MAX, canonicalize
from serpchurn.oracle import oracle_report
from serpchurn.serp_io import parse_serp_html
from serpchurn.synth import SynthParams, generate


@pytest.mark.criterion("C1", "pairwise churn rates are exact rationals on worked examples")
def test_c1_worked_rates_exact():
    repl = replacement_rate({"a", "b", "c"}, {"a", "b", "x", "y"})
    new = new_story_rate({"a", "b", "c"}, {"a", "b", "c", "d", "e"})
    assert repl == Fraction(1, 3)
    assert new == Fraction(2, 5)
    # the float boundary rounds once, from the exact value
    assert float(repl) == 1 / 3
    assert float(new) == 0.4


def _leak_kernel():
    """Mostly stay put, with a little mass everywhere (absence included)."""
    k = []
    for i in range(6):
        row = [0.048] * 6
        row[i] += 1.0 - 6 * 0.048
        k.append(tuple(row))
    return tuple(k)


def _hop_kernel():
    """Strong drift to the next state plus a slice parked in absence."""
    k = []
    for i in range(6):
        row = [0.0] * 6
        row[(i + 1) % 6] += 0.7
        row[i] += 0.2
        row[0] += 0.1
        k.append(tuple(row))
    return tuple(k)


@pytest.mark.criterion(
    "C2", "fast report agrees with the brute-force recomputation on 1000 seeded collections"
)
def test_c2_thousand_collection_cross_check():
    kernels = (None, _leak_kernel(), _hop_kernel())
    rates = (0.0, 0.1, 0.3, 0.5, 1.0)
    started = time.monotonic()
    for i in range(1000):
        pages = 1 + i % 3
        per_page = 1 + i % 4
        slots = pages * per_page
        days = 4 + i % 15
        if slots * days > 100:  # keep every collection at desk scale
            days = max(4, 100 // slots)
        store = generate(
            SynthParams(
                days=days,
                pages=pages,
                per_page=per_page,
                replacement_rate=rates[i % 5],
                transition_kernel=kernels[i % 3],
                seed=1000 + i,
            )
        )
        fast = compute_report(store)
        slow = oracle_report(store)
        assert fast == slow, f"report mismatch at seed {1000 + i}"
        # page-level probabilities must partition the overall one, exactly
        timelines = store.build_timelines()
        for k in fast.prob_seen:
            whole = prob_seen(timelines, k)
            parts = sum(
                prob_seen_on_page(timelines, k, m) for m in range(1, PAGES_MAX + 1)
            )
            assert parts == whole, f"partition broken at seed {1000 + i}, k={k}"
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"cross-check took {elapsed:.1f}s"


@pytest.mark.criterion("C3", "known synthetic dynamics are recovered within 0.02")
def test_c3_known_dynamics_recovered():
    # part one: a float replacement probability shows up as the daily rate
    store = generate(
        SynthParams(days=250, pages=5, per_page=10, replacement_rate=0.3, seed=20170907)
    )
    assert 50 * 250 >= 10_000  # slot-days observed
    mean, n = avg_interval_rate(store, 1, RateKind.REPLACEMENT)
    assert n == 249
    assert abs(float(mean) - 0.3) <= 0.02

    # part two: a supplied movement kernel is estimated cell by cell
    kernel = tuple(
        tuple(0.5 if j == i else 0.1 for j in range(6)) for i in range(6)
    )
    store = generate(
        SynthParams(
            days=2001,
            pages=1,
            per_page=50,
            replacement_rate=0.0,
            transition_kernel=kernel,
            seed=7,
        )
    )
    est = transition_matrix(store.build_timelines())
    assert est.total == 100_000
    rows = est.rows()
    worst = max(
        abs(float(rows[i][j]) - kernel[i][j])
        for i in range(6)
        for j in range(6)
    )
    assert worst <= 0.02, f"worst kernel cell off by {worst:.4f}"


@pytest.mark.criterion("C4", "noiseless decay curves are recovered to 1e-3 per coefficient")
def test_c4_decay_curve_recovery():
    for a, b, c in ((0.0362, 0.9560, 0.9159), (0.0469, 0.9370, 0.9806)):
        points = [(k, a + b * math.exp(-c * k)) for k in range(21)]
        m = fit_exponential(points)
        assert abs(m.a - a) <= 1e-3
        assert abs(m.b - b) <= 1e-3
        assert abs(m.c - c) <= 1e-3
        assert m.sse <= 1e-10
    m = fit_exponential(
        [(k, 0.0362 + 0.9560 * math.exp(-0.9159 * k)) for k in range(21)]
    )
    assert abs(eval_model(m, 1) - 0.4188) <= 5e-4


@pytest.mark.criterion("C5", "URI aliases collapse to one canonical form, idempotently")
def test_c5_canonical_uris():
    tracked = canonicalize(
        "http://www.redcross.org/donate/disaster-donations?campname=irma&campmedium=aspot"
    )
    plain = canonicalize("https://www.redcross.org/donate/disaster-donations")
    assert tracked == plain == "www.redcross.org/donate/disaster-donations"

    rng = random.Random(5)
    schemes = ["http://", "https://", "HTTP://", ""]
    hosts = [
        "Example.com",
        "www.example.com",
        "NEWS.site.ORG",
        "sub.domain.co.uk",
        "xn--bcher-kva.example",
    ]
    ports = ["", ":80", ":443", ":8080"]
    paths = ["", "/", "/a", "/a/b/c", "/Path/With/Case", "/a//b", "/news/2017/harvey.html"]
    tails = ["", "/", "?q=1&r=2", "#frag", "?x=%20y#z", "//"]
    for _ in range(10_000):
        uri = (
            rng.choice(schemes)
            + rng.choice(hosts)
            + rng.choice(ports)
            + rng.choice(paths)
            + rng.choice(tails)
        )
        canon = canonicalize(uri)
        assert canonicalize(canon) == canon, uri
        assert len(canon) <= len(uri), uri
        assert "://" not in canon and "?" not in canon and "#" not in canon, uri
        assert not canon.endswith("/"), uri


@pytest.mark.criterion(
    "C6", "result extraction matches golden files byte-for-byte and flags block pages"
)
def test_c6_parser_golden_and_block_detection(serp_root, fixture_root):
    for vertical, golden_name in (
        ("general", "general_p1_links.json"),
        ("news", "news_p1_links.json"),
    ):
        raw = (
            serp_root / "hurricane-harvey" / vertical / "2017-09-07" / "p1.html"
        ).read_bytes()
        parsed = parse_serp_html(raw)
        rendered = (
            json.dumps(
                [{"uri": u, "title": t} for u, t in parsed],
                indent=2,
                ensure_ascii=False,
            )
            + "\n"
        )
        golden = (fixture_root / "golden" / golden_name).read_text(encoding="utf-8")
        assert rendered == golden, vertical
    with pytest.raises(RateLimited):
        parse_serp_html((fixture_root / "captcha.html").read_bytes())


def _run_documented_pipeline(workdir, child_env):
    """The README walkthrough, verbatim: generate, ingest, measure, fit, draw."""
    workdir.mkdir()
    package_init = Path(serpchurn.__file__).resolve()
    env = child_env(SERPCHURN_STORE=str(workdir / "demo"))
    # a child that loads another copy, a stale install say, tests another program
    probe = subprocess.run(
        [sys.executable, "-c", "import serpchurn; print(serpchurn.__file__)"],
        capture_output=True,
        text=True,
        env=env,
        cwd=workdir,
    )
    assert probe.returncode == 0, probe.stderr
    assert Path(probe.stdout.strip()).resolve() == package_init, probe.stdout
    outputs = []

    def cli(*args, stdin_text=None):
        proc = subprocess.run(
            [sys.executable, "-m", "serpchurn", *args],
            capture_output=True,
            text=True,
            input=stdin_text,
            env=env,
            cwd=workdir,
        )
        assert proc.returncode == 0, (args, proc.stderr)
        outputs.append(proc.stdout)
        return proc.stdout

    stream = cli(
        "synth",
        "--days", "10",
        "--pages", "2",
        "--per-page", "5",
        "--rate", "0.3",
        "--seed", "42",
        "--store", "-",
    )
    cli("ingest", "-", stdin_text=stream)
    cli("stats")
    cli("metrics", "--format", "csv")
    cli("prob", "--format", "csv")
    cli("transitions")
    cli("fit")
    cli("report", "--kind", "temporal-grid", "--format", "svg")
    return "".join(outputs)


@pytest.mark.criterion("C7", "the documented command pipeline is byte-identical across runs")
def test_c7_pipeline_determinism(tmp_path, child_env):
    first = _run_documented_pipeline(tmp_path / "run1", child_env)
    second = _run_documented_pipeline(tmp_path / "run2", child_env)
    assert first == second
    assert '"vertical": "general"' in first  # the fit step emitted a model document
