import hashlib
import json
from datetime import date, timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from serpchurn.errors import ValidationError
from serpchurn.fitting import refind_points
from serpchurn.metrics import (
    RateKind,
    avg_interval_rate,
    compute_rates,
    compute_refind,
    compute_report,
    report_to_csv,
    transition_matrix,
)
from serpchurn.model import Vertical
from serpchurn.oracle import oracle_report, oracle_transition_counts
from serpchurn.synth import (
    SynthParams,
    _kernel_move,
    generate,
    iter_snapshots,
)

from builders import IDENTITY_KERNEL


def test_same_seed_same_collection():
    p = SynthParams(days=10, pages=2, per_page=4, replacement_rate=0.5, seed=99)
    a = generate(p)
    b = generate(p)
    assert a.snapshots == b.snapshots


def test_different_seed_different_collection():
    base = dict(days=10, pages=2, per_page=4, replacement_rate=0.5)
    a = generate(SynthParams(seed=1, **base))
    b = generate(SynthParams(seed=2, **base))
    assert a.snapshots != b.snapshots


def test_visible_universe_is_constant_without_kernel():
    p = SynthParams(days=12, pages=3, per_page=5, replacement_rate=0.4, seed=3)
    for snap in iter_snapshots(p):
        assert len(snap.results) == 15
        pages = [r.page for r in snap.results]
        assert pages == sorted(pages)


def test_zero_rate_freezes_the_pages():
    p = SynthParams(days=6, pages=2, per_page=3, replacement_rate=0.0, seed=5)
    snaps = list(iter_snapshots(p))
    first = {(r.canonical_uri, r.page) for r in snaps[0].results}
    for snap in snaps[1:]:
        assert {(r.canonical_uri, r.page) for r in snap.results} == first


def test_full_rate_replaces_everything_daily():
    p = SynthParams(days=5, pages=1, per_page=4, replacement_rate=1.0, seed=8)
    store = generate(p)
    mean, n = avg_interval_rate(store, 1, RateKind.REPLACEMENT)
    assert (mean, n) == (Fraction(1), 4)


def test_replaced_stories_never_return():
    p = SynthParams(days=20, pages=1, per_page=5, replacement_rate=0.6, seed=11)
    for t in generate(p).build_timelines():
        obs = t.observations
        gone = False
        for v in obs:
            if gone:
                assert v == 0
            elif v == 0:
                gone = True


def test_kernel_moves_between_pages():
    # cycle 1 -> 2 -> 1 deterministically
    kernel = list(list(row) for row in IDENTITY_KERNEL)
    kernel[1] = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    kernel[2] = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    p = SynthParams(
        days=4,
        pages=1,
        per_page=2,
        transition_kernel=tuple(tuple(r) for r in kernel),
        seed=0,
    )
    snaps = list(iter_snapshots(p))
    assert [r.page for r in snaps[0].results] == [1, 1]
    assert [r.page for r in snaps[1].results] == [2, 2]
    assert [r.page for r in snaps[2].results] == [1, 1]


def test_a_draw_past_a_row_short_of_one_lands_in_the_last_state():
    row = (1.0 - 1e-10, 0.0, 0.0, 0.0, 0.0, 0.0)  # within the row-sum tolerance
    assert _kernel_move(row, 1.0 - 1e-11) == 5


def test_kernel_reentry_from_state_zero():
    # everything drops off the pages on day 1 and returns on day 2
    kernel = list(list(row) for row in IDENTITY_KERNEL)
    kernel[0] = [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    kernel[1] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    p = SynthParams(
        days=3, pages=1, per_page=3, transition_kernel=tuple(tuple(r) for r in kernel), seed=0
    )
    snaps = list(iter_snapshots(p))
    assert len(snaps[1].results) == 0
    assert [r.page for r in snaps[2].results] == [1, 1, 1]
    est = transition_matrix(
        generate(p).build_timelines()
    )
    assert est.counts[1][0] == 3
    assert est.counts[0][1] == 3


def test_kernel_validation():
    with pytest.raises(ValidationError, match="^kernel must be 6x6$"):
        SynthParams(days=1, transition_kernel=((1.0,),))
    bad_sum = tuple(
        tuple(0.5 if i == j else 0.0 for j in range(6)) for i in range(6)
    )
    with pytest.raises(ValidationError, match="^kernel row 0 sums to 0.5, not 1$"):
        SynthParams(days=1, transition_kernel=bad_sum)
    negative = list(list(r) for r in IDENTITY_KERNEL)
    negative[0][0] = -1.0
    negative[0][1] = 2.0
    with pytest.raises(ValidationError, match="^kernel row 0 has a negative entry$"):
        SynthParams(days=1, transition_kernel=tuple(tuple(r) for r in negative))


def test_a_kernel_of_lists_and_ints_is_kept_as_float_tuples():
    as_lists = [[int(p) for p in row] for row in IDENTITY_KERNEL]
    p = SynthParams(days=2, transition_kernel=as_lists)
    assert p.transition_kernel == IDENTITY_KERNEL
    assert {type(x) for row in p.transition_kernel for x in row} == {float}
    assert hash(p) == hash(SynthParams(days=2, transition_kernel=IDENTITY_KERNEL))


def test_params_validation():
    with pytest.raises(ValidationError):
        SynthParams(days=0)
    with pytest.raises(ValidationError):
        SynthParams(days=1, pages=6)
    with pytest.raises(ValidationError):
        SynthParams(days=1, per_page=0)
    with pytest.raises(ValidationError):
        SynthParams(days=1, replacement_rate=1.5)


def test_store_on_disk(tmp_path):
    p = SynthParams(days=3, pages=1, per_page=2, seed=4, topic="demo")
    store = generate(p, root=tmp_path / "col")
    assert (tmp_path / "col" / "collection.json").is_file()
    assert store.manifest.topic == "demo"
    assert len(list((tmp_path / "col" / "snapshots").glob("*.json"))) == 3


def test_synthetic_uris_canonicalize():
    p = SynthParams(days=1, pages=1, per_page=1)
    snap = next(iter_snapshots(p))
    r = snap.results[0]
    assert r.uri == "synth://story/0"
    assert r.canonical_uri == "story/0"


MIXED_KERNEL = (
    (0.7, 0.3, 0.0, 0.0, 0.0, 0.0),
    (0.2, 0.6, 0.2, 0.0, 0.0, 0.0),
    (0.0, 0.3, 0.5, 0.2, 0.0, 0.0),
    (0.0, 0.0, 0.3, 0.5, 0.2, 0.0),
    (0.0, 0.0, 0.0, 0.3, 0.5, 0.2),
    (0.0, 0.0, 0.0, 0.0, 0.4, 0.6),
)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _readme_store():
    return generate(SynthParams(days=10, pages=2, per_page=5, replacement_rate=0.3, seed=42))


def _gapped_store_with_a_repeat():
    """Two gap days, and on 2024-01-04 story/0 listed on page 1, then again on page 2."""
    store = generate(SynthParams(days=9, pages=2, per_page=3, replacement_rate=0.4, seed=17))
    del store.snapshots[date(2024, 1, 3)]
    del store.snapshots[date(2024, 1, 6)]
    snap = store.snapshots[date(2024, 1, 4)]
    again = snap.results[0]._replace(page=2, rank=len(snap.results) + 1)
    store.snapshots[snap.date] = snap._replace(results=(*snap.results, again))
    return store


def _news_store():
    return generate(
        SynthParams(
            days=14,
            pages=3,
            per_page=4,
            replacement_rate=0.25,
            transition_kernel=MIXED_KERNEL,
            seed=3,
            vertical=Vertical.NEWS,
        )
    )


class TestOracleAgreement:
    def test_field_for_field_on_mixed_dynamics(self):
        for seed in range(5):
            p = SynthParams(
                days=12,
                pages=3,
                per_page=3,
                replacement_rate=0.25,
                transition_kernel=MIXED_KERNEL,
                seed=seed,
            )
            store = generate(p)
            assert compute_report(store) == oracle_report(store)
            est = transition_matrix(store.build_timelines())
            assert [list(r) for r in est.counts] == oracle_transition_counts(store)

    def test_agreement_with_gap_days(self):
        p = SynthParams(days=9, pages=2, per_page=3, replacement_rate=0.4, seed=17)
        store = generate(p)
        # drop two scrape days to open a hole in the record
        del store.snapshots[date(2024, 1, 3)]
        del store.snapshots[date(2024, 1, 6)]
        assert compute_report(store) == oracle_report(store)
        est = transition_matrix(store.build_timelines())
        assert [list(r) for r in est.counts] == oracle_transition_counts(store)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_agreement_with_random_gap_days(self, data):
        days = data.draw(st.integers(3, 14), label="days")
        p = SynthParams(
            days=days,
            pages=data.draw(st.integers(1, 3), label="pages"),
            per_page=data.draw(st.integers(1, 4), label="per_page"),
            replacement_rate=data.draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]), label="rate"),
            transition_kernel=data.draw(st.sampled_from([None, MIXED_KERNEL]), label="kernel"),
            seed=data.draw(st.integers(0, 2**16), label="seed"),
        )
        store = generate(p)
        # interior days only, so the first and last day (and the span) stay put
        holes = data.draw(st.sets(st.integers(1, days - 2), max_size=3), label="holes")
        for i in holes:
            del store.snapshots[p.start + timedelta(days=i)]
        want = oracle_report(store)
        assert compute_report(store) == want
        _, _, span = store.collection_stats()
        points = refind_points(store.build_timelines(), span - 1)
        assert points == [(k, want.prob_seen[k].value) for k in sorted(want.prob_seen)]

    def test_agreement_past_the_monthly_lag_with_moves_reentries_and_gaps(self, fixture_root):
        """90 days under the kernel of ``kernel.json``, whose stories drift
        between pages, leak off them and re-enter from state 0, with six
        interior days unscraped: every rate at the paper's lags and at the
        longest ones, every refind cell and every transition count is the
        oracle's."""
        kernel = tuple(map(tuple, json.loads((fixture_root / "kernel.json").read_text())))
        p = SynthParams(days=90, pages=5, per_page=10, replacement_rate=0.05, transition_kernel=kernel, seed=7)
        store = generate(p)
        for i in (1, 20, 21, 45, 60, 88):
            del store.snapshots[p.start + timedelta(days=i)]
        lags = (1, 7, 30, 89, 90, 91)  # 89 pairs the first day with the last; 90 and 91 have no pair
        want = oracle_report(store, lags)
        assert compute_rates(store, lags) == want._replace(prob_seen={}, prob_seen_page={})
        assert compute_refind(store) == want._replace(replacement={}, new_story={})
        assert compute_report(store) == oracle_report(store)
        counts = oracle_transition_counts(store)
        assert [list(row) for row in transition_matrix(store.build_timelines()).counts] == counts
        # what no pinned store holds: moves between pages, and re-entries
        assert sum(counts[i][j] for i in range(1, 6) for j in range(1, 6) if i != j) > 100
        assert sum(counts[0][1:]) > 50

    @pytest.mark.parametrize(
        "make, report_sha, counts_sha",
        [
            (
                _readme_store,
                "ad4afe68a873f64e6adb69e0d2faa96f240ebb98d5c09480b6f0c8eb5e9ed7fd",
                "6d3d98594a7e4943bc7f39c86f1c106f50292f47b7559254b1e9965ce895c06a",
            ),
            (
                _gapped_store_with_a_repeat,
                "3733697203dcfc24cc4dbf509a0db41b761aa892ccb52d3cd888e4b08d18b6fa",
                "ba237e45d2412b85398f1e4c43e0d3ae6daad1528f592d570f82bd30a4e07fea",
            ),
            (
                _news_store,
                "6a95f34a42dd0db4a666c08c7a890e5abcc77ea81f54e1bd4710b4be8d09dcd3",
                "2648171bb8508ec5f1899fc2dbc0a4ee4cfdf3506e6de4dc93ab67b551881984",
            ),
        ],
        ids=["readme", "gaps-and-a-repeat", "news"],
    )
    def test_the_oracle_keeps_its_pinned_numbers(self, make, report_sha, counts_sha):
        """The judge's own report and counts, pinned to fixed bytes, so that
        no rewrite of the oracle changes what it computes."""
        store = make()
        assert _sha256(report_to_csv(oracle_report(store))) == report_sha
        assert _sha256(repr(oracle_transition_counts(store))) == counts_sha
