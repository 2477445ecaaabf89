from __future__ import annotations

from sascone import default_checks, replay_tables
from sascone.goldens import GoldenCheck


def test_full_replay_passes():
    outcomes = replay_tables()
    assert len(outcomes) >= 20
    failures = [o for o in outcomes if not o.ok]
    assert failures == []


def test_checks_cover_all_published_tables():
    ids = {o.check.check_id for o in replay_tables()}
    assert "bouquet4/m0/range" in ids
    assert "bouquet2/m3/range" in ids
    assert "family-12-1/range/l2=4" in ids
    assert "family-4-3/range/l2=1" in ids
    assert "zero-c1/l1=3,l2=13,w=(12,1)/range" in ids


def test_tampered_expected_value_is_caught():
    checks = default_checks()
    victim = next(c for c in checks if c.check_id == "bouquet4/m1/b_invariant")
    tampered = [c._replace(expected=99) if c is victim else c for c in checks]
    outcomes = replay_tables(tampered)
    bad = [o for o in outcomes if not o.ok]
    assert len(bad) == 1 and bad[0].check.check_id == "bouquet4/m1/b_invariant"
    assert bad[0].got == 3


def test_injected_wrong_fano_index_is_caught():
    # perturb the base of the first bouquet row: pretend the 2-sphere had index 3
    checks = default_checks()
    tampered = []
    for c in checks:
        if c.check_id == "bouquet4/m0/range":
            tampered.append(
                GoldenCheck(c.check_id, c.op, {**c.args, "base": "custom:1:3"}, c.expected)
            )
        else:
            tampered.append(c)
    outcomes = replay_tables(tampered)
    bad = [o for o in outcomes if not o.ok]
    assert [o.check.check_id for o in bad] == ["bouquet4/m0/range"]
    assert bad[0].got["lower"] == "1/4"  # 1 - 3/4 instead of 1 - 2/4
