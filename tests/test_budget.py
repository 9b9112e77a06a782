"""Tests for repro.privacy.budget: sequential composition accounting."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy import BudgetExceededError, PrivacyBudgetLedger


class TestLedger:
    def test_fresh_principal_has_full_budget(self):
        ledger = PrivacyBudgetLedger(capacity=2.0)
        assert ledger.spent("w1") == 0.0
        assert ledger.remaining("w1") == 2.0

    def test_spend_accumulates(self):
        ledger = PrivacyBudgetLedger(capacity=2.0)
        assert ledger.spend("w1", 0.5) == 0.5
        assert ledger.spend("w1", 0.7) == pytest.approx(1.2)
        assert ledger.remaining("w1") == pytest.approx(0.8)

    def test_principals_are_independent(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.9)
        assert ledger.remaining("w2") == 1.0
        ledger.spend("w2", 0.9)

    def test_cap_enforced(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.8)
        with pytest.raises(BudgetExceededError):
            ledger.spend("w1", 0.3)
        # a failed spend records nothing
        assert ledger.spent("w1") == pytest.approx(0.8)

    def test_exact_cap_allowed(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.5)
        ledger.spend("w1", 0.5)
        assert ledger.remaining("w1") == pytest.approx(0.0)

    def test_can_spend(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w1", 0.6)
        assert ledger.can_spend("w1", 0.4)
        assert not ledger.can_spend("w1", 0.5)

    def test_history_and_total(self):
        ledger = PrivacyBudgetLedger(capacity=5.0)
        ledger.spend("a", 1.0)
        ledger.spend("b", 2.0)
        assert ledger.history == [("a", 1.0), ("b", 2.0)]
        assert ledger.total_spent() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudgetLedger(capacity=0.0)
        ledger = PrivacyBudgetLedger(capacity=1.0)
        with pytest.raises(ValueError):
            ledger.spend("w", 0.0)
        with pytest.raises(ValueError):
            ledger.can_spend("w", -0.1)


class TestLedgerRoundTrip:
    def test_to_dict_from_dict_preserves_everything(self):
        ledger = PrivacyBudgetLedger(capacity=2.0)
        ledger.spend("w1", 0.5)
        ledger.spend(7, 0.3)
        ledger.spend("w1", 0.25)
        restored = PrivacyBudgetLedger.from_dict(ledger.to_dict())
        assert restored.capacity == ledger.capacity
        assert restored.spent("w1") == pytest.approx(0.75)
        assert restored.spent(7) == pytest.approx(0.3)
        assert restored.history == ledger.history
        assert restored.min_remaining() == pytest.approx(ledger.min_remaining())

    def test_json_round_trip_keeps_integer_principals(self):
        import json

        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend(42, 0.5)
        restored = PrivacyBudgetLedger.from_dict(
            json.loads(json.dumps(ledger.to_dict()))
        )
        # pair-list encoding: 42 stays an int (a dict key would become "42")
        assert restored.spent(42) == pytest.approx(0.5)
        assert restored.spent("42") == 0.0

    def test_restored_ledger_keeps_enforcing_the_cap(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w", 0.8)
        restored = PrivacyBudgetLedger.from_dict(ledger.to_dict())
        with pytest.raises(BudgetExceededError):
            restored.spend("w", 0.3)
        restored.spend("w", 0.2)

    def test_rejects_malformed_payloads(self):
        ledger = PrivacyBudgetLedger(capacity=1.0)
        ledger.spend("w", 0.4)
        good = ledger.to_dict()
        with pytest.raises(ValueError, match="missing"):
            PrivacyBudgetLedger.from_dict({"capacity": 1.0})
        with pytest.raises(ValueError, match="outside"):
            PrivacyBudgetLedger.from_dict(
                {**good, "spent": [["w", 5.0]]}
            )
        with pytest.raises(ValueError, match="history"):
            PrivacyBudgetLedger.from_dict({**good, "history": []})


class TestWithMechanism:
    def test_repeated_reports_respect_cap(self, example1_tree):
        """A worker re-reporting its leaf spends its budget down and is cut
        off exactly when composition would exceed the cap."""
        from repro.privacy import TreeMechanism

        per_report = 0.3
        ledger = PrivacyBudgetLedger(capacity=1.0)
        mech = TreeMechanism(example1_tree, epsilon=per_report, seed=0)
        reports = 0
        while ledger.can_spend("worker-7", per_report):
            ledger.spend("worker-7", per_report)
            mech.obfuscate(example1_tree.path_of(0))
            reports += 1
        assert reports == 3  # floor(1.0 / 0.3)
        assert ledger.remaining("worker-7") == pytest.approx(0.1)


def _reference_spend_batch(balances: dict, capacity, principals, epsilon):
    """The whole-ledger cap check the array ledger must match bit for bit.

    ``balances`` maps principal -> spent in row order (first spend first).
    Every known principal is checked, lowest row first, against its total
    spend in the batch; the apply adds ``epsilon`` once per occurrence.
    Returns the rejection message, or ``None`` after applying the batch.
    """
    counts = Counter(principals)
    rows = list(balances) + [p for p in dict.fromkeys(principals) if p not in balances]
    for p in rows:
        spent = balances.get(p, 0.0)
        if spent + counts[p] * epsilon > capacity + 1e-12:
            return (
                f"principal {p!r} has {capacity - spent:.3f} of "
                f"{capacity} left; cannot spend {counts[p]} x "
                f"{epsilon} (batch of {len(principals)} rejected)"
            )
    for p in principals:
        balances[p] = balances.get(p, 0.0) + epsilon
    return None


class TestSpendBatch:
    def test_repeated_principal_at_the_cap_boundary(self):
        ledger = PrivacyBudgetLedger(1.0)
        # four repeats land exactly on the cap: allowed
        ledger.spend_batch(["u", "v", "u", "u", "u"], 0.25)
        assert ledger.spent("u") == 1.0
        assert ledger.remaining("v") == 0.75
        with pytest.raises(BudgetExceededError, match=r"'u' has 0\.000 .* 1 x 0\.25"):
            ledger.spend_batch(["w", "u"], 0.25)
        # one repeat too many: the total, not each occurrence, is checked
        with pytest.raises(BudgetExceededError, match=r"'v' .* 4 x 0\.25 \(batch of 5"):
            ledger.spend_batch(["v", "w", "v", "v", "v"], 0.25)
        ledger.spend_batch(["v", "w", "v", "v"], 0.25)
        assert ledger.spent("v") == 1.0
        assert ledger.principals == 3

    def test_rejection_names_the_lowest_offending_row(self):
        ledger = PrivacyBudgetLedger(1.0)
        ledger.spend("x", 0.9)
        ledger.spend("y", 0.9)
        with pytest.raises(BudgetExceededError, match="^principal 'x'"):
            ledger.spend_batch(["new", "y", "x"], 0.5)
        # all-or-nothing: the rejected batch left no row behind
        assert ledger.principals == 2
        assert ledger.to_dict()["spent"] == [["x", 0.9], ["y", 0.9]]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6),
                st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_the_whole_ledger_check(self, batches):
        ledger = PrivacyBudgetLedger(1.0)
        balances: dict = {}
        history: list = []
        for principals, epsilon in batches:
            expected = _reference_spend_batch(balances, 1.0, principals, epsilon)
            if expected is None:
                ledger.spend_batch(principals, epsilon)
                history += [(p, epsilon) for p in principals]
            else:
                with pytest.raises(BudgetExceededError) as err:
                    ledger.spend_batch(principals, epsilon)
                assert str(err.value) == expected
        # same rows in the same order, same floats bit for bit
        assert ledger.to_dict()["spent"] == [[p, v] for p, v in balances.items()]
        assert ledger.history == history
