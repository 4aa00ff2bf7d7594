import numpy as np
import pytest

from hierstream.core import ActionInstance, HierarchyLevel, Interval, validate_annotations
from hierstream.metrics.embedding import HashedBagOfWordsEmbedder
from hierstream.pipeline import (
    GroupingProposal,
    MockGroupingClient,
    check_consistency,
    default_bounds,
    kmeans_canonicalize,
    postprocess,
    proposal_to_annotations,
    propose_grouping,
)


def subs(*spans, descs=None):
    out = []
    for i, (a, b) in enumerate(spans):
        desc = descs[i] if descs else f"atom {i}"
        out.append(ActionInstance(Interval(float(a), float(b)), desc, HierarchyLevel.SUBSTEP))
    return out


FIVE = subs((0, 2), (2, 4), (5, 7), (7, 9), (10, 12))


class TestProposeGrouping:
    def test_mock_window_two(self):
        proposal = propose_grouping(FIVE, MockGroupingClient())
        assert proposal.groups == ((0, 1), (2, 3), (4, 4))
        assert len(proposal.step_descriptions) == 3
        assert proposal.goal_description

    def test_single_substep(self):
        proposal = propose_grouping(FIVE[:1], MockGroupingClient())
        assert proposal.groups == ((0, 0),)

    def test_unsorted_substeps_rejected(self):
        shuffled = [FIVE[1], FIVE[0]]
        with pytest.raises(ValueError):
            propose_grouping(shuffled, MockGroupingClient())

    def test_unparseable_reply_asked_once_then_raises_with_raw(self):
        # Re-asking is the HTTP layer's job, within its one retry budget
        # (tests/test_describer.py), so propose_grouping asks once.
        class Garbage:
            calls = 0

            def complete(self, prompt, parse):
                Garbage.calls += 1
                return parse("not json at all")

        with pytest.raises(ValueError) as err:
            propose_grouping(FIVE, Garbage())
        assert Garbage.calls == 1
        assert str(err.value) == "no JSON object in reply: 'not json at all'"

    def test_out_of_range_indices_rejected(self):
        class Bad:
            def complete(self, prompt, parse):
                return parse('{"steps": [{"substep_indices": [0, 99], "description": "x"}], "goal": "g"}')

        with pytest.raises(ValueError, match="substep indices out of range"):
            propose_grouping(FIVE, Bad())

    @pytest.mark.parametrize("step", ["[0, 1]", '{"substep_indices": 3}'])
    def test_step_without_a_list_of_indices_rejected(self, step):
        class Bad:
            def complete(self, prompt, parse):
                return parse(f'{{"steps": [{step}], "goal": "g"}}')

        with pytest.raises(ValueError, match="not an object with a list of indices"):
            propose_grouping(FIVE, Bad())


class TestPostprocess:
    def test_valid_proposal_unchanged(self):
        proposal = GroupingProposal(((0, 1), (2, 4)), ("a", "b"), "g")
        assert postprocess(proposal, FIVE) == proposal

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            spans = []
            t = 0.0
            for _ in range(n):
                length = float(rng.uniform(1, 3))
                spans.append((t, t + length))
                t += length + float(rng.uniform(0, 2))
            atoms = subs(*spans)
            groups = []
            i = 0
            while i < n:
                width = int(rng.integers(1, 4))
                hi = min(n - 1, i + width - 1)
                if rng.random() < 0.5:  # leave orphans sometimes
                    groups.append((i, hi))
                i = hi + 1 + int(rng.integers(0, 2))
            if not groups:
                groups = [(0, 0)]
            proposal = GroupingProposal(
                tuple(groups), tuple(f"s{k}" for k in range(len(groups))), "g",
            )
            once = postprocess(proposal, atoms)
            assert postprocess(once, atoms) == once
            assert check_consistency(once, atoms, (0.0, 1e9)).missing == ()

    def test_orphan_absorbed_into_nearer_earlier_group(self):
        # Orphan 2 sits 1s after group a, 3s before group b.
        atoms = subs((0, 2), (2, 4), (5, 7), (10, 12), (12, 14))
        proposal = GroupingProposal(((0, 1), (3, 4)), ("a", "b"), "g")
        fixed = postprocess(proposal, atoms)
        assert fixed.groups == ((0, 2), (3, 4))

    def test_orphan_absorbed_into_nearer_later_group(self):
        atoms = subs((0, 2), (2, 4), (9, 11), (12, 14), (14, 16))
        proposal = GroupingProposal(((0, 1), (3, 4)), ("a", "b"), "g")
        fixed = postprocess(proposal, atoms)
        assert fixed.groups == ((0, 1), (2, 4))

    def test_leading_and_trailing_orphans(self):
        proposal = GroupingProposal(((1, 2),), ("a",), "g")
        fixed = postprocess(proposal, FIVE)
        assert fixed.groups == ((0, 4),)

    def test_overlap_split_at_midpoint(self):
        atoms = subs((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
        proposal = GroupingProposal(((0, 3), (2, 5)), ("a", "b"), "g")
        fixed = postprocess(proposal, atoms)
        assert fixed.groups == ((0, 2), (3, 5))

    def test_empty_proposal_covers_everything(self):
        fixed = postprocess(GroupingProposal((), (), "g"), FIVE)
        assert fixed.groups == ((0, 4),)


class TestCheckConsistency:
    def test_clean_report(self):
        proposal = GroupingProposal(((0, 1), (2, 4)), ("a", "b"), "g")
        report = check_consistency(proposal, FIVE, (1.0, 20.0))
        assert report.missing == () and report.abnormal == ()

    def test_missing_listed(self):
        proposal = GroupingProposal(((0, 1),), ("a",), "g")
        report = check_consistency(proposal, FIVE, (1.0, 20.0))
        assert report.missing == (2, 3, 4)

    def test_duration_bounds(self):
        proposal = GroupingProposal(((0, 0), (1, 4)), ("a", "b"), "g")
        report = check_consistency(proposal, FIVE, (5.0, 8.0))
        kinds = {(g, kind) for g, _, kind in report.abnormal}
        assert (0, "min") in kinds and (1, "max") in kinds

    def test_default_bounds(self):
        assert default_bounds(100.0) == (1.0, 50.0)


class TestKMeans:
    def test_every_point_its_own_cluster(self):
        texts = [f"unique{i} token{i}" for i in range(5)]
        result = kmeans_canonicalize(texts, 5, HashedBagOfWordsEmbedder(), seed=0)
        assert sorted(result.assignments) == [0, 1, 2, 3, 4]
        assert result.objective_trace[-1] == pytest.approx(0.0, abs=1e-12)

    def test_two_blobs_recovered(self):
        blob_a = [f"chop carrots quickly style{i}" for i in range(10)]
        blob_b = [f"inflate bicycle tire pump{i}" for i in range(10)]
        texts = blob_a + blob_b
        result = kmeans_canonicalize(texts, 2, HashedBagOfWordsEmbedder(), seed=1)
        first = set(result.assignments[:10])
        second = set(result.assignments[10:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(5)
        texts = [
            " ".join(rng.choice(["wash", "cut", "fry", "plate", "bowl", "pan"], 4))
            for _ in range(40)
        ]
        k = min(6, len(set(texts)))
        result = kmeans_canonicalize(list(texts), k, HashedBagOfWordsEmbedder(), seed=2)
        trace = result.objective_trace
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_representatives_are_members_without_client(self):
        texts = ["stir the pot", "stir the soup", "pump the tire", "pump the wheel"]
        result = kmeans_canonicalize(texts, 2, HashedBagOfWordsEmbedder(), seed=0)
        for c, rep in enumerate(result.representatives):
            members = [texts[i] for i, a in enumerate(result.assignments) if a == c]
            assert rep in members

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans_canonicalize(["a b"], 2, HashedBagOfWordsEmbedder())

    def test_k_larger_than_distinct_rejected(self):
        with pytest.raises(ValueError):
            kmeans_canonicalize(["same text"] * 4, 2, HashedBagOfWordsEmbedder())

    def test_deterministic(self):
        texts = [f"activity {i % 7} flavour {i % 3}" for i in range(21)]
        a = kmeans_canonicalize(list(texts), 4, HashedBagOfWordsEmbedder(), seed=9)
        b = kmeans_canonicalize(list(texts), 4, HashedBagOfWordsEmbedder(), seed=9)
        assert a == b


def test_proposal_to_annotations_is_valid():
    proposal = postprocess(
        propose_grouping(FIVE, MockGroupingClient()), FIVE,
    )
    annotation = proposal_to_annotations("vid", 20.0, 4.0, FIVE, proposal)
    assert validate_annotations(annotation) == []
    steps = annotation.at_level(HierarchyLevel.STEP)
    assert len(steps) == len(proposal.groups)
    assert steps[0].interval == Interval(0.0, 4.0)
